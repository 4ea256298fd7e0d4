//! The experiments' one input: the size they run at, the seed every
//! random stream they draw forks from, and where the runs they build
//! write their trace artifacts.

use std::path::PathBuf;

use disagg_core::obs::{
    chrome_trace, exemplar_chrome_trace, folded_stacks, render_critical_paths,
    serving_chrome_trace, validate_chrome_trace, MetricsRegistry, RequestSpan,
};
use disagg_core::prelude::{RunReport, Runtime, RuntimeConfig};
use disagg_hwsim::topology::Topology;
use disagg_serve::ServeReport;

/// What an experiment runs at. The default — full size, seed 0, no
/// artifacts — is the scenario `BENCH_disagg.json` records.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scenario {
    /// Shrink workloads to the CI size (`exp_driver --quick`).
    pub quick: bool,
    /// The seed every stream forks from.
    pub seed: u64,
    /// Where [`Scenario::observed`] writes each run's artifacts
    /// (`exp_driver --trace-out`); `None` writes nothing.
    pub trace_out: Option<TraceOut>,
}

/// Where the artifacts of an experiment's runs go: a directory, and the
/// experiment id every file name there starts with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOut {
    dir: PathBuf,
    exp: &'static str,
}

impl TraceOut {
    /// Artifacts under `dir`, which must exist; the driver names the
    /// experiment each of its runs belongs to.
    pub fn new(dir: impl Into<PathBuf>) -> TraceOut {
        TraceOut { dir: dir.into(), exp: "" }
    }
}

impl Scenario {
    /// The seed of the random stream an experiment names `tag`. At seed
    /// 0 it is `tag` itself, so the default scenario draws what the
    /// experiments drew before they had a seed; any other seed moves
    /// every stream at once, and distinct seeds never give one tag the
    /// same stream (the multiplier is odd, so it is a bijection).
    pub fn stream(&self, tag: u64) -> u64 {
        tag ^ self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// This scenario as experiment `id` runs it: its artifacts are named
    /// after `id`.
    pub(crate) fn of_experiment(&self, id: &'static str) -> Scenario {
        let trace_out = self.trace_out.as_ref().map(|t| TraceOut { exp: id, ..t.clone() });
        Scenario { trace_out, ..self.clone() }
    }

    /// The runtime of one experiment run. Every experiment builds its
    /// runtimes here and hands each to [`Scenario::observed`] once it has
    /// run, whose artifacts render the run's own trace: `config` must
    /// buffer one.
    pub fn runtime(&self, topo: Topology, config: RuntimeConfig) -> Runtime {
        assert!(config.trace, "an experiment runtime buffers its trace");
        Runtime::new(topo, config)
    }

    /// Writes the artifacts of the run `rt` just finished with `report`
    /// if the scenario has a [`TraceOut`], as `<exp>.<label>.{trace.json,
    /// folded.txt, critical.txt, metrics.json}`; `label` names the row the
    /// run feeds. Nothing is re-run: the files render the run's buffered
    /// trace, and the metrics are that trace folded through
    /// [`MetricsRegistry::of`], the run's one source of metrics. A trace
    /// that does not validate, or a file that cannot be written, panics.
    pub fn observed(&self, label: &str, rt: &Runtime, report: &RunReport) {
        self.write(label, rt, report, &[]);
    }

    /// [`Scenario::observed`] for a serving run: its trace also carries
    /// one request-span lane per tenant, and its exemplar-only view is
    /// `<exp>.<label>.exemplars.trace.json`.
    pub fn observed_serving(&self, label: &str, rt: &Runtime, report: &ServeReport) {
        self.write(label, rt, &report.run, &report.spans);
    }

    fn write(&self, label: &str, rt: &Runtime, report: &RunReport, spans: &[RequestSpan]) {
        let Some(out) = &self.trace_out else { return };
        let name = format!("{}.{label}", out.exp);
        let events = rt.trace().events();
        let trace = if spans.is_empty() {
            chrome_trace(events, rt.topology())
        } else {
            serving_chrome_trace(events, rt.topology(), spans)
        };
        let valid = |doc: &str| {
            validate_chrome_trace(doc).unwrap_or_else(|e| panic!("{name}: invalid trace: {e}"))
        };
        let request_spans = valid(&trace).request_spans;
        assert_eq!(request_spans, spans.len(), "{name}: the trace carries every request span");
        let mut files = vec![("trace.json", trace)];
        if !spans.is_empty() {
            let exemplars = exemplar_chrome_trace(spans).expect("a serving run has exemplars");
            valid(&exemplars);
            files.push(("exemplars.trace.json", exemplars));
        }
        let metrics = MetricsRegistry::of(events);
        let (task_spans, paths) = report.critical_paths(3);
        files.push(("folded.txt", folded_stacks(&task_spans)));
        files.push(("critical.txt", render_critical_paths(&task_spans, &paths)));
        files.push(("metrics.json", metrics.snapshot().to_json()));
        for (suffix, body) in &files {
            let path = out.dir.join(format!("{name}.{suffix}"));
            std::fs::write(&path, body).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        }
        eprintln!("trace artifacts: {}", out.dir.join(name).display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_identity_and_each_seed_its_own_stream() {
        let at = |quick, seed| Scenario { quick, seed, trace_out: None };
        for tag in [0, 7, 99, 2_023, 0xd15a66, u64::MAX] {
            assert_eq!(Scenario::default().stream(tag), tag);
            assert_eq!(at(true, 0).stream(tag), tag, "size is not a stream");
        }
        assert_eq!(at(false, 1).stream(0), 0x9E37_79B9_7F4A_7C15);
        assert_eq!(at(false, 2).stream(99), 0x3C6E_F372_FE94_F82A ^ 99);
        let tag = 0xd15a66;
        let streams: std::collections::BTreeSet<u64> =
            (1..=10).map(|seed| at(false, seed).stream(tag)).collect();
        assert_eq!(streams.len(), 10, "ten seeds, ten streams: {streams:x?}");
        assert!(!streams.contains(&tag), "no grid seed replays the record's stream");
    }
}
