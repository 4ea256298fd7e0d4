//! Parallel experiment driver.
//!
//! Virtual time is single-threaded by design — one event loop per
//! [`Runtime`] keeps the simulation bit-for-bit deterministic. Sweeps
//! are not: the 17 experiments and intra-experiment config
//! sweeps are independent simulations, so the driver fans them across
//! cores with `std::thread::scope` (no external dependencies) and
//! merges results back in submission order. The merge is index-stable:
//! result `i` always lands in slot `i` no matter which worker finishes
//! first, so parallel output is byte-identical to a serial run.
//!
//! The driver also renders the machine-readable `BENCH_disagg.json`:
//! every table, every claim with its verdict — at the scenario's seed,
//! and across the [`seed_grid`] — plus the raw records behind three of
//! the tables, all virtual time, so the record is a pure function of
//! the source and a model change shows up as a diff. Host wall-clock is
//! `benchmark/`'s job; the only clock read here is the progress timer
//! on stderr.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use disagg_core::obs::{
    chrome_trace, folded_stacks, render_critical_paths, validate_chrome_trace, FullObserver,
    ObserverSlot,
};
use disagg_core::prelude::{RecoveryPolicy, Runtime, RuntimeConfig};
use disagg_dataflow::job::JobSpec;
use disagg_dataflow::task::TaskId;
use disagg_dataflow::{JobBuilder, TaskSpec};
use disagg_hwsim::compute::WorkClass;
use disagg_hwsim::fault::{FaultInjector, FaultKind};
use disagg_hwsim::presets::{
    disaggregated_rack, hetero_storage_server, single_server, two_socket,
};
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::topology::Topology;

use disagg_obs::json::escape;

use crate::apps::App;
use crate::{exp, Claim, Scenario, Table, Verdict};

/// The grid's seeds besides the record's: [`seed_grid`] re-runs the
/// suite at seeds `1..=SEEDS`.
pub const SEEDS: u64 = 10;

/// Order-preserving parallel map: runs `f` over `items` on up to
/// `threads` workers and returns results in input order. `threads <= 1`
/// degenerates to a serial loop (the byte-identical reference path).
pub fn sweep<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = threads.min(n);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i].lock().unwrap().take().expect("claimed once");
                let r = f(item);
                *results[i].lock().unwrap() = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled every slot"))
        .collect()
}

/// Runs the experiment suite — all of it, or the ids in `only` — at
/// `scenario` across `threads` workers, each experiment once. Tables
/// come back in registry order regardless of completion order; the
/// seconds each took go to stderr as progress (`id`, or `id@seed` off
/// the record's seed 0) and nowhere else.
pub fn run_experiments(only: &[String], scenario: &Scenario, threads: usize) -> Vec<Table> {
    let suite: Vec<exp::Experiment> = exp::all()
        .into_iter()
        .filter(|(id, _)| only.is_empty() || only.iter().any(|o| o == id))
        .collect();
    sweep(suite, threads, |(id, runner)| {
        let t = Instant::now();
        let table = runner(scenario);
        let label = match scenario.seed {
            0 => id.to_string(),
            seed => format!("{id}@{seed}"),
        };
        eprintln!("{label:<12} {:>8.3}s", t.elapsed().as_secs_f64());
        table
    })
}

/// The suite at `scenario`'s size and each seed `1..=`[`SEEDS`], as
/// `(seed, tables)` in seed order.
pub fn seed_grid(only: &[String], scenario: &Scenario, threads: usize) -> Vec<(u64, Vec<Table>)> {
    (1..=SEEDS)
        .map(|seed| (seed, run_experiments(only, &Scenario { seed, ..*scenario }, threads)))
        .collect()
}

/// The rack-scale event-loop stress workload: `jobs` layered DAGs of
/// `layers`×`width` small tasks each, every non-source task depending
/// on two tasks of the previous layer.
pub fn stress_jobs(jobs: usize, layers: usize, width: usize) -> Vec<JobSpec> {
    (0..jobs)
        .map(|j| {
            let mut job = JobBuilder::new(format!("sweep{j}"));
            let mut prev: Vec<TaskId> = Vec::new();
            for l in 0..layers {
                let cur: Vec<_> = (0..width)
                    .map(|i| {
                        job.task(
                            TaskSpec::new(format!("t{l}_{i}"))
                                .work(WorkClass::Scalar, 10_000)
                                .output_bytes(4096),
                        )
                    })
                    .collect();
                for (i, &t) in cur.iter().enumerate() {
                    if l > 0 {
                        job.edge(prev[i % prev.len()], t);
                        job.edge(prev[(i + 1) % prev.len()], t);
                    }
                }
                prev = cur;
            }
            job.build().expect("stress job is a valid DAG")
        })
        .collect()
}

/// A representative observed workload for one experiment id: the
/// topology, config, and jobs whose event stream stands in for the
/// experiment's behavior. Experiments construct their runtimes
/// internally (often many per sweep), so trace artifacts re-run one
/// matching workload with an observer attached instead of threading an
/// observer through every sweep point.
pub fn representative(
    id: &str,
    scenario: &Scenario,
) -> Option<(Topology, RuntimeConfig, Vec<JobSpec>)> {
    let config = RuntimeConfig::default();
    let dbms = || App::Dbms.job(scenario);
    let some = |topo: Topology, jobs: Vec<JobSpec>| Some((topo, config.clone(), jobs));
    match id {
        // Static tables: a small pipeline on the plain server stands in.
        "table1" | "table2" | "ingredients" | "fig3" => some(single_server().0, vec![dbms()]),
        // The CXL-pool rack of fig1 has no persistent tier, so the rack
        // representative is the fully disaggregated one.
        "fig1" => some(disaggregated_rack(4, 16, 4, 256).0, vec![dbms()]),
        "fig2" => some(single_server().0, vec![App::Hospital.job(scenario)]),
        // two_socket is DRAM-only, so the NUMA representative runs a
        // plain layered DAG (no persistent outputs to place).
        "numa" => some(two_socket().0, stress_jobs(1, 4, 4)),
        "fig4" => some(single_server().0, vec![App::Hpc.job(scenario)]),
        "naive" | "tiering" => some(hetero_storage_server().0, vec![dbms()]),
        "async" | "stream" => some(single_server().0, vec![App::Stream.job(scenario)]),
        "ftol" => some(disaggregated_rack(4, 16, 4, 256).0, vec![App::Ml.job(scenario)]),
        "online" => some(
            disaggregated_rack(4, 16, 4, 256).0,
            stress_jobs(if scenario.quick { 2 } else { 4 }, 4, 4),
        ),
        // The chaos representative crashes a node halfway through the
        // fault-free makespan (probed first), so the observer sees the
        // detect → retry path.
        "chaos" => {
            let mut probe = Runtime::new(disaggregated_rack(4, 16, 4, 256).0, config.clone());
            let t = probe.execute(vec![dbms()]).expect("chaos probe run").makespan;
            let (topo, rack) = disaggregated_rack(4, 16, 4, 256);
            let mut faults = FaultInjector::none();
            faults.schedule(SimTime(t.0 / 2), FaultKind::NodeCrash(rack.nodes[0]));
            faults.schedule(SimTime(t.0 / 2 + t.0 / 4), FaultKind::NodeRecover(rack.nodes[0]));
            let recovery = RecoveryPolicy::default()
                .with_detection_delay(SimDuration(2_000))
                .with_backoff(SimDuration(1_000));
            Some((topo, config.with_faults(faults).with_recovery(recovery), vec![dbms()]))
        }
        _ => None,
    }
}

/// The observability artifacts of one representative run.
#[derive(Debug, Clone)]
pub struct Artifacts {
    /// Experiment id the run represents.
    pub id: String,
    /// Perfetto-loadable Chrome trace-event JSON (validated).
    pub chrome_trace: String,
    /// Metrics snapshot as JSON.
    pub metrics_json: String,
    /// Folded flamegraph stacks (`job;task;layer count`).
    pub folded: String,
    /// Rendered top-3 critical paths with per-layer attribution.
    pub critical_paths: String,
}

/// Runs the representative workload for `id` with a full observer
/// attached and returns its artifacts. The emitted Chrome trace is
/// round-trip validated before being returned; a validation failure is
/// a bug, so it errors rather than writing a broken file.
pub fn observed_artifacts(id: &str, scenario: &Scenario) -> Option<Result<Artifacts, String>> {
    let (topo, config, jobs) = representative(id, scenario)?;
    let sink = Arc::new(Mutex::new(FullObserver::new()));
    let mut rt = Runtime::new(topo, config.with_observer(ObserverSlot::shared(sink.clone())));
    let report = match rt.execute(jobs) {
        Ok(r) => r,
        Err(e) => return Some(Err(format!("{id}: representative run failed: {e:?}"))),
    };
    let obs = sink.lock().expect("observer lock");
    let doc = chrome_trace(&obs.events, rt.topology());
    if let Err(e) = validate_chrome_trace(&doc) {
        return Some(Err(format!("{id}: emitted chrome trace is invalid: {e}")));
    }
    let metrics_json = obs.registry.snapshot().to_json();
    let (spans, paths) = report.critical_paths(3);
    Some(Ok(Artifacts {
        id: id.to_string(),
        chrome_trace: doc,
        metrics_json,
        folded: folded_stacks(&spans),
        critical_paths: render_critical_paths(&spans, &paths),
    }))
}

/// One traced saturation serving pass rendered as Perfetto documents:
/// the full trace (device lanes plus one request-span lane per tenant)
/// and the exemplar-only view (each tenant's p99 exemplar requests
/// broken into latency-component segments). Both documents are
/// validated before being returned, so callers never write a file
/// Perfetto would reject.
pub fn serving_trace_artifacts(scenario: &Scenario) -> Result<(String, String), String> {
    let layer = exp::serving::templates();
    let cfg = exp::serving::saturated_config(scenario);
    let (topo, _rack) = disaggregated_rack(4, 8, 2, 32);
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());
    let report = layer
        .run(&mut rt, &cfg)
        .map_err(|e| format!("serving trace pass failed: {e}"))?;
    let doc = disagg_core::obs::serving_chrome_trace(
        rt.trace().events(),
        rt.topology(),
        &report.spans,
    );
    let stats = validate_chrome_trace(&doc).map_err(|e| format!("invalid serving trace: {e}"))?;
    if stats.request_spans != report.admitted {
        return Err(format!(
            "serving trace carries {} request spans for {} admitted requests",
            stats.request_spans, report.admitted
        ));
    }
    let exemplars = disagg_core::obs::exemplar_chrome_trace(&report.spans)
        .ok_or("serving pass produced no exemplar requests")?;
    validate_chrome_trace(&exemplars).map_err(|e| format!("invalid exemplar trace: {e}"))?;
    Ok((doc, exemplars))
}

/// Every claim that does not hold, as `experiment.id FAILS (margin …):
/// text [shape]` — what `exp_driver` prints on stderr and `--verify`
/// exits 1 on.
pub fn failed_claims(tables: &[Table]) -> Vec<String> {
    verdicts(tables)
        .filter(|(_, _, v)| !v.holds)
        .map(|(t, c, _)| format!("{}.{}", t.id, c.describe(t)))
        .collect()
}

/// Every claim of every table with its verdict, in registry order.
fn verdicts(tables: &[Table]) -> impl Iterator<Item = (&Table, &Claim, Verdict)> {
    tables.iter().flat_map(|t| t.claims.iter().map(move |c| (t, c, c.evaluate(t))))
}

/// How one claim fares across a seed grid.
struct Spread {
    /// Grid seeds the claim holds at.
    held: usize,
    /// Grid seeds.
    seeds: usize,
    /// The worst verdict — a failure before a pass, then the smaller
    /// margin — and its seed, the lowest on ties; `None` on an empty
    /// grid.
    worst: Option<(u64, Verdict)>,
}

impl Spread {
    /// `claim` of `table` at every seed of `grid`. A seed whose suite
    /// lacks the claim counts as a failure without a margin.
    fn of(grid: &[(u64, Vec<Table>)], table: &Table, claim: &Claim) -> Spread {
        let at: Vec<(u64, Verdict)> = grid
            .iter()
            .map(|(seed, tables)| {
                let found = verdicts(tables).find(|(t, c, _)| t.id == table.id && c.id == claim.id);
                (*seed, found.map_or(Verdict { holds: false, margin: None }, |(_, _, v)| v))
            })
            .collect();
        // A missing margin ranks below every failure and above every pass.
        let rank = |v: &Verdict| {
            (v.holds, v.margin.unwrap_or(if v.holds { f64::INFINITY } else { f64::NEG_INFINITY }))
        };
        Spread {
            held: at.iter().filter(|(_, v)| v.holds).count(),
            seeds: at.len(),
            worst: at.into_iter().min_by(|(_, a), (_, b)| {
                let (a, b) = (rank(a), rank(b));
                a.0.cmp(&b.0).then(a.1.total_cmp(&b.1))
            }),
        }
    }

    /// `k/n`, the record's `holds_in`.
    fn holds_in(&self) -> String {
        format!("{}/{}", self.held, self.seeds)
    }
}

/// The form EXPERIMENTS.md embeds: a scorecard with one row per claim —
/// its verdict at the tables' seed, and in how many of `grid`'s seeds it
/// holds with the worst of them — then every table, both in registry
/// order.
pub fn markdown(tables: &[Table], grid: &[(u64, Vec<Table>)]) -> String {
    let mut out = String::from(
        "| Experiment | Claim | Shape | Holds | Margin | Seeds |\n|---|---|---|---|---|---|\n",
    );
    for (t, c, v) in verdicts(tables) {
        let spread = Spread::of(grid, t, c);
        let seeds = match spread.worst {
            Some((seed, Verdict { margin: Some(m), .. })) => {
                format!("{}, min {m:.4} at seed {seed}", spread.holds_in())
            }
            Some((seed, Verdict { holds: false, .. })) => {
                format!("{}, fails at seed {seed}", spread.holds_in())
            }
            _ => spread.holds_in(),
        };
        out.push_str(&format!(
            "| `{}` | `{}`: {} | {} | {} | {} | {seeds} |\n",
            t.id,
            c.id,
            c.text,
            c.shape,
            if v.holds { "yes" } else { "NO" },
            v.margin.map_or("—".to_string(), |m| format!("{m:.4}")),
        ));
    }
    for t in tables {
        out.push('\n');
        out.push_str(&t.render_markdown());
    }
    out
}

/// Renders the machine-readable benchmark record (`BENCH_disagg.json`)
/// of `tables`, run at `scenario`: every table, every claim with its
/// verdict and how it fares across `grid` (`holds_in` seeds of the
/// grid's, and the worst verdict's `min_margin` and `min_seed`), then
/// the raw-record fragments the tables carry — at the top level, or
/// grouped under the object a fragment names. Hand-rolled JSON keeps
/// the workspace dependency-free.
pub fn bench_json(tables: &[Table], grid: &[(u64, Vec<Table>)], scenario: &Scenario) -> String {
    let number = |m: Option<f64>| m.map_or("null".to_string(), |m| format!("{m:.4}"));
    let experiments: Vec<String> = tables.iter().map(|t| format!("    {}", t.to_json())).collect();
    let claims: Vec<String> = verdicts(tables)
        .map(|(t, c, v)| {
            let spread = Spread::of(grid, t, c);
            format!(
                "    {{\"experiment\": \"{}\", \"id\": \"{}\", \"text\": \"{}\",\n     \
                 \"shape\": \"{}\", \"holds\": {}, \"margin\": {},\n     \
                 \"holds_in\": \"{}\", \"min_margin\": {}, \"min_seed\": {}}}",
                t.id,
                c.id,
                escape(&c.text),
                escape(&c.shape.to_string()),
                v.holds,
                number(v.margin),
                spread.holds_in(),
                number(spread.worst.and_then(|(_, v)| v.margin)),
                spread.worst.map_or("null".to_string(), |(seed, _)| seed.to_string()),
            )
        })
        .collect();
    let mut members = vec![
        "\"schema\": \"disagg-bench-v3\"".to_string(),
        format!("\"quick\": {}", scenario.quick),
        format!("\"experiments\": [\n{}\n  ]", experiments.join(",\n")),
        format!("\"claims\": [\n{}\n  ]", claims.join(",\n")),
    ];
    let mut objects: Vec<(&str, Vec<&str>)> = Vec::new();
    for f in tables.iter().filter_map(|t| t.record.as_ref()) {
        if f.parent.is_empty() {
            members.push(f.members.clone());
        } else if let Some((_, parts)) = objects.iter_mut().find(|(name, _)| *name == f.parent) {
            parts.push(&f.members);
        } else {
            objects.push((f.parent, vec![&f.members]));
        }
    }
    for (name, parts) in objects {
        members.push(format!("\"{name}\": {{\n{}\n  }}", parts.join(",\n")));
    }
    format!("{{\n  {}\n}}\n", members.join(",\n  "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fragment, Shape};

    #[test]
    fn sweep_preserves_input_order() {
        let items: Vec<usize> = (0..64).collect();
        let doubled = sweep(items.clone(), 8, |i| i * 2);
        assert_eq!(doubled, items.iter().map(|i| i * 2).collect::<Vec<_>>());
        let serial = sweep(items.clone(), 1, |i| i * 2);
        assert_eq!(doubled, serial);
    }

    #[test]
    fn bench_json_is_well_formed_enough() {
        let table = |id, record| {
            let mut t = Table::new(id, format!("Title of {id}"), &["Name", "Value"]);
            t.row(vec!["a".into(), "1".into()]);
            t.record = record;
            t
        };
        let frag = |parent, members: &str| Some(Fragment { parent, members: members.into() });
        let tables = vec![
            table("table1", None),
            table("chaos", frag("", "\"chaos\": [{\"slowdown\": 1.5000}]")),
            table("serving", frag("serving", "\"tenants\": 2, \"sweep\": []")),
            table("chaos_serve", frag("serving", "\"chaos\": {\"rows\": []}")),
        ];
        let s = bench_json(&tables, &[], &Scenario { quick: true, seed: 0 });
        let v = disagg_obs::json::parse(&s).expect("the record is valid JSON");
        assert_eq!(v.get("schema").and_then(|v| v.as_str()), Some("disagg-bench-v3"));
        assert_eq!(v.get("quick"), Some(&disagg_obs::json::Value::Bool(true)));
        let exps = v.get("experiments").and_then(|v| v.as_arr()).expect("experiments");
        let ids: Vec<_> = exps.iter().map(|e| e.get("id").and_then(|v| v.as_str())).collect();
        assert_eq!(ids, [Some("table1"), Some("chaos"), Some("serving"), Some("chaos_serve")]);
        assert_eq!(exps[0].get("rows").and_then(|v| v.as_arr()).map(<[_]>::len), Some(1));
        // Top-level fragments stand alone; fragments naming the same
        // object merge into it.
        let chaos = v.get("chaos").and_then(|v| v.as_arr()).expect("chaos section");
        assert_eq!(chaos[0].get("slowdown").and_then(|v| v.as_f64()), Some(1.5));
        let serving = v.get("serving").expect("serving section");
        assert_eq!(serving.get("tenants").and_then(|v| v.as_f64()), Some(2.0));
        assert!(serving.get("chaos").and_then(|c| c.get("rows")).is_some(), "serving.chaos nests");
        // A partial suite simply lacks the sections nobody measured.
        let partial = disagg_obs::json::parse(&bench_json(&tables[..1], &[], &Scenario::default())).unwrap();
        assert!(partial.get("chaos").is_none() && partial.get("serving").is_none());
    }

    /// `exp_driver --verify` exits 1 exactly when this list is not
    /// empty, so a hand-built failure stands in for a flag to force one.
    #[test]
    fn a_claim_that_does_not_hold_is_what_verify_reports() {
        use disagg_obs::json::{parse, Value};
        let mut t = Table::new("t", "Test", &["Name", "Value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.claim("a-is-one", "a reads 1", Shape::Cells(vec![["a", "Value", "1"]]), vec![]);
        assert!(failed_claims(std::slice::from_ref(&t)).is_empty());
        t.claim("big-enough", "the value reaches 2", Shape::AtLeast(2.0), vec![1.0]);
        let tables = [t];
        let failed = "big-enough FAILS (margin -0.5000): the value reaches 2 [every value >= 2]";
        assert_eq!(failed_claims(&tables), [format!("t.{failed}")]);
        // Every rendering carries the same verdict.
        assert!(tables[0].render().ends_with(&format!("claim: {failed}\n")));
        let row = "| `t` | `big-enough`: the value reaches 2 | every value >= 2 | NO | -0.5000 |";
        assert!(markdown(&tables, &[]).contains(row));
        let v = parse(&bench_json(&tables, &[], &Scenario::default())).expect("valid JSON");
        let claims = v.get("claims").and_then(Value::as_arr).expect("claims");
        assert_eq!(claims[0].get("holds"), Some(&Value::Bool(true)));
        assert_eq!(claims[0].get("margin"), Some(&Value::Null));
        assert_eq!(claims[1].get("experiment").and_then(Value::as_str), Some("t"));
        assert_eq!(claims[1].get("id").and_then(Value::as_str), Some("big-enough"));
        assert_eq!(claims[1].get("holds"), Some(&Value::Bool(false)));
        assert_eq!(claims[1].get("margin").and_then(Value::as_f64), Some(-0.5));
    }

    /// A claim's grid columns: in how many seeds it holds, and its worst
    /// verdict — a failure first, the smaller margin next, the lower
    /// seed on ties — with the seed that gave it.
    #[test]
    fn the_seed_columns_count_the_grid_and_name_its_worst_seed() {
        use disagg_obs::json::{parse, Value};
        let table = |value: Option<f64>| {
            let mut t = Table::new("t", "Test", &["Name", "Value"]);
            t.row(vec!["a".into(), "1".into()]);
            t.claim("a-is-one", "a reads 1", Shape::Cells(vec![["a", "Value", "1"]]), vec![]);
            if let Some(x) = value {
                t.claim("big-enough", "the value reaches 2", Shape::AtLeast(2.0), vec![x]);
            }
            t
        };
        let tables = [table(Some(4.0))];
        let grid: Vec<(u64, Vec<Table>)> =
            [3.0, 1.0, 8.0, 1.0].iter().zip(1..).map(|(&x, seed)| (seed, vec![table(Some(x))])).collect();
        let row = "| `t` | `big-enough`: the value reaches 2 | every value >= 2 | yes | 0.5000 | \
                   2/4, min -0.5000 at seed 2 |";
        assert!(markdown(&tables, &grid).contains(row), "{}", markdown(&tables, &grid));
        assert!(markdown(&tables, &grid).contains("| yes | — | 4/4 |"), "a cell claim has no margin");
        let v = parse(&bench_json(&tables, &grid, &Scenario::default())).expect("valid JSON");
        let claims = v.get("claims").and_then(Value::as_arr).expect("claims");
        let field = |i: usize, k: &str| claims[i].get(k).cloned();
        assert_eq!(field(0, "holds_in"), Some(Value::Str("4/4".into())));
        assert_eq!(field(0, "min_margin"), Some(Value::Null));
        assert_eq!(field(0, "min_seed").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(field(1, "holds_in"), Some(Value::Str("2/4".into())));
        assert_eq!(field(1, "min_margin").and_then(|v| v.as_f64()), Some(-0.5));
        assert_eq!(field(1, "min_seed").and_then(|v| v.as_f64()), Some(2.0));
        // A seed whose suite lacks the claim is a failure with no margin,
        // worse than any failure that has one.
        let lacking = [(1, vec![table(Some(1.0))]), (5, vec![table(None)])];
        assert!(markdown(&tables, &lacking).contains("| 0.5000 | 0/2, fails at seed 5 |"));
    }
}
