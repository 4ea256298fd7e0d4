//! `run`: set up a workload, repeat passes, derive the metrics, check
//! the outputs, print.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::procstat::{peak_rss_mib, ProcStat};
use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{
    self, median, percentile, sorted_completed, tail_percentile, within_limit_share,
};
use crate::tracer::Tracer;
use crate::workloads::apps_chaos::AppsChaos;
use crate::workloads::batch_dag::BatchDag;
use crate::workloads::serve::{Kind, Serve};
use crate::workloads::{PassOutcome, Size, Workload};
use crate::{flag_value, Failure};

/// Set-up is milliseconds at most, so it is timed in bursts of this many
/// readings.
const SETUP_BURST: usize = 20;
/// Bursts after the one before the first pass, spread evenly over the
/// timed passes: a slow phase of the box outlasts any single burst.
/// Bursts rather than a reading after every pass, because a pass that
/// follows a child process starts on cold caches.
const SETUP_LATER_BURSTS: usize = 4;
/// A timed run never stops before this many passes.
const MIN_PASSES: usize = 3;

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    /// Set up the workload and exit: how the parent times set-up.
    setup_only: bool,
}

pub fn main(args: &[String]) -> Result<(), Failure> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out: None,
        setup_only: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let bad = |what: &str, v: &str| Failure::Usage(format!("{a}: '{v}' is not {what}"));
        match a.as_str() {
            "--workload" => {
                let w = flag_value(a, &mut it)?;
                if !WORKLOADS.contains(&w) {
                    return Err(Failure::Usage(format!("unknown workload '{w}'")));
                }
                o.workload = Some(w.to_string());
            }
            "--seed" => {
                let v = flag_value(a, &mut it)?;
                o.seed = v.parse().map_err(|_| bad("a whole number", v))?;
            }
            "--seconds" => {
                let v = flag_value(a, &mut it)?;
                o.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number", v))?;
            }
            "--trace" => {
                o.trace = match flag_value(a, &mut it)? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad("0 or 1", v)),
                };
            }
            "--smoke" => o.smoke = true,
            "--setup-only" => o.setup_only = true,
            "--out" => o.out = Some(PathBuf::from(flag_value(a, &mut it)?)),
            other => return Err(Failure::Usage(format!("unknown option '{other}'"))),
        }
    }
    match o.workload.clone() {
        Some(w) if o.setup_only => {
            std::hint::black_box(setup(
                &w,
                o.seed,
                if o.smoke { Size::Smoke } else { Size::Full },
            ));
            Ok(())
        }
        Some(w) => run_one(&w, &o),
        None if o.setup_only => Err(Failure::Usage("--setup-only needs --workload".into())),
        None => run_all(&o),
    }
}

/// Every workload in its own child process, so `peak_rss_mib` and
/// allocator state are per workload.
fn run_all(o: &Opts) -> Result<(), Failure> {
    if let Some(out) = &o.out {
        std::fs::write(out, "").map_err(|e| format!("{}: {e}", out.display()))?;
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut failed = Vec::new();
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w, "--seed", &o.seed.to_string()]);
        cmd.args([
            "--seconds",
            &o.seconds.to_string(),
            "--trace",
            if o.trace { "1" } else { "0" },
        ]);
        if o.smoke {
            cmd.arg("--smoke");
        }
        if let Some(out) = &o.out {
            cmd.arg("--out").arg(out);
        }
        let status = cmd.status().map_err(|e| format!("spawn {w}: {e}"))?;
        if !status.success() {
            failed.push(w);
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(Failure::Failed(format!(
            "workloads failed: {}",
            failed.join(" ")
        )))
    }
}

fn setup(workload: &str, seed: u64, size: Size) -> Box<dyn Workload> {
    match workload {
        "batch_dag" => Box::new(BatchDag::setup(seed, size)),
        "serve_bulk" => Box::new(Serve::setup(Kind::Bulk, seed, size)),
        "serve_ctrl" => Box::new(Serve::setup(Kind::Ctrl, seed, size)),
        "apps_chaos" => Box::new(AppsChaos::setup(seed, size)),
        other => unreachable!("workload '{other}' passed the command-line check"),
    }
}

/// What a run of passes measured on the host clock, and whether the
/// passes agreed with each other.
struct Passes {
    /// The first pass's outcome; every later pass must equal it.
    first: PassOutcome,
    wall_s: Vec<f64>,
    minflt: Vec<u64>,
    /// `VmHWM` after the first pass: what one pass needs in a fresh
    /// process. Later passes creep up by a seed-dependent 5–35 % as the
    /// allocator's heap fragments, and a faster build runs more of them.
    rss_mib: f64,
    user_s: f64,
    sys_s: f64,
    /// Jobs, requests and checks attempted, and how many failed.
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// How set-up is timed once (in seconds), and the readings so far.
struct SetupClock<'a> {
    time_once: &'a mut dyn FnMut() -> Result<f64, String>,
    samples_s: Vec<f64>,
}

impl SetupClock<'_> {
    /// Takes readings until there are `want`.
    fn fill(&mut self, want: usize) -> Result<(), String> {
        while self.samples_s.len() < want {
            self.samples_s.push((self.time_once)()?);
        }
        Ok(())
    }
}

/// Repeats passes until `seconds` and `min_passes` are both met (or
/// exactly `min_passes` when `seconds` is 0). No pass is discarded.
/// Between passes it takes the set-up readings that are due, if asked.
fn passes(
    wl: &dyn Workload,
    t: &mut Tracer,
    pass0: u32,
    seconds: f64,
    min_passes: usize,
    mut setup: Option<&mut SetupClock>,
) -> Result<Passes, String> {
    if let Some(setup) = &mut setup {
        setup.fill(SETUP_BURST)?;
    }
    let begun = Instant::now();
    let mut p: Option<Passes> = None;
    let mut n = 0usize;
    while n < min_passes || begun.elapsed().as_secs_f64() < seconds {
        t.set_pass(pass0 + n as u32);
        let before = ProcStat::now()?;
        let t0 = Instant::now();
        let out = t.span("bench.pass", |t| wl.pass(t))?;
        let wall = t0.elapsed().as_secs_f64();
        let after = ProcStat::now()?;
        n += 1;

        let refused = out.latencies.iter().filter(|l| l.is_none()).count();
        let attempted = (out.latencies.len() + out.checks) as u64;
        let failed = (refused + out.check_failures.len()) as u64;
        let p = match &mut p {
            None => p.insert(Passes {
                failures: out.check_failures.clone(),
                first: out,
                wall_s: Vec::new(),
                minflt: Vec::new(),
                rss_mib: peak_rss_mib()?,
                user_s: 0.0,
                sys_s: 0.0,
                attempted,
                failed,
            }),
            Some(p) => {
                // One more check per pass: it repeats the first, digest
                // and every count.
                p.attempted += attempted + 1;
                p.failed += failed;
                if out != p.first {
                    p.failed += 1;
                    p.failures.push(format!(
                        "pass {n} differs from pass 1 (digest {:#018x} vs {:#018x})",
                        out.digest, p.first.digest
                    ));
                }
                p
            }
        };
        p.wall_s.push(wall);
        p.minflt.push(after.minflt - before.minflt);
        p.user_s += after.utime_s - before.utime_s;
        p.sys_s += after.stime_s - before.stime_s;

        if let Some(setup) = &mut setup {
            let due = (begun.elapsed().as_secs_f64() / seconds.max(1e-9)).min(1.0);
            setup.fill(SETUP_BURST * (1 + (SETUP_LATER_BURSTS as f64 * due) as usize))?;
        }
    }
    Ok(p.expect("min_passes is at least 1"))
}

/// Metric values by name, in declaration order when printed.
type Values = BTreeMap<&'static str, f64>;

fn set(
    values: &mut Values,
    declared: &[(&'static str, &'static str)],
    name: &str,
    v: f64,
) -> Result<(), String> {
    let &(key, _) = declared
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or(format!("metric '{name}' is not declared in spec.rs"))?;
    if !v.is_finite() {
        return Err(format!("metric '{name}' is not a finite number: {v}"));
    }
    values.insert(key, v);
    Ok(())
}

fn run_one(workload: &str, o: &Opts) -> Result<(), Failure> {
    let size = if o.smoke { Size::Smoke } else { Size::Full };

    // Set-up is what a process pays before its first pass: starting,
    // parsing arguments, registering templates, generating inputs,
    // computing reference outputs. It is timed by doing exactly that in
    // a child process.
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut time_setup = || -> Result<f64, String> {
        let t0 = Instant::now();
        let status = Command::new(&exe)
            .args([
                "run",
                "--workload",
                workload,
                "--seed",
                &o.seed.to_string(),
                "--setup-only",
            ])
            .args(if o.smoke { &["--smoke"][..] } else { &[] })
            .status()
            .map_err(|e| format!("spawn set-up: {e}"))?;
        let took = t0.elapsed().as_secs_f64();
        if status.success() {
            Ok(took)
        } else {
            Err(format!("{workload}: set-up child failed"))
        }
    };
    let wl = setup(workload, o.seed, size);
    measure(workload, wl, &mut time_setup, o)
}

/// Runs the passes of one set-up workload, prints its metrics and its
/// result; fails when any check failed.
fn measure(
    workload: &str,
    wl: Box<dyn Workload>,
    time_setup: &mut dyn FnMut() -> Result<f64, String>,
    o: &Opts,
) -> Result<(), Failure> {
    // Passes. A traced run splits its time: untraced passes for the
    // reference, traced passes for the spans, the rest for replay.
    let (seconds, min_passes) = match (o.smoke, o.trace) {
        (true, _) => (0.0, 2),
        (false, false) => (o.seconds, MIN_PASSES),
        (false, true) => (o.seconds / 3.0, MIN_PASSES),
    };
    let mut off = Tracer::new(false);
    let mut setup_clock = SetupClock {
        time_once: time_setup,
        samples_s: Vec::new(),
    };
    // Set-up is an end-to-end metric: the traced run does not time it.
    let timed = passes(
        wl.as_ref(),
        &mut off,
        0,
        seconds,
        min_passes,
        (!o.trace).then_some(&mut setup_clock),
    )?;
    let first = &timed.first;
    let host_s_per_pass = stats::undisturbed(&timed.wall_s);

    // The rate ladder (virtual time only) and the sim metrics.
    let mut tracer = Tracer::new(o.trace);
    let ladder_t0 = Instant::now();
    let ladder_rate = wl.max_rate_in_slo(&mut tracer)?;
    let ladder_s = ladder_t0.elapsed().as_secs_f64();
    let completed = sorted_completed(&first.latencies);
    if completed.is_empty() {
        return Err(Failure::Failed(format!(
            "{workload}: no job or request completed"
        )));
    }
    let tail_p = tail_percentile(completed.len());
    let goodput = match wl.latency_limit_ns() {
        Some(limit) => within_limit_share(&first.latencies, limit),
        None => completed.len() as f64 / first.latencies.len() as f64,
    };
    // Without a ladder, the rate the rack sustained: completions per
    // virtual second.
    let rate = ladder_rate.unwrap_or(completed.len() as f64 * 1e9 / first.virtual_span_ns as f64);

    let mut failures = timed.failures.clone();
    let (mut attempted, mut failed) = (timed.attempted, timed.failed);
    let mut values = Values::new();
    if !o.trace {
        let e = &END_TO_END;
        set(
            &mut values,
            e,
            "setup_s",
            stats::undisturbed(&setup_clock.samples_s),
        )?;
        set(&mut values, e, "host_s_per_pass", host_s_per_pass)?;
        set(&mut values, e, "peak_rss_mib", timed.rss_mib)?;
        set(&mut values, e, "sim_makespan_ns", first.makespan_ns as f64)?;
        set(
            &mut values,
            e,
            "sim_latency_p50_ns",
            percentile(&completed, 0.50) as f64,
        )?;
        set(
            &mut values,
            e,
            "sim_latency_tail_ns",
            percentile(&completed, tail_p) as f64,
        )?;
        set(&mut values, e, "sim_goodput_share", goodput)?;
        set(&mut values, e, "sim_max_rate_in_slo_rps", rate)?;
        set(&mut values, e, "sim_fault_slowdown", first.fault_slowdown)?;
    } else {
        let traced = passes(
            wl.as_ref(),
            &mut tracer,
            timed.wall_s.len() as u32,
            seconds,
            min_passes,
            None,
        )?;
        attempted += traced.attempted + 1;
        failed += traced.failed;
        failures.extend(traced.failures.iter().cloned());
        if traced.first != *first {
            failed += 1;
            failures.push("traced passes differ from untraced passes".into());
        }
        let replayed = wl.replay(first, &mut tracer)?;

        let l = &PER_LAYER;
        for (name, _) in PER_LAYER {
            values.insert(name, 0.0);
        }
        for &(name, v) in first.counters.iter().chain(&replayed) {
            set(&mut values, l, name, v)?;
        }
        let n = timed.wall_s.len() as f64;
        let pass_s = tracer.median_s("bench.pass");
        set(
            &mut values,
            l,
            "hwsim.topology_build_us",
            tracer.median_call_s("hwsim.topology_build") * 1e6,
        )?;
        set(
            &mut values,
            l,
            "core.runtime_new_us",
            tracer.median_call_s("core.runtime_new") * 1e6,
        )?;
        set(
            &mut values,
            l,
            "core.drop_ms_per_pass",
            tracer.median_s("core.drop") * 1e3,
        )?;
        set(
            &mut values,
            l,
            "core.execute_ms_per_pass",
            tracer.median_s("core.execute") * 1e3,
        )?;
        set(
            &mut values,
            l,
            "core.sim_bytes_moved",
            first.bytes_moved as f64,
        )?;
        let faults: Vec<f64> = timed.minflt.iter().map(|&f| f as f64).collect();
        set(
            &mut values,
            l,
            "region.minor_faults_per_pass",
            median(&faults),
        )?;
        set(&mut values, l, "region.first_pass_minor_faults", faults[0])?;
        set(&mut values, l, "bench.first_pass_s", timed.wall_s[0])?;
        set(
            &mut values,
            l,
            "bench.cpu_s_per_pass",
            (timed.user_s + timed.sys_s) / n,
        )?;
        set(
            &mut values,
            l,
            "bench.sys_share",
            timed.sys_s / (timed.user_s + timed.sys_s).max(1e-9),
        )?;
        set(
            &mut values,
            l,
            "bench.trace_overhead_share",
            stats::undisturbed(&traced.wall_s) / host_s_per_pass - 1.0,
        )?;
        set(&mut values, l, "bench.median_pass_s", median(&timed.wall_s))?;
        set(
            &mut values,
            l,
            "bench.own_share_of_pass",
            tracer.median_self_s("bench.pass") / pass_s,
        )?;
        set(
            &mut values,
            l,
            "bench.ladder_s",
            if ladder_rate.is_some() { ladder_s } else { 0.0 },
        )?;
        set(
            &mut values,
            l,
            "bench.failed_share",
            failed as f64 / attempted as f64,
        )?;
        set(&mut values, l, "bench.passes", n)?;
        set(
            &mut values,
            l,
            "bench.latency_samples",
            completed.len() as f64,
        )?;
        set(&mut values, l, "bench.tail_percentile", tail_p)?;
    }

    // Print: one line per metric, then the notes, then the result.
    let declared: &[(&str, &str)] = if o.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in declared {
        println!("{workload} {name} {} {unit}", values[name]);
    }
    println!(
        "# {workload}: seed {}, {} passes and {} set-up readings, none discarded; host_s_per_pass and setup_s \
         are the median of the fastest tenth; digest {:#018x}",
        o.seed,
        timed.wall_s.len(),
        setup_clock.samples_s.len(),
        first.digest
    );
    println!(
        "# {workload}: latency over {} completed of {} offered, nearest rank; tail is p{} ({}); \
         measured from the scheduled virtual arrival, generator lateness 0 by construction",
        completed.len(),
        first.latencies.len(),
        tail_p * 100.0,
        if tail_p == 1.0 {
            "the maximum: fewer than ten samples beyond p75"
        } else {
            "ten or more samples beyond"
        },
    );
    for f in &failures {
        println!("# {workload}: CHECK FAILED: {f}");
    }
    let correct = failures.is_empty();
    let metrics: Vec<String> = declared
        .iter()
        .map(|&(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                values[name]
            )
        })
        .collect();
    let result = format!(
        "\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}",
        metrics.join(", ")
    );

    if let Some(out) = &o.out {
        let record = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {}, \"trace\": {}, \"smoke\": {}, \"pass_s\": {:?}, \
             \"digest\": \"{:#018x}\", {result}}}\n",
            o.seed,
            u8::from(o.trace),
            o.smoke,
            timed.wall_s,
            first.digest,
        );
        append(out, &record)?;
        if o.trace {
            let path = out
                .parent()
                .unwrap_or(Path::new(""))
                .join(format!("trace-{workload}.json"));
            std::fs::write(&path, tracer.to_json())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    println!("{{{result}}}");
    if correct {
        Ok(())
    } else {
        Err(Failure::Failed(format!(
            "{workload}: {} of {attempted} failed",
            failed
        )))
    }
}

fn append(path: &Path, text: &str) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    f.write_all(text.as_bytes())
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(trace: bool) -> Opts {
        Opts {
            workload: None,
            seed: 1,
            seconds: 10.0,
            trace,
            smoke: true,
            out: None,
            setup_only: false,
        }
    }

    #[test]
    fn the_command_fails_when_a_check_fails() {
        let good = Box::new(AppsChaos::setup(1, Size::Smoke));
        assert!(measure("apps_chaos", good, &mut || Ok(0.001), &smoke(false)).is_ok());
        let bad = Box::new(AppsChaos::setup(1, Size::Smoke).expect_wrong_model());
        match measure("apps_chaos", bad, &mut || Ok(0.001), &smoke(false)) {
            Err(Failure::Failed(why)) => assert!(why.contains("failed"), "{why}"),
            _ => panic!("a wrong expected output must fail the command"),
        }
    }

    #[test]
    fn unknown_flags_and_workloads_are_usage_errors() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for bad in [
            &["--help"][..],
            &["--workload", "serving_mix"],
            &["--workload"],
            &["--trace", "2"],
            &["--seed", "one"],
            &["--seconds", "0"],
            &["--traced"],
        ] {
            assert!(
                matches!(main(&args(bad)), Err(Failure::Usage(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn a_traced_smoke_run_emits_every_declared_per_layer_metric() {
        for w in WORKLOADS {
            let wl = setup(w, 1, Size::Smoke);
            assert!(
                measure(w, wl, &mut || Ok(0.001), &smoke(true)).is_ok(),
                "{w}"
            );
        }
    }
}
