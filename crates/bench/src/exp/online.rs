//! E16 — online serving: "dataflow systems that serve thousands of jobs
//! in parallel" (§2.1).
//!
//! A stream of mixed jobs (DBMS queries, ML trainings, streaming windows)
//! arrives with exponential-ish gaps. We measure the mean job *sojourn*
//! (arrival → last task finish) under the full declarative runtime and
//! under the compute-centric baseline, across arrival rates. The shape:
//! the declarative runtime holds lower sojourn at every load.

use disagg_core::prelude::*;
use disagg_hwsim::presets::single_server;
use disagg_hwsim::rng::SimRng;
use disagg_workloads::{dbms, ml, streaming};

use crate::{fmt_dur, fmt_ratio, Scenario, Shape, Table};

fn job_mix(i: usize, scenario: &Scenario) -> JobSpec {
    let scale = if scenario.quick { 1 } else { 2 };
    match i % 3 {
        0 => dbms::query_job(dbms::DbmsConfig {
            tuples: 2_000 * scale,
            probe_tuples: 1_000 * scale,
            seed: scenario.stream(42 + i as u64),
            ..dbms::DbmsConfig::default()
        }),
        1 => ml::training_job(ml::MlConfig {
            samples: 1_024 * scale,
            epochs: 1,
            seed: scenario.stream(7 + i as u64),
            ..ml::MlConfig::default()
        }),
        _ => streaming::windowed_job(streaming::StreamConfig {
            events: 2_000 * scale,
            seed: scenario.stream(13 + i as u64),
            ..streaming::StreamConfig::default()
        }),
    }
}

fn mean_sojourn(
    config: RuntimeConfig,
    jobs: usize,
    gap_ns: u64,
    scenario: &Scenario,
) -> SimDuration {
    let (topo, _) = single_server();
    let mut rt = Runtime::new(topo, config);
    let mut rng = SimRng::new(scenario.stream(2_023));
    let mut at = 0u64;
    let arrivals: Vec<(SimDuration, JobSpec)> = (0..jobs)
        .map(|i| {
            let offset = SimDuration::from_nanos(at);
            // Exponential-ish gaps: uniform in [0.5, 1.5] x mean.
            at += gap_ns / 2 + rng.next_below(gap_ns.max(1));
            (offset, job_mix(i, scenario))
        })
        .collect();
    let offsets: Vec<SimDuration> = arrivals.iter().map(|(o, _)| *o).collect();
    let report = rt.execute(arrivals).expect("stream runs");
    // Sojourn per job: last task finish - arrival.
    let mut total = SimDuration::ZERO;
    for (j, &offset) in offsets.iter().enumerate() {
        let finish = report
            .tasks
            .iter()
            .filter(|t| t.job == JobId(j as u64))
            .map(|t| t.finish)
            .max()
            .expect("job ran");
        total += finish - (SimTime::ZERO + offset);
    }
    total / offsets.len() as u64
}

/// Runs E16: mean sojourn across arrival rates, light load (big gap)
/// first.
pub fn run(scenario: &Scenario) -> Table {
    let jobs = if scenario.quick { 9 } else { 30 };
    let gaps: &[u64] = if scenario.quick {
        &[1_000_000, 100_000, 10_000]
    } else {
        &[10_000_000, 1_000_000, 100_000, 10_000]
    };
    let mut t = Table::new(
        "online",
        "Online serving: mean job sojourn under arrival load",
        &["Mean gap", "Declarative", "Compute-centric", "Gap"],
    );
    let (mut sojourns, mut ratios) = (Vec::new(), Vec::new());
    for &gap_ns in gaps {
        let declarative = mean_sojourn(RuntimeConfig::traced(), jobs, gap_ns, scenario);
        let compute_centric = mean_sojourn(RuntimeConfig::compute_centric(), jobs, gap_ns, scenario);
        let ratio = compute_centric.as_nanos_f64() / declarative.as_nanos_f64();
        sojourns.push(declarative.as_nanos_f64());
        ratios.push(ratio);
        t.row(vec![
            fmt_dur(SimDuration::from_nanos(gap_ns)),
            fmt_dur(declarative),
            fmt_dur(compute_centric),
            fmt_ratio(ratio),
        ]);
    }
    t.note("mixed stream: DBMS / ML / streaming jobs with randomized inter-arrival gaps");
    t.claim(
        "declarative-no-slower-at-any-load",
        "the declarative runtime holds lower sojourn at every load level (compute-centric over declarative)",
        Shape::AtLeast(1.0),
        ratios,
    );
    t.claim(
        "load-never-reduces-sojourn",
        "declarative mean sojourn (ns) does not improve as arrivals tighten",
        Shape::Ascending { slack: 0.1 },
        sojourns,
    );
    t
}
