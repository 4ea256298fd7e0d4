//! E3 — Table 3 and §2: what memory-centric placement, topology-aware
//! costs, HEFT and ownership transfer each buy. Every workload — each
//! app alone, and DBMS + ML + streaming co-scheduled — runs on the
//! server and on the rack under the full vision, with one ingredient
//! removed at a time, and with compute-centric placement; every run's
//! outputs are checked against its apps' references.

use disagg_core::prelude::*;
use disagg_hwsim::presets::{disaggregated_rack, single_server};
use disagg_sched::cost::TopologyAwareness;

use crate::apps::App;
use crate::{fmt_dur, fmt_ratio, Scenario, Shape, Table};

/// The workloads: each app alone, then the mixed batch.
const WORKLOADS: [(&str, &[App]); 6] = [
    ("dbms", &[App::Dbms]),
    ("ml", &[App::Ml]),
    ("stream", &[App::Stream]),
    ("hpc", &[App::Hpc]),
    ("hospital", &[App::Hospital]),
    ("mixed", &[App::Dbms, App::Ml, App::Stream]),
];

/// The configurations as `(column, config)`: the full vision, one
/// ingredient removed at a time, and compute-centric placement.
fn configs() -> [(&'static str, RuntimeConfig); 6] {
    let full = RuntimeConfig::traced;
    [
        ("Full", full()),
        ("- topology", full().with_awareness(TopologyAwareness::Blind)),
        ("- HEFT", full().with_sched(SchedPolicy::RoundRobin)),
        ("- transfer", full().with_handover(HandoverPolicy::AlwaysCopy)),
        ("- optimizer", full().with_placement(PlacementPolicy::WorstFeasible)),
        ("Compute-centric", full().with_placement(PlacementPolicy::ComputeCentric)),
    ]
}
// Indices into `configs()`, past the full vision at 0.
const BLIND: usize = 1;
const ROUND_ROBIN: usize = 2;
const COPY: usize = 3;
const WORST: usize = 4;
const COMPUTE_CENTRIC: usize = 5;

/// One workload on one topology under every configuration.
#[derive(Default)]
struct Row {
    topology: &'static str,
    workload: &'static str,
    makespan: [SimDuration; 6],
    bytes_moved: [u64; 6],
    /// Runs whose outputs differ from the references.
    mismatches: usize,
}

impl Row {
    /// Makespan under configuration `k` over the full vision's.
    fn slowdown(&self, k: usize) -> f64 {
        self.makespan[k].as_nanos_f64() / self.makespan[0].as_nanos_f64()
    }
}

fn measure(scenario: &Scenario) -> Vec<Row> {
    let topologies = [
        ("single_server", single_server().0),
        ("disaggregated_rack", disaggregated_rack(4, 16, 4, 256).0),
    ];
    let mut rows = Vec::new();
    for (topology, machine) in &topologies {
        for (workload, apps) in WORKLOADS {
            let mut row = Row { topology, workload, ..Row::default() };
            for (k, (column, config)) in configs().into_iter().enumerate() {
                let mut rt = scenario.runtime(machine.clone(), config);
                let jobs: Vec<JobSpec> = apps.iter().map(|app| app.job(scenario)).collect();
                let report = rt.execute(jobs).expect("workload runs");
                let change = column.to_lowercase().replace("- ", "no-");
                scenario.observed(&format!("{topology}.{workload}.{change}"), &rt, &report);
                row.makespan[k] = report.makespan;
                row.bytes_moved[k] = report.bytes_moved;
                let matches = |(i, app): (usize, &App)| {
                    app.output_matches(scenario, &rt, &report, JobId(i as u64))
                };
                row.mismatches += usize::from(!apps.iter().enumerate().all(matches));
            }
            rows.push(row);
        }
    }
    rows
}

/// Runs E3.
pub fn run(scenario: &Scenario) -> Table {
    let rows = measure(scenario);
    let cc_bytes = |r: &Row| r.bytes_moved[COMPUTE_CENTRIC] as f64 / r.bytes_moved[0] as f64;
    let mut headers = vec!["Topology", "Workload"];
    headers.extend(configs().map(|(column, _)| column));
    headers.extend(["CC bytes moved", "Output mismatches"]);
    let mut t = Table::new(
        "ingredients",
        "Table 3 and §2: what each ingredient buys, on the server and the rack",
        &headers,
    );
    for r in &rows {
        let mut cells = vec![r.topology.to_string(), r.workload.to_string(), fmt_dur(r.makespan[0])];
        cells.extend((BLIND..=COMPUTE_CENTRIC).map(|k| fmt_ratio(r.slowdown(k))));
        cells.push(fmt_ratio(cc_bytes(r)));
        cells.push(r.mismatches.to_string());
        t.row(cells);
    }
    t.note("Full is the paper's configuration's makespan; each other column divides that change's makespan by it, and CC bytes moved compute-centric placement's bytes moved by Full's");
    t.note("rack = disaggregated_rack(4, 16, 4, 256); mixed = DBMS query + ML training + streaming windows, co-scheduled");
    let at = |topology: &str, workloads: &[&str], k: usize| -> Vec<f64> {
        let on = |r: &&Row| r.topology == topology && workloads.contains(&r.workload);
        rows.iter().filter(on).map(|r| r.slowdown(k)).collect()
    };
    t.claim(
        "outputs-match-the-reference",
        "every run's final outputs, decoded, equal their applications' references (mismatching runs per row)",
        Shape::AtMost(0.0),
        rows.iter().map(|r| r.mismatches as f64).collect(),
    );
    t.claim(
        "declarative-wins",
        "declarative placement beats worst-feasible placement on every workload, on both machines (worst-feasible slowdown)",
        Shape::AtLeast(1.0),
        rows.iter().map(|r| r.slowdown(WORST)).collect(),
    );
    t.claim(
        "no-ablation-beats-full-badly",
        "no removal of one ingredient beats the full configuration by more than 15% on any row (slowdown vs full)",
        Shape::AtLeast(0.85),
        rows.iter().flat_map(|r| (BLIND..=WORST).map(|k| r.slowdown(k))).collect(),
    );
    let server = ["dbms", "stream", "mixed"];
    t.claim(
        "scheduler-and-optimizer-are-load-bearing",
        "on the server, removing HEFT or the placement optimizer hurts dbms, stream and the mixed batch by more than 1.5x",
        Shape::AtLeast(1.5),
        [at("single_server", &server, ROUND_ROBIN), at("single_server", &server, WORST)].concat(),
    );
    t.claim(
        "topology-awareness-pays-on-the-rack",
        "on the rack, a topology-blind cost model slows dbms, hpc and stream by at least 3x",
        Shape::AtLeast(3.0),
        at("disaggregated_rack", &["dbms", "hpc", "stream"], BLIND),
    );
    t.claim(
        "transfer-pays-for-streams",
        "on the server, copying every handover slows the streaming pipeline by at least 15%",
        Shape::AtLeast(1.15),
        at("single_server", &["stream"], COPY),
    );
    t.claim(
        "compute-centric-placement-matches-declarative",
        "with transfer and HEFT kept, compute-centric placement alone changes makespan and bytes moved by under 5% on every row (makespan, bytes-moved ratios)",
        Shape::Within { lo: 0.95, hi: 1.05 },
        rows.iter().flat_map(|r| [r.slowdown(COMPUTE_CENTRIC), cc_bytes(r)]).collect(),
    );
    t
}
