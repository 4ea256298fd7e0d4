//! E12 — Challenge 8(3): replication vs erasure coding for far memory.
//!
//! The Carbink trade-off: replication is storage-hungry but recovers by
//! plain copy; erasure coding stores `(k+m)/k` but pays parity updates on
//! writes and reconstruction on recovery. We build both schemes over the
//! same memory blades, inject a node crash, and measure storage overhead,
//! write amplification, degraded-read latency, and recovery time.

use disagg_ftol::replicate::ReplicatedRegion;
use disagg_ftol::stripe::{ParityEngine, StripedRegion};
use disagg_hwsim::contention::BandwidthLedger;
use disagg_hwsim::fault::{FaultEvent, FaultInjector, FaultKind};
use disagg_hwsim::presets::disaggregated_rack;
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_region::region::{OwnerId, RegionManager};

use crate::{fmt_dur, Scenario, Shape, Table};

/// One scheme's measurements.
#[derive(Debug, Clone)]
pub struct SchemeRow {
    /// Scheme label.
    pub scheme: String,
    /// Storage overhead factor.
    pub storage_overhead: f64,
    /// Bytes written per logical byte (write amplification).
    pub write_amp: f64,
    /// Healthy read latency.
    pub read: SimDuration,
    /// Degraded read latency (after one node loss).
    pub degraded_read: SimDuration,
    /// Time to restore full redundancy.
    pub recovery: SimDuration,
}

const OWNER: OwnerId = OwnerId::App;

/// Measures both schemes over the same blades.
pub fn measure(scenario: &Scenario) -> Vec<SchemeRow> {
    let size: u64 = if scenario.quick { 3 << 20 } else { 48 << 20 };
    let mut out = Vec::new();

    // --- 2x and 3x replication. ---
    for n in [2usize, 3] {
        let (topo, rack) = disaggregated_rack(2, 32, 6, 64);
        let mut mgr = RegionManager::new(&topo);
        let mut ledger = BandwidthLedger::default_buckets();
        let devs = &rack.pool[..n];
        let mut rr = ReplicatedRegion::create(&mut mgr, &topo, devs, size, OWNER, SimTime::ZERO)
            .expect("replicas");
        let none = FaultInjector::none();
        let data = vec![0x5Au8; size as usize];
        rr.write(&mut mgr, &topo, &mut ledger, &none, 0, &data, SimTime::ZERO)
            .expect("write");
        let write_amp = rr.bytes_written as f64 / size as f64;

        let mut buf = vec![0u8; size as usize];
        let (read, _) = rr
            .read(&mgr, &topo, &mut ledger, &none, rack.cpus[0], 0, &mut buf, SimTime(1))
            .expect("read");

        // Crash the first replica's node; read + recover.
        let faults = FaultInjector::with_events(vec![FaultEvent {
            at: SimTime(2),
            kind: FaultKind::NodeCrash(topo.node_of_mem(rr.devs[0])),
        }]);
        let (degraded_read, _) = rr
            .read(&mgr, &topo, &mut ledger, &faults, rack.cpus[0], 0, &mut buf, SimTime(10))
            .expect("survivor read");
        let spare = rack.pool[n];
        let recovery = rr
            .recover(&mut mgr, &topo, &mut ledger, &faults, 0, spare, SimTime(20))
            .expect("recover");
        out.push(SchemeRow {
            scheme: format!("{n}x replication"),
            storage_overhead: rr.overhead(),
            write_amp,
            read,
            degraded_read,
            recovery,
        });
    }

    // --- Reed-Solomon (4+2), host parity and DPU-offloaded parity. ---
    for engine in [ParityEngine::Host, ParityEngine::Offload] {
        let (topo, rack) = disaggregated_rack(2, 32, 7, 64);
        let mut mgr = RegionManager::new(&topo);
        let mut ledger = BandwidthLedger::default_buckets();
        let (k, m) = (4usize, 2usize);
        let mut sr = StripedRegion::create(
            &mut mgr,
            &topo,
            &rack.pool[..k + m],
            size,
            k,
            m,
            OWNER,
            SimTime::ZERO,
        )
        .expect("stripes")
        .with_parity_engine(engine);
        let data = vec![0xA5u8; size as usize];
        sr.write(&mut mgr, &topo, &mut ledger, 0, &data, SimTime::ZERO)
            .expect("write");
        let write_amp = sr.bytes_written as f64 / size as f64;

        let none = FaultInjector::none();
        let mut buf = vec![0u8; size as usize];
        let (read, degraded0) = sr
            .read(&mgr, &topo, &mut ledger, &none, 0, &mut buf, SimTime(1))
            .expect("read");
        assert!(!degraded0);

        let faults = FaultInjector::with_events(vec![FaultEvent {
            at: SimTime(2),
            kind: FaultKind::NodeCrash(topo.node_of_mem(sr.devs[0])),
        }]);
        let (degraded_read, degraded) = sr
            .read(&mgr, &topo, &mut ledger, &faults, 0, &mut buf, SimTime(10))
            .expect("degraded read");
        assert!(degraded);
        let spare = rack.pool[k + m];
        let recovery = sr
            .recover(&mut mgr, &topo, &mut ledger, &faults, 0, spare, SimTime(20))
            .expect("recover");
        let label = match engine {
            ParityEngine::Host => format!("RS({k}+{m}) erasure coding"),
            ParityEngine::Offload => format!("RS({k}+{m}) + DPU parity offload"),
        };
        out.push(SchemeRow {
            scheme: label,
            storage_overhead: sr.overhead(),
            write_amp,
            read,
            degraded_read,
            recovery,
        });
    }
    out
}

/// Runs E12.
pub fn run(scenario: &Scenario) -> Table {
    let rows = measure(scenario);
    let mut t = Table::new(
        "ftol",
        "Fault tolerance: replication vs erasure coding (Carbink trade-off)",
        &[
            "Scheme",
            "Storage overhead",
            "Write amp",
            "Read",
            "Degraded read",
            "Recovery",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.scheme.clone(),
            format!("{:.2}x", r.storage_overhead),
            format!("{:.2}x", r.write_amp),
            fmt_dur(r.read),
            fmt_dur(r.degraded_read),
            fmt_dur(r.recovery),
        ]);
    }
    let [rep2, rep3, rs, dpu] = &rows[..] else { panic!("four schemes measured") };
    let penalty = |r: &SchemeRow| r.degraded_read.as_nanos_f64() / r.read.as_nanos_f64();
    t.claim(
        "storage-matches-theory",
        "erasure coding: 1.5x storage vs 2-3x for replication (storage overhead over n, n, (k+m)/k)",
        Shape::Within { lo: 1.0, hi: 1.0 },
        vec![rep2.storage_overhead / 2.0, rep3.storage_overhead / 3.0, rs.storage_overhead / 1.5, dpu.storage_overhead / 1.5],
    );
    t.claim(
        "replication-writes-every-copy",
        "n-way replication amplifies writes n times (write amplification minus n)",
        Shape::Within { lo: -0.01, hi: 0.01 },
        vec![rep2.write_amp - 2.0, rep3.write_amp - 3.0],
    );
    t.claim(
        "ec-writes-less-than-replication",
        "RS(4+2) writes fewer bytes per logical byte than 2x replication",
        Shape::Ascending { slack: 0.0 },
        vec![rs.write_amp, rep2.write_amp],
    );
    t.claim(
        "ec-pays-on-degraded-reads",
        "the bill arrives at degraded reads: RS(4+2)'s degraded/healthy read time, alone and over 2x replication's",
        Shape::AtLeast(1.0),
        vec![penalty(rs), penalty(rs) / penalty(rep2)],
    );
    t.claim(
        "parity-offload-shortens-the-failure-path",
        "DPU parity offload over host parity: degraded read and recovery time",
        Shape::AtMost(1.0),
        vec![
            dpu.degraded_read.as_nanos_f64() / rs.degraded_read.as_nanos_f64(),
            dpu.recovery.as_nanos_f64() / rs.recovery.as_nanos_f64(),
        ],
    );
    t
}
