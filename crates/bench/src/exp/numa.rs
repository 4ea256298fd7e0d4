//! E8 — the §1 claim "non-uniform memory accesses (NUMA) can slow down
//! algorithms by up to 3×".
//!
//! On the two-socket preset we run a latency-bound pointer chase and a
//! bandwidth-bound scan from socket 0, against local DRAM and against
//! socket 1's DRAM. The claim's shape: remote placement costs up to ~3×,
//! with bandwidth-bound access hurting most.

use disagg_hwsim::device::{AccessOp, AccessPattern};
use disagg_hwsim::ids::MemDeviceId;
use disagg_hwsim::presets::two_socket;

use crate::{fmt_ratio, Scenario, Shape, Table};

/// Runs E8: the NUMA penalty for both access shapes.
pub fn run(scenario: &Scenario) -> Table {
    let (topo, h) = two_socket();
    let chase_bytes: u64 = if scenario.quick { 1 << 20 } else { 16 << 20 };
    let scan_bytes: u64 = if scenario.quick { 64 << 20 } else { 1 << 30 };
    let cost = |dev: MemDeviceId, bytes: u64, pattern: AccessPattern| {
        topo.access_cost(h.cpu0, dev, bytes, AccessOp::Read, pattern)
            .expect("reachable")
            .as_nanos_f64()
    };
    let mut t = Table::new(
        "numa",
        "Claim: NUMA can slow down algorithms by up to 3x",
        &["Workload", "Local (ms)", "Remote (ms)", "Slowdown"],
    );
    let mut slowdowns = Vec::new();
    for (workload, bytes, pattern) in [
        ("pointer chase (64 B random)", chase_bytes, AccessPattern::Random),
        ("sequential scan", scan_bytes, AccessPattern::Sequential),
    ] {
        let (local_ns, remote_ns) = (cost(h.dram0, bytes, pattern), cost(h.dram1, bytes, pattern));
        let slowdown = remote_ns / local_ns;
        slowdowns.push(slowdown);
        t.row(vec![
            workload.to_string(),
            format!("{:.3}", local_ns / 1e6),
            format!("{:.3}", remote_ns / 1e6),
            fmt_ratio(slowdown),
        ]);
    }
    t.claim(
        "remote-costs-up-to-3x",
        "paper cites Li et al. [39]: up to 3x for NUMA-oblivious data shuffling; remote/local slowdown lands in the band around it",
        Shape::Within { lo: 1.2, hi: 4.0 },
        slowdowns.clone(),
    );
    // Li et al.'s 3x case is data *shuffling* — bandwidth-bound. The
    // NUMA link halves-to-thirds the achievable bandwidth while only
    // adding ~70 ns to latency, so the scan pays more than the chase.
    t.claim(
        "bandwidth-bound-suffers-most",
        "the sequential scan's slowdown exceeds the pointer chase's",
        Shape::Ascending { slack: 0.0 },
        slowdowns.clone(),
    );
    t.claim("scan-over-2x", "the bandwidth-bound scan slows by more than 2x", Shape::AtLeast(2.0), slowdowns[1..].to_vec());
    t
}
