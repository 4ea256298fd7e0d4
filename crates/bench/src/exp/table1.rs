//! E1 — Table 1: memory device properties as *measured* from a CPU.
//!
//! The paper's Table 1 characterizes each device class qualitatively
//! (`++`/`--` glyphs). We regenerate it by measurement: a 64-byte random
//! pointer-chase gives the observed latency, a large sequential scan the
//! observed bandwidth, and the model reports granularity, attachment,
//! sync capability, and persistence. The reproduction target — the
//! table's claims — is the *orderings* the glyph columns express plus
//! the qualitative columns cell for cell.

use disagg_hwsim::device::{AccessOp, AccessPattern};
use disagg_hwsim::ids::MemDeviceId;
use disagg_hwsim::presets::single_server;

use crate::{Scenario, Shape, Table};

/// Runs E1: measures every Table 1 device from the CPU's viewpoint and
/// renders the paper-style table.
pub fn run(scenario: &Scenario) -> Table {
    let (topo, h) = single_server();
    let scan_bytes: u64 = if scenario.quick { 16 << 20 } else { 256 << 20 };
    let devices: [(MemDeviceId, &str); 8] = [
        (h.cache, "Cache"),
        (h.hbm, "HBM"),
        (h.dram, "DRAM"),
        (h.pmem, "PMem"),
        (h.cxl, "CXL-DRAM"),
        (h.far, "Disagg. Mem."),
        (h.ssd, "SSD"),
        (h.hdd, "HDD"),
    ];
    let mut t = Table::new(
        "table1",
        "Table 1: Memory device properties as seen from a CPU (measured)",
        &["Name", "Bw (GB/s)", "Lat (ns)", "Gran", "Attached", "Sync", "Persist"],
    );
    // Observed 64 B random-read latency (ns) and large sequential read
    // bandwidth (GB/s), in `devices` order.
    let (mut lat, mut bw) = (Vec::new(), Vec::new());
    for &(dev, name) in &devices {
        let cost = |bytes, pattern| {
            topo.access_cost(h.cpu, dev, bytes, AccessOp::Read, pattern)
                .expect("reachable")
                .as_nanos_f64()
        };
        lat.push(cost(64, AccessPattern::Random));
        bw.push(scan_bytes as f64 / cost(scan_bytes, AccessPattern::Sequential));
        let model = topo.mem(dev);
        t.row(vec![
            name.to_string(),
            format!("{:.1}", bw[bw.len() - 1]),
            format!("{:.0}", lat[lat.len() - 1]),
            format!("{} B", model.granularity),
            model.attachment.name().to_string(),
            model.sync.symbol().to_string(),
            if model.persistent { "yes" } else { "no" }.to_string(),
        ]);
    }
    let ladder = |v: &[f64], names: &[&str]| -> Vec<f64> {
        let at = |name: &&str| devices.iter().position(|(_, n)| n == name).expect("a Table 1 device");
        names.iter().map(|n| v[at(n)]).collect()
    };
    let ascending = Shape::Ascending { slack: 0.0 };
    t.claim(
        "lat-ladder",
        "paper: Lat ordering Cache ++ < HBM/DRAM + < PMem/CXL o < Disagg - < SSD - < HDD --",
        ascending.clone(),
        ladder(&lat, &["Cache", "DRAM", "PMem", "Disagg. Mem.", "SSD", "HDD"]),
    );
    t.claim(
        "lat-cxl-below-far",
        "CXL-DRAM is nearer than NIC-attached memory",
        ascending.clone(),
        ladder(&lat, &["CXL-DRAM", "Disagg. Mem."]),
    );
    let hbm_dram = ladder(&lat, &["HBM", "DRAM"]);
    t.claim(
        "lat-hbm-dram-class",
        "HBM and DRAM share a latency glyph: DRAM latency over HBM latency",
        Shape::AtMost(1.5),
        vec![hbm_dram[1] / hbm_dram[0]],
    );
    t.claim(
        "bw-ladder",
        "paper: Bw ordering Cache/HBM ++ > DRAM + > PMem/CXL/Disagg o > SSD - > HDD --",
        ascending.clone(),
        ladder(&bw, &["HDD", "SSD", "PMem", "DRAM", "Cache"]),
    );
    t.claim("bw-hbm-above-dram", "HBM out-streams DRAM", ascending.clone(), ladder(&bw, &["DRAM", "HBM"]));
    t.claim("bw-cxl-above-ssd", "CXL-DRAM out-streams the SSD", ascending, ladder(&bw, &["SSD", "CXL-DRAM"]));
    // Pond (ASPLOS '23) reports CXL ≈ NUMA-remote latency: roughly
    // 150-400 ns.
    t.claim(
        "cxl-in-pond-band",
        "CXL-DRAM latency (ns) lands in the NUMA-remote band Pond reports",
        Shape::Within { lo: 150.0, hi: 450.0 },
        ladder(&lat, &["CXL-DRAM"]),
    );
    t.claim(
        "qualitative-columns",
        "Gran / Attached / Sync / Persist match the paper's Table 1",
        Shape::Cells(vec![
            ["Cache", "Gran", "1 B"],
            ["PMem", "Gran", "256 B"],
            ["SSD", "Gran", "4096 B"],
            ["CXL-DRAM", "Attached", "PCIe"],
            ["Disagg. Mem.", "Attached", "NIC"],
            ["HDD", "Attached", "SATA"],
            ["CXL-DRAM", "Sync", "yes/no"],
            ["Disagg. Mem.", "Sync", "no"],
            ["PMem", "Persist", "yes"],
            ["DRAM", "Persist", "no"],
        ]),
        vec![],
    );
    t
}
