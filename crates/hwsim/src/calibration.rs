//! The machine table: the one home of every constant that turns bytes,
//! work, hops or a task's duration into virtual time or dollars.
//!
//! The paper states its hardware as Table 1's orderings and ratios; the
//! simulation needs numbers, and every experiment's claims are facts
//! about the numbers picked here. The table has one record per memory
//! device kind ([`mem`]), one per compute kind ([`compute`]), one per
//! link kind ([`link`]) and one of mechanism costs ([`mechanisms`]).
//! Each numeric field is an [`Entry`]: its value and the [`Source`] it
//! comes from, `Uncited` where none is in the repository. No range is
//! recorded until a source's figures are.
//!
//! **What belongs here:** a fact about the machine — a latency, a
//! bandwidth, a transfer granularity, a capacity, a price, a per-element
//! compute rate, a launch or issue overhead. [`MemDeviceModel::preset`],
//! [`ComputeModel::preset`] and [`TopologyBuilder::link`] build their
//! models from it, and the mechanisms that price work read their entry.
//! **What stays out:** policy — how the runtime decides rather than what
//! the hardware costs. The placement score's weights, the scheduler's
//! soft-preference penalty, the breaker and retry-budget settings, the
//! serving control law, the property-class thresholds and the bandwidth
//! ledger's bucket width live beside the code they steer.
//!
//! [`MemDeviceModel::preset`]: crate::device::MemDeviceModel::preset
//! [`ComputeModel::preset`]: crate::compute::ComputeModel::preset
//! [`TopologyBuilder::link`]: crate::topology::TopologyBuilder::link

use crate::compute::ComputeKind;
use crate::device::{Attachment, MemDeviceKind, SyncSupport};
use crate::topology::LinkKind;

/// Where a number in the table comes from: a source the repository
/// cites, or `Uncited`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// Pond (ASPLOS '23): CXL memory measured at about NUMA-remote latency.
    Pond,
    /// The CXL consortium's figures: an x8 PCIe 5.0 link, 64 B transfers.
    CxlConsortium,
    /// The Optane DC persistent-memory characterization: 256 B media
    /// granularity, asymmetric reads and writes.
    OptaneCharacterization,
    /// Typical DDR5 datasheet figures.
    Ddr5Datasheet,
    /// Typical HBM2e datasheet figures.
    Hbm2eDatasheet,
    /// Typical GDDR6 datasheet figures.
    Gddr6Datasheet,
    /// NVMe SSD datasheets.
    NvmeDatasheet,
    /// 7200-rpm HDD datasheets.
    HddDatasheet,
    /// Clio (PAPERS.md): network-attached disaggregated memory.
    Clio,
    /// No source in the repository.
    Uncited,
}

/// One number of the table and where it comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry<T> {
    /// The value the simulation uses.
    pub value: T,
    /// Its source.
    pub source: Source,
}

const fn cited<T>(value: T, source: Source) -> Entry<T> {
    Entry { value, source }
}

const fn uncited<T>(value: T) -> Entry<T> {
    Entry { value, source: Source::Uncited }
}

/// One memory device kind: a row of Table 1, with the device's own
/// latency and bandwidth as seen from a local CPU (the topology adds
/// interconnect hops on top), and Table 1's qualitative columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemRecord {
    /// The row.
    pub kind: MemDeviceKind,
    /// Latency of one read, nanoseconds.
    pub read_lat_ns: Entry<f64>,
    /// Latency of one write, nanoseconds.
    pub write_lat_ns: Entry<f64>,
    /// Read bandwidth, bytes per nanosecond (GB/s).
    pub read_bw_bpns: Entry<f64>,
    /// Write bandwidth, bytes per nanosecond (GB/s).
    pub write_bw_bpns: Entry<f64>,
    /// Smallest transfer, bytes; smaller accesses round up to it.
    pub granularity: Entry<u64>,
    /// Usable capacity of one device, bytes.
    pub capacity: Entry<u64>,
    /// Acquisition cost, dollars per GiB.
    pub cost_per_gib: Entry<f64>,
    /// Table 1's "Attached" column.
    pub attachment: Attachment,
    /// Table 1's "Sync" column.
    pub sync: SyncSupport,
    /// Table 1's "Persist." column.
    pub persistent: bool,
    /// Whether the device is in the cache-coherence domain.
    pub coherent: bool,
}

/// One compute device kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeRecord {
    /// The kind.
    pub kind: ComputeKind,
    /// Tasks the device runs at once without slowdown.
    pub slots: Entry<u32>,
    /// Nanoseconds per element of `[Scalar, Vector, Tensor, Crypto]` work.
    pub ns_per_elem: [Entry<f64>; 4],
    /// Fixed cost of launching a task, nanoseconds.
    pub launch_overhead_ns: Entry<f64>,
}

/// One link kind: what one traversal adds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkRecord {
    /// The kind.
    pub kind: LinkKind,
    /// Added latency per traversal, nanoseconds.
    pub latency_ns: Entry<f64>,
    /// Bandwidth, bytes per nanosecond.
    pub bandwidth_bpns: Entry<f64>,
}

/// What the runtime's mechanisms cost, beyond devices and links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mechanisms {
    /// GF(2⁸) parity and decode arithmetic on a host CPU, nanoseconds
    /// per byte: `ftol`'s host parity engine, reconstruction under a
    /// read (`region`) and healing after device loss (`core`).
    pub host_decode_ns_per_byte: Entry<f64>,
    /// The same arithmetic offloaded to a DPU, nanoseconds per byte
    /// (`ftol`'s offload parity engine).
    pub offload_parity_ns_per_byte: Entry<f64>,
    /// Software cost of issuing one asynchronous access (submission and
    /// completion handling), nanoseconds, charged to the issuing task.
    pub async_issue_ns: Entry<f64>,
    /// Bookkeeping cost of handing a region over by ownership transfer,
    /// nanoseconds.
    pub ownership_transfer_ns: Entry<u64>,
    /// Chunks a streaming producer's output arrives in: a streaming
    /// consumer on a pipelined edge starts after the first one.
    pub pipeline_depth: Entry<u64>,
    /// The fabric bandwidth the planner assumes for a task's output to
    /// reach a consumer on another device, bytes per nanosecond.
    pub planner_fabric_bpns: Entry<f64>,
}

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;
const GIB: u64 = 1024 * MIB;
const TIB: u64 = 1024 * GIB;

use Source::{
    Clio, CxlConsortium, Ddr5Datasheet, Gddr6Datasheet, Hbm2eDatasheet, HddDatasheet,
    NvmeDatasheet, OptaneCharacterization, Pond,
};

const MEM: [MemRecord; 9] = [
    MemRecord {
        kind: MemDeviceKind::Cache,
        read_lat_ns: uncited(10.0),
        write_lat_ns: uncited(10.0),
        read_bw_bpns: uncited(400.0),
        write_bw_bpns: uncited(400.0),
        granularity: uncited(1),
        capacity: uncited(96 * MIB),
        // Comes with the CPU; not separately purchasable.
        cost_per_gib: uncited(0.0),
        attachment: Attachment::Cpu,
        sync: SyncSupport::Sync,
        persistent: false,
        coherent: true,
    },
    MemRecord {
        kind: MemDeviceKind::Hbm,
        read_lat_ns: cited(110.0, Hbm2eDatasheet),
        write_lat_ns: cited(110.0, Hbm2eDatasheet),
        read_bw_bpns: cited(800.0, Hbm2eDatasheet),
        write_bw_bpns: cited(800.0, Hbm2eDatasheet),
        granularity: cited(64, Hbm2eDatasheet),
        capacity: uncited(16 * GIB),
        cost_per_gib: uncited(25.0),
        attachment: Attachment::Cpu,
        sync: SyncSupport::Sync,
        persistent: false,
        coherent: true,
    },
    MemRecord {
        kind: MemDeviceKind::Dram,
        read_lat_ns: cited(90.0, Ddr5Datasheet),
        write_lat_ns: cited(90.0, Ddr5Datasheet),
        read_bw_bpns: cited(100.0, Ddr5Datasheet),
        write_bw_bpns: cited(100.0, Ddr5Datasheet),
        granularity: cited(64, Ddr5Datasheet),
        capacity: uncited(256 * GIB),
        cost_per_gib: uncited(4.0),
        attachment: Attachment::Cpu,
        sync: SyncSupport::Sync,
        persistent: false,
        coherent: true,
    },
    MemRecord {
        kind: MemDeviceKind::Gddr,
        read_lat_ns: cited(120.0, Gddr6Datasheet),
        write_lat_ns: cited(120.0, Gddr6Datasheet),
        read_bw_bpns: cited(600.0, Gddr6Datasheet),
        write_bw_bpns: cited(600.0, Gddr6Datasheet),
        granularity: cited(64, Gddr6Datasheet),
        capacity: uncited(24 * GIB),
        cost_per_gib: uncited(15.0),
        attachment: Attachment::Gpu,
        sync: SyncSupport::Sync,
        persistent: false,
        coherent: false,
    },
    MemRecord {
        kind: MemDeviceKind::Pmem,
        read_lat_ns: cited(300.0, OptaneCharacterization),
        write_lat_ns: cited(450.0, OptaneCharacterization),
        read_bw_bpns: cited(8.0, OptaneCharacterization),
        write_bw_bpns: cited(3.0, OptaneCharacterization),
        granularity: cited(256, OptaneCharacterization),
        capacity: uncited(TIB),
        cost_per_gib: uncited(2.0),
        attachment: Attachment::Cpu,
        sync: SyncSupport::Sync,
        persistent: true,
        coherent: true,
    },
    MemRecord {
        kind: MemDeviceKind::CxlDram,
        read_lat_ns: cited(250.0, Pond),
        write_lat_ns: cited(250.0, Pond),
        read_bw_bpns: cited(30.0, CxlConsortium),
        write_bw_bpns: cited(30.0, CxlConsortium),
        granularity: cited(64, CxlConsortium),
        capacity: uncited(512 * GIB),
        cost_per_gib: uncited(4.5),
        attachment: Attachment::Pcie,
        sync: SyncSupport::Either,
        persistent: false,
        coherent: true,
    },
    MemRecord {
        kind: MemDeviceKind::FarMemory,
        read_lat_ns: cited(2_000.0, Clio),
        write_lat_ns: cited(2_000.0, Clio),
        read_bw_bpns: cited(12.0, Clio),
        write_bw_bpns: cited(12.0, Clio),
        granularity: uncited(256),
        capacity: uncited(4 * TIB),
        cost_per_gib: uncited(3.0),
        attachment: Attachment::Nic,
        sync: SyncSupport::AsyncOnly,
        persistent: false,
        coherent: false,
    },
    MemRecord {
        kind: MemDeviceKind::Ssd,
        read_lat_ns: cited(80_000.0, NvmeDatasheet),
        write_lat_ns: cited(20_000.0, NvmeDatasheet),
        read_bw_bpns: cited(3.5, NvmeDatasheet),
        write_bw_bpns: cited(2.5, NvmeDatasheet),
        granularity: cited(4 * KIB, NvmeDatasheet),
        capacity: uncited(8 * TIB),
        cost_per_gib: uncited(0.10),
        attachment: Attachment::Pcie,
        sync: SyncSupport::AsyncOnly,
        persistent: true,
        coherent: false,
    },
    MemRecord {
        kind: MemDeviceKind::Hdd,
        read_lat_ns: cited(4_000_000.0, HddDatasheet),
        write_lat_ns: cited(4_000_000.0, HddDatasheet),
        read_bw_bpns: cited(0.2, HddDatasheet),
        write_bw_bpns: cited(0.2, HddDatasheet),
        granularity: cited(4 * KIB, HddDatasheet),
        capacity: uncited(16 * TIB),
        cost_per_gib: uncited(0.02),
        attachment: Attachment::Sata,
        sync: SyncSupport::AsyncOnly,
        persistent: true,
        coherent: false,
    },
];

/// The per-element rates encode *relative* strengths: GPUs are an order
/// of magnitude faster on data-parallel and tensor work but slower and
/// launch-heavy on scalar work.
const COMPUTE: [ComputeRecord; 2] = [
    ComputeRecord {
        kind: ComputeKind::Cpu,
        slots: uncited(32),
        ns_per_elem: [uncited(1.0), uncited(0.25), uncited(1.0), uncited(2.0)],
        launch_overhead_ns: uncited(200.0),
    },
    ComputeRecord {
        kind: ComputeKind::Gpu,
        slots: uncited(8),
        ns_per_elem: [uncited(8.0), uncited(0.02), uncited(0.05), uncited(0.5)],
        launch_overhead_ns: uncited(10_000.0),
    },
];

/// Device latencies are "as seen from a local CPU", so attachment buses
/// add no latency; only further hops (a NUMA crossing, a peer device's
/// PCIe path, the CXL fabric, the NIC) do.
const LINKS: [LinkRecord; 8] = [
    LinkRecord { kind: LinkKind::MemBus, latency_ns: uncited(0.0), bandwidth_bpns: uncited(1_000.0) },
    LinkRecord { kind: LinkKind::GpuBus, latency_ns: uncited(0.0), bandwidth_bpns: uncited(1_000.0) },
    LinkRecord { kind: LinkKind::Numa, latency_ns: uncited(70.0), bandwidth_bpns: uncited(40.0) },
    LinkRecord { kind: LinkKind::PcieCxl, latency_ns: uncited(20.0), bandwidth_bpns: uncited(32.0) },
    LinkRecord { kind: LinkKind::PciePeer, latency_ns: uncited(400.0), bandwidth_bpns: uncited(32.0) },
    LinkRecord { kind: LinkKind::CxlFabric, latency_ns: uncited(90.0), bandwidth_bpns: uncited(28.0) },
    LinkRecord { kind: LinkKind::Nic, latency_ns: uncited(300.0), bandwidth_bpns: uncited(12.0) },
    LinkRecord { kind: LinkKind::Sata, latency_ns: uncited(1_000.0), bandwidth_bpns: uncited(0.6) },
];

const MECHANISMS: Mechanisms = Mechanisms {
    host_decode_ns_per_byte: uncited(0.5),
    offload_parity_ns_per_byte: uncited(0.05),
    async_issue_ns: uncited(150.0),
    ownership_transfer_ns: uncited(150),
    pipeline_depth: uncited(8),
    planner_fabric_bpns: uncited(20.0),
};

/// The record of a memory device kind.
pub fn mem(kind: MemDeviceKind) -> &'static MemRecord {
    MEM.iter().find(|r| r.kind == kind).expect("every memory device kind has a record")
}

/// The record of a compute kind.
pub fn compute(kind: ComputeKind) -> &'static ComputeRecord {
    COMPUTE.iter().find(|r| r.kind == kind).expect("every compute kind has a record")
}

/// The record of a link kind.
pub fn link(kind: LinkKind) -> &'static LinkRecord {
    LINKS.iter().find(|r| r.kind == kind).expect("every link kind has a record")
}

/// The mechanism costs.
pub fn mechanisms() -> &'static Mechanisms {
    &MECHANISMS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every numeric entry of the table as `(name, value, source)`.
    fn entries() -> Vec<(String, f64, Source)> {
        let mut out = Vec::new();
        let mut put = |name: String, value: f64, source: Source| out.push((name, value, source));
        for r in &MEM {
            let k = r.kind;
            for (field, e) in [
                ("read_lat_ns", r.read_lat_ns),
                ("write_lat_ns", r.write_lat_ns),
                ("read_bw_bpns", r.read_bw_bpns),
                ("write_bw_bpns", r.write_bw_bpns),
                ("cost_per_gib", r.cost_per_gib),
            ] {
                put(format!("mem.{k:?}.{field}"), e.value, e.source);
            }
            for (field, e) in [("granularity", r.granularity), ("capacity", r.capacity)] {
                put(format!("mem.{k:?}.{field}"), e.value as f64, e.source);
            }
        }
        for r in &COMPUTE {
            let k = r.kind;
            put(format!("compute.{k:?}.slots"), f64::from(r.slots.value), r.slots.source);
            for (class, e) in ["scalar", "vector", "tensor", "crypto"].iter().zip(r.ns_per_elem) {
                put(format!("compute.{k:?}.ns_per_elem.{class}"), e.value, e.source);
            }
            let e = r.launch_overhead_ns;
            put(format!("compute.{k:?}.launch_overhead_ns"), e.value, e.source);
        }
        for r in &LINKS {
            let k = r.kind;
            put(format!("link.{k:?}.latency_ns"), r.latency_ns.value, r.latency_ns.source);
            put(format!("link.{k:?}.bandwidth_bpns"), r.bandwidth_bpns.value, r.bandwidth_bpns.source);
        }
        let m = MECHANISMS;
        for (field, e) in [
            ("host_decode_ns_per_byte", m.host_decode_ns_per_byte),
            ("offload_parity_ns_per_byte", m.offload_parity_ns_per_byte),
            ("async_issue_ns", m.async_issue_ns),
            ("planner_fabric_bpns", m.planner_fabric_bpns),
        ] {
            put(format!("mechanism.{field}"), e.value, e.source);
        }
        for (field, e) in [
            ("ownership_transfer_ns", m.ownership_transfer_ns),
            ("pipeline_depth", m.pipeline_depth),
        ] {
            put(format!("mechanism.{field}"), e.value as f64, e.source);
        }
        out
    }

    #[test]
    fn every_kind_has_exactly_one_record() {
        for kind in MemDeviceKind::ALL {
            assert_eq!(MEM.iter().filter(|r| r.kind == kind).count(), 1, "{kind:?}");
        }
        for kind in ComputeKind::ALL {
            assert_eq!(COMPUTE.iter().filter(|r| r.kind == kind).count(), 1, "{kind:?}");
        }
        for kind in LinkKind::ALL {
            assert_eq!(LINKS.iter().filter(|r| r.kind == kind).count(), 1, "{kind:?}");
        }
        assert_eq!(MEM.len(), MemDeviceKind::ALL.len());
        assert_eq!(COMPUTE.len(), ComputeKind::ALL.len());
        assert_eq!(LINKS.len(), LinkKind::ALL.len());
    }

    #[test]
    fn every_numeric_entry_names_a_source_or_uncited() {
        let all = entries();
        // 9 device kinds × 7, 2 compute kinds × 6, 8 link kinds × 2, and
        // six mechanism costs.
        assert_eq!(all.len(), 9 * 7 + 2 * 6 + 8 * 2 + 6);
        let mut names: Vec<&str> = all.iter().map(|(n, _, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "entry names are unique");
        for (name, value, _) in &all {
            assert!(value.is_finite() && *value >= 0.0, "{name} = {value}");
        }
        // Only device rows cite anything; the compute rates, links and
        // mechanism costs have no source in the repository.
        for (name, _, source) in &all {
            if !name.starts_with("mem.") {
                assert_eq!(*source, Source::Uncited, "{name}");
            }
        }
    }
}
