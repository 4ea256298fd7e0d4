//! Memory-device models: one per row of the paper's Table 1.
//!
//! Table 1 ("Memory device properties as seen from a CPU") characterizes
//! each device by bandwidth, latency, access granularity, attachment point,
//! synchronous-access capability, and persistence. We turn each row into a
//! calibrated quantitative model. The numbers, each with its source,
//! live in the machine table ([`crate::calibration`]); what the
//! experiments rely on — and what we assert in tests — are the
//! *orderings and ratios* Table 1 expresses with `++`/`--` symbols.

use crate::calibration;
use crate::time::SimDuration;
use crate::topology::{AccessCostParts, PathCost};

/// The device classes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemDeviceKind {
    /// On-die SRAM cache (modelled as a scratchpad the runtime can target).
    Cache,
    /// High-bandwidth memory stacked on the package (CPU- or GPU-attached).
    Hbm,
    /// Plain DDR DRAM on the local socket.
    Dram,
    /// GDDR attached to a GPU; fast and local *to the GPU*.
    Gddr,
    /// Byte-addressable persistent memory (Optane-class) on the memory bus.
    Pmem,
    /// DRAM behind a CXL.mem expander (PCIe-attached, cache-coherent).
    CxlDram,
    /// Network-attached disaggregated memory (RDMA far memory).
    FarMemory,
    /// NVMe solid-state storage.
    Ssd,
    /// Rotational storage.
    Hdd,
}

impl MemDeviceKind {
    /// All kinds, in Table 1 row order (GDDR inserted after DRAM; the paper
    /// introduces it in Figure 3 rather than Table 1).
    pub const ALL: [MemDeviceKind; 9] = [
        MemDeviceKind::Cache,
        MemDeviceKind::Hbm,
        MemDeviceKind::Dram,
        MemDeviceKind::Gddr,
        MemDeviceKind::Pmem,
        MemDeviceKind::CxlDram,
        MemDeviceKind::FarMemory,
        MemDeviceKind::Ssd,
        MemDeviceKind::Hdd,
    ];

    /// The Table 1 row order without GDDR (exactly the paper's rows).
    pub const TABLE1: [MemDeviceKind; 8] = [
        MemDeviceKind::Cache,
        MemDeviceKind::Hbm,
        MemDeviceKind::Dram,
        MemDeviceKind::Pmem,
        MemDeviceKind::CxlDram,
        MemDeviceKind::FarMemory,
        MemDeviceKind::Ssd,
        MemDeviceKind::Hdd,
    ];

    /// Human-readable name matching the paper's table.
    pub fn name(self) -> &'static str {
        match self {
            MemDeviceKind::Cache => "Cache",
            MemDeviceKind::Hbm => "HBM",
            MemDeviceKind::Dram => "DRAM",
            MemDeviceKind::Gddr => "GDDR",
            MemDeviceKind::Pmem => "PMem",
            MemDeviceKind::CxlDram => "CXL-DRAM",
            MemDeviceKind::FarMemory => "Disagg. Mem.",
            MemDeviceKind::Ssd => "SSD",
            MemDeviceKind::Hdd => "HDD",
        }
    }
}

/// How a device is physically attached, as listed in Table 1's
/// "Attached" column. Attachment determines which interconnect hops an
/// access must traverse and whether loads/stores can be synchronous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Attachment {
    /// Directly on the CPU memory bus (cache, HBM, DRAM, PMem).
    Cpu,
    /// On a GPU's local memory bus.
    Gpu,
    /// Behind PCIe/CXL (CXL-DRAM, SSD).
    Pcie,
    /// Behind the NIC (disaggregated far memory).
    Nic,
    /// Behind SATA (HDD).
    Sata,
}

impl Attachment {
    /// Name used when printing Table 1.
    pub fn name(self) -> &'static str {
        match self {
            Attachment::Cpu => "CPU",
            Attachment::Gpu => "GPU",
            Attachment::Pcie => "PCIe",
            Attachment::Nic => "NIC",
            Attachment::Sata => "SATA",
        }
    }
}

/// Whether synchronous (load/store) access is possible — Table 1's "Sync"
/// column, which has three states: always, configurable, and never.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncSupport {
    /// Plain loads/stores complete synchronously (near memory).
    Sync,
    /// Either mode; the interface choice is up to the runtime (CXL memory).
    Either,
    /// Only asynchronous/block access makes sense (far memory, storage).
    AsyncOnly,
}

impl SyncSupport {
    /// Returns true if the device can serve synchronous loads/stores.
    pub fn allows_sync(self) -> bool {
        !matches!(self, SyncSupport::AsyncOnly)
    }

    /// Symbol used when printing Table 1 (matches the paper's glyphs).
    pub fn symbol(self) -> &'static str {
        match self {
            SyncSupport::Sync => "yes",
            SyncSupport::Either => "yes/no",
            SyncSupport::AsyncOnly => "no",
        }
    }
}

/// Is an access random or sequential? Granularity rounding penalizes random
/// small accesses on coarse-grained devices; sequential streams amortize
/// per-access latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Independent accesses; each pays full latency and granularity rounding.
    Random,
    /// Streaming accesses; latency amortized, bandwidth-bound.
    Sequential,
}

/// Read or write. Some devices (PMem, SSD) are markedly asymmetric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOp {
    /// A read access.
    Read,
    /// A write access.
    Write,
}

/// A calibrated memory-device model: one Table 1 row instance.
#[derive(Debug, Clone)]
pub struct MemDeviceModel {
    /// Which Table 1 row this device instantiates.
    pub kind: MemDeviceKind,
    /// Device read latency for one access, in nanoseconds (device only; the
    /// topology adds interconnect hops on top).
    pub read_lat_ns: f64,
    /// Device write latency for one access, in nanoseconds.
    pub write_lat_ns: f64,
    /// Read bandwidth in bytes per nanosecond (== GB/s).
    pub read_bw_bpns: f64,
    /// Write bandwidth in bytes per nanosecond (== GB/s).
    pub write_bw_bpns: f64,
    /// Access granularity in bytes (Table 1's "Gran." column): the smallest
    /// unit the device transfers; smaller accesses are rounded up.
    pub granularity: u64,
    /// Physical attachment point.
    pub attachment: Attachment,
    /// Whether synchronous loads/stores are possible.
    pub sync: SyncSupport,
    /// Whether contents survive power loss (Table 1's "Persist." column).
    pub persistent: bool,
    /// Whether the device participates in the cache-coherence domain.
    pub coherent: bool,
    /// Usable capacity in bytes.
    pub capacity: u64,
    /// Acquisition cost per GiB in dollars; drives the pooling-economics
    /// experiment (E11).
    pub cost_per_gib: f64,
}

impl MemDeviceModel {
    /// The default model for a device kind: its record in the machine
    /// table ([`calibration::mem`]).
    pub fn preset(kind: MemDeviceKind) -> MemDeviceModel {
        let r = calibration::mem(kind);
        MemDeviceModel {
            kind,
            read_lat_ns: r.read_lat_ns.value,
            write_lat_ns: r.write_lat_ns.value,
            read_bw_bpns: r.read_bw_bpns.value,
            write_bw_bpns: r.write_bw_bpns.value,
            granularity: r.granularity.value,
            attachment: r.attachment,
            sync: r.sync,
            persistent: r.persistent,
            coherent: r.coherent,
            capacity: r.capacity.value,
            cost_per_gib: r.cost_per_gib.value,
        }
    }

    /// Same preset with a different capacity (for building small test
    /// topologies whose capacity bounds are easy to exercise).
    pub fn preset_with_capacity(kind: MemDeviceKind, capacity: u64) -> MemDeviceModel {
        MemDeviceModel {
            capacity,
            ..MemDeviceModel::preset(kind)
        }
    }

    /// Device latency for a single access, before interconnect hops.
    pub fn latency(&self, op: AccessOp) -> f64 {
        match op {
            AccessOp::Read => self.read_lat_ns,
            AccessOp::Write => self.write_lat_ns,
        }
    }

    /// Device bandwidth for an operation, in bytes per nanosecond.
    pub fn bandwidth(&self, op: AccessOp) -> f64 {
        match op {
            AccessOp::Read => self.read_bw_bpns,
            AccessOp::Write => self.write_bw_bpns,
        }
    }

    /// Bytes actually transferred for a logical access of `bytes`, after
    /// rounding up to the device granularity.
    pub fn effective_bytes(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        bytes.div_ceil(self.granularity) * self.granularity
    }

    /// Uncontended cost of one access at the device itself: the cost
    /// model's formula ([`AccessCostParts::of`]) over the zero-cost
    /// local path.
    ///
    /// Random accesses pay full latency plus the (granularity-rounded)
    /// transfer; sequential accesses amortize latency over the stream and
    /// are bandwidth-bound, paying latency once.
    pub fn access_cost(&self, bytes: u64, op: AccessOp, pattern: AccessPattern) -> SimDuration {
        AccessCostParts::of(self, PathCost::LOCAL, bytes, op, pattern).total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat(kind: MemDeviceKind) -> f64 {
        calibration::mem(kind).read_lat_ns.value
    }

    fn bw(kind: MemDeviceKind) -> f64 {
        calibration::mem(kind).read_bw_bpns.value
    }

    #[test]
    fn a_preset_is_its_table_record() {
        for kind in MemDeviceKind::ALL {
            let (m, r) = (MemDeviceModel::preset(kind), calibration::mem(kind));
            assert_eq!(m.kind, r.kind);
            assert_eq!(
                [m.read_lat_ns, m.write_lat_ns, m.read_bw_bpns, m.write_bw_bpns, m.cost_per_gib],
                [
                    r.read_lat_ns.value,
                    r.write_lat_ns.value,
                    r.read_bw_bpns.value,
                    r.write_bw_bpns.value,
                    r.cost_per_gib.value
                ]
            );
            assert_eq!((m.granularity, m.capacity), (r.granularity.value, r.capacity.value));
            assert_eq!(
                (m.attachment, m.sync, m.persistent, m.coherent),
                (r.attachment, r.sync, r.persistent, r.coherent)
            );
        }
    }

    #[test]
    fn table1_latency_ordering_holds() {
        // Table 1's "Lat." column: Cache ++, HBM/DRAM +, PMem/CXL o,
        // far memory -, SSD -, HDD --.
        use MemDeviceKind::*;
        assert!(lat(Cache) < lat(Dram));
        assert!(lat(Dram) <= lat(Hbm));
        assert!(lat(Hbm) < lat(Pmem));
        assert!(lat(CxlDram) < lat(FarMemory));
        assert!(lat(Pmem) < lat(FarMemory));
        assert!(lat(FarMemory) < lat(Ssd));
        assert!(lat(Ssd) < lat(Hdd));
    }

    #[test]
    fn table1_bandwidth_ordering_holds() {
        // Table 1's "Bw." column: Cache/HBM ++, DRAM +, PMem/CXL/far o,
        // SSD -, HDD --.
        use MemDeviceKind::*;
        assert!(bw(Cache) > bw(Dram));
        assert!(bw(Hbm) > bw(Dram));
        assert!(bw(Dram) > bw(Pmem));
        assert!(bw(CxlDram) > bw(Ssd));
        assert!(bw(Ssd) > bw(Hdd));
    }

    #[test]
    fn table1_persistence_flags_match() {
        use MemDeviceKind::*;
        let persistent = |kind| calibration::mem(kind).persistent;
        assert!(!persistent(Cache));
        assert!(!persistent(Hbm));
        assert!(!persistent(Dram));
        assert!(persistent(Pmem));
        assert!(persistent(Ssd));
        assert!(persistent(Hdd));
        // CXL is "yes/no": the table holds the volatile variant.
        assert!(!persistent(CxlDram));
    }

    #[test]
    fn table1_granularities_match() {
        use MemDeviceKind::*;
        let gran = |kind| calibration::mem(kind).granularity.value;
        assert_eq!(gran(Cache), 1);
        assert_eq!(gran(Hbm), 64);
        assert_eq!(gran(Dram), 64);
        assert_eq!(gran(Pmem), 256);
        assert_eq!(gran(CxlDram), 64);
        assert_eq!(gran(Ssd), 4096);
        assert_eq!(gran(Hdd), 4096);
    }

    #[test]
    fn table1_sync_column_matches() {
        use MemDeviceKind::*;
        let sync = |kind| calibration::mem(kind).sync;
        assert_eq!(sync(Dram), SyncSupport::Sync);
        assert_eq!(sync(CxlDram), SyncSupport::Either);
        assert_eq!(sync(FarMemory), SyncSupport::AsyncOnly);
        assert!(sync(CxlDram).allows_sync());
        assert!(!sync(Ssd).allows_sync());
    }

    #[test]
    fn effective_bytes_rounds_to_granularity() {
        let pmem = MemDeviceModel::preset(MemDeviceKind::Pmem);
        assert_eq!(pmem.effective_bytes(0), 0);
        assert_eq!(pmem.effective_bytes(1), 256);
        assert_eq!(pmem.effective_bytes(256), 256);
        assert_eq!(pmem.effective_bytes(257), 512);
    }

    #[test]
    fn zero_byte_access_is_free() {
        let dram = MemDeviceModel::preset(MemDeviceKind::Dram);
        assert_eq!(
            dram.access_cost(0, AccessOp::Read, AccessPattern::Random),
            SimDuration::ZERO
        );
    }

    #[test]
    fn sequential_beats_random_for_bulk() {
        let dram = MemDeviceModel::preset(MemDeviceKind::Dram);
        let seq = dram.access_cost(1 << 20, AccessOp::Read, AccessPattern::Sequential);
        let rnd = dram.access_cost(1 << 20, AccessOp::Read, AccessPattern::Random);
        assert!(
            rnd.as_nanos() > 10 * seq.as_nanos(),
            "random {rnd} should dwarf sequential {seq}"
        );
    }

    #[test]
    fn pmem_writes_cost_more_than_reads() {
        let pmem = MemDeviceModel::preset(MemDeviceKind::Pmem);
        let r = pmem.access_cost(1 << 20, AccessOp::Read, AccessPattern::Sequential);
        let w = pmem.access_cost(1 << 20, AccessOp::Write, AccessPattern::Sequential);
        assert!(w > r);
    }

    #[test]
    fn observed_bandwidth_approaches_rated_for_large_transfers() {
        let dram = MemDeviceModel::preset(MemDeviceKind::Dram);
        let cost = dram.access_cost(1 << 30, AccessOp::Read, AccessPattern::Sequential);
        let obs = (1u64 << 30) as f64 / cost.as_nanos_f64();
        assert!((obs - dram.read_bw_bpns).abs() / dram.read_bw_bpns < 0.01);
    }

    #[test]
    fn small_random_access_latency_dominated() {
        let far = MemDeviceModel::preset(MemDeviceKind::FarMemory);
        let c = far.access_cost(8, AccessOp::Read, AccessPattern::Random);
        // One 8-byte read rounds to one 256 B granule: latency + ~21 ns.
        assert!(c.as_nanos() >= 2_000);
        assert!(c.as_nanos() < 2_100);
    }

    #[test]
    fn storage_costs_reflect_capacity_tiering() {
        use MemDeviceKind::*;
        let cost = |kind| calibration::mem(kind).cost_per_gib.value;
        assert!(cost(Dram) > cost(Ssd));
        assert!(cost(Ssd) > cost(Hdd));
    }
}
