//! Ready-made topologies for the paper's experiments.
//!
//! - [`single_server`]: one Sapphire-Rapids-style host with every Table 1
//!   device reachable from the CPU — the viewpoint Table 1 is written from.
//! - [`two_socket`]: a two-socket NUMA box for the "NUMA costs up to 3×"
//!   claim (E8).
//! - [`hetero_storage_server`]: DRAM + PMem + SSD + HDD under one CPU for
//!   the "naïve placement costs up to 3×" claim (E9).
//! - [`compute_centric_rack`]: Figure 1a — every server owns its private
//!   memory; remote memory only via the network.
//! - [`disaggregated_rack`]: Figure 1b — lean compute nodes in front of a
//!   CXL-switched memory pool plus NIC-attached far memory.

use crate::compute::{ComputeKind, ComputeModel};
use crate::device::{MemDeviceKind, MemDeviceModel};
use crate::ids::{ComputeId, MemDeviceId, NodeId};
use crate::topology::{Endpoint, LinkKind, Topology};

const GIB: u64 = 1 << 30;

/// Handles into a [`single_server`] topology.
#[derive(Debug, Clone, Copy)]
pub struct SingleServer {
    /// The host node.
    pub node: NodeId,
    /// The far-memory blade node.
    pub far_node: NodeId,
    /// The CPU.
    pub cpu: ComputeId,
    /// The GPU.
    pub gpu: ComputeId,
    /// On-die cache scratchpad.
    pub cache: MemDeviceId,
    /// CPU-attached HBM.
    pub hbm: MemDeviceId,
    /// Socket DRAM.
    pub dram: MemDeviceId,
    /// GPU-attached GDDR.
    pub gddr: MemDeviceId,
    /// Persistent memory DIMMs.
    pub pmem: MemDeviceId,
    /// CXL-attached DRAM expander.
    pub cxl: MemDeviceId,
    /// NIC-attached disaggregated memory.
    pub far: MemDeviceId,
    /// NVMe SSD.
    pub ssd: MemDeviceId,
    /// SATA HDD.
    pub hdd: MemDeviceId,
}

/// Builds one fully equipped server: CPU with cache/HBM/DRAM/PMem, a GPU
/// with GDDR, a CXL expander, NVMe SSD, SATA HDD, and a far-memory blade
/// behind the NIC. Every Table 1 row is present and reachable from the CPU.
pub fn single_server() -> (Topology, SingleServer) {
    let mut b = Topology::builder();
    let node = b.node("host0");
    let far_node = b.node("memblade0");

    let cpu = b.compute(node, ComputeModel::preset(ComputeKind::Cpu));
    let gpu = b.compute(node, ComputeModel::preset(ComputeKind::Gpu));

    let cache = b.mem(node, MemDeviceModel::preset(MemDeviceKind::Cache));
    let hbm = b.mem(node, MemDeviceModel::preset(MemDeviceKind::Hbm));
    let dram = b.mem(node, MemDeviceModel::preset(MemDeviceKind::Dram));
    let gddr = b.mem(node, MemDeviceModel::preset(MemDeviceKind::Gddr));
    let pmem = b.mem(node, MemDeviceModel::preset(MemDeviceKind::Pmem));
    let cxl = b.mem(node, MemDeviceModel::preset(MemDeviceKind::CxlDram));
    let ssd = b.mem(node, MemDeviceModel::preset(MemDeviceKind::Ssd));
    let hdd = b.mem(node, MemDeviceModel::preset(MemDeviceKind::Hdd));
    let far = b.mem(far_node, MemDeviceModel::preset(MemDeviceKind::FarMemory));

    // CPU-local devices.
    b.link(cpu, cache, LinkKind::MemBus);
    b.link(cpu, hbm, LinkKind::MemBus);
    b.link(cpu, dram, LinkKind::MemBus);
    b.link(cpu, pmem, LinkKind::MemBus);
    // PCIe/CXL devices hang off the host hub, reachable from CPU and GPU.
    b.link(cpu, Endpoint::Hub(node), LinkKind::PcieCxl);
    b.link(gpu, Endpoint::Hub(node), LinkKind::PciePeer);
    b.link(Endpoint::Hub(node), cxl, LinkKind::PcieCxl);
    b.link(Endpoint::Hub(node), ssd, LinkKind::PcieCxl);
    b.link(Endpoint::Hub(node), hdd, LinkKind::Sata);
    // GPU-local memory.
    b.link(gpu, gddr, LinkKind::GpuBus);
    // Far memory behind the NIC.
    b.link(Endpoint::Hub(node), Endpoint::Hub(far_node), LinkKind::Nic);
    b.link(Endpoint::Hub(far_node), far, LinkKind::MemBus);

    let topo = b.build().expect("single_server preset is valid");
    (
        topo,
        SingleServer {
            node,
            far_node,
            cpu,
            gpu,
            cache,
            hbm,
            dram,
            gddr,
            pmem,
            cxl,
            far,
            ssd,
            hdd,
        },
    )
}

/// Handles into a [`two_socket`] topology.
#[derive(Debug, Clone, Copy)]
pub struct TwoSocket {
    /// Socket-0 CPU.
    pub cpu0: ComputeId,
    /// Socket-1 CPU.
    pub cpu1: ComputeId,
    /// Socket-0 DRAM.
    pub dram0: MemDeviceId,
    /// Socket-1 DRAM.
    pub dram1: MemDeviceId,
}

/// Builds a classic two-socket NUMA server: each socket has a CPU and its
/// local DRAM; sockets connect over a NUMA interconnect. Used by the
/// "NUMA can slow down algorithms by up to 3×" experiment.
pub fn two_socket() -> (Topology, TwoSocket) {
    let mut b = Topology::builder();
    let s0 = b.node("socket0");
    let s1 = b.node("socket1");
    let cpu0 = b.compute(s0, ComputeModel::preset(ComputeKind::Cpu));
    let cpu1 = b.compute(s1, ComputeModel::preset(ComputeKind::Cpu));
    let dram0 = b.mem(s0, MemDeviceModel::preset(MemDeviceKind::Dram));
    let dram1 = b.mem(s1, MemDeviceModel::preset(MemDeviceKind::Dram));
    b.link(cpu0, dram0, LinkKind::MemBus);
    b.link(cpu1, dram1, LinkKind::MemBus);
    // The NUMA interconnect joins the sockets; remote DRAM is reached
    // through the peer socket.
    b.link(cpu0, Endpoint::Hub(s0), LinkKind::MemBus);
    b.link(cpu1, Endpoint::Hub(s1), LinkKind::MemBus);
    b.link(Endpoint::Hub(s0), Endpoint::Hub(s1), LinkKind::Numa);
    b.link(Endpoint::Hub(s0), dram0, LinkKind::MemBus);
    b.link(Endpoint::Hub(s1), dram1, LinkKind::MemBus);
    let topo = b.build().expect("two_socket preset is valid");
    (topo, TwoSocket { cpu0, cpu1, dram0, dram1 })
}

/// Handles into a [`hetero_storage_server`] topology.
#[derive(Debug, Clone, Copy)]
pub struct HeteroStorage {
    /// The CPU.
    pub cpu: ComputeId,
    /// DRAM tier.
    pub dram: MemDeviceId,
    /// PMem tier.
    pub pmem: MemDeviceId,
    /// SSD tier.
    pub ssd: MemDeviceId,
    /// HDD tier.
    pub hdd: MemDeviceId,
}

/// Builds a server with a heterogeneous storage landscape (DRAM, PMem,
/// SSD, HDD) for the naïve-placement experiment (Mosaic-style).
pub fn hetero_storage_server() -> (Topology, HeteroStorage) {
    let mut b = Topology::builder();
    let n = b.node("host");
    let cpu = b.compute(n, ComputeModel::preset(ComputeKind::Cpu));
    let dram = b.mem(n, MemDeviceModel::preset_with_capacity(MemDeviceKind::Dram, 64 * GIB));
    let pmem = b.mem(n, MemDeviceModel::preset(MemDeviceKind::Pmem));
    let ssd = b.mem(n, MemDeviceModel::preset(MemDeviceKind::Ssd));
    let hdd = b.mem(n, MemDeviceModel::preset(MemDeviceKind::Hdd));
    b.link(cpu, dram, LinkKind::MemBus);
    b.link(cpu, pmem, LinkKind::MemBus);
    b.link(cpu, Endpoint::Hub(n), LinkKind::PcieCxl);
    b.link(Endpoint::Hub(n), ssd, LinkKind::PcieCxl);
    b.link(Endpoint::Hub(n), hdd, LinkKind::Sata);
    let topo = b.build().expect("hetero_storage preset is valid");
    (topo, HeteroStorage { cpu, dram, pmem, ssd, hdd })
}

/// Handles into a rack topology.
#[derive(Debug, Clone)]
pub struct Rack {
    /// Per-server CPUs.
    pub cpus: Vec<ComputeId>,
    /// Per-server GPUs (empty slots possible in future variants).
    pub gpus: Vec<ComputeId>,
    /// Per-server local DRAM.
    pub drams: Vec<MemDeviceId>,
    /// Per-server GDDR (parallel to `gpus`).
    pub gddrs: Vec<MemDeviceId>,
    /// Pooled memory devices (empty for the compute-centric rack).
    pub pool: Vec<MemDeviceId>,
    /// Server nodes.
    pub nodes: Vec<NodeId>,
    /// Pool nodes (memory blades), if any.
    pub pool_nodes: Vec<NodeId>,
}

/// Figure 1a: a compute-centric rack. Each of `servers` nodes owns
/// `dram_gib` GiB of private DRAM (provisioned for peak); the only remote
/// memory is a peer's DRAM over the network.
pub fn compute_centric_rack(servers: usize, dram_gib: u64) -> (Topology, Rack) {
    assert!(servers >= 1, "rack needs at least one server");
    let mut b = Topology::builder();
    let mut rack = Rack {
        cpus: Vec::new(),
        gpus: Vec::new(),
        drams: Vec::new(),
        gddrs: Vec::new(),
        pool: Vec::new(),
        nodes: Vec::new(),
        pool_nodes: Vec::new(),
    };
    let switch = b.node("rack-switch");
    for i in 0..servers {
        let n = b.node(format!("server{i}"));
        let cpu = b.compute(n, ComputeModel::preset(ComputeKind::Cpu));
        let gpu = b.compute(n, ComputeModel::preset(ComputeKind::Gpu));
        let dram = b.mem(
            n,
            MemDeviceModel::preset_with_capacity(MemDeviceKind::Dram, dram_gib * GIB),
        );
        let gddr = b.mem(n, MemDeviceModel::preset(MemDeviceKind::Gddr));
        b.link(cpu, dram, LinkKind::MemBus);
        b.link(gpu, gddr, LinkKind::GpuBus);
        b.link(cpu, Endpoint::Hub(n), LinkKind::PcieCxl);
        b.link(gpu, Endpoint::Hub(n), LinkKind::PciePeer);
        b.link(Endpoint::Hub(n), dram, LinkKind::MemBus);
        // NIC to the rack switch: remote access is possible but slow.
        b.link(Endpoint::Hub(n), Endpoint::Hub(switch), LinkKind::Nic);
        rack.nodes.push(n);
        rack.cpus.push(cpu);
        rack.gpus.push(gpu);
        rack.drams.push(dram);
        rack.gddrs.push(gddr);
    }
    let topo = b.build().expect("compute_centric_rack preset is valid");
    (topo, rack)
}

/// A pure CXL-pool rack for the pooling-economics experiment: lean
/// compute nodes and `pool_blades` CXL blades behind the fabric, and
/// nothing else — so provisioned capacity is exactly what you count.
pub fn cxl_pool_rack(
    servers: usize,
    local_dram_gib: u64,
    pool_blades: usize,
    blade_gib: u64,
) -> (Topology, Rack) {
    assert!(servers >= 1 && pool_blades >= 1, "rack needs servers and blades");
    let mut b = Topology::builder();
    let mut rack = Rack {
        cpus: Vec::new(),
        gpus: Vec::new(),
        drams: Vec::new(),
        gddrs: Vec::new(),
        pool: Vec::new(),
        nodes: Vec::new(),
        pool_nodes: Vec::new(),
    };
    let fabric = b.node("cxl-fabric");
    for i in 0..servers {
        let n = b.node(format!("compute{i}"));
        let cpu = b.compute(n, ComputeModel::preset(ComputeKind::Cpu));
        let dram = b.mem(
            n,
            MemDeviceModel::preset_with_capacity(MemDeviceKind::Dram, local_dram_gib * GIB),
        );
        b.link(cpu, dram, LinkKind::MemBus);
        b.link(cpu, Endpoint::Hub(n), LinkKind::PcieCxl);
        b.link(Endpoint::Hub(n), Endpoint::Hub(fabric), LinkKind::CxlFabric);
        rack.nodes.push(n);
        rack.cpus.push(cpu);
        rack.drams.push(dram);
    }
    for i in 0..pool_blades {
        let n = b.node(format!("memblade{i}"));
        let cxl = b.mem(
            n,
            MemDeviceModel::preset_with_capacity(MemDeviceKind::CxlDram, blade_gib * GIB),
        );
        b.link(Endpoint::Hub(fabric), cxl, LinkKind::CxlFabric);
        rack.pool_nodes.push(n);
        rack.pool.push(cxl);
    }
    let topo = b.build().expect("cxl_pool_rack preset is valid");
    (topo, rack)
}

/// Figure 1b: a memory-centric (disaggregated) rack. Lean compute nodes
/// (small local DRAM) in front of a CXL-switched pool of `pool_blades`
/// memory blades with `blade_gib` GiB of CXL-DRAM each, plus one
/// PMem blade and one NIC-attached far-memory blade.
pub fn disaggregated_rack(
    servers: usize,
    local_dram_gib: u64,
    pool_blades: usize,
    blade_gib: u64,
) -> (Topology, Rack) {
    assert!(servers >= 1 && pool_blades >= 1, "rack needs servers and blades");
    let mut b = Topology::builder();
    let mut rack = Rack {
        cpus: Vec::new(),
        gpus: Vec::new(),
        drams: Vec::new(),
        gddrs: Vec::new(),
        pool: Vec::new(),
        nodes: Vec::new(),
        pool_nodes: Vec::new(),
    };
    // The CXL switch every compute node and pool blade plugs into.
    let fabric = b.node("cxl-fabric");
    for i in 0..servers {
        let n = b.node(format!("compute{i}"));
        let cpu = b.compute(n, ComputeModel::preset(ComputeKind::Cpu));
        let gpu = b.compute(n, ComputeModel::preset(ComputeKind::Gpu));
        let dram = b.mem(
            n,
            MemDeviceModel::preset_with_capacity(MemDeviceKind::Dram, local_dram_gib * GIB),
        );
        let gddr = b.mem(n, MemDeviceModel::preset(MemDeviceKind::Gddr));
        b.link(cpu, dram, LinkKind::MemBus);
        b.link(gpu, gddr, LinkKind::GpuBus);
        b.link(cpu, Endpoint::Hub(n), LinkKind::PcieCxl);
        b.link(gpu, Endpoint::Hub(n), LinkKind::PciePeer);
        b.link(Endpoint::Hub(n), Endpoint::Hub(fabric), LinkKind::CxlFabric);
        rack.nodes.push(n);
        rack.cpus.push(cpu);
        rack.gpus.push(gpu);
        rack.drams.push(dram);
        rack.gddrs.push(gddr);
    }
    for i in 0..pool_blades {
        let n = b.node(format!("memblade{i}"));
        let cxl = b.mem(
            n,
            MemDeviceModel::preset_with_capacity(MemDeviceKind::CxlDram, blade_gib * GIB),
        );
        b.link(Endpoint::Hub(fabric), cxl, LinkKind::CxlFabric);
        rack.pool_nodes.push(n);
        rack.pool.push(cxl);
    }
    // One persistent blade and one far-memory blade round out the pool.
    let pmem_blade = b.node("pmem-blade");
    let pmem = b.mem(pmem_blade, MemDeviceModel::preset(MemDeviceKind::Pmem));
    b.link(Endpoint::Hub(fabric), pmem, LinkKind::CxlFabric);
    rack.pool_nodes.push(pmem_blade);
    rack.pool.push(pmem);

    let far_blade = b.node("far-blade");
    let far = b.mem(far_blade, MemDeviceModel::preset(MemDeviceKind::FarMemory));
    b.link(Endpoint::Hub(fabric), Endpoint::Hub(far_blade), LinkKind::Nic);
    b.link(Endpoint::Hub(far_blade), far, LinkKind::MemBus);
    rack.pool_nodes.push(far_blade);
    rack.pool.push(far);

    let topo = b.build().expect("disaggregated_rack preset is valid");
    (topo, rack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{AccessOp, AccessPattern};

    #[test]
    fn single_server_reaches_every_table1_device_from_cpu() {
        let (topo, h) = single_server();
        for dev in [h.cache, h.hbm, h.dram, h.pmem, h.cxl, h.far, h.ssd, h.hdd] {
            assert!(topo.reachable(h.cpu, dev), "CPU cannot reach {dev}");
        }
        assert!(topo.reachable(h.gpu, h.gddr));
        assert!(topo.reachable(h.gpu, h.cxl), "GPU must reach CXL pool");
    }

    #[test]
    fn single_server_latency_ordering_matches_table1_from_cpu() {
        let (topo, h) = single_server();
        let lat = |dev| {
            topo.access_cost(h.cpu, dev, 64, AccessOp::Read, AccessPattern::Random)
                .unwrap()
                .as_nanos()
        };
        assert!(lat(h.cache) < lat(h.dram));
        assert!(lat(h.dram) < lat(h.pmem));
        assert!(lat(h.dram) < lat(h.cxl));
        assert!(lat(h.cxl) < lat(h.far));
        assert!(lat(h.far) < lat(h.ssd));
        assert!(lat(h.ssd) < lat(h.hdd));
    }

    #[test]
    fn two_socket_remote_access_is_slower() {
        let (topo, h) = two_socket();
        let local = topo
            .access_cost(h.cpu0, h.dram0, 64, AccessOp::Read, AccessPattern::Random)
            .unwrap();
        let remote = topo
            .access_cost(h.cpu0, h.dram1, 64, AccessOp::Read, AccessPattern::Random)
            .unwrap();
        assert!(remote.as_nanos() > local.as_nanos());
        // The remote penalty should land in the NUMA ballpark (~1.5-3x).
        let ratio = remote.as_nanos() as f64 / local.as_nanos() as f64;
        assert!((1.3..4.0).contains(&ratio), "NUMA ratio {ratio}");
    }

    #[test]
    fn gpu_local_memory_is_gddr_not_dram() {
        let (topo, h) = single_server();
        let gpu = topo.compute(h.gpu);
        assert!(gpu.is_local(h.gddr));
        assert!(!gpu.is_local(h.dram));
        let cpu = topo.compute(h.cpu);
        assert!(cpu.is_local(h.dram));
        assert!(!cpu.is_local(h.gddr));
    }

    #[test]
    fn compute_centric_rack_reaches_peer_memory_via_network() {
        let (topo, rack) = compute_centric_rack(3, 256);
        // Local DRAM is cheap; a peer's DRAM is reachable but much slower.
        let local = topo
            .access_cost(rack.cpus[0], rack.drams[0], 64, AccessOp::Read, AccessPattern::Random)
            .unwrap();
        let remote = topo
            .access_cost(rack.cpus[0], rack.drams[1], 64, AccessOp::Read, AccessPattern::Random)
            .unwrap();
        assert!(remote.as_nanos() > 5 * local.as_nanos());
    }

    #[test]
    fn disaggregated_rack_pool_is_shared_and_closer_than_network() {
        let (topo, rack) = disaggregated_rack(2, 32, 2, 512);
        let cxl = rack.pool[0];
        for &cpu in &rack.cpus {
            assert!(topo.reachable(cpu, cxl), "every CPU reaches the pool");
        }
        let far = *rack.pool.last().unwrap();
        let via_cxl = topo
            .access_cost(rack.cpus[0], cxl, 64, AccessOp::Read, AccessPattern::Random)
            .unwrap();
        let via_nic = topo
            .access_cost(rack.cpus[0], far, 64, AccessOp::Read, AccessPattern::Random)
            .unwrap();
        assert!(via_cxl < via_nic, "CXL pool must beat NIC far memory");
    }

    #[test]
    fn disaggregated_rack_has_more_pooled_than_local_capacity() {
        let (topo, rack) = disaggregated_rack(4, 32, 4, 512);
        let local: u64 = rack.drams.iter().map(|&d| topo.mem(d).capacity).sum();
        let pooled: u64 = rack.pool.iter().map(|&d| topo.mem(d).capacity).sum();
        assert!(pooled > local);
    }
}
