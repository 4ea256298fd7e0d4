//! Interconnect topology: the graph connecting compute and memory devices.
//!
//! A topology is a set of *nodes* (servers, memory blades) holding compute
//! and memory devices, wired together by *links* (memory bus, NUMA
//! interconnect, PCIe/CXL, CXL fabric, NIC). Placement quality in the
//! paper hinges on topology awareness: the cost of an access is the
//! device's own latency/bandwidth *plus* every interconnect hop between the
//! executing compute device and the memory.
//!
//! Device presets in [`crate::device`] are calibrated "as seen from a local
//! CPU" (matching Table 1), so attachment links carry near-zero extra
//! latency; only *additional* hops — a NUMA crossing, the CXL fabric, the
//! NIC — add cost. This avoids double-counting while letting remote
//! placements pay realistic penalties.

use std::collections::BinaryHeap;
use std::hash::Hasher;

use crate::calibration;
use crate::compute::ComputeModel;
use crate::device::{AccessOp, AccessPattern, MemDeviceModel};
use crate::fx::FxHasher;
use crate::ids::{ComputeId, LinkId, MemDeviceId, NodeId};
use crate::time::SimDuration;

/// A vertex in the topology graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A compute device.
    Compute(ComputeId),
    /// A memory device.
    Mem(MemDeviceId),
    /// A node-internal hub or rack-level switch (routing vertex only).
    Hub(NodeId),
}

impl From<ComputeId> for Endpoint {
    fn from(id: ComputeId) -> Self {
        Endpoint::Compute(id)
    }
}

impl From<MemDeviceId> for Endpoint {
    fn from(id: MemDeviceId) -> Self {
        Endpoint::Mem(id)
    }
}

/// The physical technology of a link; its default latency and bandwidth
/// are its record in the machine table ([`calibration::link`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// On-package memory bus (CPU ↔ cache/HBM/DRAM/PMem).
    MemBus,
    /// GPU ↔ GDDR bus.
    GpuBus,
    /// Socket-to-socket NUMA interconnect (UPI/Infinity Fabric).
    Numa,
    /// PCIe/CXL attachment as seen from the host CPU (root-complex side;
    /// the attached device's latency already includes one traversal).
    PcieCxl,
    /// A peer PCIe device's path to the root complex (a discrete GPU
    /// crossing PCIe to reach host-side memory pays this per hop).
    PciePeer,
    /// CXL switch fabric hop (memory pooling).
    CxlFabric,
    /// Network link through the NIC.
    Nic,
    /// SATA attachment.
    Sata,
}

impl LinkKind {
    /// All link kinds.
    pub const ALL: [LinkKind; 8] = [
        LinkKind::MemBus,
        LinkKind::GpuBus,
        LinkKind::Numa,
        LinkKind::PcieCxl,
        LinkKind::PciePeer,
        LinkKind::CxlFabric,
        LinkKind::Nic,
        LinkKind::Sata,
    ];
}

/// One bidirectional link in the topology graph.
#[derive(Debug, Clone)]
pub struct Link {
    /// Link id.
    pub id: LinkId,
    /// One endpoint.
    pub a: Endpoint,
    /// The other endpoint.
    pub b: Endpoint,
    /// Added latency per traversal, nanoseconds.
    pub latency_ns: f64,
    /// Bandwidth, bytes per nanosecond.
    pub bandwidth_bpns: f64,
    /// Technology class.
    pub kind: LinkKind,
}

/// A node groups devices that fail together (a server or memory blade).
#[derive(Debug, Clone)]
pub struct Node {
    /// Node id.
    pub id: NodeId,
    /// Human-readable name for reports.
    pub name: String,
    /// Compute devices hosted on this node.
    pub compute: Vec<ComputeId>,
    /// Memory devices hosted on this node.
    pub mem: Vec<MemDeviceId>,
}

/// Resolved cost of the path between two endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathCost {
    /// Sum of link latencies along the path, nanoseconds.
    pub latency_ns: f64,
    /// Bottleneck (minimum) bandwidth along the path, bytes/ns. Paths with
    /// no links (device local to itself) report `f64::INFINITY`.
    pub bandwidth_bpns: f64,
    /// Number of links traversed.
    pub hops: u32,
    /// The link providing the bottleneck bandwidth, when the path has
    /// one. Shared interconnects (a PCIe uplink, the CXL fabric) contend
    /// through this id in the bandwidth ledger.
    pub bottleneck_link: Option<LinkId>,
}

impl PathCost {
    /// The zero-cost path (endpoint to itself).
    pub const LOCAL: PathCost = PathCost {
        latency_ns: 0.0,
        bandwidth_bpns: f64::INFINITY,
        hops: 0,
        bottleneck_link: None,
    };
}

/// An access cost split into its latency and bandwidth components (see
/// [`Topology::access_cost_parts`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessCostParts {
    /// Total latency charged for the access(es), nanoseconds.
    pub latency_ns: f64,
    /// Bytes that occupy the device/path after granularity rounding.
    pub eff_bytes: u64,
    /// Bottleneck bandwidth for the transfer, bytes/ns.
    pub bandwidth_bpns: f64,
    /// The narrowest interconnect link along the path (if any): shared
    /// uplinks and fabric hops contend through this id in the bandwidth
    /// ledger even when a single stream is device-bound.
    pub bottleneck_link: Option<LinkId>,
    /// That link's own bandwidth, bytes/ns (`INFINITY` when no link).
    pub link_bandwidth_bpns: f64,
}

impl AccessCostParts {
    /// The cost model's one access formula: `bytes` of `op` on `dev`
    /// reached over `path`. Random accesses pay the per-access latency
    /// (device plus path) once per access unit — the device granularity,
    /// floored at a cache line, since byte-granular devices still move
    /// whole lines; sequential accesses pay it once. Either way the
    /// granularity-rounded bytes stream at the narrower of the device's
    /// and the path's bandwidth.
    pub fn of(
        dev: &MemDeviceModel,
        path: PathCost,
        bytes: u64,
        op: AccessOp,
        pattern: AccessPattern,
    ) -> AccessCostParts {
        if bytes == 0 {
            return AccessCostParts {
                latency_ns: 0.0,
                eff_bytes: 0,
                bandwidth_bpns: f64::INFINITY,
                bottleneck_link: None,
                link_bandwidth_bpns: f64::INFINITY,
            };
        }
        let eff = dev.effective_bytes(bytes);
        let per_access_lat = dev.latency(op) + path.latency_ns;
        let latency_ns = match pattern {
            AccessPattern::Random => {
                let unit = dev.granularity.max(64) as f64;
                let accesses = (eff as f64 / unit).max(1.0).ceil();
                accesses * per_access_lat
            }
            AccessPattern::Sequential => per_access_lat,
        };
        AccessCostParts {
            latency_ns,
            eff_bytes: eff,
            bandwidth_bpns: dev.bandwidth(op).min(path.bandwidth_bpns),
            bottleneck_link: path.bottleneck_link,
            link_bandwidth_bpns: path.bandwidth_bpns,
        }
    }

    /// The uncontended total cost implied by the parts.
    pub fn total(&self) -> SimDuration {
        if self.eff_bytes == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos_f64(
            self.latency_ns + self.eff_bytes as f64 / self.bandwidth_bpns,
        )
    }
}

/// Errors raised while constructing a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A link references an endpoint that was never declared.
    UnknownEndpoint(String),
    /// The topology has no compute devices.
    NoCompute,
    /// The topology has no memory devices.
    NoMemory,
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::UnknownEndpoint(e) => write!(f, "link references unknown endpoint {e}"),
            TopologyError::NoCompute => write!(f, "topology declares no compute devices"),
            TopologyError::NoMemory => write!(f, "topology declares no memory devices"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// An immutable, validated hardware topology.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<Node>,
    compute: Vec<ComputeModel>,
    mem: Vec<MemDeviceModel>,
    links: Vec<Link>,
    /// Node owning each compute device.
    compute_node: Vec<NodeId>,
    /// Node owning each memory device.
    mem_node: Vec<NodeId>,
    /// `paths[c][m]`: resolved compute→memory path, `None` if unreachable.
    paths: Vec<Vec<Option<PathCost>>>,
    /// `mem_paths[a][b]`: resolved memory→memory path (for copies).
    mem_paths: Vec<Vec<Option<PathCost>>>,
    /// See [`Topology::fingerprint`].
    fingerprint: u64,
}

impl Topology {
    /// Starts building a topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All compute-device models, indexed by [`ComputeId`].
    pub fn compute_devices(&self) -> &[ComputeModel] {
        &self.compute
    }

    /// All memory-device models, indexed by [`MemDeviceId`].
    pub fn mem_devices(&self) -> &[MemDeviceModel] {
        &self.mem
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The model for one compute device.
    pub fn compute(&self, id: ComputeId) -> &ComputeModel {
        &self.compute[id.index()]
    }

    /// The model for one memory device.
    pub fn mem(&self, id: MemDeviceId) -> &MemDeviceModel {
        &self.mem[id.index()]
    }

    /// The node hosting a compute device.
    pub fn node_of_compute(&self, id: ComputeId) -> NodeId {
        self.compute_node[id.index()]
    }

    /// The node hosting a memory device.
    pub fn node_of_mem(&self, id: MemDeviceId) -> NodeId {
        self.mem_node[id.index()]
    }

    /// Iterator over compute ids.
    pub fn compute_ids(&self) -> impl Iterator<Item = ComputeId> + '_ {
        (0..self.compute.len()).map(ComputeId::from_index)
    }

    /// Iterator over memory-device ids.
    pub fn mem_ids(&self) -> impl Iterator<Item = MemDeviceId> + '_ {
        (0..self.mem.len()).map(MemDeviceId::from_index)
    }

    /// The resolved path from a compute device to a memory device, or
    /// `None` if the memory is not addressable from there.
    pub fn path(&self, from: ComputeId, to: MemDeviceId) -> Option<PathCost> {
        self.paths[from.index()][to.index()]
    }

    /// The resolved path between two memory devices (for copies and
    /// migrations), or `None` if no route exists.
    pub fn mem_path(&self, from: MemDeviceId, to: MemDeviceId) -> Option<PathCost> {
        self.mem_paths[from.index()][to.index()]
    }

    /// A hash of every memory-device model and every compute→memory
    /// path, computed once by [`TopologyBuilder::build`]. Caches of
    /// values derived from those (the placement engine's score table)
    /// compare it to tell whether they were filled from this topology's
    /// content; clones share it because they share the content.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// True if `mem` is addressable from `compute`.
    pub fn reachable(&self, compute: ComputeId, mem: MemDeviceId) -> bool {
        self.path(compute, mem).is_some()
    }

    /// Decomposed cost of an access from `compute` to `mem`
    /// ([`AccessCostParts::of`] over the resolved path): the latency
    /// component (paid per access), the effective bytes after granularity
    /// rounding, and the bottleneck bandwidth. The contention layer charges
    /// the bandwidth component against the device's ledger; latency is
    /// uncontended.
    ///
    /// Returns `None` if the memory is unreachable from the compute device.
    pub fn access_cost_parts(
        &self,
        compute: ComputeId,
        mem: MemDeviceId,
        bytes: u64,
        op: AccessOp,
        pattern: AccessPattern,
    ) -> Option<AccessCostParts> {
        let path = self.path(compute, mem)?;
        Some(AccessCostParts::of(self.mem(mem), path, bytes, op, pattern))
    }

    /// Uncontended cost of an access from `compute` to `mem`, including
    /// interconnect hops: the total of [`Topology::access_cost_parts`].
    /// This is the canonical cost primitive used by the region access
    /// interfaces and the scheduler's cost model.
    ///
    /// Returns `None` if the memory is unreachable from the compute device.
    pub fn access_cost(
        &self,
        compute: ComputeId,
        mem: MemDeviceId,
        bytes: u64,
        op: AccessOp,
        pattern: AccessPattern,
    ) -> Option<SimDuration> {
        self.access_cost_parts(compute, mem, bytes, op, pattern)
            .map(|parts| parts.total())
    }

    /// Uncontended cost of copying `bytes` from one memory device to
    /// another (read at the source, traverse the path, write at the
    /// destination). Returns `None` if no route exists.
    pub fn transfer_cost(
        &self,
        from: MemDeviceId,
        to: MemDeviceId,
        bytes: u64,
    ) -> Option<SimDuration> {
        if bytes == 0 {
            return Some(SimDuration::ZERO);
        }
        if from == to {
            // Same-device copy: read + write at device bandwidth.
            let dev = self.mem(from);
            let eff = dev.effective_bytes(bytes) as f64;
            let ns = dev.latency(AccessOp::Read)
                + dev.latency(AccessOp::Write)
                + eff / dev.bandwidth(AccessOp::Read)
                + eff / dev.bandwidth(AccessOp::Write);
            return Some(SimDuration::from_nanos_f64(ns));
        }
        let path = self.mem_path(from, to)?;
        let src = self.mem(from);
        let dst = self.mem(to);
        let eff = src.effective_bytes(bytes).max(dst.effective_bytes(bytes)) as f64;
        let bw = src
            .bandwidth(AccessOp::Read)
            .min(dst.bandwidth(AccessOp::Write))
            .min(path.bandwidth_bpns);
        let ns = src.latency(AccessOp::Read)
            + dst.latency(AccessOp::Write)
            + path.latency_ns
            + eff / bw;
        Some(SimDuration::from_nanos_f64(ns))
    }

    /// Total capacity of all memory devices, in bytes.
    pub fn total_mem_capacity(&self) -> u64 {
        self.mem.iter().map(|m| m.capacity).sum()
    }
}

/// Incrementally builds a [`Topology`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    compute: Vec<ComputeModel>,
    mem: Vec<MemDeviceModel>,
    links: Vec<Link>,
    compute_node: Vec<NodeId>,
    mem_node: Vec<NodeId>,
}

impl TopologyBuilder {
    /// Declares a node (server or memory blade) and returns its id.
    pub fn node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node {
            id,
            name: name.into(),
            compute: Vec::new(),
            mem: Vec::new(),
        });
        id
    }

    /// Adds a compute device to a node.
    pub fn compute(&mut self, node: NodeId, model: ComputeModel) -> ComputeId {
        let id = ComputeId::from_index(self.compute.len());
        self.compute.push(model);
        self.compute_node.push(node);
        self.nodes[node.index()].compute.push(id);
        id
    }

    /// Adds a memory device to a node.
    pub fn mem(&mut self, node: NodeId, model: MemDeviceModel) -> MemDeviceId {
        let id = MemDeviceId::from_index(self.mem.len());
        self.mem.push(model);
        self.mem_node.push(node);
        self.nodes[node.index()].mem.push(id);
        id
    }

    /// Connects two endpoints with a link of the given kind's latency and
    /// bandwidth from the machine table ([`calibration::link`]).
    pub fn link(&mut self, a: impl Into<Endpoint>, b: impl Into<Endpoint>, kind: LinkKind) -> LinkId {
        let r = calibration::link(kind);
        self.link_custom(a, b, kind, r.latency_ns.value, r.bandwidth_bpns.value)
    }

    /// Connects two endpoints with explicit latency/bandwidth.
    pub fn link_custom(
        &mut self,
        a: impl Into<Endpoint>,
        b: impl Into<Endpoint>,
        kind: LinkKind,
        latency_ns: f64,
        bandwidth_bpns: f64,
    ) -> LinkId {
        let id = LinkId::from_index(self.links.len());
        self.links.push(Link {
            id,
            a: a.into(),
            b: b.into(),
            latency_ns,
            bandwidth_bpns,
            kind,
        });
        id
    }

    fn endpoint_index(&self, e: Endpoint) -> Result<usize, TopologyError> {
        // Vertex numbering: [compute | mem | hubs].
        let nc = self.compute.len();
        let nm = self.mem.len();
        match e {
            Endpoint::Compute(c) if c.index() < nc => Ok(c.index()),
            Endpoint::Mem(m) if m.index() < nm => Ok(nc + m.index()),
            Endpoint::Hub(n) if n.index() < self.nodes.len() => Ok(nc + nm + n.index()),
            other => Err(TopologyError::UnknownEndpoint(format!("{other:?}"))),
        }
    }

    /// Validates the graph and resolves all-pairs compute→memory and
    /// memory→memory paths.
    pub fn build(self) -> Result<Topology, TopologyError> {
        if self.compute.is_empty() {
            return Err(TopologyError::NoCompute);
        }
        if self.mem.is_empty() {
            return Err(TopologyError::NoMemory);
        }
        let nc = self.compute.len();
        let nm = self.mem.len();
        let nv = nc + nm + self.nodes.len();

        // Adjacency: vertex → [(neighbor, lat, bw, link)].
        let mut adj: Vec<Vec<(usize, f64, f64, LinkId)>> = vec![Vec::new(); nv];
        for link in &self.links {
            let ai = self.endpoint_index(link.a)?;
            let bi = self.endpoint_index(link.b)?;
            adj[ai].push((bi, link.latency_ns, link.bandwidth_bpns, link.id));
            adj[bi].push((ai, link.latency_ns, link.bandwidth_bpns, link.id));
        }

        // Dijkstra by latency from every source vertex; bottleneck
        // bandwidth and hop count ride along the chosen shortest path.
        let dijkstra = |src: usize| -> Vec<Option<PathCost>> {
            #[derive(PartialEq)]
            struct Entry(f64, usize);
            impl Eq for Entry {}
            impl PartialOrd for Entry {
                fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                    Some(self.cmp(other))
                }
            }
            impl Ord for Entry {
                fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                    // Reverse for a min-heap on latency.
                    other.0.total_cmp(&self.0)
                }
            }
            let mut best: Vec<Option<PathCost>> = vec![None; nv];
            let mut heap = BinaryHeap::new();
            best[src] = Some(PathCost::LOCAL);
            heap.push(Entry(0.0, src));
            while let Some(Entry(lat, v)) = heap.pop() {
                let cur = best[v].expect("popped vertex must be reached");
                if lat > cur.latency_ns {
                    continue;
                }
                for &(w, l, bw, link) in &adj[v] {
                    let cand = PathCost {
                        latency_ns: cur.latency_ns + l,
                        bandwidth_bpns: cur.bandwidth_bpns.min(bw),
                        hops: cur.hops + 1,
                        bottleneck_link: if bw < cur.bandwidth_bpns {
                            Some(link)
                        } else {
                            cur.bottleneck_link
                        },
                    };
                    let better = match best[w] {
                        None => true,
                        Some(prev) => cand.latency_ns < prev.latency_ns,
                    };
                    if better {
                        best[w] = Some(cand);
                        heap.push(Entry(cand.latency_ns, w));
                    }
                }
            }
            best
        };

        let mut paths = vec![vec![None; nm]; nc];
        for (c, row) in paths.iter_mut().enumerate() {
            let best = dijkstra(c);
            row.copy_from_slice(&best[nc..nc + nm]);
        }
        let mut mem_paths = vec![vec![None; nm]; nm];
        for (a, row) in mem_paths.iter_mut().enumerate() {
            let best = dijkstra(nc + a);
            row.copy_from_slice(&best[nc..nc + nm]);
        }

        // Fill in compute-local memory lists: a memory device is local to a
        // compute device iff they share a direct memory-bus link (the
        // socket/package attachment, not a routed path through hubs).
        let mut compute = self.compute;
        for (c, model) in compute.iter_mut().enumerate() {
            model.local_mem.clear();
            for link in &self.links {
                if !matches!(link.kind, LinkKind::MemBus | LinkKind::GpuBus) {
                    continue;
                }
                let pair = match (link.a, link.b) {
                    (Endpoint::Compute(cc), Endpoint::Mem(mm))
                    | (Endpoint::Mem(mm), Endpoint::Compute(cc)) => Some((cc, mm)),
                    _ => None,
                };
                if let Some((cc, mm)) = pair {
                    if cc.index() == c && !model.local_mem.contains(&mm) {
                        model.local_mem.push(mm);
                    }
                }
            }
        }

        let mut h = FxHasher::default();
        for m in &self.mem {
            for x in [m.read_lat_ns, m.write_lat_ns, m.read_bw_bpns, m.write_bw_bpns, m.cost_per_gib] {
                h.write_u64(x.to_bits());
            }
            h.write_u64(m.granularity);
            h.write_u64(m.capacity);
            h.write_u8(m.sync as u8);
            h.write_u8(u8::from(m.persistent) | u8::from(m.coherent) << 1);
        }
        for p in paths.iter().flatten() {
            match p {
                Some(p) => {
                    h.write_u64(p.latency_ns.to_bits());
                    h.write_u64(p.bandwidth_bpns.to_bits());
                }
                None => h.write_u8(0),
            }
        }
        h.write_usize(nc);

        Ok(Topology {
            fingerprint: h.finish(),
            nodes: self.nodes,
            compute,
            mem: self.mem,
            links: self.links,
            compute_node: self.compute_node,
            mem_node: self.mem_node,
            paths,
            mem_paths,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::ComputeKind;
    use crate::device::MemDeviceKind;

    fn tiny() -> Topology {
        // cpu0 —membus— dram0 ; cpu0 —pcie— cxl0 ; gpu0 —gpubus— gddr0 ;
        // cpu0 —pcie— hub — gpu0 (so cpu can reach gddr through the hub).
        let mut b = Topology::builder();
        let n = b.node("host");
        let cpu = b.compute(n, ComputeModel::preset(ComputeKind::Cpu));
        let gpu = b.compute(n, ComputeModel::preset(ComputeKind::Gpu));
        let dram = b.mem(n, MemDeviceModel::preset(MemDeviceKind::Dram));
        let cxl = b.mem(n, MemDeviceModel::preset(MemDeviceKind::CxlDram));
        let gddr = b.mem(n, MemDeviceModel::preset(MemDeviceKind::Gddr));
        b.link(cpu, dram, LinkKind::MemBus);
        b.link(cpu, cxl, LinkKind::PcieCxl);
        b.link(gpu, gddr, LinkKind::GpuBus);
        b.link(cpu, Endpoint::Hub(n), LinkKind::PcieCxl);
        b.link(gpu, Endpoint::Hub(n), LinkKind::PcieCxl);
        b.build().expect("valid topology")
    }

    #[test]
    fn build_rejects_empty_topologies() {
        assert_eq!(
            Topology::builder().build().unwrap_err(),
            TopologyError::NoCompute
        );
        let mut b = Topology::builder();
        let n = b.node("x");
        b.compute(n, ComputeModel::preset(ComputeKind::Cpu));
        assert_eq!(b.build().unwrap_err(), TopologyError::NoMemory);
    }

    #[test]
    fn local_path_is_zero_hops_direct() {
        let t = tiny();
        let p = t.path(ComputeId(0), MemDeviceId(0)).unwrap();
        assert_eq!(p.hops, 1);
        assert_eq!(p.latency_ns, 0.0);
    }

    #[test]
    fn cross_device_path_routes_through_hub() {
        let t = tiny();
        // CPU → GDDR: cpu —hub— gpu —gpubus— gddr = 3 hops.
        let p = t.path(ComputeId(0), MemDeviceId(2)).unwrap();
        assert_eq!(p.hops, 3);
        assert!(p.latency_ns >= 2.0 * calibration::link(LinkKind::PcieCxl).latency_ns.value);
    }

    #[test]
    fn unreachable_memory_reports_none() {
        let mut b = Topology::builder();
        let n = b.node("host");
        let island = b.node("island");
        let cpu = b.compute(n, ComputeModel::preset(ComputeKind::Cpu));
        let dram = b.mem(n, MemDeviceModel::preset(MemDeviceKind::Dram));
        let far = b.mem(island, MemDeviceModel::preset(MemDeviceKind::FarMemory));
        b.link(cpu, dram, LinkKind::MemBus);
        let t = b.build().unwrap();
        assert!(t.reachable(ComputeId(0), MemDeviceId(0)));
        assert!(!t.reachable(ComputeId(0), far));
        assert!(t.access_cost(ComputeId(0), far, 64, AccessOp::Read, AccessPattern::Random).is_none());
    }

    #[test]
    fn bottleneck_bandwidth_is_path_minimum() {
        let t = tiny();
        let p = t.path(ComputeId(0), MemDeviceId(1)).unwrap();
        assert_eq!(p.bandwidth_bpns, calibration::link(LinkKind::PcieCxl).bandwidth_bpns.value);
    }

    #[test]
    fn access_cost_adds_path_latency() {
        let t = tiny();
        let cpu = ComputeId(0);
        let dram = MemDeviceId(0);
        let cxl = MemDeviceId(1);
        let near = t
            .access_cost(cpu, dram, 64, AccessOp::Read, AccessPattern::Random)
            .unwrap();
        let far = t
            .access_cost(cpu, cxl, 64, AccessOp::Read, AccessPattern::Random)
            .unwrap();
        assert!(far > near, "CXL access {far} should exceed DRAM access {near}");
    }

    #[test]
    fn local_mem_lists_reflect_attachment() {
        let t = tiny();
        let cpu = t.compute(ComputeId(0));
        let gpu = t.compute(ComputeId(1));
        assert!(cpu.is_local(MemDeviceId(0)), "DRAM local to CPU");
        assert!(!cpu.is_local(MemDeviceId(2)), "GDDR not local to CPU");
        assert!(gpu.is_local(MemDeviceId(2)), "GDDR local to GPU");
        assert!(!gpu.is_local(MemDeviceId(0)), "DRAM not local to GPU");
    }

    #[test]
    fn transfer_cost_same_device_and_cross_device() {
        let t = tiny();
        let same = t.transfer_cost(MemDeviceId(0), MemDeviceId(0), 1 << 20).unwrap();
        let cross = t.transfer_cost(MemDeviceId(0), MemDeviceId(1), 1 << 20).unwrap();
        assert!(same > SimDuration::ZERO);
        // Cross-device copy bottlenecked by CXL bandwidth, so slower.
        assert!(cross > same);
        assert_eq!(
            t.transfer_cost(MemDeviceId(0), MemDeviceId(1), 0).unwrap(),
            SimDuration::ZERO
        );
    }

    #[test]
    fn sequential_access_amortizes_path_latency() {
        let t = tiny();
        let cpu = ComputeId(0);
        let cxl = MemDeviceId(1);
        let bytes = 1 << 20;
        let seq = t
            .access_cost(cpu, cxl, bytes, AccessOp::Read, AccessPattern::Sequential)
            .unwrap();
        let rnd = t
            .access_cost(cpu, cxl, bytes, AccessOp::Read, AccessPattern::Random)
            .unwrap();
        assert!(rnd.as_nanos() > 5 * seq.as_nanos());
    }

    #[test]
    fn capacity_and_cost_sums() {
        let t = tiny();
        let cap: u64 = t.mem_devices().iter().map(|m| m.capacity).sum();
        assert_eq!(t.total_mem_capacity(), cap);
    }

    /// The three access-cost formulas as they were written out before
    /// [`AccessCostParts::of`] became the one formula, kept verbatim as
    /// the reference the entry points are held to bit for bit.
    mod reference {
        use super::*;

        pub fn device_access_cost(
            dev: &MemDeviceModel,
            bytes: u64,
            op: AccessOp,
            pattern: AccessPattern,
        ) -> SimDuration {
            if bytes == 0 {
                return SimDuration::ZERO;
            }
            let eff = dev.effective_bytes(bytes) as f64;
            let transfer = eff / dev.bandwidth(op);
            let ns = match pattern {
                AccessPattern::Random => {
                    let unit = dev.granularity.max(64) as f64;
                    let accesses = (eff / unit).max(1.0).ceil();
                    accesses * dev.latency(op) + transfer
                }
                AccessPattern::Sequential => dev.latency(op) + transfer,
            };
            SimDuration::from_nanos_f64(ns)
        }

        pub fn access_cost_parts(
            t: &Topology,
            compute: ComputeId,
            mem: MemDeviceId,
            bytes: u64,
            op: AccessOp,
            pattern: AccessPattern,
        ) -> Option<AccessCostParts> {
            let path = t.path(compute, mem)?;
            let dev = t.mem(mem);
            if bytes == 0 {
                return Some(AccessCostParts {
                    latency_ns: 0.0,
                    eff_bytes: 0,
                    bandwidth_bpns: f64::INFINITY,
                    bottleneck_link: None,
                    link_bandwidth_bpns: f64::INFINITY,
                });
            }
            let eff = dev.effective_bytes(bytes);
            let bw = dev.bandwidth(op).min(path.bandwidth_bpns);
            let per_access_lat = dev.latency(op) + path.latency_ns;
            let latency_ns = match pattern {
                AccessPattern::Random => {
                    let unit = dev.granularity.max(64) as f64;
                    let accesses = (eff as f64 / unit).max(1.0).ceil();
                    accesses * per_access_lat
                }
                AccessPattern::Sequential => per_access_lat,
            };
            Some(AccessCostParts {
                latency_ns,
                eff_bytes: eff,
                bandwidth_bpns: bw,
                bottleneck_link: path.bottleneck_link,
                link_bandwidth_bpns: path.bandwidth_bpns,
            })
        }

        pub fn access_cost(
            t: &Topology,
            compute: ComputeId,
            mem: MemDeviceId,
            bytes: u64,
            op: AccessOp,
            pattern: AccessPattern,
        ) -> Option<SimDuration> {
            let path = t.path(compute, mem)?;
            let dev = t.mem(mem);
            if bytes == 0 {
                return Some(SimDuration::ZERO);
            }
            let eff = dev.effective_bytes(bytes) as f64;
            let bw = dev.bandwidth(op).min(path.bandwidth_bpns);
            let transfer = eff / bw;
            let per_access_lat = dev.latency(op) + path.latency_ns;
            let ns = match pattern {
                AccessPattern::Random => {
                    let unit = dev.granularity.max(64) as f64;
                    let accesses = (eff / unit).max(1.0).ceil();
                    accesses * per_access_lat + transfer
                }
                AccessPattern::Sequential => per_access_lat + transfer,
            };
            Some(SimDuration::from_nanos_f64(ns))
        }
    }

    #[test]
    fn the_three_access_cost_entry_points_match_the_written_out_formulas() {
        // Every preset device one hop from the CPU, and every one of
        // them again from the GPU across the hub (three hops).
        let mut b = Topology::builder();
        let n = b.node("host");
        let cpu = b.compute(n, ComputeModel::preset(ComputeKind::Cpu));
        let gpu = b.compute(n, ComputeModel::preset(ComputeKind::Gpu));
        b.link(cpu, Endpoint::Hub(n), LinkKind::PcieCxl);
        b.link(gpu, Endpoint::Hub(n), LinkKind::PcieCxl);
        for kind in MemDeviceKind::ALL {
            let dev = b.mem(n, MemDeviceModel::preset(kind));
            b.link(cpu, dev, LinkKind::MemBus);
        }
        let t = b.build().expect("valid topology");
        assert!(t.path(gpu, MemDeviceId(0)).unwrap().hops > 1, "a multi-hop path");

        let bits = |p: AccessCostParts| {
            (
                p.latency_ns.to_bits(),
                p.eff_bytes,
                p.bandwidth_bpns.to_bits(),
                p.bottleneck_link,
                p.link_bandwidth_bpns.to_bits(),
            )
        };
        for mem in t.mem_ids() {
            for op in [AccessOp::Read, AccessOp::Write] {
                for pattern in [AccessPattern::Random, AccessPattern::Sequential] {
                    for bytes in [0, 1, 63, 64, 4 << 10, 1 << 30] {
                        let what = format!("{:?} {op:?} {pattern:?} {bytes} B", t.mem(mem).kind);
                        assert_eq!(
                            t.mem(mem).access_cost(bytes, op, pattern),
                            reference::device_access_cost(t.mem(mem), bytes, op, pattern),
                            "device-local {what}"
                        );
                        for from in [cpu, gpu] {
                            let parts = t.access_cost_parts(from, mem, bytes, op, pattern).unwrap();
                            let want =
                                reference::access_cost_parts(&t, from, mem, bytes, op, pattern).unwrap();
                            assert_eq!(bits(parts), bits(want), "parts from {from:?}: {what}");
                            assert_eq!(
                                t.access_cost(from, mem, bytes, op, pattern),
                                reference::access_cost(&t, from, mem, bytes, op, pattern),
                                "total from {from:?}: {what}"
                            );
                        }
                    }
                }
            }
        }
    }
}
