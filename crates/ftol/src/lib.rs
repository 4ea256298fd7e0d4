//! Fault tolerance for disaggregated far memory.
//!
//! Challenge 8(3) of the paper: node faults, network errors, and memory
//! corruption are routine at rack scale, and the runtime "must implement
//! suitable mechanisms that guarantee fault tolerance and are compute-
//! and storage-efficient". This crate provides both families the paper
//! cites and experiment E12 compares:
//!
//! - [`replicate`]: N-way replication — simple, fast recovery, N× storage.
//! - [`stripe`] + [`reedsolomon`] + [`gf256`]: Carbink-style erasure-coded
//!   spans — `(k+m)/k` storage, degraded reads and reconstruction cost.
//!
//! The coding arithmetic is portable safe Rust by construction: no
//! intrinsics, no per-platform path (see [`gf256`] for why).

#![forbid(unsafe_code)]

pub mod gf256;
pub mod reedsolomon;
pub mod replicate;
pub mod stripe;

pub use reedsolomon::{ReedSolomon, RsError};
pub use replicate::ReplicatedRegion;
pub use stripe::{ParityEngine, StripedRegion};

use disagg_hwsim::contention::BandwidthLedger;
use disagg_hwsim::device::{AccessOp, AccessPattern};
use disagg_hwsim::fault::{FaultInjector, Target};
use disagg_hwsim::ids::MemDeviceId;
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::topology::{AccessCostParts, PathCost, Topology};
use disagg_region::access::book_access;
use disagg_region::pool::RegionId;
use disagg_region::props::{AccessMode, PropertySet};
use disagg_region::region::{OwnerId, RegionError, RegionManager};
use disagg_region::typed::RegionType;

/// Fails unless `devices` sit on pairwise distinct nodes.
fn distinct_domains(topo: &Topology, devices: &[MemDeviceId]) -> Result<(), FtolError> {
    for (i, &a) in devices.iter().enumerate() {
        for &b in &devices[i + 1..] {
            if topo.node_of_mem(a) == topo.node_of_mem(b) {
                return Err(FtolError::SharedFailureDomain(a, b));
            }
        }
    }
    Ok(())
}

/// Allocates one replica or span of `size` bytes on each of `devices`.
fn alloc_on(
    mgr: &mut RegionManager,
    devices: &[MemDeviceId],
    size: u64,
    owner: OwnerId,
    now: SimTime,
) -> Result<Vec<RegionId>, FtolError> {
    let props = PropertySet::new().with_mode(AccessMode::Async);
    let alloc = |&dev| mgr.alloc(dev, size, RegionType::GlobalScratch, props.clone(), owner, now);
    Ok(devices.iter().map(alloc).collect::<Result<_, _>>()?)
}

/// Indices into `devs` whose device and node are up at `t`.
fn alive(devs: &[MemDeviceId], topo: &Topology, faults: &FaultInjector, t: SimTime) -> Vec<usize> {
    (0..devs.len())
        .filter(|&i| faults.usable(topo, Target::Mem { dev: devs[i], from: None }, t))
        .collect()
}

/// True if `region`'s bytes `[offset, offset + len)` overlap a range
/// corrupted on its device at `t`: the copy is alive, but its answer
/// would fail the checksum.
fn corrupted(
    mgr: &RegionManager,
    faults: &FaultInjector,
    region: RegionId,
    offset: u64,
    len: u64,
    t: SimTime,
) -> bool {
    mgr.placement(region).is_ok_and(|p| {
        let lo = p.offset + offset;
        faults.corrupted_ranges(p.dev, t).iter().any(|&(o, l)| o < lo + len && lo < o + l)
    })
}

/// Books `bytes` of `op` at `dev` itself from `now` — span and replica
/// I/O on the device-local path, which has no link — and returns how
/// long it takes.
fn charge_local(
    topo: &Topology,
    ledger: &mut BandwidthLedger,
    dev: MemDeviceId,
    bytes: u64,
    op: AccessOp,
    now: SimTime,
) -> SimDuration {
    let parts =
        AccessCostParts::of(topo.mem(dev), PathCost::LOCAL, bytes, op, AccessPattern::Sequential);
    book_access(ledger, None, dev, &parts, now).0 - now
}

/// Errors from the fault-tolerance layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtolError {
    /// Fewer devices supplied than the scheme needs.
    NotEnoughDevices {
        /// Devices supplied.
        have: usize,
        /// Devices required.
        need: usize,
    },
    /// Two shards/replicas would share a failure domain (same node).
    SharedFailureDomain(MemDeviceId, MemDeviceId),
    /// Every replica is down.
    AllReplicasDown,
    /// Too few spans survive to reconstruct.
    Unrecoverable {
        /// Live spans.
        alive: usize,
        /// Spans needed.
        needed: usize,
    },
    /// The index given to recover() is still alive.
    ReplicaNotLost(usize),
    /// No route between the given devices.
    Unreachable(MemDeviceId, MemDeviceId),
    /// Access outside the logical region.
    OutOfBounds {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Logical size.
        size: u64,
    },
    /// Underlying region error.
    Region(RegionError),
    /// Underlying Reed-Solomon error.
    Rs(RsError),
}

impl From<RegionError> for FtolError {
    fn from(e: RegionError) -> Self {
        FtolError::Region(e)
    }
}

impl From<RsError> for FtolError {
    fn from(e: RsError) -> Self {
        FtolError::Rs(e)
    }
}

impl std::fmt::Display for FtolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtolError::NotEnoughDevices { have, need } => {
                write!(f, "need {need} devices, have {have}")
            }
            FtolError::SharedFailureDomain(a, b) => {
                write!(f, "devices {a} and {b} share a failure domain")
            }
            FtolError::AllReplicasDown => write!(f, "all replicas down"),
            FtolError::Unrecoverable { alive, needed } => {
                write!(f, "unrecoverable: {alive} spans alive, {needed} needed")
            }
            FtolError::ReplicaNotLost(i) => write!(f, "replica {i} is still alive"),
            FtolError::Unreachable(a, b) => write!(f, "no route from {a} to {b}"),
            FtolError::OutOfBounds { offset, len, size } => {
                write!(f, "access [{offset}, {offset}+{len}) outside {size}-byte region")
            }
            FtolError::Region(e) => write!(f, "region error: {e}"),
            FtolError::Rs(e) => write!(f, "erasure coding error: {e}"),
        }
    }
}

impl std::error::Error for FtolError {}
