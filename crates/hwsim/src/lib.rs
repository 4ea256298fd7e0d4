//! Simulated disaggregated hardware substrate.
//!
//! The HotOS '23 paper "Programming Fully Disaggregated Systems" assumes a
//! hardware landscape we cannot buy off the shelf: CXL memory expanders and
//! pooled appliances, persistent memory, heterogeneous accelerators, and
//! rack-scale fabrics. This crate provides a deterministic, laptop-scale
//! software model of that landscape:
//!
//! - [`calibration`]: the machine table — every latency, bandwidth,
//!   granularity, capacity, price, compute rate and mechanism cost the
//!   models below read, each with its source.
//! - [`device`]: memory-device models for every row of the paper's Table 1
//!   (cache, HBM, DRAM, PMem, CXL-DRAM, disaggregated/far memory, SSD, HDD),
//!   parameterized by latency, bandwidth, access granularity, attachment,
//!   coherence, and persistence.
//! - [`compute`]: compute-device models (CPU, GPU).
//! - [`topology`]: an explicit link graph (NUMA, PCIe, CXL, NIC) connecting
//!   compute and memory devices, with shortest-path cost resolution and
//!   ready-made presets for the paper's Figure 1 architectures.
//! - [`time`]: virtual nanosecond time. Nothing in this crate sleeps or
//!   reads a wall clock; simulated work *charges* simulated nanoseconds.
//! - [`contention`]: time-bucketed bandwidth accounting that inflates
//!   transfer costs when a device or link is oversubscribed.
//! - [`fault`]: deterministic fault injection (node crashes, device
//!   failures, link loss, corruption) used by the fault-tolerance
//!   experiments.
//! - [`trace`]: a structured event log consumed by the benchmark harness.
//! - [`rng`]: small, deterministic random-number generators so every
//!   experiment is reproducible bit-for-bit.
//!
//! The models preserve the *relative* properties that the paper's
//! programming model reasons about (which device is faster, closer,
//! persistent, coherent), which is what placement decisions depend on.

pub mod calibration;
pub mod compute;
pub mod contention;
pub mod device;
pub mod fault;
pub mod fx;
pub mod ids;
pub mod presets;
pub mod rng;
pub mod time;
pub mod topology;
pub mod trace;

pub use compute::{ComputeKind, ComputeModel};
pub use contention::BandwidthLedger;
pub use device::{AccessOp, AccessPattern, Attachment, MemDeviceKind, MemDeviceModel, SyncSupport};
pub use fault::{FaultEvent, FaultInjector, FaultKind};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{ComputeId, LinkId, MemDeviceId, NodeId};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use topology::{LinkKind, PathCost, Topology, TopologyBuilder};
pub use trace::{Trace, TraceEvent};
