//! Typed memory regions with declarative properties and ownership.
//!
//! This crate implements the memory half of the paper's programming model:
//!
//! - [`props`]: the declarative property vocabulary — latency/bandwidth
//!   classes, persistence, coherence, confidentiality, access mode and
//!   hints. Applications *describe* memory; they never name devices.
//! - [`typed`]: the predefined region types of Table 2 (Private Scratch,
//!   Global State, Global Scratch) plus the dataflow Input/Output regions
//!   of Figure 4.
//! - [`pool`]: per-device arenas with real capacity accounting,
//!   fragmentation, and real backing bytes.
//! - [`region`]: the ownership bookkeeper — exclusive and shared
//!   ownership, move-semantics transfer, release-on-last-owner.
//! - [`access`]: the synchronous and asynchronous access interfaces,
//!   charging virtual time (and contention) for every operation.
//! - [`hotness`]: pointer tagging, swizzling, and decayed hotness
//!   statistics.
//! - [`mod@migrate`]: physical migration between devices, and the price
//!   of every device-to-device copy.

pub mod access;
pub mod hotness;
pub mod migrate;
pub mod pool;
pub mod props;
pub mod region;
pub mod typed;

pub use access::{AccessStats, Accessor};
pub use hotness::{HotStat, HotnessTracker, TaggedPtr};
pub use migrate::migrate;
pub use pool::{AllocError, MemoryPool, Placement, RegionId};
pub use props::{AccessHint, AccessMode, BandwidthClass, LatencyClass, PropertySet, Unmet};
pub use region::{OwnerId, Ownership, RegionError, RegionManager, RegionMeta};
pub use typed::RegionType;
