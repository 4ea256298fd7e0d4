//! The runtime system (RTS): cost model, placement, scheduling and
//! enforcement.
//!
//! This crate is the paper's envisioned runtime underneath the
//! declarative programming model. Its responsibilities, straight from
//! §2.3: "(1) determining at runtime which physical memory device best
//! fits each task's declared requirements, (2) allocating the Memory
//! Regions that tasks have requested, (3) de-allocating Memory Regions
//! after the last owning task finishes, (4) and resource-aware task
//! scheduling."
//!
//! - [`cost`]: the topology-aware cost model (Challenge 2).
//! - [`placement`]: the optimizer plus the compute-centric and
//!   worst-feasible baselines the experiments compare against.
//! - [`tiering`]: hotness-driven tiering, each target the optimizer's.
//! - [`schedule`]: HEFT-style list scheduling over heterogeneous compute
//!   devices with per-device parallelism.
//! - [`enforce`]: the placement audit and the trust-boundary encryption
//!   rule.
//!
//! Handover (ownership transfer vs copy, Challenge 3; Figure 4) and the
//! release of a region when its last owner exits are steps of the
//! executor in `disagg-core`.

pub mod cost;
pub mod enforce;
pub mod placement;
pub mod schedule;
pub mod tiering;

pub use cost::{CostModel, TopologyAwareness};
pub use enforce::{check_placement, needs_encryption, Violation};
pub use placement::{PlacementEngine, PlacementPolicy};
pub use schedule::{SchedError, SchedPolicy, Schedule, ScheduleEntry, Scheduler};
pub use tiering::TieringPolicy;
