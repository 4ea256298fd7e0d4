//! # disagg — programming fully disaggregated systems
//!
//! A runtime system and declarative programming model for dataflow
//! applications on disaggregated hardware, reproducing the vision of
//! "Programming Fully Disaggregated Systems" (HotOS '23) on a simulated
//! rack: typed **Memory Regions** requested by *properties* instead of
//! device names, **memory ownership** with move-semantics handover
//! between tasks, **sync/async access interfaces**, and a runtime that
//! places, schedules, enforces, and accounts for everything.
//!
//! ```
//! use disagg_core::prelude::*;
//!
//! // A two-task pipeline on a fully equipped server.
//! let (topo, _ids) = disagg_hwsim::presets::single_server();
//! let mut rt = Runtime::new(topo, RuntimeConfig::traced());
//!
//! let mut job = JobBuilder::new("quickstart");
//! let produce = job.task(
//!     TaskSpec::new("produce")
//!         .work(WorkClass::Vector, 10_000)
//!         .output_bytes(4096)
//!         .body(|ctx| {
//!             ctx.write_output(0, &[7u8; 4096])?;
//!             Ok(())
//!         }),
//! );
//! let consume = job.task(TaskSpec::new("consume").body(|ctx| {
//!     let mut buf = [0u8; 4096];
//!     ctx.read_input(0, &mut buf)?;
//!     assert!(buf.iter().all(|&b| b == 7));
//!     Ok(())
//! }));
//! job.edge(produce, consume);
//!
//! let report = rt.execute(Submission::job(job.build().unwrap())).unwrap();
//! assert_eq!(report.ownership_transfers, 1, "handover was zero-copy");
//! assert!(report.placements_clean());
//! ```

#[cfg(debug_assertions)]
mod audit;
pub mod breaker;
pub mod config;
pub mod error;
pub mod executor;
pub mod profile;
pub mod report;
pub mod runtime;
pub mod submission;

pub use breaker::{BreakerBank, BreakerState, BreakerTransition};
pub use config::{RecoveryPolicy, RuntimeConfig};
pub use error::{DisaggError, RuntimeError};
pub use profile::{RunProfile, TaskProfile};
pub use report::{DeviceSummary, FailedJob, RunReport, TaskReport};
pub use runtime::Runtime;
pub use submission::Submission;

/// Re-export of the observability crate (metrics, spans,
/// exporters), so `disagg_core::obs::*` is the one-stop surface.
pub use disagg_obs as obs;

/// Everything an application or experiment typically imports.
pub mod prelude {
    pub use crate::breaker::{BreakerBank, BreakerState, BreakerTransition};
    pub use crate::config::{HandoverPolicy, RecoveryPolicy, RuntimeConfig};
    pub use crate::error::{DisaggError, RuntimeError};
    pub use crate::profile::{RunProfile, TaskProfile};
    pub use crate::report::{DeviceSummary, FailedJob, RunReport, TaskReport};
    pub use crate::runtime::Runtime;
    pub use crate::submission::Submission;
    pub use disagg_dataflow::ctx::TaskCtx;
    pub use disagg_dataflow::job::{JobBuilder, JobId, JobSpec};
    pub use disagg_dataflow::task::{TaskError, TaskId, TaskProps, TaskSpec};
    pub use disagg_hwsim::compute::{ComputeKind, WorkClass};
    pub use disagg_hwsim::device::{AccessPattern, MemDeviceKind};
    pub use disagg_hwsim::time::{SimDuration, SimTime};
    pub use disagg_hwsim::topology::Topology;
    pub use disagg_obs::MetricsSnapshot;
    pub use disagg_region::props::{
        AccessHint, AccessMode, BandwidthClass, LatencyClass, PropertySet,
    };
    pub use disagg_region::typed::RegionType;
    pub use disagg_sched::placement::PlacementPolicy;
    pub use disagg_sched::schedule::SchedPolicy;
}

#[cfg(test)]
mod lifetime;
