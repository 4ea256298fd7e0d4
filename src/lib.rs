//! # disagg — one front door for the whole stack
//!
//! The implementation lives in eight layer crates (`disagg-hwsim`,
//! `disagg-region`, `disagg-dataflow`, `disagg-sched`, `disagg-ftol`,
//! `disagg-obs`, `disagg-core`, `disagg-workloads`); this crate is the
//! curated facade
//! applications are meant to depend on. Deep `disagg_*::` paths still
//! work but are a private detail of the workspace — new code should
//! reach everything through here:
//!
//! - [`prelude`] — the one import an application or experiment needs;
//! - [`presets`] — ready-made topologies (single server, disaggregated
//!   rack, ...);
//! - top-level re-exports of the runtime types ([`Runtime`],
//!   [`RuntimeConfig`], [`RunReport`], [`DisaggError`]);
//! - layer modules ([`hwsim`], [`region`], [`dataflow`], [`sched`],
//!   [`ftol`], [`obs`], [`serve`], [`workloads`]) for the long tail.
//!
//! ```
//! use disagg::prelude::*;
//!
//! let (topo, _ids) = disagg::presets::single_server();
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
//!     Ok(())
//! }));
//! job.edge(produce, consume);
//!
//! let report = rt.execute(job.build().unwrap()).unwrap();
//! assert_eq!(report.ownership_transfers, 1, "handover was zero-copy");
//! ```

// The layer crates, one module each, for anything the curated surface
// does not re-export directly.
pub use disagg_dataflow as dataflow;
pub use disagg_ftol as ftol;
pub use disagg_hwsim as hwsim;
pub use disagg_obs as obs;
pub use disagg_region as region;
pub use disagg_sched as sched;
pub use disagg_serve as serve;
pub use disagg_workloads as workloads;

// The runtime's own modules and top-level types.
pub use disagg_core::{config, error, executor, profile, report, runtime};
pub use disagg_core::{
    DeviceSummary, DisaggError, RunProfile, RunReport, Runtime, RuntimeConfig, RuntimeError,
    Submission, TaskProfile, TaskReport,
};
pub use disagg_serve::{
    ArrivalProcess, ControlPlane, Request, RequestRecord, ServeConfig, ServeLayer, ServeReport,
    Slo, TenantStats, Verdict,
};

/// Ready-made topologies for examples, tests, and experiments.
pub mod presets {
    pub use disagg_hwsim::presets::*;
}

/// Everything an application or experiment typically imports.
///
/// `use disagg::prelude::*;` brings in the runtime types, the job and
/// task builders, property vocabulary, policies, the virtual clock, and
/// the deterministic RNG. [`presets`] is re-exported as
/// a module so topology constructors stay one path segment away.
pub mod prelude {
    pub use crate::presets;
    pub use disagg_core::prelude::*;
    pub use disagg_serve::{
        ArrivalProcess, ControlPlane, Request, RequestRecord, ServeConfig, ServeLayer,
        ServeReport, Slo, TenantStats, Verdict,
    };
    pub use disagg_hwsim::fault::{FaultEvent, FaultInjector, FaultKind};
    pub use disagg_hwsim::rng::SimRng;
    pub use disagg_region::region::OwnerId;
}
