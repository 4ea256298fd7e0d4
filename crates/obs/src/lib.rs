//! # disagg-obs — streaming observability for the disagg runtime
//!
//! The paper's Challenge 8(1) asks how to debug, profile, and optimize
//! dataflow applications when the runtime system hides the
//! performance-relevant details across abstraction layers. The buffered
//! [`Trace`](disagg_hwsim::trace::Trace) answers post-hoc aggregate
//! questions ("how many bytes moved?"); this crate answers the
//! *cross-layer* ones — who stalled on which remote device, when, and
//! why — while the run is still in flight:
//!
//! - [`observer`] — the streaming [`FullObserver`] event sink the
//!   executor emits into as events happen, and the cloneable
//!   [`ObserverSlot`] config handle whose default — no sink — costs
//!   nothing;
//! - [`metrics`] — a deterministic [`MetricsRegistry`] of counters and
//!   log2-bucket histograms (queue wait, access latency, migration
//!   sizes, per-device bytes), all recorded in *virtual* time so two
//!   runs of the same submission produce identical snapshots;
//! - [`analyze`] — critical-path extraction over the executed task/edge
//!   DAG with per-layer attribution (compute / memory stall / runtime);
//! - [`export`] — Chrome trace-event JSON (loadable in Perfetto, one
//!   lane per compute/memory device) and folded flamegraph stacks;
//! - [`request`] — request-centric spans: per-request causal span
//!   assembly from `RequestTag`-stamped traces, an exact five-way
//!   latency decomposition (admission / queue / compute / transfer /
//!   recovery), per-tenant tail attribution with p99 exemplars, and
//!   SLO burn-rate curves;
//! - [`json`] — a dependency-free JSON reader used to validate emitted
//!   traces.
//!
//! Everything here consumes the same [`TraceEvent`]s the buffered trace
//! records, so the streaming and buffered views of a run are
//! bit-for-bit interchangeable (pinned by `tests/equivalence.rs`).
//!
//! [`TraceEvent`]: disagg_hwsim::trace::TraceEvent

pub mod analyze;
pub mod export;
pub mod json;
pub mod metrics;
pub mod observer;
pub mod request;

pub use analyze::{critical_paths, render_critical_paths, CriticalPath, TaskSpan};
pub use export::{
    chrome_trace, exemplar_chrome_trace, folded_stacks, serving_chrome_trace,
    validate_chrome_trace, ChromeTraceStats,
};
pub use metrics::{
    nearest_rank, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use observer::{FullObserver, ObserverSlot};
pub use request::{
    assemble_request_spans, slo_burn_by, tail_attribution, Attribution, BurnWindow,
    RequestSpan, Segment, SegmentKind, TenantAttribution, TenantBurn,
};
