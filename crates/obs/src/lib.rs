//! # disagg-obs — observability for the disagg runtime
//!
//! The paper's Challenge 8(1) asks how to debug, profile, and optimize
//! dataflow applications when the runtime system hides the
//! performance-relevant details across abstraction layers. A run's
//! events have one path: the runtime's buffered
//! [`Trace`](disagg_hwsim::trace::Trace), which answers the aggregate
//! questions ("how many bytes moved?"). This crate reads that trace to
//! answer the *cross-layer* ones — who stalled on which remote device,
//! when, and why:
//!
//! - [`metrics`] — a deterministic [`MetricsRegistry`] of counters and
//!   log2-bucket histograms (queue wait, access latency, migration
//!   sizes, per-device bytes), all recorded in *virtual* time; a run's
//!   metrics are its trace folded, [`MetricsRegistry::of`], so two runs
//!   of the same submission produce identical snapshots;
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
//!   traces;
//! - [`observer`] — two inert names ([`FullObserver`], [`ObserverSlot`])
//!   the frozen benchmark still builds; they observe nothing.
//!
//! Everything here is a function of the [`TraceEvent`]s the buffered
//! trace records — a view of the run, never a second copy of it.
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
