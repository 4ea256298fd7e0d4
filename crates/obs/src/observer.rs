//! Inert names of the retired streaming observer.
//!
//! A run's events have one path: the runtime's buffered
//! [`Trace`](disagg_hwsim::trace::Trace). Its metrics are that trace
//! folded through [`MetricsRegistry::of`](crate::MetricsRegistry::of);
//! nothing streams events past it. The two types below observe nothing.
//! They remain only because `benchmark/` (frozen for the PR that removed
//! the stream) still builds them for its `obs.full_observer_over_null_host`
//! probe, which now reads ≈ 1.0; the benchmark PR that retires that probe,
//! ROADMAP 6(d), removes them with it.

use std::sync::{Arc, Mutex};

/// Ignored: observes nothing (see the module doc). The benchmark PR that
/// retires its probe, ROADMAP 6(d), removes this with it.
#[derive(Debug, Default)]
pub struct FullObserver;

impl FullObserver {
    /// An inert observer.
    pub fn new() -> Self {
        FullObserver
    }
}

/// Ignored: the handle `RuntimeConfig::with_observer` takes and drops
/// (see the module doc). The benchmark PR that retires its probe,
/// ROADMAP 6(d), removes this with it.
///
/// ```
/// use std::sync::{Arc, Mutex};
/// use disagg_obs::{FullObserver, ObserverSlot};
///
/// // What the benchmark's probe builds; the runtime never reads it.
/// let _slot = ObserverSlot::shared(Arc::new(Mutex::new(FullObserver::new())));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ObserverSlot;

impl ObserverSlot {
    /// Drops `observer`: the slot is inert.
    pub fn shared(_observer: Arc<Mutex<FullObserver>>) -> Self {
        ObserverSlot
    }
}
