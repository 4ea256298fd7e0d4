//! The streaming event sink.
//!
//! The runtime's execution machinery (executor, accessors, migration,
//! lifetime handover) already funnels every observable action through
//! [`Trace::push`]; an [`Observer`] taps that same stream *as it
//! happens* instead of waiting for the run to finish. The default is no
//! sink at all (the null [`ObserverSlot`]: no tap is even installed);
//! [`FullObserver`] buffers events and maintains the metrics registry at
//! once.
//!
//! [`ObserverSlot`] is the handle a [`RuntimeConfig`] carries: a
//! cloneable, shareable reference so the caller keeps access to the
//! sink after the runtime consumed the config. Cloning a config clones
//! the handle, not the sink — both configs feed the same observer.
//!
//! [`Trace::push`]: disagg_hwsim::trace::Trace::push
//! [`RuntimeConfig`]: ../../disagg_core/config/struct.RuntimeConfig.html

use std::fmt;
use std::sync::{Arc, Mutex};

use disagg_hwsim::trace::TraceEvent;

use crate::metrics::{MetricsRegistry, MetricsSnapshot};

/// A streaming sink for execution events.
///
/// Implementations must be deterministic functions of the event
/// sequence: events carry *virtual* timestamps and arrive in emission
/// order (the same order the buffered trace records), so anything
/// derived from them is bit-for-bit reproducible across runs.
pub trait Observer: Send {
    /// Called once per event, at emission time.
    fn on_event(&mut self, event: &TraceEvent);

    /// A snapshot of this observer's metrics, if it keeps any. The
    /// runtime attaches this to the `RunReport` at the end of a run.
    fn metrics(&self) -> Option<MetricsSnapshot> {
        None
    }
}

/// Buffers the raw event stream (for equivalence tests and custom
/// post-processing).
#[derive(Debug, Default)]
pub struct CollectingObserver {
    /// Every event seen, in emission order.
    pub events: Vec<TraceEvent>,
}

impl Observer for CollectingObserver {
    fn on_event(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

/// The everything sink: buffered events + metrics registry,
/// maintained incrementally from one stream.
#[derive(Debug, Default)]
pub struct FullObserver {
    /// Raw events in emission order (feed to the exporters).
    pub events: Vec<TraceEvent>,
    /// Counters and histograms.
    pub registry: MetricsRegistry,
}

impl FullObserver {
    /// An empty full observer.
    pub fn new() -> Self {
        FullObserver::default()
    }
}

impl Observer for FullObserver {
    fn on_event(&mut self, event: &TraceEvent) {
        self.registry.record(event);
        self.events.push(event.clone());
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        Some(self.registry.snapshot())
    }
}

/// The observer handle a runtime config carries.
///
/// `Default` is the null slot: no sink, no tap, and observability-off
/// costs one untaken branch per event. Build an active slot with
/// [`ObserverSlot::new`] (slot owns the sink) or
/// [`ObserverSlot::shared`] (caller keeps an `Arc` to read results back
/// out after the run):
///
/// ```
/// use std::sync::{Arc, Mutex};
/// use disagg_obs::{FullObserver, ObserverSlot};
///
/// let sink = Arc::new(Mutex::new(FullObserver::new()));
/// let slot = ObserverSlot::shared(sink.clone());
/// assert!(slot.is_active());
/// // ... hand `slot` to the RuntimeConfig, run, then:
/// let _events = &sink.lock().unwrap().events;
/// ```
#[derive(Clone, Default)]
pub struct ObserverSlot(Option<Arc<Mutex<dyn Observer + Send>>>);

impl ObserverSlot {
    /// A slot owning the given sink.
    pub fn new(observer: impl Observer + 'static) -> Self {
        ObserverSlot(Some(Arc::new(Mutex::new(observer))))
    }

    /// A slot sharing an existing sink with the caller.
    pub fn shared<O: Observer + 'static>(observer: Arc<Mutex<O>>) -> Self {
        ObserverSlot(Some(observer))
    }

    /// True if a sink is attached (the runtime only installs a trace
    /// tap when it is).
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Forwards one event to the sink, if any.
    pub fn emit(&self, event: &TraceEvent) {
        if let Some(obs) = &self.0 {
            obs.lock().expect("observer lock").on_event(event);
        }
    }

    /// The sink's metrics snapshot, if it keeps one.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.0
            .as_ref()
            .and_then(|obs| obs.lock().expect("observer lock").metrics())
    }
}

impl fmt::Debug for ObserverSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(_) => f.write_str("ObserverSlot(active)"),
            None => f.write_str("ObserverSlot(null)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::ids::ComputeId;
    use disagg_hwsim::time::SimTime;

    fn ev(task: u64, at: u64) -> TraceEvent {
        TraceEvent::TaskStart {
            job: 0,
            task,
            on: ComputeId(0),
            at: SimTime(at),
        }
    }

    #[test]
    fn null_slot_is_inactive_and_silent() {
        let slot = ObserverSlot::default();
        assert!(!slot.is_active());
        slot.emit(&ev(0, 1)); // must not panic
        assert!(slot.metrics().is_none());
    }

    #[test]
    fn collecting_observer_preserves_order() {
        let sink = Arc::new(Mutex::new(CollectingObserver::default()));
        let slot = ObserverSlot::shared(sink.clone());
        assert!(slot.is_active());
        for i in 0..5 {
            slot.emit(&ev(i, i * 10));
        }
        let got = &sink.lock().unwrap().events;
        assert_eq!(got.len(), 5);
        for (i, e) in got.iter().enumerate() {
            assert_eq!(e.at(), SimTime(i as u64 * 10));
        }
    }

    #[test]
    fn cloned_slots_share_one_sink() {
        let slot = ObserverSlot::new(CollectingObserver::default());
        let twin = slot.clone();
        slot.emit(&ev(0, 1));
        twin.emit(&ev(1, 2));
        // Both events hit the same registry: count via metrics-free
        // path by swapping in a FullObserver instead.
        let full = ObserverSlot::new(FullObserver::new());
        let other = full.clone();
        full.emit(&ev(0, 1));
        other.emit(&ev(1, 2));
        let snap = full.metrics().expect("full observer keeps metrics");
        assert_eq!(snap.counter("events"), 2);
    }
}
