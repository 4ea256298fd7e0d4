//! The streaming event sink.
//!
//! The runtime's execution machinery (executor, accessors, migration,
//! handover) already funnels every observable action through
//! [`Trace::push`]; an observer taps that same stream *as it happens*
//! instead of waiting for the run to finish. The default is no sink at
//! all (the null [`ObserverSlot`]: no tap is even installed); the one
//! sink, [`FullObserver`], buffers events and maintains the metrics
//! registry at once. Everything it derives is a deterministic function
//! of the event sequence: events carry *virtual* timestamps and arrive
//! in emission order (the same order the buffered trace records), so it
//! is bit-for-bit reproducible across runs. A caller reads results from
//! the sink it holds — the runtime's report does not carry them.
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

use crate::metrics::MetricsRegistry;

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

    /// Takes one event, at emission time.
    fn on_event(&mut self, event: &TraceEvent) {
        self.registry.record(event);
        self.events.push(event.clone());
    }
}

/// The observer handle a runtime config carries.
///
/// `Default` is the null slot: no sink, no tap, and observability-off
/// costs one untaken branch per event. An active slot shares its sink
/// with the caller ([`ObserverSlot::shared`]), who reads results back out
/// of it after the run:
///
/// ```
/// use std::sync::{Arc, Mutex};
/// use disagg_obs::{FullObserver, ObserverSlot};
///
/// let sink = Arc::new(Mutex::new(FullObserver::new()));
/// let slot = ObserverSlot::shared(sink.clone());
/// assert!(slot.is_active());
/// // ... hand `slot` to the RuntimeConfig, run, then:
/// let full = sink.lock().unwrap();
/// let (_events, _metrics) = (&full.events, full.registry.snapshot());
/// ```
#[derive(Clone, Default)]
pub struct ObserverSlot(Option<Arc<Mutex<FullObserver>>>);

impl ObserverSlot {
    /// A slot sharing an existing sink with the caller.
    pub fn shared(observer: Arc<Mutex<FullObserver>>) -> Self {
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
    use disagg_hwsim::time::{SimDuration, SimTime};

    fn ev(task: u64, at: u64) -> TraceEvent {
        TraceEvent::TaskAttempt {
            job: 0,
            task,
            on: ComputeId(0),
            at: SimTime(at),
            waited: SimDuration::ZERO,
            end: SimTime(at),
            completed: true,
        }
    }

    #[test]
    fn null_slot_is_inactive_and_silent() {
        let slot = ObserverSlot::default();
        assert!(!slot.is_active());
        slot.emit(&ev(0, 1)); // must not panic
    }

    #[test]
    fn collecting_observer_preserves_order() {
        let sink = Arc::new(Mutex::new(FullObserver::new()));
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
        let sink = Arc::new(Mutex::new(FullObserver::new()));
        let slot = ObserverSlot::shared(sink.clone());
        let twin = slot.clone();
        slot.emit(&ev(0, 1));
        twin.emit(&ev(1, 2));
        let full = sink.lock().unwrap();
        assert_eq!(full.events.len(), 2);
        assert_eq!(full.registry.snapshot().counter("events"), 2);
    }
}
