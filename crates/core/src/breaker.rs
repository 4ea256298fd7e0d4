//! Fault-aware control-plane state: per-node circuit breakers.
//!
//! The bank lives on the [`crate::Runtime`] and is mutated **only from
//! the executor's commit path**, so every transition lands in the event
//! loop's `(time, seq)` order — the breaker log is as deterministic as
//! the trace itself.
//!
//! The breaker state machine is the classic three-state one, driven
//! entirely by virtual time:
//!
//! ```text
//!            TRIP_AFTER consecutive FaultDetected
//!   Closed ────────────────────────────────────────▶ Open
//!     ▲                                               │ COOLDOWN
//!     │ probe task finishes cleanly                   ▼ elapses
//!     └───────────────────────────────────────── HalfOpen
//!                       (a probe-time fault re-opens)
//! ```

use disagg_hwsim::fx::FxHashMap;
use disagg_hwsim::ids::NodeId;
use disagg_hwsim::time::{SimDuration, SimTime};

/// One breaker's position in the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: the node is offered to placement, strikes reset on any
    /// clean task finish.
    Closed,
    /// Tripped: the node is excluded from candidate ranking until the
    /// cool-down elapses.
    Open,
    /// Cooling down: exactly one probe task (identified by its
    /// `(job, task)` key) is allowed through; everyone else still sees
    /// the node as excluded.
    HalfOpen,
}

/// One recorded state transition, in commit order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    /// The node whose breaker moved.
    pub node: NodeId,
    /// Virtual time of the transition.
    pub at: SimTime,
    /// The state entered.
    pub to: BreakerState,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    state: BreakerState,
    /// Consecutive detected faults while Closed.
    strikes: u32,
    /// When the breaker last opened (cool-down anchor).
    opened_at: SimTime,
    /// The `(job, task)` holding the half-open probe slot.
    probe: Option<(u64, u64)>,
}

impl Entry {
    fn new() -> Self {
        Entry {
            state: BreakerState::Closed,
            strikes: 0,
            opened_at: SimTime::ZERO,
            probe: None,
        }
    }
}

/// Consecutive detected faults on one node that open its breaker.
const TRIP_AFTER: u32 = 2;

/// Virtual time an open breaker waits before admitting a probe.
const COOLDOWN: SimDuration = SimDuration::from_micros(200);

/// All per-node breakers of one runtime; every node starts Closed.
#[derive(Debug, Default)]
pub struct BreakerBank {
    entries: FxHashMap<NodeId, Entry>,
    transitions: Vec<BreakerTransition>,
}

impl BreakerBank {
    fn entry(&mut self, node: NodeId) -> &mut Entry {
        self.entries.entry(node).or_insert_with(Entry::new)
    }

    /// Charges one detected fault against `node`. Returns the
    /// transition if the breaker opened (first trip or a failed probe).
    pub fn on_fault(&mut self, node: NodeId, now: SimTime) -> Option<BreakerTransition> {
        let e = self.entry(node);
        match e.state {
            BreakerState::Closed => {
                e.strikes += 1;
                if e.strikes >= TRIP_AFTER {
                    e.state = BreakerState::Open;
                    e.opened_at = now;
                    e.probe = None;
                    let t = BreakerTransition { node, at: now, to: BreakerState::Open };
                    self.transitions.push(t);
                    return Some(t);
                }
                None
            }
            BreakerState::HalfOpen => {
                // The probe hit a fault: straight back to Open, with a
                // fresh cool-down from now.
                e.state = BreakerState::Open;
                e.opened_at = now;
                e.probe = None;
                e.strikes = TRIP_AFTER;
                let t = BreakerTransition { node, at: now, to: BreakerState::Open };
                self.transitions.push(t);
                Some(t)
            }
            // Already open: tasks still draining on the node may keep
            // faulting; the breaker cannot get more open.
            BreakerState::Open => None,
        }
    }

    /// Asks whether `node` may take the task identified by `key`.
    /// Open breakers whose cool-down has elapsed move to HalfOpen and
    /// hand `key` the single probe slot — the returned transition lets
    /// the caller trace the probe admission.
    pub fn allows(
        &mut self,
        node: NodeId,
        now: SimTime,
        key: (u64, u64),
    ) -> (bool, Option<BreakerTransition>) {
        let e = self.entry(node);
        match e.state {
            BreakerState::Closed => (true, None),
            BreakerState::Open => {
                if now >= e.opened_at + COOLDOWN {
                    e.state = BreakerState::HalfOpen;
                    e.probe = Some(key);
                    let t = BreakerTransition { node, at: now, to: BreakerState::HalfOpen };
                    self.transitions.push(t);
                    (true, Some(t))
                } else {
                    (false, None)
                }
            }
            BreakerState::HalfOpen => (e.probe == Some(key), None),
        }
    }

    /// Reports a clean task finish of `key` on `node`. A closed breaker
    /// on `node` forgets its strikes, and **any** half-open breaker whose
    /// probe was `key` closes — a retry can finish a probe task on a
    /// different node than the one being probed, and a probe that ran to
    /// completion anywhere proves the retry path is healthy again.
    /// Returns the close transitions (nodes in id order).
    pub fn on_success(
        &mut self,
        node: NodeId,
        key: (u64, u64),
        now: SimTime,
    ) -> Vec<BreakerTransition> {
        if let Some(e) = self.entries.get_mut(&node) {
            if e.state == BreakerState::Closed {
                e.strikes = 0;
            }
        }
        let mut probed: Vec<NodeId> = self
            .entries
            .iter()
            .filter(|(_, e)| e.state == BreakerState::HalfOpen && e.probe == Some(key))
            .map(|(&n, _)| n)
            .collect();
        probed.sort();
        let mut out = Vec::new();
        for n in probed {
            let e = self.entry(n);
            e.state = BreakerState::Closed;
            e.strikes = 0;
            e.probe = None;
            let t = BreakerTransition { node: n, at: now, to: BreakerState::Closed };
            self.transitions.push(t);
            out.push(t);
        }
        out
    }

    /// The state of `node`'s breaker (Closed if it never tripped).
    pub fn state(&self, node: NodeId) -> BreakerState {
        self.entries.get(&node).map(|e| e.state).unwrap_or(BreakerState::Closed)
    }

    /// Nodes whose breakers are currently not Closed, sorted by id.
    pub fn unhealthy(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .entries
            .iter()
            .filter(|(_, e)| e.state != BreakerState::Closed)
            .map(|(&n, _)| n)
            .collect();
        v.sort();
        v
    }

    /// Every transition so far, in commit order.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_after_consecutive_strikes_and_probes_after_cooldown() {
        let mut b = BreakerBank::default();
        let n = NodeId(3);
        assert_eq!(b.state(n), BreakerState::Closed);
        assert!(b.on_fault(n, SimTime(10)).is_none(), "one strike stays closed");
        let trip = b.on_fault(n, SimTime(20)).expect("second strike trips");
        assert_eq!(trip.to, BreakerState::Open);
        assert_eq!(b.state(n), BreakerState::Open);
        // Too early: excluded, no transition.
        let (ok, t) = b.allows(n, SimTime(50), (0, 0));
        assert!(!ok);
        assert!(t.is_none());
        // Cool-down elapsed: exactly one probe gets through.
        let cooled = SimTime(20) + COOLDOWN;
        let (ok, t) = b.allows(n, cooled, (7, 1));
        assert!(ok);
        assert_eq!(t.unwrap().to, BreakerState::HalfOpen);
        let (other, _) = b.allows(n, cooled + SimDuration(1), (8, 0));
        assert!(!other, "only the probe holder passes while half-open");
        // Clean probe closes; strikes are forgotten. The close fires even
        // when the probe task finished on a *different* node (a retry moved it).
        let close = b.on_success(NodeId(9), (7, 1), cooled + SimDuration(30));
        assert_eq!(close.len(), 1, "probe closes");
        assert_eq!(close[0].node, n);
        assert_eq!(close[0].to, BreakerState::Closed);
        assert!(b.unhealthy().is_empty());
        assert!(b.on_fault(n, cooled + SimDuration(80)).is_none(), "strike count restarted");
    }

    #[test]
    fn failed_probe_reopens_with_fresh_cooldown() {
        let mut b = BreakerBank::default();
        let n = NodeId(0);
        b.on_fault(n, SimTime(0));
        b.on_fault(n, SimTime(0)).expect("second strike trips");
        let (ok, _) = b.allows(n, SimTime::ZERO + COOLDOWN, (1, 0));
        assert!(ok);
        let refault = SimTime::ZERO + COOLDOWN + SimDuration(10);
        let reopen = b.on_fault(n, refault).expect("probe fault re-opens");
        assert_eq!(reopen.to, BreakerState::Open);
        let (ok, _) = b.allows(n, SimTime::ZERO + COOLDOWN + COOLDOWN, (2, 0));
        assert!(!ok, "cool-down restarted at the probe failure");
        let (ok, _) = b.allows(n, refault + COOLDOWN, (2, 0));
        assert!(ok);
        assert_eq!(b.transitions().len(), 4, "trip, probe, re-trip, re-probe");
    }
}
