//! Structured event tracing.
//!
//! The benchmark harness regenerates the paper's tables from what actually
//! happened during a run: which devices served which regions, how many
//! bytes moved physically versus how many handovers were pure ownership
//! transfers, when tasks started and finished. The [`Trace`] collects those
//! events. Job/task identifiers are plain integers here because the
//! dataflow layer sits above this crate.

use crate::device::AccessOp;
use crate::ids::{ComputeId, MemDeviceId, NodeId};
use crate::time::{SimDuration, SimTime};

/// Whose access triggered a [`TraceEvent::Reconstruct`]. Its own enum
/// rather than two `Option<u64>`s: those alone made `Reconstruct` — one
/// rare variant — set the size of every event (72 bytes, a
/// third of a traced serving pass's memory); this packs into 16, which
/// `Reconstruct` keeps behind a `Box`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildFor {
    /// A task's access.
    Task {
        /// The job.
        job: u64,
        /// The task's index within the job.
        task: u32,
    },
    /// An access at job scope.
    Job(u64),
    /// Outside any job (e.g. the post-wave heal).
    Nobody,
}

impl RebuildFor {
    /// The job, if any.
    pub fn job(self) -> Option<u64> {
        match self {
            RebuildFor::Task { job, .. } | RebuildFor::Job(job) => Some(job),
            RebuildFor::Nobody => None,
        }
    }

    /// The task index, if the rebuild ran inside a task.
    pub fn task(self) -> Option<u64> {
        match self {
            RebuildFor::Task { task, .. } => Some(u64::from(task)),
            _ => None,
        }
    }
}

/// One traced event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A region was allocated on a device.
    Alloc {
        /// Region identifier (assigned by the memory pool).
        region: u64,
        /// Backing device.
        dev: MemDeviceId,
        /// Region size in bytes.
        bytes: u64,
        /// When.
        at: SimTime,
    },
    /// A region was freed.
    Free {
        /// Region identifier.
        region: u64,
        /// Backing device.
        dev: MemDeviceId,
        /// Region size in bytes.
        bytes: u64,
        /// When.
        at: SimTime,
    },
    /// A memory access completed.
    Access {
        /// The accessed region.
        region: u64,
        /// Backing device.
        dev: MemDeviceId,
        /// Bytes logically accessed.
        bytes: u64,
        /// Read or write.
        op: AccessOp,
        /// When the access was issued.
        at: SimTime,
        /// How long it took (after contention).
        took: SimDuration,
    },
    /// A region migrated between devices (physical copy).
    Migrate {
        /// Region identifier.
        region: u64,
        /// Source device.
        from: MemDeviceId,
        /// Destination device.
        to: MemDeviceId,
        /// Bytes copied.
        bytes: u64,
        /// When.
        at: SimTime,
        /// How long the copy took.
        took: SimDuration,
    },
    /// A region's ownership moved between tasks without a physical copy.
    OwnershipTransfer {
        /// Region identifier.
        region: u64,
        /// Handing-over task (job-local index).
        from_task: u64,
        /// Receiving task (job-local index).
        to_task: u64,
        /// Region size (bytes that did *not* need to move).
        bytes: u64,
        /// When.
        at: SimTime,
    },
    /// One attempt of a task, recorded once its outcome is known: it
    /// waited `waited` in a ready queue, was dispatched onto a lane of
    /// `on` at `at` and ended at `end` — its finish when `completed`, or
    /// else the detection instant at which a fault-interrupted attempt
    /// frees its lane. A retried task records one per attempt.
    TaskAttempt {
        /// Job identifier.
        job: u64,
        /// Task index within the job.
        task: u64,
        /// The dispatching device, where the attempt runs.
        on: ComputeId,
        /// Dispatch time: when the attempt starts.
        at: SimTime,
        /// Time spent in the ready queue before `at`.
        waited: SimDuration,
        /// When the attempt ended.
        end: SimTime,
        /// Whether the attempt finished (`false`: a fault interrupted it).
        completed: bool,
    },
    /// The recovery layer noticed a fault that interrupted a running
    /// task (emitted at detection time, i.e. fault time + detection
    /// delay — not at the instant the fault struck).
    FaultDetected {
        /// Job identifier.
        job: u64,
        /// Task index within the job.
        task: u64,
        /// The device the interrupted attempt was running on.
        on: ComputeId,
        /// Detection time.
        at: SimTime,
    },
    /// A task attempt was abandoned to a fault and the task re-queued on
    /// a replacement device.
    TaskRetry {
        /// Job identifier.
        job: u64,
        /// Task index within the job.
        task: u64,
        /// Device of the abandoned attempt.
        from: ComputeId,
        /// Device of the new attempt.
        to: ComputeId,
        /// Retry number (1 = first retry).
        attempt: u32,
        /// When the task re-enters the replacement's ready queue.
        at: SimTime,
        /// Virtual time burned on the abandoned attempt, from its start
        /// through the detection delay and the backoff.
        lost: SimDuration,
    },
    /// Lost or corrupted region bytes were transparently rebuilt from
    /// redundancy (replica copy or Reed-Solomon decode).
    Reconstruct {
        /// Region identifier.
        region: u64,
        /// Device the reconstructed bytes were served from / written to.
        dev: MemDeviceId,
        /// Bytes reconstructed.
        bytes: u64,
        /// When reconstruction started.
        at: SimTime,
        /// Simulated transfer + decode cost.
        took: SimDuration,
        /// Whose access triggered the rebuild. Boxed: inline, this one
        /// rare variant would set every event's size at 56 bytes.
        by: Box<RebuildFor>,
    },
    /// A circuit breaker opened: enough `FaultDetected` strikes landed
    /// on one node that placement stops offering it candidates until the
    /// cool-down elapses. Emitted from the executor's commit path, so
    /// the transition order is deterministic.
    BreakerTrip {
        /// The node the breaker guards.
        node: NodeId,
        /// When the breaker opened.
        at: SimTime,
    },
    /// An open breaker's cool-down elapsed and one probe task was
    /// admitted onto the node (half-open state).
    BreakerProbe {
        /// The node the breaker guards.
        node: NodeId,
        /// When the probe was admitted.
        at: SimTime,
    },
    /// A half-open breaker's probe task finished cleanly and the breaker
    /// closed; the node is back in the candidate set.
    BreakerClose {
        /// The node the breaker guards.
        node: NodeId,
        /// When the breaker closed.
        at: SimTime,
    },
    /// The serving control plane shed a request at admission because its
    /// deadline (arrival + calibrated service estimate under the current
    /// queue depth) could not be met. Distinct from quota rejection.
    RequestShed {
        /// Request identifier (the serving layer's request index).
        request: u64,
        /// Tenant the request belongs to.
        tenant: u64,
        /// Arrival time of the shed request.
        at: SimTime,
    },
    /// The serving control plane instantiated a request from its
    /// tenant's *degraded* template (brownout mode) instead of the
    /// normal one.
    RequestDegraded {
        /// Request identifier (the serving layer's request index).
        request: u64,
        /// Tenant the request belongs to.
        tenant: u64,
        /// Arrival time of the degraded request.
        at: SimTime,
    },
    /// A served request's identity, stamped once per job at submission
    /// time so every later `job`-carrying event in the same trace can be
    /// attributed back to the request (and tenant) that caused it.
    /// Emitted only for request-annotated submissions: plain batch runs
    /// never see it, so their traces are unchanged.
    RequestTag {
        /// Request identifier (the serving layer's request index).
        request: u64,
        /// Tenant the request belongs to.
        tenant: u64,
        /// The job instantiated for the request.
        job: u64,
        /// The request's arrival; its job is released at or after it.
        at: SimTime,
    },
}

// A traced serving pass buffers a third of a million of these. The
// largest variants (`TaskAttempt`, `TaskRetry`, `Migrate`) fill 48.
const _: () = assert!(std::mem::size_of::<TraceEvent>() <= 48);

impl TraceEvent {
    /// The timestamp of the event.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceEvent::Alloc { at, .. }
            | TraceEvent::Free { at, .. }
            | TraceEvent::Access { at, .. }
            | TraceEvent::Migrate { at, .. }
            | TraceEvent::OwnershipTransfer { at, .. }
            | TraceEvent::TaskAttempt { at, .. }
            | TraceEvent::FaultDetected { at, .. }
            | TraceEvent::TaskRetry { at, .. }
            | TraceEvent::Reconstruct { at, .. }
            | TraceEvent::BreakerTrip { at, .. }
            | TraceEvent::BreakerProbe { at, .. }
            | TraceEvent::BreakerClose { at, .. }
            | TraceEvent::RequestShed { at, .. }
            | TraceEvent::RequestDegraded { at, .. }
            | TraceEvent::RequestTag { at, .. } => at,
        }
    }
}

/// An append-only event log with aggregate queries: a run's one copy of
/// its events. Observability layers read it after (or between) waves;
/// nothing streams events past it.
#[derive(Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    enabled: bool,
    /// Running totals over every pushed event, buffered or not, so the
    /// accessors (and the executor's per-wave deltas) never scan.
    bytes_moved: u64,
    bytes_by_ownership: u64,
    bytes_allocated: u64,
    bytes_freed: u64,
}

impl Trace {
    /// A trace that records events.
    pub fn enabled() -> Self {
        Trace {
            enabled: true,
            ..Trace::default()
        }
    }

    /// A trace that buffers nothing; it still counts bytes.
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// Records an event: counts its bytes (buffered or not), then
    /// buffers it (if enabled).
    pub fn push(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Access { bytes, .. } | TraceEvent::Migrate { bytes, .. } => {
                self.bytes_moved += bytes;
            }
            TraceEvent::OwnershipTransfer { bytes, .. } => self.bytes_by_ownership += bytes,
            TraceEvent::Alloc { bytes, .. } => self.bytes_allocated += bytes,
            TraceEvent::Free { bytes, .. } => self.bytes_freed += bytes,
            _ => {}
        }
        if self.enabled {
            self.events.push(event);
        }
    }

    /// Makes room for `additional` more events in one step, so a caller
    /// that knows a run's size spares the log its doublings (each one
    /// copies everything recorded before it).
    /// Does nothing when buffering is disabled.
    pub fn reserve(&mut self, additional: usize) {
        if self.enabled {
            self.events.reserve_exact(additional);
        }
    }

    /// All recorded events in insertion order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total bytes physically moved (accesses + migrations) by the
    /// pushed events, buffered or not. O(1): a running total, not a scan.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Total bytes whose movement was *avoided* by ownership transfer,
    /// over the pushed events, buffered or not. O(1).
    pub fn bytes_transferred_by_ownership(&self) -> u64 {
        self.bytes_by_ownership
    }

    /// Total bytes of the pushed `Alloc` events, buffered or not. O(1).
    pub fn bytes_allocated(&self) -> u64 {
        self.bytes_allocated
    }

    /// Total bytes of the pushed `Free` events, buffered or not. O(1).
    pub fn bytes_freed(&self) -> u64 {
        self.bytes_freed
    }

    /// Count of events matching a predicate.
    pub fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }

    /// Clears all events and the byte totals.
    pub fn clear(&mut self) {
        self.events.clear();
        self.bytes_moved = 0;
        self.bytes_by_ownership = 0;
        self.bytes_allocated = 0;
        self.bytes_freed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(dev: u32, bytes: u64) -> TraceEvent {
        TraceEvent::Access {
            region: 0,
            dev: MemDeviceId(dev),
            bytes,
            op: AccessOp::Read,
            at: SimTime(0),
            took: SimDuration(10),
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.push(access(0, 64));
        t.push(TraceEvent::OwnershipTransfer {
            region: 1,
            from_task: 0,
            to_task: 1,
            bytes: 1_000,
            at: SimTime(5),
        });
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        // Nothing is buffered, but the byte totals count every push.
        assert_eq!(t.bytes_moved(), 64);
        assert_eq!(t.bytes_transferred_by_ownership(), 1_000);
    }

    #[test]
    fn byte_totals_count_moves_and_transfers_only_and_reset_on_clear() {
        let mut t = Trace::enabled();
        t.push(access(0, 64));
        t.push(TraceEvent::Migrate {
            region: 1,
            from: MemDeviceId(0),
            to: MemDeviceId(1),
            bytes: 50,
            at: SimTime(0),
            took: SimDuration(1),
        });
        t.push(TraceEvent::OwnershipTransfer {
            region: 1,
            from_task: 0,
            to_task: 1,
            bytes: 1_000,
            at: SimTime(5),
        });
        // Carries a byte count but moves nothing.
        t.push(TraceEvent::Free { region: 1, dev: MemDeviceId(1), bytes: 4_096, at: SimTime(6) });
        assert_eq!(t.bytes_moved(), 114);
        assert_eq!(t.bytes_transferred_by_ownership(), 1_000);
        t.clear();
        assert_eq!((t.bytes_moved(), t.bytes_transferred_by_ownership()), (0, 0));
    }

    #[test]
    fn allocated_and_freed_bytes_are_counted_buffered_or_not() {
        for mut t in [Trace::enabled(), Trace::disabled()] {
            let dev = MemDeviceId(0);
            t.push(TraceEvent::Alloc { region: 1, dev, bytes: 4_096, at: SimTime(0) });
            t.push(TraceEvent::Alloc { region: 2, dev, bytes: 64, at: SimTime(1) });
            t.push(TraceEvent::Free { region: 1, dev, bytes: 4_096, at: SimTime(2) });
            assert_eq!((t.bytes_allocated(), t.bytes_freed()), (4_160, 4_096));
            assert_eq!(t.bytes_moved(), 0);
            t.clear();
            assert_eq!((t.bytes_allocated(), t.bytes_freed()), (0, 0));
        }
    }

    #[test]
    fn reserve_sizes_a_buffering_trace_only() {
        let mut t = Trace::enabled();
        t.push(access(0, 1));
        t.reserve(100);
        assert!(t.events.capacity() >= 101);
        let mut off = Trace::disabled();
        off.reserve(100);
        assert_eq!(off.events.capacity(), 0);
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::enabled();
        t.push(access(0, 64));
        t.push(access(1, 128));
        assert_eq!(t.len(), 2);
        assert_eq!(t.bytes_moved(), 192);
    }

    #[test]
    fn ownership_transfers_tracked_separately_from_physical_moves() {
        let mut t = Trace::enabled();
        t.push(access(0, 100));
        t.push(TraceEvent::OwnershipTransfer {
            region: 1,
            from_task: 0,
            to_task: 1,
            bytes: 1_000,
            at: SimTime(5),
        });
        assert_eq!(t.bytes_moved(), 100);
        assert_eq!(t.bytes_transferred_by_ownership(), 1_000);
    }

    #[test]
    fn count_filters_events() {
        let mut t = Trace::enabled();
        t.push(access(0, 1));
        t.push(access(0, 1));
        t.push(TraceEvent::TaskAttempt {
            job: 0,
            task: 0,
            on: ComputeId(0),
            at: SimTime(0),
            waited: SimDuration::ZERO,
            end: SimTime(5),
            completed: true,
        });
        assert_eq!(t.count(|e| matches!(e, TraceEvent::Access { .. })), 2);
        assert_eq!(t.count(|e| matches!(e, TraceEvent::TaskAttempt { .. })), 1);
    }

    #[test]
    fn event_timestamps_accessible() {
        let e = access(0, 1);
        assert_eq!(e.at(), SimTime(0));
        let mut t = Trace::enabled();
        t.push(e);
        t.clear();
        assert!(t.is_empty());
    }
}
