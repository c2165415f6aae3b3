//! The discrete-event queue: deterministic ordering over virtual time.
//!
//! Events carry a per-slot `token`; state transitions bump the slot's token,
//! which lazily invalidates any stale events still queued (cheaper than
//! removing them). Ties in virtual time are broken by insertion order, so a
//! given event sequence replays identically on every run.
//!
//! [`EventQueue`] is backed by the calendar queue in [`crate::calendar`]
//! (amortised O(1) push/pop). The original binary-heap scheduler is
//! retained as [`BinaryHeapQueue`], a reference implementation with the
//! same ordering contract: the equivalence proptest in
//! `tests/fleet_properties.rs` drives random schedules through both and
//! demands identical pop sequences, which is what guarantees fleet reports
//! are bit-identical under either scheduler.

use crate::calendar::CalendarQueue;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What an event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The pending fault of a replica slot arrives.
    Fault {
        /// Shard-local replica slot.
        slot: u32,
    },
    /// A latent fault is detected (scrub tour reaches it): the repair can
    /// now be committed to the site pipeline.
    RepairReady {
        /// Shard-local replica slot.
        slot: u32,
    },
    /// A scheduled repair of a replica slot completes.
    RepairDone {
        /// Shard-local replica slot.
        slot: u32,
    },
    /// A correlated burst strikes (index into the shared burst timeline).
    Burst {
        /// Index into the burst timeline.
        index: u32,
    },
}

/// One scheduled event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Virtual time in hours.
    pub time: f64,
    /// Slot token captured at scheduling; stale if the slot moved on.
    pub token: u32,
    /// Payload.
    pub kind: EventKind,
    /// Insertion sequence, for deterministic tie-breaking.
    pub(crate) seq: u64,
}

/// The schedulers' internal event representation: the `(time, seq)`
/// ordering key packed into two integers. Event times are non-negative and
/// finite (asserted at push), and for non-negative IEEE doubles the bit
/// pattern is order-isomorphic to the float — so one integer-tuple compare
/// replaces `total_cmp` + tie-break, which is measurably cheaper in the
/// heap's sift paths (no float-compare stalls, fully predictable compare
/// chains). The payload packs the kind tag into the top two bits of the
/// slot word; `BinaryHeapQueue` keeps the float-ordered [`Event`]
/// representation, so the scheduler-equivalence proptest cross-checks the
/// packing against the specification ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Packed {
    /// `time.to_bits()` of a non-negative, finite, `+0.0`-normalized time.
    time_bits: u64,
    /// Insertion sequence (the tie-break).
    seq: u64,
    /// Slot token captured at scheduling.
    token: u32,
    /// `kind tag << 30 | slot-or-index` (30 payload bits; pushes assert).
    kindslot: u32,
}

impl Packed {
    const TAG_SHIFT: u32 = 30;
    const PAYLOAD_MASK: u32 = (1 << Self::TAG_SHIFT) - 1;

    /// Packs an event. The time is normalized (`-0.0` → `+0.0`) so the bit
    /// pattern is monotone in the float value.
    #[inline]
    pub(crate) fn new(time: f64, token: u32, kind: EventKind, seq: u64) -> Self {
        debug_assert!(time.is_finite() && time >= 0.0, "event time must be finite, got {time}");
        let (tag, payload) = match kind {
            EventKind::Fault { slot } => (0u32, slot),
            EventKind::RepairReady { slot } => (1, slot),
            EventKind::RepairDone { slot } => (2, slot),
            EventKind::Burst { index } => (3, index),
        };
        assert!(payload <= Self::PAYLOAD_MASK, "slot {payload} exceeds the 30-bit event payload");
        Self {
            time_bits: (time + 0.0).to_bits(),
            seq,
            token,
            kindslot: tag << Self::TAG_SHIFT | payload,
        }
    }

    /// A slot filler that can never collide with a real event: event times
    /// are finite, so their bit patterns are below `u64::MAX`. Used by the
    /// calendar ring's inline bucket storage.
    pub(crate) const SENTINEL: Packed =
        Packed { time_bits: u64::MAX, seq: 0, token: 0, kindslot: 0 };

    /// Whether this is the [`Packed::SENTINEL`] filler.
    #[inline]
    pub(crate) fn is_sentinel(&self) -> bool {
        self.time_bits == u64::MAX
    }

    /// The `(time, seq)` ordering key.
    #[inline]
    pub(crate) fn key(&self) -> (u64, u64) {
        (self.time_bits, self.seq)
    }

    /// The event's virtual time.
    #[inline]
    pub(crate) fn time(&self) -> f64 {
        f64::from_bits(self.time_bits)
    }

    /// The insertion sequence (tie-break); consulted by the scheduler
    /// tests (the runtime orders through [`Packed::key`]).
    #[cfg(test)]
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    /// Unpacks back into the public [`Event`].
    #[inline]
    pub(crate) fn unpack(self) -> Event {
        let payload = self.kindslot & Self::PAYLOAD_MASK;
        let kind = match self.kindslot >> Self::TAG_SHIFT {
            0 => EventKind::Fault { slot: payload },
            1 => EventKind::RepairReady { slot: payload },
            2 => EventKind::RepairDone { slot: payload },
            _ => EventKind::Burst { index: payload },
        };
        Event { time: self.time(), token: self.token, kind, seq: self.seq }
    }
}

impl PartialOrd for Packed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Packed {
    /// Reversed `(time, seq)` so `BinaryHeap`'s max-pop yields the minimum.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl Event {
    /// Insertion sequence number (the tie-breaker within one virtual time).
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest event pops first.
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Occupancy at which [`EventQueue`] migrates from the binary heap to the
/// calendar ring. Re-tuned after the packed-key representation landed:
/// with integer-tuple compares the binary heap only wins while the whole
/// schedule sits in a couple of cache lines (a few dozen events); from
/// ~64 concurrent events up, the calendar's amortised O(1) buckets beat
/// the heap's unpredictable sift branches on the hold-model churn the
/// kernels generate. The switch depends only on queue content, so replays
/// stay deterministic.
const CALENDAR_THRESHOLD: usize = 64;

/// The queue's active backend.
#[derive(Debug)]
enum Backend {
    Heap(BinaryHeap<Packed>),
    Calendar(CalendarQueue),
}

/// The kernel's event queue, ordered by `(time, seq)`: an adaptive
/// scheduler that starts on a binary heap and migrates to the calendar
/// queue when occupancy crosses `CALENDAR_THRESHOLD` (64). Both backends
/// obey the exact same ordering contract, so the migration point never
/// changes results — only wall-clock time.
#[derive(Debug)]
pub struct EventQueue {
    backend: Backend,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self { backend: Backend::Heap(BinaryHeap::new()), next_seq: 0 }
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a queue expecting roughly `capacity` concurrent events. The
    /// hint only pre-sizes the heap (capped at the migration threshold) —
    /// actual occupancy, not the hint, decides when to migrate: slot-count
    /// hints wildly overestimate the occupancy of thinned fleets, where
    /// only a few percent of slots ever hold a pending event.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.min(CALENDAR_THRESHOLD);
        Self { backend: Backend::Heap(BinaryHeap::with_capacity(cap)), next_seq: 0 }
    }

    /// Creates a queue that starts directly on the calendar backend,
    /// regardless of occupancy — used by the scheduler-equivalence tests
    /// and large-occupancy benchmarks to exercise the calendar on schedules
    /// of any size.
    pub fn calendar_backed() -> Self {
        Self { backend: Backend::Calendar(CalendarQueue::new()), next_seq: 0 }
    }

    /// Schedules an event.
    #[inline]
    pub fn push(&mut self, time: f64, token: u32, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let event = Packed::new(time, token, kind, seq);
        match &mut self.backend {
            Backend::Heap(heap) => {
                heap.push(event);
                if heap.len() > CALENDAR_THRESHOLD {
                    self.migrate();
                }
            }
            Backend::Calendar(calendar) => calendar.push(event),
        }
    }

    /// Moves every queued event from the heap to a calendar ring. One-way:
    /// a queue that has proven large-occupancy stays on the calendar.
    #[cold]
    fn migrate(&mut self) {
        if let Backend::Heap(heap) = &mut self.backend {
            let mut calendar = CalendarQueue::new();
            for event in std::mem::take(heap) {
                calendar.push(event);
            }
            self.backend = Backend::Calendar(calendar);
        }
    }

    /// Pops the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        match &mut self.backend {
            Backend::Heap(heap) => heap.pop().map(Packed::unpack),
            Backend::Calendar(calendar) => calendar.pop().map(Packed::unpack),
        }
    }

    /// Earliest scheduled time, if any. O(n) on the calendar backend —
    /// diagnostics and tests only.
    pub fn peek_time(&self) -> Option<f64> {
        match &self.backend {
            Backend::Heap(heap) => heap.peek().map(Packed::time),
            Backend::Calendar(calendar) => calendar.peek_time(),
        }
    }

    /// Number of pending events (including stale ones).
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Heap(heap) => heap.len(),
            Backend::Calendar(calendar) => calendar.len(),
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The original binary-heap scheduler, kept as the reference
/// implementation for equivalence testing against [`EventQueue`]'s
/// calendar backend. Same API, same `(time, seq)` ordering contract.
#[derive(Debug, Default)]
pub struct BinaryHeapQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl BinaryHeapQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event.
    pub fn push(&mut self, time: f64, token: u32, kind: EventKind) {
        debug_assert!(time.is_finite() && time >= 0.0, "event time must be finite, got {time}");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, token, kind, seq });
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Earliest scheduled time, if any.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events (including stale ones).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(5.0, 0, EventKind::Fault { slot: 1 });
        q.push(1.0, 0, EventKind::Fault { slot: 2 });
        q.push(3.0, 0, EventKind::RepairDone { slot: 3 });
        let times: Vec<f64> = std::iter::from_fn(|| q.pop().map(|e| e.time)).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(2.0, 0, EventKind::Fault { slot: 10 });
        q.push(2.0, 0, EventKind::Fault { slot: 20 });
        q.push(2.0, 0, EventKind::Fault { slot: 30 });
        let slots: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|e| match e.kind {
                EventKind::Fault { slot } => slot,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(slots, vec![10, 20, 30]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::with_capacity(4);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(7.0, 1, EventKind::Burst { index: 0 });
        assert_eq!(q.peek_time(), Some(7.0));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn reference_heap_matches_calendar_on_a_fixed_schedule() {
        let mut cal = EventQueue::new();
        let mut heap = BinaryHeapQueue::new();
        let times = [5.0, 1.0, 3.0, 3.0, 8.0, 1.0, 0.0, 3.0, 2.5];
        for (i, &t) in times.iter().enumerate() {
            cal.push(t, i as u32, EventKind::Fault { slot: i as u32 });
            heap.push(t, i as u32, EventKind::Fault { slot: i as u32 });
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            match (a, b) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert_eq!(
                        (a.time, a.seq(), a.token, a.kind),
                        (b.time, b.seq(), b.token, b.kind)
                    );
                }
                (a, b) => panic!("queues diverged: {a:?} vs {b:?}"),
            }
        }
    }
}
