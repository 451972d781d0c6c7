//! The simulation event queue.
//!
//! Events are ordered by timestamp; ties are broken by insertion order so
//! simulation results are deterministic regardless of hash-map iteration
//! order elsewhere.
//!
//! # Two-level scheduling
//!
//! A single binary heap pays an `O(log n)` re-sort on every push and pop.
//! Gate-level traffic does not look like random timestamps, though: it is
//! bursts of events at *identical* times — equal-delay parallel paths (a
//! popcount tree's layer, a clause bank fed from one input edge, the
//! fanout cascade of a four-phase handshake transition all share one
//! accumulated delay).  In the registered Tsetlin datapath roughly 70 %
//! of pushes land exactly on the timestamp currently being drained.  The
//! queue therefore keeps events in three tiers:
//!
//! 1. **drain buffer** — a flat FIFO holding *every* event at the
//!    earliest pending timestamp.  Pops and same-timestamp pushes are
//!    `O(1)` array moves; a zero-delay cascade at the current time never
//!    touches a heap.
//! 2. **near-future buckets** — a power-of-two ring of time buckets
//!    covering a short horizon after the drain timestamp, each a small
//!    min-heap in `(time, sequence)` order.  Pushes are `O(log n)` in
//!    the bucket's (shallow) depth; when the drain empties, the batch
//!    of events sharing the next timestamp pops straight off the head
//!    bucket — no rescan of the bucket per timestamp, which matters
//!    when a 64-wide sliced word packs many distinct timestamps into
//!    one bucket.
//! 3. **far-future overflow** — a binary heap for the rare event beyond
//!    the bucket horizon (events are scheduled at most one cell delay
//!    ahead, so the horizon is sized to cover them all).
//!
//! The pop order — strictly `(time_ps, insertion sequence)` — is
//! identical to the previous single-heap discipline; the property test in
//! `tests/property_tests.rs` pins the same-timestamp FIFO invariant under
//! arbitrary interleaved push/pop sequences.
//!
//! The queue is generic over the payload it schedules ([`SimEvent`]):
//! the scalar engine queues one net change per [`Event`], while the
//! 64-wide bit-sliced engine ([`crate::SlicedSimulator`]) queues plane
//! updates carrying a lane mask.  Both share the exact three-tier
//! discipline, so the sliced engine inherits the property-tested pop
//! order for free.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use netlist::NetId;

use crate::Logic;

/// A queue payload: anything with a finite scheduling timestamp.
///
/// Implemented by the scalar [`Event`] and by the bit-sliced engine's
/// internal plane event.  The timestamp fully determines queue order
/// (ties break by insertion sequence), so payload contents never affect
/// scheduling.
pub trait SimEvent: Copy {
    /// Simulation time at which this event takes effect, in picoseconds.
    fn time_ps(&self) -> f64;
}

/// A scheduled net-value change.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Simulation time at which the change takes effect, in picoseconds.
    pub time_ps: f64,
    /// The net that changes.
    pub net: NetId,
    /// The new value.
    pub value: Logic,
}

impl SimEvent for Event {
    fn time_ps(&self) -> f64 {
        self.time_ps
    }
}

#[derive(Clone, Copy, Debug)]
struct QueuedEvent<E> {
    event: E,
    sequence: u64,
}

impl<E: SimEvent> PartialEq for QueuedEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.event.time_ps() == other.event.time_ps() && self.sequence == other.sequence
    }
}
impl<E: SimEvent> Eq for QueuedEvent<E> {}

impl<E: SimEvent> Ord for QueuedEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest time pops first,
        // and for equal times the earliest-scheduled event pops first.
        other
            .event
            .time_ps()
            .total_cmp(&self.event.time_ps())
            .then_with(|| other.sequence.cmp(&self.sequence))
    }
}

impl<E: SimEvent> PartialOrd for QueuedEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic time-ordered event queue with two-level scheduling
/// (same-timestamp drain buffer + bucketed near future + far-future
/// overflow heap).
///
/// Events pop strictly in `(time_ps, push order)`: earliest timestamp
/// first, and FIFO among events sharing a timestamp.  The payload type
/// defaults to the scalar [`Event`]; any [`SimEvent`] works.
///
/// # Example
///
/// ```
/// use gatesim::{Event, EventQueue, Logic};
/// use netlist::NetId;
///
/// let mut q = EventQueue::new();
/// q.push(Event { time_ps: 20.0, net: NetId::from_index(0), value: Logic::One });
/// q.push(Event { time_ps: 10.0, net: NetId::from_index(1), value: Logic::Zero });
/// assert_eq!(q.pop().unwrap().time_ps, 10.0);
/// assert_eq!(q.pop().unwrap().time_ps, 20.0);
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E: SimEvent = Event> {
    /// Tier 1: every pending event at the earliest timestamp, FIFO from
    /// `drain_head` (a flat vec beats a ring deque in the hot loop).
    drain: Vec<QueuedEvent<E>>,
    drain_head: usize,
    /// Timestamp shared by all drain events (meaningful when non-empty).
    drain_time: f64,
    /// Tier 2: ring of near-future buckets; absolute bucket id `b` maps
    /// to slot `b & bucket_mask`, and live ids span
    /// `[cur_bucket, cur_bucket + buckets.len())`.  Each bucket is a
    /// binary min-heap in `(time, sequence)` order (via the inverted
    /// [`QueuedEvent`] `Ord`): a 64-wide sliced run packs many distinct
    /// timestamps into one bucket, and a heap serves each timestamp's
    /// batch in `O(log n)` per event where a flat vec would rescan the
    /// whole bucket per timestamp.
    buckets: Vec<BinaryHeap<QueuedEvent<E>>>,
    bucket_mask: usize,
    /// Reciprocal of the bucket width (multiplication beats division in
    /// the push path).
    inv_bucket_width: f64,
    /// Absolute bucket id of `drain_time`.
    cur_bucket: i64,
    /// Total events across all buckets.
    near_count: usize,
    /// Tier 3: events beyond the bucket horizon.
    overflow: BinaryHeap<QueuedEvent<E>>,
    /// Reused buffer for the (rare) backward-rebase path, keeping the
    /// kernel allocation-free in steady state.
    demote_scratch: Vec<QueuedEvent<E>>,
    next_sequence: u64,
    len: usize,
    /// Cumulative tier traffic (drain FIFO / bucket ring / overflow
    /// heap filings), reported by [`EventQueue::tier_pushes`].
    drain_pushes: u64,
    bucket_pushes: u64,
    overflow_pushes: u64,
}

impl<E: SimEvent> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Default bucket width: a fraction of a typical gate delay, so parallel
/// paths with equal accumulated delay land in distinct (or shared but
/// shallow) buckets.
const DEFAULT_BUCKET_WIDTH_PS: f64 = 16.0;
/// Default bucket count; horizon = width × count must exceed the largest
/// single-event lookahead (one cell delay) for buckets to absorb
/// everything.
const DEFAULT_BUCKET_COUNT: usize = 128;

impl<E: SimEvent> EventQueue<E> {
    /// Creates an empty queue with the default near-future granularity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_granularity(DEFAULT_BUCKET_WIDTH_PS, DEFAULT_BUCKET_COUNT)
    }

    /// Creates an empty queue whose near-future tier covers
    /// `bucket_width_ps * bucket_count` picoseconds after the current
    /// drain timestamp (`bucket_count` is rounded up to a power of two).
    ///
    /// The granularity only affects performance, never pop order: events
    /// past the horizon spill to the overflow heap, and events sharing a
    /// bucket are still served in exact `(time, sequence)` order.  Size
    /// the horizon to exceed the largest single scheduling lookahead
    /// (for gate simulation, the largest cell delay).
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width_ps` is not finite and positive or if
    /// `bucket_count` is zero.
    #[must_use]
    pub fn with_granularity(bucket_width_ps: f64, bucket_count: usize) -> Self {
        assert!(
            bucket_width_ps.is_finite() && bucket_width_ps > 0.0,
            "bucket width must be finite and positive"
        );
        assert!(bucket_count > 0, "bucket count must be positive");
        let bucket_count = bucket_count.next_power_of_two();
        Self {
            drain: Vec::new(),
            drain_head: 0,
            drain_time: 0.0,
            buckets: (0..bucket_count).map(|_| BinaryHeap::new()).collect(),
            bucket_mask: bucket_count - 1,
            inv_bucket_width: bucket_width_ps.recip(),
            cur_bucket: 0,
            near_count: 0,
            overflow: BinaryHeap::new(),
            demote_scratch: Vec::new(),
            next_sequence: 0,
            len: 0,
            drain_pushes: 0,
            bucket_pushes: 0,
            overflow_pushes: 0,
        }
    }

    /// Cumulative `(drain, bucket, overflow)` filing counts over the
    /// queue's lifetime: how often an event landed in the
    /// same-timestamp drain FIFO, the near-future bucket ring, or the
    /// far-future overflow heap.  Re-filings (window rebases, drain
    /// refills) count at each tier they touch — the figures measure
    /// tier *traffic*, which is what the bucket-horizon tuning cares
    /// about.
    #[must_use]
    pub fn tier_pushes(&self) -> (u64, u64, u64) {
        (self.drain_pushes, self.bucket_pushes, self.overflow_pushes)
    }

    /// Absolute bucket id of a timestamp.
    #[inline]
    fn bucket_id(&self, time_ps: f64) -> i64 {
        (time_ps * self.inv_bucket_width).floor() as i64
    }

    /// Schedules an event.
    #[inline]
    pub fn push(&mut self, event: E) {
        debug_assert!(!event.time_ps().is_nan(), "event time must not be NaN");
        let queued = QueuedEvent {
            event,
            sequence: self.next_sequence,
        };
        self.next_sequence += 1;
        self.len += 1;

        if event.time_ps() == self.drain_time && self.drain_head < self.drain.len() {
            // Same-timestamp cascade: FIFO append, no heap traffic.
            self.drain_pushes += 1;
            self.drain.push(queued);
        } else if self.drain_head >= self.drain.len() {
            // Whole queue was empty: re-anchor the window on this event.
            debug_assert_eq!(self.len, 1);
            self.drain.clear();
            self.drain_head = 0;
            self.drain_time = event.time_ps();
            self.cur_bucket = self.bucket_id(event.time_ps());
            self.drain_pushes += 1;
            self.drain.push(queued);
        } else if event.time_ps() > self.drain_time {
            self.push_near(queued);
        } else {
            self.demote_drain(queued);
        }
    }

    /// Files a future event (strictly after `drain_time`) into its bucket
    /// or, past the horizon, into the overflow heap.
    #[inline]
    fn push_near(&mut self, queued: QueuedEvent<E>) {
        let id = self.bucket_id(queued.event.time_ps());
        if id - self.cur_bucket >= self.buckets.len() as i64 {
            self.overflow_pushes += 1;
            self.overflow.push(queued);
        } else {
            self.bucket_pushes += 1;
            self.buckets[id as usize & self.bucket_mask].push(queued);
            self.near_count += 1;
        }
    }

    /// Handles a push *earlier* than the current drain timestamp (fresh
    /// stimulus between runs): the window is rebased backward and the
    /// displaced drain batch is refiled as near-future events.
    fn demote_drain(&mut self, queued: QueuedEvent<E>) {
        self.rebase_to(self.bucket_id(queued.event.time_ps()));
        let mut displaced = std::mem::take(&mut self.demote_scratch);
        displaced.clear();
        displaced.extend(self.drain.drain(self.drain_head..));
        self.drain.clear();
        self.drain_head = 0;
        self.drain_time = queued.event.time_ps();
        self.drain.push(queued);
        for old in displaced.drain(..) {
            self.push_near(old);
        }
        self.demote_scratch = displaced;
    }

    /// Moves the window start back to `new_cur`, spilling any bucket
    /// whose absolute id would fall outside the new horizon into the
    /// overflow heap.
    fn rebase_to(&mut self, new_cur: i64) {
        let shift = self.cur_bucket - new_cur;
        if shift <= 0 {
            return;
        }
        let n = self.buckets.len() as i64;
        let spill_from = (new_cur + n).max(self.cur_bucket);
        for id in spill_from..self.cur_bucket + n {
            let slot = id as usize & self.bucket_mask;
            self.near_count -= self.buckets[slot].len();
            while let Some(queued) = self.buckets[slot].pop() {
                self.overflow.push(queued);
            }
        }
        self.cur_bucket = new_cur;
    }

    /// Refills the drain buffer with the complete batch of events sharing
    /// the earliest pending timestamp.  Caller guarantees the drain is
    /// empty and at least one event is pending.
    fn refill_drain(&mut self) {
        debug_assert!(self.drain_head >= self.drain.len());
        self.drain.clear();
        self.drain_head = 0;

        // The near-minimum lives at the head of the first non-empty
        // bucket: later buckets hold strictly later times, and each
        // bucket heap keeps its earliest `(time, sequence)` on top.
        let mut near_min = f64::INFINITY;
        if self.near_count > 0 {
            // `near_count > 0` guarantees a non-empty bucket inside the
            // window; bound the scan by the window size anyway so a
            // broken counter surfaces as an empty refill (the caller
            // then reports no pending events) instead of spinning here.
            for _ in 0..self.buckets.len() {
                if !self.buckets[self.cur_bucket as usize & self.bucket_mask].is_empty() {
                    break;
                }
                self.cur_bucket += 1;
            }
            if let Some(head) = self.buckets[self.cur_bucket as usize & self.bucket_mask].peek() {
                near_min = head.event.time_ps();
            }
        }
        let overflow_min = self
            .overflow
            .peek()
            .map_or(f64::INFINITY, |q| q.event.time_ps());
        let target = near_min.min(overflow_min);
        debug_assert!(target.is_finite(), "refill with no pending events");
        self.drain_time = target;

        // Extract every event at the target time straight into the
        // drain — heap pops with equal times come out in sequence
        // order, so the batch arrives already FIFO.
        if near_min == target {
            let slot = self.cur_bucket as usize & self.bucket_mask;
            let bucket = &mut self.buckets[slot];
            loop {
                match bucket.peek() {
                    Some(q) if q.event.time_ps() == target => {}
                    _ => break,
                }
                // The pop mirrors the peek that just matched, so it
                // cannot come back empty; the `if let` keeps the loop
                // panic-free regardless.
                if let Some(queued) = bucket.pop() {
                    self.drain.push(queued);
                }
            }
            self.near_count -= self.drain.len();
        }
        if overflow_min == target {
            // An overflow event can share the target timestamp with a
            // bucket batch (it was filed under an older window); restore
            // global sequence order over the combined batch.
            let had_bucket_part = !self.drain.is_empty();
            loop {
                match self.overflow.peek() {
                    Some(q) if q.event.time_ps() == target => {}
                    _ => break,
                }
                if let Some(queued) = self.overflow.pop() {
                    self.drain.push(queued);
                }
            }
            if had_bucket_part {
                self.drain.sort_unstable_by_key(|q| q.sequence);
            }
        }

        // Re-anchor the bucket window on the new drain timestamp.
        let new_cur = self.bucket_id(target);
        if new_cur < self.cur_bucket {
            self.rebase_to(new_cur);
        } else {
            self.cur_bucket = new_cur;
        }
    }

    /// Removes and returns the earliest event (FIFO among events sharing
    /// a timestamp).
    #[inline]
    pub fn pop(&mut self) -> Option<E> {
        if self.drain_head >= self.drain.len() {
            return None;
        }
        let queued = self.drain[self.drain_head];
        self.drain_head += 1;
        self.len -= 1;
        if self.drain_head >= self.drain.len() && self.len > 0 {
            self.refill_drain();
        }
        Some(queued.event)
    }

    /// Returns the earliest pending event without removing it.
    ///
    /// # Example
    ///
    /// ```
    /// use gatesim::{Event, EventQueue, Logic};
    /// use netlist::NetId;
    ///
    /// let mut q = EventQueue::new();
    /// assert!(q.peek().is_none());
    /// q.push(Event { time_ps: 7.5, net: NetId::from_index(3), value: Logic::One });
    /// q.push(Event { time_ps: 2.5, net: NetId::from_index(4), value: Logic::Zero });
    /// let head = q.peek().unwrap();
    /// assert_eq!((head.time_ps, head.net.index()), (2.5, 4));
    /// assert_eq!(q.len(), 2); // peeking does not consume
    /// ```
    #[must_use]
    pub fn peek(&self) -> Option<&E> {
        self.drain.get(self.drain_head).map(|q| &q.event)
    }

    /// Returns the timestamp of the earliest pending event.
    #[must_use]
    pub fn next_time_ps(&self) -> Option<f64> {
        self.peek().map(SimEvent::time_ps)
    }

    /// Number of pending events.
    ///
    /// # Example
    ///
    /// ```
    /// use gatesim::{Event, EventQueue, Logic};
    /// use netlist::NetId;
    ///
    /// let mut q = EventQueue::new();
    /// assert_eq!(q.len(), 0);
    /// for i in 0..3 {
    ///     q.push(Event { time_ps: 5.0, net: NetId::from_index(i), value: Logic::One });
    /// }
    /// assert_eq!(q.len(), 3);
    /// q.pop();
    /// assert_eq!(q.len(), 2);
    /// ```
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.drain.clear();
        self.drain_head = 0;
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.near_count = 0;
        self.overflow.clear();
        self.len = 0;
    }

    /// Releases the spare capacity every tier keeps from its busiest
    /// moment so far; pending events stay queued and pop order is
    /// unchanged.  Each bucket keeps the capacity of the most events
    /// it ever held, so a burst of traffic otherwise pins its memory
    /// for the queue's lifetime.
    pub fn shrink_to_fit(&mut self) {
        self.drain.shrink_to_fit();
        for bucket in &mut self.buckets {
            bucket.shrink_to_fit();
        }
        self.overflow.shrink_to_fit();
        self.demote_scratch.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, idx: usize) -> Event {
        Event {
            time_ps: t,
            net: NetId::from_index(idx),
            value: Logic::One,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(ev(30.0, 0));
        q.push(ev(10.0, 1));
        q.push(ev(20.0, 2));
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time_ps).collect();
        assert_eq!(order, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(ev(5.0, 7));
        q.push(ev(5.0, 8));
        q.push(ev(5.0, 9));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| e.net.index())
            .collect();
        assert_eq!(order, vec![7, 8, 9]);
    }

    #[test]
    fn shrinking_keeps_pending_events_and_pop_order() {
        let times = [30.0, 10.0, 20.0, 10.0, 5000.0, 15.0];
        let fill = |q: &mut EventQueue| {
            for (i, &t) in times.iter().enumerate() {
                q.push(ev(t, i));
            }
        };
        let drain = |q: &mut EventQueue| -> Vec<usize> {
            std::iter::from_fn(|| q.pop())
                .map(|e| e.net.index())
                .collect()
        };
        let mut reference = EventQueue::new();
        fill(&mut reference);
        let mut q = EventQueue::new();
        fill(&mut q);
        q.pop();
        q.shrink_to_fit();
        assert_eq!(drain(&mut q), drain(&mut reference)[1..]);
        q.shrink_to_fit();
        fill(&mut q);
        fill(&mut reference);
        assert_eq!(drain(&mut q), drain(&mut reference));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_time_ps(), None);
        assert_eq!(q.peek(), None);
        q.push(ev(42.0, 0));
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_time_ps(), Some(42.0));
        assert_eq!(q.peek().map(|e| e.net.index()), Some(0));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn push_earlier_than_pending_head_reorders() {
        // Fresh stimulus is scheduled before in-flight propagation: the
        // window must rebase backward without losing order.
        let mut q = EventQueue::new();
        q.push(ev(100.0, 0));
        q.push(ev(100.0, 1));
        q.push(ev(30.0, 2));
        q.push(ev(100.0, 3));
        q.push(ev(30.0, 4));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| e.net.index())
            .collect();
        assert_eq!(order, vec![2, 4, 0, 1, 3]);
    }

    #[test]
    fn far_future_events_survive_the_horizon() {
        // Events far beyond the bucket horizon go through the overflow
        // heap and still pop in exact order, including ties with near
        // events at the same timestamp reached later.
        let mut q = EventQueue::with_granularity(1.0, 4);
        q.push(ev(1_000_000.0, 0));
        q.push(ev(0.5, 1));
        q.push(ev(2.5, 2));
        assert_eq!(q.pop().unwrap().net.index(), 1);
        assert_eq!(q.pop().unwrap().net.index(), 2);
        // Queue now holds only the far event; a tie pushed near it must
        // still respect sequence order.
        q.push(ev(1_000_000.0, 3));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| e.net.index())
            .collect();
        assert_eq!(order, vec![0, 3]);
    }

    #[test]
    fn interleaved_pushes_at_drain_time_stay_fifo() {
        let mut q = EventQueue::new();
        q.push(ev(5.0, 0));
        q.push(ev(5.0, 1));
        assert_eq!(q.pop().unwrap().net.index(), 0);
        // Zero-delay cascade: new event at the drain timestamp.
        q.push(ev(5.0, 2));
        assert_eq!(q.pop().unwrap().net.index(), 1);
        assert_eq!(q.pop().unwrap().net.index(), 2);
        assert!(q.pop().is_none());
    }

    /// A minimal non-`Event` payload: the generic queue must serve any
    /// [`SimEvent`] with the same `(time, sequence)` discipline.
    #[test]
    fn generic_payloads_share_the_pop_order() {
        #[derive(Clone, Copy, Debug, PartialEq)]
        struct Tagged {
            t: f64,
            tag: u64,
        }
        impl SimEvent for Tagged {
            fn time_ps(&self) -> f64 {
                self.t
            }
        }
        let mut q: EventQueue<Tagged> = EventQueue::with_granularity(2.0, 4);
        q.push(Tagged { t: 9.0, tag: 0 });
        q.push(Tagged { t: 3.0, tag: 1 });
        q.push(Tagged { t: 9.0, tag: 2 });
        q.push(Tagged { t: 300.0, tag: 3 });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.tag).collect();
        assert_eq!(order, vec![1, 0, 2, 3]);
    }

    #[test]
    fn heavy_random_interleaving_matches_reference_order() {
        // Deterministic pseudo-random push/pop storm, checked against a
        // straightforward (time, sequence) selection.
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};

        let mut q = EventQueue::with_granularity(2.0, 8);
        let mut reference: Vec<(f64, usize)> = Vec::new();
        let mut next_id = 0usize;
        let mut rng = StdRng::seed_from_u64(0x2545_F491_4F6C_DD1D);
        fn check_pop(q: &mut EventQueue, reference: &mut Vec<(f64, usize)>) {
            let got = q.pop().expect("reference says non-empty");
            let min = reference
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .map(|(i, _)| i)
                .expect("non-empty");
            let expected = reference.remove(min);
            assert_eq!((got.time_ps, got.net.index()), expected);
        }
        for _ in 0..2000 {
            let r = rng.next_u64();
            if r % 3 != 0 || reference.is_empty() {
                // Times collide often (coarse quantisation) to stress ties.
                let t = ((r >> 8) % 97) as f64 * 1.7;
                q.push(ev(t, next_id));
                reference.push((t, next_id));
                next_id += 1;
            } else {
                check_pop(&mut q, &mut reference);
            }
        }
        while !reference.is_empty() {
            check_pop(&mut q, &mut reference);
        }
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0);
    }
}
