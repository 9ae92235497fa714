//! Deterministic event queue.
//!
//! A bucketed *calendar queue* (Brown 1988, the structure behind ns-3's
//! default scheduler) keyed on `(time, sequence)`. Events hash into
//! `buckets.len()` time-slots of `2^shift` microseconds each; the wheel
//! wraps, so a bucket holds every pending event whose time falls into
//! that slot of *any* "year" (wheel revolution). Popping scans forward
//! from a cursor one slot at a time and takes the `(time, seq)`-minimum
//! event belonging to the current year; after a full empty revolution it
//! falls back to a direct search (sparse far-future tails — think RTO
//! timers parked 200 ms out — would otherwise spin the wheel).
//!
//! The monotonically increasing sequence number breaks ties in insertion
//! order, which makes event processing fully deterministic: two events
//! scheduled for the same instant always pop in the order they were
//! pushed, regardless of bucket internals. Determinism here is what makes
//! every campaign in the reproduction replayable from a seed, and the
//! test suite pins the pop order to a `BinaryHeap` reference
//! implementation.
//!
//! Why a calendar instead of the previous binary heap: `schedule` is O(1)
//! (hash into a bucket, push) instead of O(log n) sift-up, and the
//! peek-then-pop pattern the simulator drives (`peek_time` to compare
//! against a limit, then `pop`) is served by a cached minimum located
//! once per event instead of twice through heap machinery. Profiling the
//! page-load corpus put 37–55% of sim time inside heap push/pop before
//! this change.

use std::cell::Cell;

use crate::time::SimTime;

/// A scheduled event carrying a payload of type `E`.
#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

/// Location of the cached minimum event inside the bucket array.
///
/// Slots stay valid between operations because `schedule` only appends
/// to buckets and `pop` removes exactly the cached slot.
#[derive(Debug, Clone, Copy)]
struct MinLoc {
    bucket: usize,
    slot: usize,
    time: SimTime,
    seq: u64,
}

/// Initial / minimum number of buckets (power of two).
const MIN_BUCKETS: usize = 32;
/// Upper bound on the bucket count; beyond this the per-pop scan cost is
/// already negligible relative to event processing.
const MAX_BUCKETS: usize = 65_536;
/// Initial bucket width: 2^9 µs = 512 µs, on the order of one segment
/// serialisation time on the simulated access links.
const DEFAULT_SHIFT: u32 = 9;
/// How many of the earliest pending events set the bucket width.
const NEAR_EVENTS: usize = 16;

/// A deterministic future-event list.
///
/// Events may only be scheduled at or after the time of the most recently
/// popped event (the queue's *watermark*); scheduling into the past would
/// violate causality and panics.
#[derive(Debug)]
pub struct EventQueue<E> {
    buckets: Vec<Vec<Scheduled<E>>>,
    /// log2 of the bucket time-width in microseconds.
    shift: u32,
    len: usize,
    next_seq: u64,
    watermark: SimTime,
    /// Lower µs edge of the wheel slot the forward scan starts from.
    /// Invariant: no pending event is earlier than this edge. `Cell`
    /// because advancing the cursor past verified-empty slots is a pure
    /// optimisation `peek_time(&self)` is allowed to perform.
    cursor: Cell<u64>,
    /// Cached global minimum, if known. `None` means "unknown", not
    /// "empty". Same interior-mutability rationale as `cursor`.
    min_cache: Cell<Option<MinLoc>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with watermark at time zero.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            shift: DEFAULT_SHIFT,
            len: 0,
            next_seq: 0,
            watermark: SimTime::ZERO,
            cursor: Cell::new(0),
            min_cache: Cell::new(None),
        }
    }

    fn bucket_width(&self) -> u64 {
        1u64 << self.shift
    }

    fn bucket_index(&self, time_us: u64) -> usize {
        ((time_us >> self.shift) as usize) & (self.buckets.len() - 1)
    }

    fn slot_floor(&self, time_us: u64) -> u64 {
        time_us & !(self.bucket_width() - 1)
    }

    /// Schedule `payload` to fire at `time`.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the watermark (the time of the
    /// last popped event).
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.reserve_seq();
        self.schedule_with_seq(time, seq, payload);
    }

    /// Consume the next sequence number without scheduling anything. A
    /// caller that may schedule an event later, at the tie position it
    /// would have had if scheduled now, reserves its sequence number here
    /// and passes it to [`EventQueue::schedule_with_seq`].
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `payload` at `time` under a sequence number obtained from
    /// [`EventQueue::reserve_seq`]. It pops in `(time, seq)` order, as if
    /// it had been scheduled when `seq` was reserved. Each reserved
    /// number may be scheduled at most once.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the watermark, or if `seq` was
    /// never reserved.
    pub fn schedule_with_seq(&mut self, time: SimTime, seq: u64, payload: E) {
        assert!(
            time >= self.watermark,
            "scheduling into the past: {} < watermark {}",
            time,
            self.watermark
        );
        assert!(seq < self.next_seq, "sequence number {seq} was never reserved");
        let t_us = time.as_micros();
        // Keep the cursor invariant: the scan must start at or before the
        // earliest pending event. (peek_time may have advanced the cursor
        // past slots that were empty at the time.)
        if t_us < self.cursor.get() {
            self.cursor.set(self.slot_floor(t_us));
        }
        let b = self.bucket_index(t_us);
        let slot = self.buckets[b].len();
        self.buckets[b].push(Scheduled { time, seq, payload });
        self.len += 1;
        match self.min_cache.get() {
            // Empty-queue push: the sole event is trivially the minimum.
            None if self.len == 1 => {
                self.min_cache.set(Some(MinLoc { bucket: b, slot, time, seq }))
            }
            Some(m) if (time, seq) < (m.time, m.seq) => {
                self.min_cache.set(Some(MinLoc { bucket: b, slot, time, seq }))
            }
            _ => {}
        }
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.rebucket();
        }
    }

    /// Remove and return the earliest event, advancing the watermark.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_with_seq().map(|(time, _, payload)| (time, payload))
    }

    /// Like [`EventQueue::pop`], but also returns the event's sequence
    /// number, so callers can tell which of several same-time events
    /// they hold.
    pub fn pop_with_seq(&mut self) -> Option<(SimTime, u64, E)> {
        let m = self.find_min()?;
        self.min_cache.set(None);
        let ev = self.buckets[m.bucket].swap_remove(m.slot);
        debug_assert_eq!(ev.seq, m.seq, "min cache out of sync");
        self.len -= 1;
        self.watermark = ev.time;
        if self.len < self.buckets.len() / 8 && self.buckets.len() > MIN_BUCKETS {
            self.rebucket();
        }
        Some((ev.time, ev.seq, ev.payload))
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.find_min().map(|m| m.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The current watermark: no event earlier than this can exist.
    pub fn now(&self) -> SimTime {
        self.watermark
    }

    /// Locate the `(time, seq)`-minimum pending event, caching the
    /// result so the peek-then-pop pattern pays for one search.
    fn find_min(&self) -> Option<MinLoc> {
        if self.len == 0 {
            return None;
        }
        if let Some(m) = self.min_cache.get() {
            return Some(m);
        }
        let n = self.buckets.len();
        let width = self.bucket_width();
        let mut floor = self.cursor.get();
        for _ in 0..n {
            let b = self.bucket_index(floor);
            let top = floor.saturating_add(width);
            let mut best: Option<MinLoc> = None;
            for (slot, ev) in self.buckets[b].iter().enumerate() {
                let t = ev.time.as_micros();
                // Only events of the current wheel revolution count; the
                // bucket also holds events `k * n * width` later.
                if t < top
                    && best.is_none_or(|m| (ev.time, ev.seq) < (m.time, m.seq))
                {
                    debug_assert!(t >= floor, "event earlier than scan cursor");
                    best = Some(MinLoc { bucket: b, slot, time: ev.time, seq: ev.seq });
                }
            }
            if let Some(m) = best {
                self.cursor.set(floor);
                self.min_cache.set(Some(m));
                return Some(m);
            }
            floor = floor.saturating_add(width);
        }
        // A full revolution came up empty: everything pending is at least
        // one wheel span in the future (sparse tail). Direct search.
        let mut best: Option<MinLoc> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (slot, ev) in bucket.iter().enumerate() {
                if best.is_none_or(|m| (ev.time, ev.seq) < (m.time, m.seq)) {
                    best = Some(MinLoc { bucket: b, slot, time: ev.time, seq: ev.seq });
                }
            }
        }
        // lint:allow(D4): callers checked len > 0, so some bucket holds an event
        let m = best.expect("len > 0 but no event found");
        self.cursor.set(self.slot_floor(m.time.as_micros()));
        self.min_cache.set(Some(m));
        Some(m)
    }

    /// Resize the wheel to fit the current population: bucket count ~2×
    /// the number of events, bucket width ~the mean gap between the
    /// earliest events. Deterministic — parameters depend only on queue
    /// contents.
    fn rebucket(&mut self) {
        let mut all: Vec<Scheduled<E>> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            all.append(bucket);
        }
        let target = (2 * self.len.max(1))
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        if self.buckets.len() != target {
            self.buckets = (0..target).map(|_| Vec::new()).collect();
        }
        all.sort_unstable_by_key(|e| (e.time, e.seq));
        let near = &all[..all.len().min(NEAR_EVENTS)];
        if let (Some(first), Some(last)) = (near.first(), near.last()) {
            let min_t = first.time.as_micros();
            let gap = (last.time.as_micros() - min_t) / near.len() as u64;
            // Width = mean gap among the earliest events — the ones the
            // forward scan meets next — rounded up to a power of two and
            // clamped to [64 µs, 131 ms]. Retransmission timers parked far
            // ahead must not set it: a width fitted to them puts the
            // near-term events into one bucket, which every pop rescans.
            self.shift = (64 - gap.max(1).leading_zeros()).clamp(6, 17);
            self.cursor.set(self.slot_floor(min_t));
        } else {
            self.shift = DEFAULT_SHIFT;
            self.cursor.set(self.slot_floor(self.watermark.as_micros()));
        }
        for ev in all {
            let b = self.bucket_index(ev.time.as_micros());
            self.buckets[b].push(ev);
        }
        self.min_cache.set(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use eyeorg_stats::rng::Rng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn watermark_advances() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(10));
        // Scheduling at exactly the watermark is allowed.
        q.schedule(SimTime::from_millis(10), ());
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), ());
        q.pop();
        q.schedule(SimTime::from_millis(9), ());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1) + SimDuration::from_micros(5), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(1005)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn far_future_after_empty_revolution() {
        // An RTO parked several wheel revolutions out must still be
        // found (direct-search fallback), and scheduling an earlier
        // event afterwards must rewind the cursor.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(30), "rto");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(30)));
        q.schedule(SimTime::from_millis(1), "data");
        assert_eq!(q.pop().map(|(_, p)| p), Some("data"));
        assert_eq!(q.pop().map(|(_, p)| p), Some("rto"));
    }

    /// The reference semantics: a plain binary heap on `(time, seq)`.
    struct HeapRef<E> {
        heap: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64)>>,
        payloads: std::collections::BTreeMap<u64, E>,
        next_seq: u64,
    }

    impl<E> HeapRef<E> {
        fn new() -> Self {
            HeapRef {
                heap: std::collections::BinaryHeap::new(),
                payloads: std::collections::BTreeMap::new(),
                next_seq: 0,
            }
        }
        fn schedule(&mut self, time: SimTime, payload: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.schedule_with_seq(time, seq, payload);
        }
        fn schedule_with_seq(&mut self, time: SimTime, seq: u64, payload: E) {
            self.heap.push(std::cmp::Reverse((time, seq)));
            self.payloads.insert(seq, payload);
        }
        fn pop(&mut self) -> Option<(SimTime, E)> {
            let std::cmp::Reverse((t, seq)) = self.heap.pop()?;
            Some((t, self.payloads.remove(&seq).unwrap()))
        }
        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|std::cmp::Reverse((t, _))| *t)
        }
    }

    /// Drive the calendar queue and the heap reference through an
    /// identical randomized schedule/pop workload and demand identical
    /// `(time, payload)` streams. Deterministic seeds; covers bursts of
    /// ties, far-future tails, interleaved peeks, and resize churn.
    #[test]
    fn matches_binary_heap_reference() {
        for seed in 0u64..8 {
            let mut rng = Rng::seed_from_u64(0xCAFE + seed);
            let mut cal: EventQueue<u64> = EventQueue::new();
            let mut heap: HeapRef<u64> = HeapRef::new();
            let mut now = 0u64;
            let mut payload = 0u64;
            for step in 0..4_000 {
                let r = rng.next_u64() % 100;
                if r < 55 || cal.is_empty() {
                    // Schedule 1..=4 events; occasionally ties, a far
                    // tail, or exactly-at-watermark.
                    for _ in 0..=(rng.next_u64() % 3) {
                        let dt = match rng.next_u64() % 10 {
                            0 => 0,                                // tie with `now`
                            1..=6 => rng.next_u64() % 2_000,       // near future
                            7 | 8 => rng.next_u64() % 300_000,     // ~rtt scale
                            _ => 1_000_000 + rng.next_u64() % 30_000_000, // far RTO
                        };
                        let t = SimTime::from_micros(now + dt);
                        cal.schedule(t, payload);
                        heap.schedule(t, payload);
                        payload += 1;
                    }
                } else {
                    assert_eq!(cal.peek_time(), heap.peek_time(), "seed={seed} step={step}");
                    let a = cal.pop();
                    let b = heap.pop();
                    assert_eq!(a, b, "seed={seed} step={step}");
                    if let Some((t, _)) = a {
                        now = t.as_micros();
                    }
                }
                assert_eq!(cal.len(), heap.payloads.len());
            }
            // Drain: the full remaining order must match.
            while let Some(expect) = heap.pop() {
                assert_eq!(cal.pop(), Some(expect), "seed={seed} drain");
            }
            assert!(cal.is_empty());
        }
        // Short interleavings with standalone peeks and pops of an
        // empty queue: 256 cases of 1..600 ops, weighted 3:1:3:1 over
        // near-future schedules (ties included), sparse far-tail
        // schedules, pops, and peeks.
        for case in 0u64..256 {
            let seed = 0xE7E9_0000 + case;
            let mut rng = Rng::seed_from_u64(seed);
            let mut cal: EventQueue<u64> = EventQueue::new();
            let mut heap: HeapRef<u64> = HeapRef::new();
            let mut now = 0u64;
            let mut payload = 0u64;
            for step in 0..rng.random_range(1..600) {
                match rng.below(8) {
                    op @ 0..=3 => {
                        let dt = if op == 3 { rng.below(40_000_000) } else { rng.below(2_000) };
                        let t = SimTime::from_micros(now + dt);
                        cal.schedule(t, payload);
                        heap.schedule(t, payload);
                        payload += 1;
                    }
                    4..=6 => {
                        let got = cal.pop();
                        assert_eq!(got, heap.pop(), "seed={seed:#x} step={step}");
                        if let Some((t, _)) = got {
                            now = t.as_micros();
                        }
                    }
                    _ => {
                        assert_eq!(cal.peek_time(), heap.peek_time(), "seed={seed:#x} step={step}")
                    }
                }
                assert_eq!(cal.len(), heap.payloads.len(), "seed={seed:#x} step={step}");
            }
            while let Some(expect) = heap.pop() {
                assert_eq!(cal.pop(), Some(expect), "seed={seed:#x} drain");
            }
            assert!(cal.is_empty());
        }
    }

    /// Events scheduled under a sequence number reserved earlier pop in
    /// `(time, seq)` order, interleaved with ordinary schedules exactly as
    /// the heap reference orders them — including same-time ties against
    /// events scheduled after the reservation. This is the re-queue
    /// pattern of the simulator's lazy retransmission timer.
    #[test]
    fn schedule_with_seq_matches_binary_heap_reference() {
        for seed in 0u64..64 {
            let mut rng = Rng::seed_from_u64(0x5E9_0000 + seed);
            let mut cal: EventQueue<u64> = EventQueue::new();
            let mut heap: HeapRef<u64> = HeapRef::new();
            // Reserved but not yet scheduled: (seq, payload).
            let mut reserved: Vec<(u64, u64)> = Vec::new();
            let mut last_popped: Option<(SimTime, u64)> = None;
            let mut now = 0u64;
            let mut payload = 0u64;
            for step in 0..2_000 {
                match rng.below(10) {
                    0..=2 => {
                        let t = SimTime::from_micros(now + rng.below(3_000));
                        cal.schedule(t, payload);
                        heap.schedule(t, payload);
                        payload += 1;
                    }
                    3 | 4 => {
                        let seq = cal.reserve_seq();
                        assert_eq!(seq, heap.next_seq, "seed={seed} step={step}");
                        heap.next_seq += 1;
                        reserved.push((seq, payload));
                        payload += 1;
                    }
                    5 if !reserved.is_empty() => {
                        // Schedule a reservation (not necessarily the
                        // oldest), at a tie with `now` whenever its key
                        // still lies after the last popped one.
                        let pick = rng.below(reserved.len() as u64) as usize;
                        let (seq, p) = reserved.swap_remove(pick);
                        let mut t = SimTime::from_micros(now + rng.below(4) * rng.below(2_000));
                        if last_popped.is_some_and(|k| (t, seq) <= k) {
                            t = SimTime::from_micros(now + 1);
                        }
                        cal.schedule_with_seq(t, seq, p);
                        heap.schedule_with_seq(t, seq, p);
                    }
                    _ => {
                        assert_eq!(cal.peek_time(), heap.peek_time(), "seed={seed} step={step}");
                        let got = cal.pop_with_seq();
                        let want = heap.heap.peek().map(|std::cmp::Reverse(k)| *k);
                        let tag = format!("seed={seed} step={step}");
                        assert_eq!(got.as_ref().map(|&(t, q, _)| (t, q)), want, "{tag}");
                        assert_eq!(got.map(|(t, _, p)| (t, p)), heap.pop(), "{tag}");
                        if let Some(k) = want {
                            now = k.0.as_micros();
                            last_popped = Some(k);
                        }
                    }
                }
                assert_eq!(cal.len(), heap.payloads.len(), "seed={seed} step={step}");
            }
            while let Some(expect) = heap.pop() {
                assert_eq!(cal.pop(), Some(expect), "seed={seed} drain");
            }
            assert!(cal.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "was never reserved")]
    fn unreserved_seq_panics() {
        let mut q = EventQueue::new();
        q.schedule_with_seq(SimTime::ZERO, 0, ());
    }

    #[test]
    fn resize_preserves_all_events() {
        let mut q = EventQueue::new();
        let mut rng = Rng::seed_from_u64(7);
        let mut times: Vec<(SimTime, u32)> = Vec::new();
        for i in 0..1_000u32 {
            let t = SimTime::from_micros(rng.next_u64() % 5_000_000);
            q.schedule(t, i);
            times.push((t, i));
        }
        times.sort_by_key(|&(t, i)| (t, i)); // seq == insertion order == i
        let drained: Vec<(SimTime, u32)> =
            std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, times);
    }
}
