//! A deterministic discrete-event queue.
//!
//! Events are ordered by `(time, insertion sequence)`: ties on simulated time
//! are broken by insertion order, which makes every run reproducible
//! regardless of the payload type.
//!
//! [`EventQueue`] is a hierarchical timer wheel (calendar queue). Scheduling
//! and popping are O(1) amortized: an event is filed into one of 11 levels of
//! 64 slots by the highest 6-bit group in which its time differs from the
//! wheel's base, and cascades down at most once per level as the clock
//! reaches it. A cascaded bucket of at most 256 events keeps its allocation
//! for the slot's next fill, so steady churn does not reallocate; a larger
//! one is freed. Its reference is the `BinaryHeap` queue in
//! `tests/wheel_vs_heap.rs`: the differential tests there pop identical
//! randomized schedules through both and assert identical `(time, seq)`
//! streams.

use dichotomy_common::Timestamp;

/// An event scheduled at a simulated time.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: Timestamp,
    /// Tie-breaking sequence number assigned at insertion.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

/// Bits per wheel level: 64 slots each.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Mask extracting a slot index from a shifted timestamp.
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// Levels needed to cover a full 64-bit microsecond timeline (⌈64/6⌉).
const LEVELS: usize = 11;
/// The most events a cascaded bucket may have held and still keep its
/// allocation; a larger one is freed, so one burst does not pin its peak.
const MAX_KEPT_BUCKET: usize = 256;

/// A discrete-event queue with a built-in simulated clock, implemented as a
/// hierarchical timer wheel.
///
/// The clock only moves forward: popping an event advances `now()` to the
/// event's timestamp. Scheduling an event in the past is clamped to `now()`
/// (this can only happen through arithmetic underflow in a caller and would
/// otherwise silently reorder causality).
///
/// Wheel invariants: `start` (the indexing base) never exceeds any pending
/// event's time; an event is filed at the level of the highest 6-bit group
/// in which its time differs from `start` (level 0 when equal). A level-0
/// slot therefore holds events of exactly one microsecond tick, so popping
/// the minimum-`seq` entry of the earliest occupied slot reproduces the
/// `(time, seq)` total order exactly. Popping from a higher level first
/// cascades that slot's events down (each event re-files at a strictly
/// lower level), which is where the O(1)-amortized bound comes from: an
/// event cascades at most `LEVELS − 1` times in its lifetime.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `LEVELS × SLOTS` buckets, flattened (`level * SLOTS + slot`).
    slots: Vec<Vec<ScheduledEvent<E>>>,
    /// Per-level occupancy bitmaps (bit `s` set ⇔ `slots[l*SLOTS+s]` nonempty).
    occupied: [u64; LEVELS],
    /// Indexing base: ≤ every pending event's time.
    start: Timestamp,
    /// Number of events waiting.
    pending: usize,
    now: Timestamp,
    next_seq: u64,
    popped: u64,
    clamped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            start: 0,
            pending: 0,
            now: 0,
            next_seq: 0,
            popped: 0,
            clamped: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Number of events waiting.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Whether no events are waiting.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Number of events that were scheduled in the past and silently clamped
    /// to `now()`. A nonzero count usually points at arithmetic underflow in
    /// a caller; assertions on this keep causality bugs from hiding.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Level of the highest 6-bit group in which `time` differs from the
    /// wheel base (0 when equal: the event is due on the current tick group).
    fn level_of(&self, time: Timestamp) -> usize {
        let differing = time ^ self.start;
        if differing == 0 {
            0
        } else {
            ((63 - differing.leading_zeros()) / LEVEL_BITS) as usize
        }
    }

    fn file(&mut self, ev: ScheduledEvent<E>) {
        let level = self.level_of(ev.time);
        let slot = ((ev.time >> (LEVEL_BITS * level as u32)) & SLOT_MASK) as usize;
        self.slots[level * SLOTS + slot].push(ev);
        self.occupied[level] |= 1 << slot;
    }

    /// Schedule `event` to fire at absolute time `at` (clamped to `now()`;
    /// clamps are counted, see [`clamped`](Self::clamped)).
    pub fn schedule_at(&mut self, at: Timestamp, event: E) {
        if at < self.now {
            self.clamped += 1;
        }
        let time = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.file(ScheduledEvent { time, seq, event });
        self.pending += 1;
    }

    /// Schedule `event` to fire `delay` microseconds from now.
    pub fn schedule_in(&mut self, delay: u64, event: E) {
        self.schedule_at(self.now.saturating_add(delay), event);
    }

    /// The earliest occupied `(level, slot)`, or `None` when empty. Lower
    /// levels strictly precede higher ones (their events share more leading
    /// groups with `start`), and within a level the smallest occupied slot
    /// is earliest, so two `trailing_zeros` scans find the global minimum.
    fn earliest_bucket(&self) -> Option<(usize, usize)> {
        (0..LEVELS)
            .find(|&l| self.occupied[l] != 0)
            .map(|l| (l, self.occupied[l].trailing_zeros() as usize))
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Timestamp, E)> {
        if self.pending == 0 {
            return None;
        }
        loop {
            let (level, slot) = self.earliest_bucket().expect("pending > 0");
            if level == 0 {
                // A level-0 slot holds exactly one tick: deliver its events
                // in seq order (they may have arrived out of order through
                // direct filing and cascades).
                let bucket = &mut self.slots[slot];
                let at = bucket
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.seq)
                    .map(|(i, _)| i)
                    .expect("occupied bit set on an empty slot");
                let ev = bucket.swap_remove(at);
                if bucket.is_empty() {
                    self.occupied[0] &= !(1 << slot);
                }
                self.pending -= 1;
                debug_assert!(ev.time >= self.now, "event queue moved backwards");
                self.now = ev.time;
                self.start = ev.time;
                self.popped += 1;
                return Some((ev.time, ev.event));
            }
            // Cascade: advance the base to this slot's group boundary and
            // re-file its events; each lands at a strictly lower level.
            let shift = LEVEL_BITS * level as u32;
            let above = match shift + LEVEL_BITS {
                64.. => 0,
                bits => !0u64 << bits,
            };
            self.start = (self.start & above) | ((slot as u64) << shift);
            self.occupied[level] &= !(1 << slot);
            // No event re-files into this slot, so a small emptied bucket
            // goes back to it and the next fill does not grow from nothing.
            let mut bucket = std::mem::take(&mut self.slots[level * SLOTS + slot]);
            let keep = bucket.len() <= MAX_KEPT_BUCKET;
            for ev in bucket.drain(..) {
                debug_assert!(self.level_of(ev.time) < level, "cascade must descend");
                self.file(ev);
            }
            if keep {
                self.slots[level * SLOTS + slot] = bucket;
            }
        }
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&self) -> Option<Timestamp> {
        let (level, slot) = self.earliest_bucket()?;
        if level == 0 {
            Some((self.start & !SLOT_MASK) | slot as u64)
        } else {
            // The earliest bucket of a higher level spans a time range; its
            // earliest member is the global minimum.
            self.slots[level * SLOTS + slot]
                .iter()
                .map(|e| e.time)
                .min()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(30, "c");
        q.schedule_at(10, "a");
        q.schedule_at(20, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(10, "a"), (20, "b"), (30, "c")]);
        assert_eq!(q.now(), 30);
        assert_eq!(q.delivered(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule_at(5, 1);
        q.schedule_at(5, 2);
        q.schedule_at(5, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(100, "first");
        q.pop();
        q.schedule_in(50, "second");
        assert_eq!(q.pop(), Some((150, "second")));
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(100, "first");
        q.pop();
        q.schedule_at(10, "late");
        assert_eq!(q.pop(), Some((100, "late")));
    }

    #[test]
    fn clamps_are_counted() {
        let mut q = EventQueue::new();
        assert_eq!(q.clamped(), 0);
        q.schedule_at(100, "a");
        q.pop();
        // Exactly at `now` is not a clamp; strictly before it is.
        q.schedule_at(100, "on-time");
        assert_eq!(q.clamped(), 0);
        q.schedule_at(99, "late");
        q.schedule_at(0, "very late");
        assert_eq!(q.clamped(), 2);
        // Clamped events still fire, at `now`.
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![(100, "on-time"), (100, "late"), (100, "very late")]
        );
    }

    #[test]
    fn clamped_events_tie_break_by_insertion_seq_behind_on_time_events() {
        // Three events land on the same timestamp through different routes:
        // an on-time schedule, then two clamps. Delivery follows insertion
        // order — the (time, seq) tie-break — regardless of the requested
        // (pre-clamp) times.
        let mut q = EventQueue::new();
        q.schedule_at(50, 0u8);
        q.pop();
        q.schedule_at(50, 1u8);
        q.schedule_at(7, 2u8); // clamped to 50, seq after event 1
        q.schedule_at(49, 3u8); // clamped to 50, seq after event 2
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(q.clamped(), 2);
    }

    #[test]
    fn peek_does_not_advance_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(42, ());
        assert_eq!(q.peek_time(), Some(42));
        assert_eq!(q.now(), 0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_reports_the_minimum_inside_a_coarse_wheel_bucket() {
        // Two events land in the same high-level slot (times 1_000_000 and
        // 1_000_005 share every 6-bit group above level 0 relative to base
        // 0 except the top differing one); peek must still report the
        // smaller time, not the bucket's lower bound.
        let mut q = EventQueue::new();
        q.schedule_at(1_000_005, "later");
        q.schedule_at(1_000_000, "sooner");
        assert_eq!(q.peek_time(), Some(1_000_000));
        assert_eq!(q.pop(), Some((1_000_000, "sooner")));
        assert_eq!(q.peek_time(), Some(1_000_005));
    }

    #[test]
    fn a_cascaded_slot_keeps_its_allocation_up_to_the_bound() {
        // Times 64..128 differ from base 0 first in bits 6..12: level 1,
        // slot 1. Popping the first cascades the slot down to level 0.
        const SLOT: usize = SLOTS + 1;
        let mut q = EventQueue::new();
        for t in 64..74 {
            q.schedule_at(t, ());
        }
        q.pop();
        assert!(q.slots[SLOT].is_empty());
        let kept = q.slots[SLOT].as_ptr();
        assert!(q.slots[SLOT].capacity() >= 10);
        // Past 4096 the base is in the next level-2 group, so times 4160..
        // file into level 1, slot 1 again: the refill reuses the allocation.
        while q.pop().is_some() {}
        q.schedule_at(4096, ());
        q.pop();
        for t in 4160..4170 {
            q.schedule_at(t, ());
        }
        assert_eq!(q.slots[SLOT].as_ptr(), kept);
        // A cascade of more events than the bound frees the bucket.
        for t in (4160..4224).cycle().take(MAX_KEPT_BUCKET) {
            q.schedule_at(t, ());
        }
        assert!(q.slots[SLOT].len() > MAX_KEPT_BUCKET);
        q.pop();
        assert_eq!(q.slots[SLOT].capacity(), 0);
        assert_eq!(
            std::iter::from_fn(|| q.pop()).count(),
            10 + MAX_KEPT_BUCKET - 1
        );
    }

    #[test]
    fn far_future_events_survive_every_wheel_level() {
        let mut q = EventQueue::new();
        q.schedule_at(u64::MAX, "heat death");
        q.schedule_at(u64::MAX - 1, "almost");
        q.schedule_at(1, "tomorrow");
        assert_eq!(q.pop(), Some((1, "tomorrow")));
        assert_eq!(q.peek_time(), Some(u64::MAX - 1));
        assert_eq!(q.pop(), Some((u64::MAX - 1, "almost")));
        assert_eq!(q.pop(), Some((u64::MAX, "heat death")));
        // Saturating relative scheduling at the end of time still fires.
        q.schedule_in(u64::MAX, "beyond");
        assert_eq!(q.pop(), Some((u64::MAX, "beyond")));
        assert_eq!(q.pop(), None);
    }
}
