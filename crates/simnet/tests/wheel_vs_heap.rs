//! Differential tests: the timer-wheel [`EventQueue`] must be observationally
//! identical to the reference [`HeapEventQueue`] — same `(time, seq)` pop
//! stream, same clock, same clamp counter — over randomized schedules that
//! mix near-term, far-future, clamped and tied events.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dichotomy_common::rng::{self, Rng};
use dichotomy_common::Timestamp;
use dichotomy_simnet::EventQueue;

/// A pending event of the reference queue, ordered so that a `BinaryHeap`
/// (a max-heap) pops the earliest `(time, seq)` first.
#[derive(Debug)]
struct HeapEntry<E> {
    time: Timestamp,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The original `BinaryHeap`-backed queue: same contract as [`EventQueue`],
/// O(log n) per operation. It lives here, not in the crate, because its only
/// job is to be the reference the wheel is compared against.
#[derive(Debug)]
struct HeapEventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    now: Timestamp,
    next_seq: u64,
    popped: u64,
    clamped: u64,
}

impl<E> HeapEventQueue<E> {
    /// An empty queue at time zero.
    fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            now: 0,
            next_seq: 0,
            popped: 0,
            clamped: 0,
        }
    }

    /// Current simulated time.
    fn now(&self) -> Timestamp {
        self.now
    }

    /// Number of events waiting.
    fn len(&self) -> usize {
        self.heap.len()
    }

    /// Total number of events delivered so far.
    fn delivered(&self) -> u64 {
        self.popped
    }

    /// Number of clamped (scheduled-in-the-past) events.
    fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Schedule `event` at absolute time `at` (clamped to `now()`).
    fn schedule_at(&mut self, at: Timestamp, event: E) {
        if at < self.now {
            self.clamped += 1;
        }
        let time = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { time, seq, event });
    }

    /// Schedule `event` to fire `delay` microseconds from now.
    fn schedule_in(&mut self, delay: u64, event: E) {
        self.schedule_at(self.now.saturating_add(delay), event);
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    fn pop(&mut self) -> Option<(Timestamp, E)> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.time >= self.now, "event queue moved backwards");
        self.now = ev.time;
        self.popped += 1;
        Some((ev.time, ev.event))
    }

    /// Time of the next event without popping it.
    fn peek_time(&self) -> Option<Timestamp> {
        self.heap.peek().map(|e| e.time)
    }
}

#[test]
fn heap_reference_queue_matches_the_contract() {
    let mut q = HeapEventQueue::new();
    q.schedule_at(30, "c");
    q.schedule_at(10, "a");
    q.schedule_at(20, "b");
    assert_eq!(q.peek_time(), Some(10));
    let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
    assert_eq!(order, vec![(10, "a"), (20, "b"), (30, "c")]);
    assert_eq!((q.now(), q.delivered(), q.clamped()), (30, 3, 0));
    q.schedule_at(5, "late");
    assert_eq!(q.clamped(), 1);
    assert_eq!(q.pop(), Some((30, "late")));
}

/// Drive both queues through one scripted schedule and assert the pop
/// streams agree event for event. Payloads carry the insertion index, so a
/// mismatch pinpoints the first diverging delivery.
fn differential(seed: u64, ops: usize, horizon: u64) {
    let mut r = rng::seeded(seed);
    let mut wheel: EventQueue<usize> = EventQueue::new();
    let mut heap: HeapEventQueue<usize> = HeapEventQueue::new();
    let mut scheduled = 0usize;

    for step in 0..ops {
        // Mostly schedule; drain in bursts so the queues breathe.
        let burst = r.gen_range(0..10u32);
        if burst < 6 {
            // Bias towards small offsets (ties and near-term events) with an
            // occasional far-future outlier that crosses wheel levels.
            let at = match r.gen_range(0..10u32) {
                0..=5 => wheel.now().saturating_add(r.gen_range(0..50u64)),
                6..=7 => wheel.now().saturating_add(r.gen_range(0..horizon)),
                8 => r.gen_range(0..horizon), // may lie in the past: clamps
                _ => horizon.saturating_add(r.gen_range(0..horizon)),
            };
            wheel.schedule_at(at, scheduled);
            heap.schedule_at(at, scheduled);
            scheduled += 1;
        } else if burst < 8 {
            let delay = r.gen_range(0..horizon);
            wheel.schedule_in(delay, scheduled);
            heap.schedule_in(delay, scheduled);
            scheduled += 1;
        } else {
            for _ in 0..r.gen_range(0..4u32) {
                let w = wheel.pop();
                let h = heap.pop();
                assert_eq!(w, h, "pop diverged at step {step} (seed {seed})");
            }
        }
        assert_eq!(wheel.len(), heap.len());
        assert_eq!(wheel.now(), heap.now());
        assert_eq!(wheel.peek_time(), heap.peek_time());
        assert_eq!(wheel.clamped(), heap.clamped());
    }
    // Drain both to the end: the full tail must agree too.
    loop {
        let w = wheel.pop();
        let h = heap.pop();
        assert_eq!(w, h, "tail pop diverged (seed {seed})");
        if w.is_none() {
            break;
        }
    }
    assert_eq!(wheel.delivered(), heap.delivered());
    assert_eq!(wheel.clamped(), heap.clamped());
    assert_eq!(wheel.now(), heap.now());
}

#[test]
fn randomized_schedules_pop_identically_through_wheel_and_heap() {
    for case in 0..20u64 {
        differential(rng::derive_seed(0xD1FF, &format!("case{case}")), 400, 5_000);
    }
}

#[test]
fn dense_tied_timestamps_pop_identically() {
    // A horizon of 8 forces heavy timestamp collisions: the wheel's
    // per-slot seq ordering must reproduce the heap's tie-breaking exactly.
    for case in 0..10u64 {
        differential(rng::derive_seed(0x71E5, &format!("tied{case}")), 300, 8);
    }
}

#[test]
fn far_future_and_rollover_schedules_pop_identically() {
    // Horizons at the top of the u64 range: schedule_in saturates, events
    // land in the wheel's highest level, and cascades cross every level on
    // the way back down.
    for case in 0..10u64 {
        differential(
            rng::derive_seed(0xFA2, &format!("far{case}")),
            200,
            u64::MAX / 2 + 1,
        );
    }
}

/// Pop one event from both queues and assert they agree, clock and clamp
/// counter included.
fn pop_both(wheel: &mut EventQueue<usize>, heap: &mut HeapEventQueue<usize>) -> Option<Timestamp> {
    let w = wheel.pop();
    assert_eq!(w, heap.pop());
    assert_eq!((wheel.now(), wheel.clamped()), (heap.now(), heap.clamped()));
    w.map(|(t, _)| t)
}

#[test]
fn sparse_far_future_churn_pops_identically() {
    // A closed loop of 64 clients thinking about a second each: every pop
    // schedules one replacement at an exponential offset, so the few
    // pending events sit on high levels and cascade through buckets that
    // keep their allocations.
    let mut r = rng::seeded(rng::derive_seed(0x5BA2, "sparse"));
    let mut wheel: EventQueue<usize> = EventQueue::new();
    let mut heap: HeapEventQueue<usize> = HeapEventQueue::new();
    for i in 0..64 {
        let at = rng::exp_delay_us(&mut r, 1e6);
        wheel.schedule_at(at, i);
        heap.schedule_at(at, i);
    }
    for i in 64..100_064 {
        pop_both(&mut wheel, &mut heap).expect("64 events stay pending");
        let delay = rng::exp_delay_us(&mut r, 1e6);
        wheel.schedule_in(delay, i);
        heap.schedule_in(delay, i);
        assert_eq!(wheel.len(), 64);
    }
    while pop_both(&mut wheel, &mut heap).is_some() {}
    assert_eq!(wheel.delivered(), heap.delivered());
}

#[test]
fn an_overflowing_high_level_slot_is_freed_and_refilled_identically() {
    // Times 2^18..2^18 + 2^12 share one level-3 slot from base 0. The first
    // fill holds 300 events, more than a cascaded bucket keeps. The later
    // sets file on level 4 and cascade into the same level-3 slot once the
    // base reaches their 2^24 group: 40 events, then another 600.
    let mut r = rng::seeded(rng::derive_seed(0x0F10, "overflow"));
    let mut wheel: EventQueue<usize> = EventQueue::new();
    let mut heap: HeapEventQueue<usize> = HeapEventQueue::new();
    let mut next = 0usize;
    for (base, count) in [
        (1 << 18, 300),
        ((1 << 24) + (1 << 18), 40),
        ((2 << 24) + (1 << 18), 600),
    ] {
        for _ in 0..count {
            let at = base + r.gen_range(0..1u64 << 12);
            wheel.schedule_at(at, next);
            heap.schedule_at(at, next);
            next += 1;
        }
        // An arrival at time 0 (a clamp after the first set) and a near
        // event that files below the slot.
        wheel.schedule_at(0, next);
        heap.schedule_at(0, next);
        wheel.schedule_in(3, next + 1);
        heap.schedule_in(3, next + 1);
        next += 2;
        while pop_both(&mut wheel, &mut heap).is_some() {}
        assert_eq!(wheel.delivered(), next as u64);
    }
    assert_eq!(wheel.clamped(), 2);
}
