//! The discrete-event simulation engine.
//!
//! [`SimEngine`] promotes the bare [`EventQueue`] into the
//! substrate every simulated system runs on: it owns the clock, the event
//! queue, and a set of named [`Process`]es — FIFO service queues built on
//! [`MultiResource`] — that model the serial and multi-server stages of a
//! pipeline (a block validator, a consensus leader, a pool of endorsers).
//!
//! The engine is generic over the event payload `E`; a domain layer picks a
//! concrete event vocabulary (the system models use `SysEvent` from
//! `dichotomy-systems`) and drives the loop:
//!
//! ```
//! use dichotomy_simnet::engine::SimEngine;
//!
//! let mut engine: SimEngine<&str> = SimEngine::new();
//! let worker = engine.add_process("worker", 1);
//! engine.schedule_at(10, "job");
//! let (now, _job) = engine.pop().unwrap();
//! let (start, finish) = engine.service(worker, now, 25);
//! assert_eq!((start, finish), (10, 35));
//! assert_eq!(engine.now(), 10);
//! ```
//!
//! Determinism: the clock only moves forward, events fire in `(time,
//! insertion seq)` order, and process scheduling is earliest-free-server —
//! nothing consults wall-clock time or an unseeded RNG, so a run is a pure
//! function of its inputs and seed.

use dichotomy_common::Timestamp;

use crate::event::EventQueue;
use crate::outage::Outages;
use crate::resource::MultiResource;

/// Handle to a [`Process`] registered on a [`SimEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessId(usize);

/// A named service stage: `k` identical FIFO servers. All queueing and
/// saturation behaviour in the simulation comes from these.
#[derive(Debug, Clone)]
pub struct Process {
    name: &'static str,
    servers: MultiResource,
}

impl Process {
    /// The name the stage was registered under.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The underlying multi-server resource (queue-delay and utilization
    /// introspection).
    pub fn servers(&self) -> &MultiResource {
        &self.servers
    }
}

/// A stage event: a pipeline stage firing for some model-private token
/// (a pending-transaction id, a block id, a timer epoch). The engine never
/// interprets either field — systems define their own stage vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageEvent {
    /// Which stage fired (model-defined constant).
    pub stage: u32,
    /// Opaque payload token (model-defined meaning).
    pub token: u64,
}

impl StageEvent {
    /// Build a stage event.
    pub fn new(stage: u32, token: u64) -> Self {
        StageEvent { stage, token }
    }
}

/// The simulation engine: one clock, one event queue, many service processes.
#[derive(Debug)]
pub struct SimEngine<E> {
    queue: EventQueue<E>,
    processes: Vec<Process>,
}

impl<E> Default for SimEngine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> SimEngine<E> {
    /// An engine at time zero with no processes.
    pub fn new() -> Self {
        SimEngine {
            queue: EventQueue::new(),
            processes: Vec::new(),
        }
    }

    // --- clock and event queue ---------------------------------------------

    /// Current simulated time (µs).
    pub fn now(&self) -> Timestamp {
        self.queue.now()
    }

    /// Schedule `event` at absolute time `at` (clamped to `now()`).
    pub fn schedule_at(&mut self, at: Timestamp, event: E) {
        self.queue.schedule_at(at, event);
    }

    /// Schedule `event` `delay` µs from now.
    pub fn schedule_in(&mut self, delay: u64, event: E) {
        self.queue.schedule_in(delay, event);
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Timestamp, E)> {
        self.queue.pop()
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&self) -> Option<Timestamp> {
        self.queue.peek_time()
    }

    /// Number of events waiting.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no events are waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.queue.delivered()
    }

    /// Events that were scheduled in the past and clamped to `now()`.
    pub fn clamped(&self) -> u64 {
        self.queue.clamped()
    }

    // --- service processes -------------------------------------------------

    /// Register a service stage with `servers` identical FIFO servers
    /// (clamped to ≥ 1) and return its handle.
    pub fn add_process(&mut self, name: &'static str, servers: usize) -> ProcessId {
        self.processes.push(Process {
            name,
            servers: MultiResource::new(servers),
        });
        ProcessId(self.processes.len() - 1)
    }

    /// Set the times process `id` cannot start work (none until set).
    pub fn set_outages(&mut self, id: ProcessId, outages: Outages) {
        self.processes[id.0].servers.set_outages(outages);
    }

    /// Schedule `service_us` of work arriving at `arrival` on process `id`.
    /// Returns `(start, finish)`: the work starts when it has arrived, a
    /// server is free and no outage of the process would overlap it, FIFO
    /// per process. Panics where [`try_service`](Self::try_service) is
    /// `None`.
    pub fn service(
        &mut self,
        id: ProcessId,
        arrival: Timestamp,
        service_us: u64,
    ) -> (Timestamp, Timestamp) {
        self.try_service(id, arrival, service_us)
            .expect("process down for good: book it with try_service")
    }

    /// [`service`](Self::service), or `None` (booking nothing) when the
    /// process is down for good before the work could finish.
    pub fn try_service(
        &mut self,
        id: ProcessId,
        arrival: Timestamp,
        service_us: u64,
    ) -> Option<(Timestamp, Timestamp)> {
        self.processes[id.0].servers.schedule(arrival, service_us)
    }

    /// Queueing delay work arriving at `arrival` would see on process `id`.
    pub fn queue_delay(&self, id: ProcessId, arrival: Timestamp) -> u64 {
        self.processes[id.0].servers.queue_delay(arrival)
    }

    /// The process behind a handle.
    pub fn process(&self, id: ProcessId) -> &Process {
        &self.processes[id.0]
    }

    /// All registered processes, in registration order.
    pub fn processes(&self) -> &[Process] {
        &self.processes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_clock_follows_popped_events() {
        let mut e: SimEngine<u8> = SimEngine::new();
        e.schedule_at(20, 2);
        e.schedule_at(10, 1);
        e.schedule_in(5, 3); // now == 0, so fires at 5
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).collect();
        assert_eq!(order, vec![(5, 3), (10, 1), (20, 2)]);
        assert_eq!(e.now(), 20);
        assert_eq!(e.delivered(), 3);
        assert!(e.is_empty());
    }

    #[test]
    fn processes_queue_fifo_and_expose_backlog() {
        let mut e: SimEngine<()> = SimEngine::new();
        let serial = e.add_process("validator", 1);
        assert_eq!(e.service(serial, 0, 100), (0, 100));
        // Arrives while busy: queues behind the first item.
        assert_eq!(e.service(serial, 10, 50), (100, 150));
        assert_eq!(e.queue_delay(serial, 120), 30);
        assert_eq!(e.process(serial).name(), "validator");
        assert_eq!(e.process(serial).servers().served(), 2);
    }

    #[test]
    fn multi_server_processes_run_in_parallel() {
        let mut e: SimEngine<()> = SimEngine::new();
        let pool = e.add_process("endorsers", 2);
        let (s1, _) = e.service(pool, 0, 100);
        let (s2, _) = e.service(pool, 0, 100);
        let (s3, _) = e.service(pool, 0, 100);
        assert_eq!((s1, s2, s3), (0, 0, 100));
        assert_eq!(e.processes().len(), 1);
    }

    #[test]
    fn stage_events_round_trip_through_the_queue() {
        let mut e: SimEngine<StageEvent> = SimEngine::new();
        e.schedule_at(42, StageEvent::new(3, 7));
        let (t, ev) = e.pop().unwrap();
        assert_eq!((t, ev.stage, ev.token), (42, 3, 7));
    }

    #[test]
    fn clamp_counting_surfaces_through_the_engine() {
        let mut e: SimEngine<u8> = SimEngine::new();
        e.schedule_at(100, 1);
        e.pop();
        e.schedule_at(10, 2);
        assert_eq!(e.clamped(), 1);
        assert_eq!(e.pop(), Some((100, 2)));
    }
}
