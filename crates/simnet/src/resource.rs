//! FIFO processing resources.
//!
//! A [`MultiResource`] models a stage with `k` identical servers: one server
//! for a stage that processes one item at a time (a single CPU core doing
//! serial block validation, a consensus leader assembling batches, an
//! ordering service's ingest), more for concurrent executors. It is the one
//! queue primitive behind every engine
//! [`Process`](crate::engine::Process), and so the source of every queueing
//! and saturation effect in the system models: when the offered load exceeds
//! a stage's capacity the stage's queue grows and latency climbs, exactly the
//! unsaturated/saturated distinction the paper draws in Section 5.2.1.
//! A booking that would overlap one of its [`Outages`] starts at its end.

use dichotomy_common::Timestamp;

use crate::outage::Outages;

/// A `k`-server FIFO resource: an arriving item is served by the earliest
/// available server, outside the resource's outage windows.
#[derive(Debug, Clone)]
pub struct MultiResource {
    servers: Vec<Timestamp>,
    busy_us: u64,
    served: u64,
    /// When no server may start work (shared by all `k`; empty by default).
    outages: Outages,
}

impl MultiResource {
    /// A resource with `k` identical servers (k ≥ 1 enforced).
    pub fn new(k: usize) -> Self {
        MultiResource {
            servers: vec![0; k.max(1)],
            busy_us: 0,
            served: 0,
            outages: Outages::default(),
        }
    }

    /// Replace the resource's outage windows.
    pub fn set_outages(&mut self, outages: Outages) {
        self.outages = outages;
    }

    /// Number of servers.
    pub fn capacity(&self) -> usize {
        self.servers.len()
    }

    /// Schedule an item arriving at `arrival` needing `service_us` of work on
    /// the earliest-free server. Returns `(start, finish)`; the start is
    /// pushed past any outage window the work would overlap
    /// ([`Outages::start`]). `None`, booking nothing, when the resource is
    /// down for good before the work could finish.
    pub fn schedule(
        &mut self,
        arrival: Timestamp,
        service_us: u64,
    ) -> Option<(Timestamp, Timestamp)> {
        let idx = self
            .servers
            .iter()
            .enumerate()
            .min_by_key(|(_, &free)| free)
            .map(|(i, _)| i)
            .expect("at least one server");
        let mut start = arrival.max(self.servers[idx]);
        if !self.outages.is_empty() {
            start = self.outages.start(start, service_us)?;
        }
        let finish = start.saturating_add(service_us);
        self.servers[idx] = finish;
        self.busy_us += service_us;
        self.served += 1;
        Some((start, finish))
    }

    /// The earliest time at which any server is free.
    pub fn earliest_free(&self) -> Timestamp {
        self.servers.iter().copied().min().unwrap_or(0)
    }

    /// Queueing delay an item arriving at `arrival` would experience before
    /// any server could start it.
    pub fn queue_delay(&self, arrival: Timestamp) -> u64 {
        self.earliest_free().saturating_sub(arrival)
    }

    /// Total busy microseconds accumulated across all servers.
    pub fn busy_us(&self) -> u64 {
        self.busy_us
    }

    /// Number of items served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Aggregate utilization over `[0, horizon]` (1.0 = all servers busy the
    /// whole time).
    pub fn utilization(&self, horizon: Timestamp) -> f64 {
        if horizon == 0 {
            0.0
        } else {
            (self.busy_us as f64 / (horizon as f64 * self.servers.len() as f64)).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = MultiResource::new(1);
        assert_eq!(r.schedule(100, 50), Some((100, 150)));
        assert_eq!(r.earliest_free(), 150);
    }

    #[test]
    fn busy_resource_queues_fifo() {
        let mut r = MultiResource::new(1);
        r.schedule(0, 100).unwrap();
        // Arrives at 10 but must wait until 100.
        assert_eq!(r.schedule(10, 20), Some((100, 120)));
        assert_eq!(r.queue_delay(110), 10);
        assert_eq!(r.served(), 2);
        assert_eq!(r.busy_us(), 120);
    }

    #[test]
    fn utilization_is_bounded() {
        let mut r = MultiResource::new(1);
        r.schedule(0, 500).unwrap();
        assert!((r.utilization(1000) - 0.5).abs() < 1e-9);
        assert_eq!(r.utilization(0), 0.0);
        r.schedule(0, 10_000).unwrap();
        assert_eq!(r.utilization(100), 1.0);
    }

    #[test]
    fn multi_resource_uses_idle_servers_in_parallel() {
        let mut m = MultiResource::new(2);
        let (s1, f1) = m.schedule(0, 100).unwrap();
        let (s2, f2) = m.schedule(0, 100).unwrap();
        // Both start immediately on distinct servers.
        assert_eq!((s1, s2), (0, 0));
        assert_eq!((f1, f2), (100, 100));
        // Third item waits for the earliest finisher.
        let (s3, _) = m.schedule(0, 50).unwrap();
        assert_eq!(s3, 100);
        assert_eq!(m.capacity(), 2);
    }

    #[test]
    fn multi_resource_with_zero_servers_clamps_to_one() {
        let m = MultiResource::new(0);
        assert_eq!(m.capacity(), 1);
    }

    #[test]
    fn multi_resource_utilization() {
        let mut m = MultiResource::new(4);
        for _ in 0..4 {
            m.schedule(0, 100).unwrap();
        }
        assert!((m.utilization(100) - 1.0).abs() < 1e-9);
        assert!((m.utilization(200) - 0.5).abs() < 1e-9);
        assert_eq!(m.earliest_free(), 100);
    }

    #[test]
    fn single_and_multi_agree_for_k_equals_one() {
        // One server is the single-server FIFO recurrence: each item starts
        // at the later of its arrival and the previous item's finish.
        let mut m = MultiResource::new(1);
        let mut free_at = 0;
        for (arrival, service) in [(0, 10), (3, 20), (100, 5)] {
            let start = free_at.max(arrival);
            free_at = start + service;
            assert_eq!(m.schedule(arrival, service), Some((start, free_at)));
        }
    }

    fn with_outages(k: usize, windows: &[(Timestamp, Option<Timestamp>)]) -> MultiResource {
        let mut r = MultiResource::new(k);
        r.set_outages(Outages::new(windows.iter().copied()));
        r
    }

    #[test]
    fn work_queued_into_a_window_starts_at_its_end() {
        let mut r = with_outages(1, &[(100, Some(300))]);
        assert_eq!(r.schedule(150, 10), Some((300, 310)));
        assert_eq!(r.schedule(0, 5), Some((310, 315)));
        assert_eq!((r.served(), r.busy_us()), (2, 15));
    }

    #[test]
    fn work_that_would_span_a_window_start_waits_for_its_end() {
        let mut r = with_outages(1, &[(100, Some(300))]);
        // Ending exactly at the window's start fits before it.
        assert_eq!(r.schedule(60, 40), Some((60, 100)));
        assert_eq!(r.schedule(0, 1), Some((300, 301)));
    }

    #[test]
    fn every_server_shares_the_windows() {
        let mut r = with_outages(2, &[(50, Some(200))]);
        assert_eq!(r.schedule(0, 40), Some((0, 40)));
        assert_eq!(r.schedule(0, 60), Some((200, 260)));
        // The first server is free at 40, but the window holds it too.
        assert_eq!(r.schedule(45, 10), Some((200, 210)));
    }

    #[test]
    fn a_permanent_outage_books_nothing() {
        let mut r = with_outages(1, &[(100, None)]);
        assert_eq!(r.schedule(0, 60), Some((0, 60)));
        // [60, 110) reaches the tail: no start exists, and no server moves.
        assert_eq!(r.schedule(0, 50), None);
        assert_eq!((r.served(), r.earliest_free()), (1, 60));
    }

    #[test]
    fn the_periodic_term_pauses_a_saturated_resource() {
        let mut r = MultiResource::new(1);
        let mut epochs = Outages::default();
        epochs.every(1_000, 300);
        r.set_outages(epochs);
        // 100 µs items all ready at 0: ten fit before the first boundary,
        // seven in each later epoch.
        let starts: Vec<Timestamp> = (0..19).map(|_| r.schedule(0, 100).unwrap().0).collect();
        assert_eq!(starts[9..12], [900, 1_300, 1_400]);
        assert_eq!(starts[16..], [1_900, 2_300, 2_400]);
    }
}
