//! A Kafka-like shared-log ordering service.
//!
//! Fabric's ordering service, Veritas, ChainifyDB and BRD all outsource
//! ordering to a shared log (Section 3.1.2): producers append batches, the
//! log assigns a total order, and consumers (the peers) pull committed
//! batches independently. The defining performance property the paper calls
//! out is that *ordering is decoupled from state replication*: append
//! throughput is limited by the log brokers, not by the number of consumers,
//! so adding peers does not slow the log down (unlike consensus, where every
//! node participates in every decision).
//!
//! The brokers' aggregate ingest is a one-server engine
//! [`Process`](dichotomy_simnet::Process) the caller registers and passes to
//! [`SharedLog::append`], so the ordering queue's backlog and busy time are
//! engine data like every other pipeline stage's.

use dichotomy_common::Timestamp;
use dichotomy_simnet::{NetworkConfig, ProcessId, SimEngine};

/// Broker/orderer nodes (Fabric fixes this at 3 in the paper's experiments,
/// independent of the peer count). With more than one broker, every append
/// pays one replication round among them.
pub const BROKERS: usize = 3;

/// Maximum broker ingest bandwidth in bytes/µs (aggregate).
pub const INGEST_BYTES_PER_US: f64 = 60.0;

/// Per-append fixed broker CPU in µs (batch validation, index update).
pub const APPEND_OVERHEAD_US: u64 = 120;

/// The shared log's append-latency model.
#[derive(Debug)]
pub struct SharedLog {
    /// Network between clients/peers and the brokers.
    network: NetworkConfig,
}

impl SharedLog {
    /// A log whose brokers are reached over `network`.
    pub fn new(network: NetworkConfig) -> Self {
        SharedLog { network }
    }

    /// Append a batch of `bytes` arriving at the brokers at `arrival`, booking
    /// the broker ingest on the one-server process `ingest`. Returns when the
    /// append is acknowledged to the producer, or `None` when the ingest's
    /// outages never let it start (the ordering service is down for good).
    ///
    /// The acknowledgement includes one network hop to the brokers, queueing
    /// behind earlier appends (and waiting out the ingest's outages), the
    /// replication between the [`BROKERS`] (a Raft-style majority round),
    /// and the hop back.
    pub fn append<E>(
        &self,
        engine: &mut SimEngine<E>,
        ingest: ProcessId,
        arrival: Timestamp,
        bytes: usize,
    ) -> Option<Timestamp> {
        let hop = self.network.base_latency_us
            + (bytes as f64 / self.network.bandwidth_bytes_per_us) as u64;
        let broker_service = APPEND_OVERHEAD_US + (bytes as f64 / INGEST_BYTES_PER_US) as u64;
        let (_, ingest_done) = engine.try_service(ingest, arrival + hop, broker_service)?;
        // Intra-broker replication: one round trip among the brokers.
        let replication = 2 * self.network.base_latency_us;
        let ack_hop = self.network.base_latency_us;
        Some(ingest_done + replication + ack_hop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> (SharedLog, SimEngine<()>, ProcessId) {
        let mut engine = SimEngine::new();
        let ingest = engine.add_process("brokers", 1);
        (SharedLog::new(NetworkConfig::lan_1gbps()), engine, ingest)
    }

    #[test]
    fn ack_times_are_monotone_under_queueing() {
        let (l, mut engine, ingest) = log();
        let mut last = 0;
        // Offered faster than the brokers can ingest: queueing builds up.
        for i in 0..200 {
            let appended_at = l.append(&mut engine, ingest, i, 100_000).unwrap();
            assert!(appended_at >= last);
            last = appended_at;
        }
        // The last ack is far later than its arrival: the log saturated.
        assert!(last > 200 + 10_000);
        assert_eq!(engine.process(ingest).servers().served(), 200);
    }

    #[test]
    fn unsaturated_append_latency_is_a_few_hops() {
        let (l, mut engine, ingest) = log();
        let appended_at = l.append(&mut engine, ingest, 0, 1000).unwrap();
        // to-broker hop + service + broker replication RTT + ack hop.
        assert!(appended_at > 700 && appended_at < 3_000, "{appended_at}");
    }

    #[test]
    fn max_rate_falls_with_batch_size() {
        // The sustainable append rate is 1 / the broker time per batch.
        let busy_per_append = |bytes: usize| {
            let (l, mut engine, ingest) = log();
            l.append(&mut engine, ingest, 0, bytes).unwrap();
            engine.process(ingest).servers().busy_us()
        };
        assert!(busy_per_append(100_000) > busy_per_append(1_000));
    }
}
