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

use dichotomy_common::Timestamp;
use dichotomy_simnet::{NetworkConfig, Resource};

/// Configuration of the ordering service.
#[derive(Debug, Clone)]
pub struct SharedLogConfig {
    /// Number of broker/orderer nodes (Fabric fixes this at 3 in the paper's
    /// experiments, independent of the peer count).
    pub brokers: usize,
    /// Maximum broker ingest bandwidth in bytes/µs (aggregate).
    pub ingest_bytes_per_us: f64,
    /// Per-append fixed broker CPU in µs (batch validation, index update).
    pub append_overhead_us: u64,
    /// Network configuration between clients/peers and the brokers.
    pub network: NetworkConfig,
}

impl Default for SharedLogConfig {
    fn default() -> Self {
        SharedLogConfig {
            brokers: 3,
            ingest_bytes_per_us: 60.0,
            append_overhead_us: 120,
            network: NetworkConfig::lan_1gbps(),
        }
    }
}

/// One ordered batch in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Position in the total order.
    pub offset: u64,
    /// Size of the appended batch.
    pub bytes: usize,
    /// When the append was acknowledged to the producer.
    pub appended_at: Timestamp,
}

/// The shared log.
#[derive(Debug)]
pub struct SharedLog {
    config: SharedLogConfig,
    records: Vec<LogRecord>,
    /// The brokers' aggregate ingest pipe, modelled as one FIFO resource.
    ingest: Resource,
}

impl SharedLog {
    /// An empty log.
    pub fn new(config: SharedLogConfig) -> Self {
        SharedLog {
            config,
            records: Vec::new(),
            ingest: Resource::new(),
        }
    }

    /// Append a batch of `bytes` arriving at the brokers at `arrival`.
    /// Returns the record (offset + acknowledgement time).
    ///
    /// The acknowledgement includes one network hop to the brokers, queueing
    /// behind earlier appends, the replication between the brokers (a
    /// Raft-style majority round among `brokers`), and the hop back.
    pub fn append(&mut self, arrival: Timestamp, bytes: usize) -> LogRecord {
        let hop = self.config.network.base_latency_us
            + (bytes as f64 / self.config.network.bandwidth_bytes_per_us) as u64;
        let broker_service = self.config.append_overhead_us
            + (bytes as f64 / self.config.ingest_bytes_per_us) as u64;
        let (_, ingest_done) = self.ingest.schedule(arrival + hop, broker_service);
        // Intra-broker replication: one round trip among the brokers.
        let replication = if self.config.brokers > 1 {
            2 * self.config.network.base_latency_us
        } else {
            0
        };
        let ack_hop = self.config.network.base_latency_us;
        let appended_at = ingest_done + replication + ack_hop;
        let record = LogRecord {
            offset: self.records.len() as u64,
            bytes,
            appended_at,
        };
        self.records.push(record.clone());
        record
    }

    /// Records with offsets in `[from, to)`, as a consumer pull would return.
    pub fn read(&self, from: u64, to: u64) -> &[LogRecord] {
        let from = (from as usize).min(self.records.len());
        let to = (to as usize).min(self.records.len());
        &self.records[from..to]
    }

    /// Next offset to be assigned.
    pub fn end_offset(&self) -> u64 {
        self.records.len() as u64
    }

    /// Aggregate bytes appended.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.bytes as u64).sum()
    }

    /// Maximum sustainable append throughput in batches/second for a given
    /// batch size — the quantity that stays constant as consumers are added.
    pub fn max_append_rate_per_s(&self, batch_bytes: usize) -> f64 {
        let per_batch_us = self.config.append_overhead_us as f64
            + batch_bytes as f64 / self.config.ingest_bytes_per_us;
        1e6 / per_batch_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> SharedLog {
        SharedLog::new(SharedLogConfig::default())
    }

    #[test]
    fn offsets_are_dense_and_ordered() {
        let mut l = log();
        for i in 0..10 {
            let r = l.append(i * 10, 1000);
            assert_eq!(r.offset, i);
        }
        assert_eq!(l.end_offset(), 10);
        assert_eq!(l.read(3, 6).len(), 3);
        assert_eq!(l.read(3, 6)[0].offset, 3);
        assert_eq!(l.total_bytes(), 10_000);
    }

    #[test]
    fn ack_times_are_monotone_under_queueing() {
        let mut l = log();
        let mut last = 0;
        // Offered faster than the brokers can ingest: queueing builds up.
        for i in 0..200 {
            let r = l.append(i, 100_000);
            assert!(r.appended_at >= last);
            last = r.appended_at;
        }
        // The last ack is far later than its arrival: the log saturated.
        assert!(last > 200 + 10_000);
    }

    #[test]
    fn unsaturated_append_latency_is_a_few_hops() {
        let mut l = log();
        let r = l.append(0, 1000);
        // to-broker hop + service + broker replication RTT + ack hop.
        assert!(
            r.appended_at > 700 && r.appended_at < 3_000,
            "{}",
            r.appended_at
        );
    }

    #[test]
    fn read_clamps_out_of_range() {
        let mut l = log();
        l.append(0, 10);
        assert!(l.read(5, 10).is_empty());
        assert_eq!(l.read(0, 100).len(), 1);
    }

    #[test]
    fn max_rate_falls_with_batch_size() {
        let l = log();
        assert!(l.max_append_rate_per_s(1_000) > l.max_append_rate_per_s(100_000));
    }

    #[test]
    fn single_broker_skips_replication_round() {
        let mut single = SharedLog::new(SharedLogConfig {
            brokers: 1,
            ..SharedLogConfig::default()
        });
        let mut triple = SharedLog::new(SharedLogConfig::default());
        let a = single.append(0, 1000).appended_at;
        let b = triple.append(0, 1000).appended_at;
        assert!(b > a);
    }
}
