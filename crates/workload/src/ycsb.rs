//! The YCSB core workload with the knobs of Table 3.

use dichotomy_common::rng::{self, Rng, StdRng};
use dichotomy_common::{codec, ClientId, Key, Operation, Transaction, TxnId, Value};

use crate::zipf::ZipfianGenerator;
use crate::{padded_key, ClientKeys, Workload};

/// Read/write mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum YcsbMix {
    /// 100 % writes (the paper's "update" workload).
    UpdateOnly,
    /// 100 % reads (the paper's "query" workload).
    QueryOnly,
    /// Each transaction reads the key, then writes it back (the skew
    /// experiments' "modify" transaction).
    ReadModifyWrite,
    /// A fraction of operations are reads, the rest writes.
    Mixed {
        /// Probability that an operation is a read.
        read_fraction: f64,
    },
}
codec!(Encode for enum YcsbMix {
    UpdateOnly = 0,
    QueryOnly = 1,
    ReadModifyWrite = 2,
    Mixed { read_fraction } = 3,
});

/// Workload configuration (defaults = the paper's defaults, Table 3).
#[derive(Debug, Clone)]
pub struct YcsbConfig {
    /// Number of pre-loaded records (paper: 100 K for YCSB peak throughput).
    pub record_count: u64,
    /// Record (value) size in bytes; Table 3 default 1 000.
    pub record_size: usize,
    /// Zipfian coefficient θ; Table 3 default 0 (uniform).
    pub zipf_theta: f64,
    /// Operations per transaction; Table 3 default 1.
    pub ops_per_txn: usize,
    /// Read/write mix.
    pub mix: YcsbMix,
    /// Whether transactions carry client signatures (blockchains need them;
    /// databases do not).
    pub sign_transactions: bool,
    /// RNG seed.
    pub seed: u64,
}
codec!(Encode for struct YcsbConfig {
    record_count,
    record_size,
    zipf_theta,
    ops_per_txn,
    mix,
    sign_transactions,
    seed,
});

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            record_count: 100_000,
            record_size: 1_000,
            zipf_theta: 0.0,
            ops_per_txn: 1,
            mix: YcsbMix::UpdateOnly,
            sign_transactions: true,
            seed: dichotomy_common::rng::DEFAULT_SEED,
        }
    }
}

/// The YCSB workload generator.
pub struct YcsbWorkload {
    config: YcsbConfig,
    zipf: ZipfianGenerator,
    rng: StdRng,
    /// The one record payload: every loaded record and every write shares it.
    filler: Value,
    keys: ClientKeys,
}

impl YcsbWorkload {
    /// Build a workload from its configuration.
    pub fn new(config: YcsbConfig) -> Self {
        let zipf = ZipfianGenerator::new(config.record_count, config.zipf_theta, config.seed);
        let rng = rng::seeded(rng::derive_seed(config.seed, "ycsb"));
        // YCSB never writes an empty value.
        let filler = Value::filler(config.record_size.max(1));
        YcsbWorkload {
            config,
            zipf,
            rng,
            filler,
            keys: ClientKeys::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &YcsbConfig {
        &self.config
    }

    /// The YCSB-style key for a record index.
    pub fn key_for(index: u64) -> Key {
        padded_key("user", 12, index)
    }

    fn next_key(&mut self) -> Key {
        Self::key_for(self.zipf.next())
    }
}

impl Workload for YcsbWorkload {
    fn initial_records(&self) -> Vec<(Key, Value)> {
        (0..self.config.record_count)
            .map(|i| (Self::key_for(i), self.filler.clone()))
            .collect()
    }

    fn next_transaction(&mut self, client: ClientId, seq: u64) -> Transaction {
        let mut ops: Vec<Operation> = Vec::with_capacity(self.config.ops_per_txn);
        while ops.len() < self.config.ops_per_txn {
            let key = self.next_key();
            // YCSB transactions touch distinct keys.
            if ops.iter().any(|op| op.key == key) {
                continue;
            }
            let op = match self.config.mix {
                YcsbMix::UpdateOnly => Operation::write(key, self.filler.clone()),
                YcsbMix::QueryOnly => Operation::read(key),
                YcsbMix::ReadModifyWrite => Operation::read_modify_write(key, self.filler.clone()),
                YcsbMix::Mixed { read_fraction } => {
                    if self.rng.gen_bool(read_fraction.clamp(0.0, 1.0)) {
                        Operation::read(key)
                    } else {
                        Operation::write(key, self.filler.clone())
                    }
                }
            };
            ops.push(op);
        }
        let id = TxnId::new(client, seq);
        if self.config.sign_transactions {
            self.keys.sign(id, ops)
        } else {
            Transaction::new(id, ops)
        }
    }

    fn name(&self) -> &'static str {
        "YCSB"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dichotomy_common::Encode;

    #[test]
    fn initial_records_match_config() {
        let w = YcsbWorkload::new(YcsbConfig {
            record_count: 100,
            record_size: 64,
            ..YcsbConfig::default()
        });
        let records = w.initial_records();
        assert_eq!(records.len(), 100);
        assert!(records.iter().all(|(_, v)| v.len() == 64));
        assert_eq!(records[5].0, YcsbWorkload::key_for(5));
    }

    #[test]
    fn update_only_transactions_are_writes_of_the_right_size() {
        let mut w = YcsbWorkload::new(YcsbConfig {
            record_count: 1000,
            record_size: 100,
            ..YcsbConfig::default()
        });
        let t = w.next_transaction(ClientId(1), 1);
        assert_eq!(t.op_count(), 1);
        assert!(t.ops[0].writes() && !t.ops[0].reads());
        assert_eq!(t.ops[0].value.as_ref().unwrap().len(), 100);
        assert!(t.verify_signature());
    }

    #[test]
    fn query_only_transactions_are_read_only() {
        let mut w = YcsbWorkload::new(YcsbConfig {
            mix: YcsbMix::QueryOnly,
            ..YcsbConfig::default()
        });
        let t = w.next_transaction(ClientId(2), 1);
        assert!(t.is_read_only());
    }

    #[test]
    fn op_count_sweep_holds_total_payload_constant() {
        for ops in [1usize, 2, 4, 10] {
            let mut w = YcsbWorkload::new(YcsbConfig {
                record_count: 10_000,
                record_size: 1000 / ops,
                ops_per_txn: ops,
                mix: YcsbMix::ReadModifyWrite,
                ..YcsbConfig::default()
            });
            let t = w.next_transaction(ClientId(1), 1);
            assert_eq!(t.op_count(), ops);
            let value_bytes: usize = t.ops.iter().map(|o| o.value.as_ref().unwrap().len()).sum();
            assert_eq!(value_bytes, (1000 / ops) * ops);
        }
    }

    #[test]
    fn transactions_touch_distinct_keys() {
        let mut w = YcsbWorkload::new(YcsbConfig {
            record_count: 50,
            ops_per_txn: 10,
            zipf_theta: 0.99,
            mix: YcsbMix::ReadModifyWrite,
            ..YcsbConfig::default()
        });
        for seq in 0..20 {
            let t = w.next_transaction(ClientId(1), seq);
            let mut keys: Vec<_> = t.ops.iter().map(|o| o.key.clone()).collect();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), 10);
        }
    }

    /// Recorded at the commit before distinctness was checked against the
    /// chosen ops instead of a `BTreeSet<Key>`: the Zipf draws, the redraws on
    /// a duplicate and the read/write coin (tossed only for a distinct key)
    /// must come out in the same order. 50 records at θ = 0.99 redraw often.
    #[test]
    fn skewed_transactions_match_golden_digests() {
        for (ops, golden) in [
            (
                1,
                "0b51f4feb187fdaffcf6338d32d3ffc2524a12b0593c6e9ae2dc11172c7fc9c8",
            ),
            (
                4,
                "9498e1b81c793968127efd2023192eabc7877b2349d5525c9e73df291a239059",
            ),
            (
                10,
                "a33b36258ce750805cb68cdd82f089c14e9031acceb50f26e2fcb0272f1f3f2d",
            ),
        ] {
            let mut w = YcsbWorkload::new(YcsbConfig {
                record_count: 50,
                record_size: 8,
                ops_per_txn: ops,
                zipf_theta: 0.99,
                mix: YcsbMix::Mixed { read_fraction: 0.5 },
                seed: 7,
                ..YcsbConfig::default()
            });
            let mut h = dichotomy_common::Hasher::new();
            for seq in 0..200 {
                h.update(&w.next_transaction(ClientId(seq % 3), seq).encode());
            }
            assert_eq!(h.finalize().to_hex(), golden, "{ops} ops per transaction");
        }
    }

    /// Recorded at the commit before client key pairs were kept between
    /// transactions.
    #[test]
    fn colliding_client_ids_match_golden_digest() {
        let mut w = YcsbWorkload::new(YcsbConfig {
            record_count: 50,
            record_size: 8,
            ops_per_txn: 4,
            zipf_theta: 0.99,
            seed: 7,
            ..YcsbConfig::default()
        });
        assert_eq!(
            crate::tests::colliding_clients_digest(&mut w, 200),
            "28f5250df59fcbcf60a373bef100c5b326cab664bad0375251ce45acd3e6d057"
        );
    }

    #[test]
    fn skewed_workload_repeats_hot_keys_across_transactions() {
        let mut w = YcsbWorkload::new(YcsbConfig {
            record_count: 10_000,
            zipf_theta: 0.99,
            mix: YcsbMix::ReadModifyWrite,
            ..YcsbConfig::default()
        });
        let mut counts = std::collections::BTreeMap::new();
        for seq in 0..2000 {
            let t = w.next_transaction(ClientId(1), seq);
            *counts.entry(t.ops[0].key.clone()).or_insert(0u32) += 1;
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max > 50, "hottest key hit {max} times");
    }

    #[test]
    fn mixed_workload_contains_both_reads_and_writes() {
        let mut w = YcsbWorkload::new(YcsbConfig {
            record_count: 1000,
            ops_per_txn: 4,
            mix: YcsbMix::Mixed { read_fraction: 0.5 },
            sign_transactions: false,
            ..YcsbConfig::default()
        });
        let mut reads = 0;
        let mut writes = 0;
        for seq in 0..100 {
            let t = w.next_transaction(ClientId(1), seq);
            assert!(t.signature.is_none());
            for op in &t.ops {
                if op.writes() {
                    writes += 1;
                } else {
                    reads += 1;
                }
            }
        }
        assert!(reads > 50 && writes > 50);
    }
}
