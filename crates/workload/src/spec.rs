//! Declarative workload descriptions.
//!
//! A [`WorkloadSpec`] names a workload — YCSB with its Table 3 knobs, or
//! Smallbank — as plain data, so experiment plans can carry workloads around,
//! sweep their parameters and build fresh generator instances per run. This
//! is the workload half of the Scenario API: the system half is
//! `dichotomy_systems::SystemSpec`.

use crate::smallbank::SmallbankConfig;
use crate::ycsb::{YcsbConfig, YcsbMix};
use crate::{SmallbankWorkload, Workload, YcsbWorkload};

/// A nameable, buildable workload description.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// The YCSB core workload (Table 3 knobs).
    Ycsb(YcsbConfig),
    /// The Smallbank OLTP benchmark.
    Smallbank(SmallbankConfig),
}
dichotomy_common::codec!(Encode for enum WorkloadSpec { Ycsb(config) = 0, Smallbank(config) = 1 });

impl WorkloadSpec {
    /// A YCSB spec at the paper's defaults with the given mix.
    pub fn ycsb(mix: YcsbMix) -> Self {
        WorkloadSpec::Ycsb(YcsbConfig {
            mix,
            ..YcsbConfig::default()
        })
    }

    /// A Smallbank spec at the paper's defaults.
    pub fn smallbank() -> Self {
        WorkloadSpec::Smallbank(SmallbankConfig::default())
    }

    /// Short name for reports (matches [`Workload::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadSpec::Ycsb(_) => "YCSB",
            WorkloadSpec::Smallbank(_) => "Smallbank",
        }
    }

    /// Build a fresh generator. Every call returns an independent instance
    /// whose streams are fully determined by the spec's seed.
    pub fn build(&self) -> Box<dyn Workload> {
        match self {
            WorkloadSpec::Ycsb(config) => Box::new(YcsbWorkload::new(config.clone())),
            WorkloadSpec::Smallbank(config) => Box::new(SmallbankWorkload::new(config.clone())),
        }
    }

    /// What determines [`Workload::initial_records`]: the workload variant,
    /// its record (account) count and its record size — not the seed, skew,
    /// mix or transaction shape. Specs with equal keys pre-load identical
    /// records, so a loaded system state can be shared between them.
    pub fn initial_state_key(&self) -> (u8, u64, u64) {
        match self {
            // YCSB never loads an empty value.
            WorkloadSpec::Ycsb(c) => (0, c.record_count, c.record_size.max(1) as u64),
            WorkloadSpec::Smallbank(c) => (1, c.accounts, c.record_size as u64),
        }
    }

    /// The RNG seed the built generator will use.
    pub fn seed(&self) -> u64 {
        match self {
            WorkloadSpec::Ycsb(c) => c.seed,
            WorkloadSpec::Smallbank(c) => c.seed,
        }
    }

    /// Replace the RNG seed (plans thread one seed through every component).
    pub fn with_seed(mut self, seed: u64) -> Self {
        match &mut self {
            WorkloadSpec::Ycsb(c) => c.seed = seed,
            WorkloadSpec::Smallbank(c) => c.seed = seed,
        }
        self
    }

    /// Replace the number of pre-loaded records / accounts.
    pub fn with_records(mut self, records: u64) -> Self {
        match &mut self {
            WorkloadSpec::Ycsb(c) => c.record_count = records,
            WorkloadSpec::Smallbank(c) => c.accounts = records,
        }
        self
    }

    /// Replace the Zipfian skew θ (both workloads draw keys Zipf-distributed).
    pub fn with_theta(mut self, theta: f64) -> Self {
        match &mut self {
            WorkloadSpec::Ycsb(c) => c.zipf_theta = theta,
            WorkloadSpec::Smallbank(c) => c.zipf_theta = theta,
        }
        self
    }

    /// Replace the record size in bytes.
    pub fn with_record_size(mut self, size: usize) -> Self {
        match &mut self {
            WorkloadSpec::Ycsb(c) => c.record_size = size,
            WorkloadSpec::Smallbank(c) => c.record_size = size,
        }
        self
    }

    /// Replace the operations-per-transaction count (YCSB only; Smallbank's
    /// procedures fix their own shapes, so this is a no-op there).
    pub fn with_ops_per_txn(mut self, ops: usize) -> Self {
        if let WorkloadSpec::Ycsb(c) = &mut self {
            c.ops_per_txn = ops.max(1);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dichotomy_common::ClientId;

    #[test]
    fn specs_build_the_named_workload() {
        let ycsb = WorkloadSpec::ycsb(YcsbMix::QueryOnly);
        assert_eq!(ycsb.name(), "YCSB");
        assert_eq!(ycsb.build().name(), "YCSB");
        let sb = WorkloadSpec::smallbank();
        assert_eq!(sb.name(), "Smallbank");
        assert_eq!(sb.build().name(), "Smallbank");
    }

    #[test]
    fn knob_setters_reach_the_underlying_config() {
        let spec = WorkloadSpec::ycsb(YcsbMix::UpdateOnly)
            .with_records(123)
            .with_record_size(77)
            .with_theta(0.5)
            .with_ops_per_txn(3)
            .with_seed(9);
        match &spec {
            WorkloadSpec::Ycsb(c) => {
                assert_eq!(c.record_count, 123);
                assert_eq!(c.record_size, 77);
                assert_eq!(c.zipf_theta, 0.5);
                assert_eq!(c.ops_per_txn, 3);
                assert_eq!(c.seed, 9);
            }
            _ => panic!("expected YCSB"),
        }
        assert_eq!(spec.seed(), 9);
        assert_eq!(spec.build().initial_records().len(), 123);
    }

    #[test]
    fn the_initial_state_key_covers_exactly_what_the_preload_depends_on() {
        let base = WorkloadSpec::ycsb(YcsbMix::UpdateOnly)
            .with_records(50)
            .with_record_size(20);
        let same = WorkloadSpec::ycsb(YcsbMix::QueryOnly)
            .with_records(50)
            .with_record_size(20)
            .with_theta(0.99)
            .with_ops_per_txn(4)
            .with_seed(99);
        assert_eq!(base.initial_state_key(), same.initial_state_key());
        assert_eq!(
            base.build().initial_records(),
            same.build().initial_records()
        );
        let smallbank = WorkloadSpec::smallbank()
            .with_records(50)
            .with_record_size(20);
        for other in [
            base.clone().with_records(51),
            base.clone().with_record_size(21),
            smallbank.clone(),
        ] {
            assert_ne!(base.initial_state_key(), other.initial_state_key());
            assert_ne!(
                base.build().initial_records(),
                other.build().initial_records()
            );
        }
        assert_eq!(
            smallbank.initial_state_key(),
            smallbank.clone().with_seed(3).initial_state_key()
        );
    }

    #[test]
    fn builds_are_independent_and_seed_deterministic() {
        let spec = WorkloadSpec::ycsb(YcsbMix::UpdateOnly)
            .with_records(500)
            .with_theta(0.9)
            .with_seed(42);
        let mut a = spec.build();
        let mut b = spec.build();
        for seq in 0..50 {
            let ta = a.next_transaction(ClientId(1), seq);
            let tb = b.next_transaction(ClientId(1), seq);
            assert_eq!(ta.ops()[0].key, tb.ops()[0].key);
        }
        let mut c = spec.clone().with_seed(43).build();
        let keys_differ = (0..50).any(|seq| {
            let tc = c.next_transaction(ClientId(2), seq);
            let ta = spec.build().next_transaction(ClientId(2), seq);
            tc.ops()[0].key != ta.ops()[0].key
        });
        assert!(keys_differ, "different seeds should pick different keys");
    }
}
