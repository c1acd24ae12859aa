//! The Smallbank OLTP benchmark (Figure 6).
//!
//! Six procedures over per-customer checking and savings accounts:
//! `Balance`, `DepositChecking`, `TransactSavings`, `Amalgamate`,
//! `WriteCheck` and `SendPayment`. Compared with YCSB (Section 5.1.2), a
//! Smallbank transaction touches up to two customers (four records), carries
//! application-level constraints (sufficient funds), and uses small records —
//! the combination that narrows the blockchain/database gap in the paper's
//! measurements.

use dichotomy_common::rng::{self, Rng, StdRng};
use dichotomy_common::{codec, ClientId, Key, Operation, Transaction, TxnId, Value};

use crate::zipf::ZipfianGenerator;
use crate::{padded_key, Workload};

/// The six Smallbank procedures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Procedure {
    /// Read both balances of one customer.
    Balance,
    /// Add to a customer's checking balance.
    DepositChecking,
    /// Add to a customer's savings balance.
    TransactSavings,
    /// Move a customer's savings into another's checking.
    Amalgamate,
    /// Write a check against a customer (may overdraw: constraint check).
    WriteCheck,
    /// Transfer between two customers' checking accounts.
    SendPayment,
}

impl Procedure {
    const ALL: [Procedure; 6] = [
        Procedure::Balance,
        Procedure::DepositChecking,
        Procedure::TransactSavings,
        Procedure::Amalgamate,
        Procedure::WriteCheck,
        Procedure::SendPayment,
    ];
}

/// Workload configuration.
#[derive(Debug, Clone)]
pub struct SmallbankConfig {
    /// Number of customer accounts (the paper uses 1 M).
    pub accounts: u64,
    /// Zipfian skew over customers (the paper uses θ = 1).
    pub zipf_theta: f64,
    /// Bytes per balance record (Smallbank records are small).
    pub record_size: usize,
    /// RNG seed.
    pub seed: u64,
}
codec!(Encode for struct SmallbankConfig {
    accounts,
    zipf_theta,
    record_size,
    seed,
});

impl Default for SmallbankConfig {
    fn default() -> Self {
        SmallbankConfig {
            accounts: 1_000_000,
            zipf_theta: 1.0,
            record_size: 16,
            seed: dichotomy_common::rng::DEFAULT_SEED,
        }
    }
}

/// The Smallbank workload generator.
pub struct SmallbankWorkload {
    config: SmallbankConfig,
    zipf: ZipfianGenerator,
    rng: StdRng,
    /// The one balance payload: every loaded record and every write shares it.
    filler: Value,
}

impl SmallbankWorkload {
    /// Build the workload.
    pub fn new(config: SmallbankConfig) -> Self {
        let zipf = ZipfianGenerator::new(config.accounts, config.zipf_theta, config.seed);
        let rng = rng::seeded(rng::derive_seed(config.seed, "smallbank"));
        let filler = Value::filler(config.record_size);
        SmallbankWorkload {
            config,
            zipf,
            rng,
            filler,
        }
    }

    /// Checking-account key of a customer.
    pub fn checking_key(customer: u64) -> Key {
        padded_key("chk:", 9, customer)
    }

    /// Savings-account key of a customer.
    pub fn savings_key(customer: u64) -> Key {
        padded_key("sav:", 9, customer)
    }

    fn value(&self) -> Value {
        self.filler.clone()
    }

    fn build_ops(&mut self, proc: Procedure, a: u64, b: u64) -> Vec<Operation> {
        let v = self.value();
        match proc {
            Procedure::Balance => vec![
                Operation::read(Self::checking_key(a)),
                Operation::read(Self::savings_key(a)),
            ],
            Procedure::DepositChecking => {
                vec![Operation::read_modify_write(Self::checking_key(a), v)]
            }
            Procedure::TransactSavings => {
                vec![Operation::read_modify_write(Self::savings_key(a), v)]
            }
            Procedure::Amalgamate => vec![
                Operation::read_modify_write(Self::savings_key(a), self.value()),
                Operation::read_modify_write(Self::checking_key(b), v),
            ],
            Procedure::WriteCheck => vec![
                Operation::read(Self::savings_key(a)),
                Operation::read_modify_write(Self::checking_key(a), v),
            ],
            Procedure::SendPayment => vec![
                Operation::read_modify_write(Self::checking_key(a), self.value()),
                Operation::read_modify_write(Self::checking_key(b), v),
            ],
        }
    }
}

impl Workload for SmallbankWorkload {
    fn initial_records(&self) -> Vec<(Key, Value)> {
        let mut records = Vec::with_capacity(self.config.accounts as usize * 2);
        for c in 0..self.config.accounts {
            records.push((Self::checking_key(c), self.value()));
            records.push((Self::savings_key(c), self.value()));
        }
        records
    }

    fn next_transaction(&mut self, client: ClientId, seq: u64) -> Transaction {
        let proc = Procedure::ALL[self.rng.gen_range(0..Procedure::ALL.len())];
        let a = self.zipf.next();
        let mut b = self.zipf.next();
        if b == a {
            b = (a + 1) % self.config.accounts.max(1);
        }
        let ops = self.build_ops(proc, a, b);
        Transaction::client_signed(TxnId::new(client, seq), ops)
    }

    fn name(&self) -> &'static str {
        "Smallbank"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SmallbankWorkload {
        SmallbankWorkload::new(SmallbankConfig {
            accounts: 1000,
            ..SmallbankConfig::default()
        })
    }

    #[test]
    fn initial_records_cover_both_account_types() {
        let w = small();
        let records = w.initial_records();
        assert_eq!(records.len(), 2000);
        assert!(records
            .iter()
            .any(|(k, _)| k.to_string().starts_with("chk:")));
        assert!(records
            .iter()
            .any(|(k, _)| k.to_string().starts_with("sav:")));
        assert!(records.iter().all(|(_, v)| v.len() == 16));
    }

    #[test]
    fn transactions_touch_at_most_four_records() {
        let mut w = small();
        for seq in 0..200 {
            let t = w.next_transaction(ClientId(1), seq);
            assert!((1..=4).contains(&t.op_count()), "{} ops", t.op_count());
            assert!(t.is_signed());
        }
    }

    /// Recorded when every generated transaction was signed at creation with a
    /// freshly derived key pair: the procedure draw, both Zipf draws and the
    /// `b == a` fix-up. Re-recorded over the wire form without the 64
    /// signature bytes (the digest of every encoding minus those bytes, taken
    /// before they went).
    #[test]
    fn colliding_client_ids_match_golden_digest() {
        let mut w = SmallbankWorkload::new(SmallbankConfig {
            accounts: 50,
            seed: 7,
            ..SmallbankConfig::default()
        });
        assert_eq!(
            crate::tests::colliding_clients_digest(&mut w, 200),
            "39cfd52b0ab8e20c91d0304af81663f467a8e03943fe79bc72a54bb557dcb895"
        );
    }

    #[test]
    fn some_transactions_are_read_only_and_some_cross_customer() {
        let mut w = small();
        let mut read_only = 0;
        let mut two_customers = 0;
        for seq in 0..500 {
            let t = w.next_transaction(ClientId(1), seq);
            if t.is_read_only() {
                read_only += 1;
            }
            let customers: std::collections::BTreeSet<String> = t
                .ops()
                .iter()
                .map(|o| o.key.to_string()[4..].to_string())
                .collect();
            if customers.len() > 1 {
                two_customers += 1;
            }
        }
        assert!(read_only > 20, "read-only {read_only}");
        assert!(two_customers > 50, "cross-customer {two_customers}");
    }

    #[test]
    fn skew_produces_hot_accounts() {
        let mut w = SmallbankWorkload::new(SmallbankConfig {
            accounts: 100_000,
            zipf_theta: 1.0,
            ..SmallbankConfig::default()
        });
        let mut counts = std::collections::BTreeMap::new();
        for seq in 0..2000 {
            let t = w.next_transaction(ClientId(1), seq);
            for op in t.ops() {
                *counts.entry(op.key.clone()).or_insert(0u32) += 1;
            }
        }
        assert!(counts.values().max().copied().unwrap_or(0) > 30);
    }

    #[test]
    fn payments_never_target_the_same_account_twice() {
        let mut w = small();
        for seq in 0..300 {
            let t = w.next_transaction(ClientId(2), seq);
            let mut keys: Vec<_> = t.ops().iter().map(|o| &o.key).collect();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), t.op_count(), "duplicate key in {t:?}");
        }
    }
}
