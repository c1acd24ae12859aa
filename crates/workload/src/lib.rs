//! Workload generators (Section 4.2 / Table 3).
//!
//! Two workloads drive every experiment in the paper:
//!
//! * [`ycsb`] — the YCSB core workload: keys drawn uniformly or from a
//!   Zipfian distribution over a pre-loaded table, with the record size,
//!   operations-per-transaction and read/write mix as knobs (Table 3's
//!   parameters: record size 10–5 000 B, θ ∈ [0, 1], 1–10 ops/txn).
//! * [`smallbank`] — the OLTP Smallbank benchmark: six short banking
//!   procedures over checking/savings accounts with application-level
//!   constraints, used for Figure 6.
//!
//! Both implement the [`Workload`] trait so the driver and benches can treat
//! them uniformly.

#![forbid(unsafe_code)]

pub mod smallbank;
pub mod spec;
pub mod ycsb;
pub mod zipf;

pub use smallbank::{SmallbankConfig, SmallbankWorkload};
pub use spec::WorkloadSpec;
pub use ycsb::{YcsbConfig, YcsbMix, YcsbWorkload};
pub use zipf::ZipfianGenerator;

use dichotomy_common::{ClientId, Key, Transaction, Value};

/// A stream of transactions plus the initial data set to load.
pub trait Workload {
    /// The records to pre-populate the system with.
    fn initial_records(&self) -> Vec<(Key, Value)>;

    /// Generate the next transaction for `client` with sequence number `seq`.
    fn next_transaction(&mut self, client: ClientId, seq: u64) -> Transaction;

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// `prefix` followed by `index` in decimal, zero-padded to at least `width`
/// digits: the bytes `format!("{prefix}{index:0width$}")` renders, written
/// into a stack buffer so that generating a key allocates nothing.
fn padded_key(prefix: &str, width: usize, index: u64) -> Key {
    const MAX_DIGITS: usize = 20; // u64::MAX
    let mut digits = [b'0'; MAX_DIGITS];
    let mut first = MAX_DIGITS;
    let mut rest = index;
    while rest > 0 {
        first -= 1;
        digits[first] = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    // Pad up to the width; a wider index keeps all its digits.
    let digits = &digits[first.min(MAX_DIGITS - width)..];
    let mut buf = [0u8; 4 + MAX_DIGITS];
    let len = prefix.len() + digits.len();
    buf[..prefix.len()].copy_from_slice(prefix.as_bytes());
    buf[prefix.len()..len].copy_from_slice(digits);
    Key::new(&buf[..len])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dichotomy_common::Encode;

    /// Digest over `count` generated transactions whose client ids run
    /// `c, c, c + 64, c + 64` for two values of `c`, each checked to be
    /// exactly its body signed by its own client.
    pub(crate) fn colliding_clients_digest(w: &mut dyn Workload, count: u64) -> String {
        let mut h = dichotomy_common::Hasher::new();
        for seq in 0..count {
            let client = seq / 2 % 2 * 64 + seq / 4 % 2 * 5;
            let t = w.next_transaction(ClientId(client), seq);
            assert_eq!(t.client(), ClientId(client));
            assert_eq!(
                t,
                Transaction::client_signed(t.id(), t.ops().to_vec()),
                "client {client} seq {seq}"
            );
            h.update(&t.encode());
        }
        h.finalize().to_hex()
    }

    #[test]
    fn padded_keys_equal_the_format_rendering() {
        for index in [0, 9, 10, 999_999_999_999, 1_000_000_000_000, u64::MAX] {
            assert_eq!(
                YcsbWorkload::key_for(index),
                Key::from_str(&format!("user{index:012}"))
            );
            assert_eq!(
                SmallbankWorkload::checking_key(index),
                Key::from_str(&format!("chk:{index:09}"))
            );
            assert_eq!(
                SmallbankWorkload::savings_key(index),
                Key::from_str(&format!("sav:{index:09}"))
            );
        }
    }
}
