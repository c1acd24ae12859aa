//! The transactional vocabulary shared by every system model.
//!
//! A [`Transaction`] is a signed set of read/write [`Operation`]s issued by a
//! client. The same structure is used by the blockchains (where it stands for
//! a smart-contract invocation whose read/write set the contract logic
//! produces) and by the databases (where it is the sequence of statements of
//! a stored procedure). The execution *semantics* — serial, optimistic, or a
//! per-key hold window that aborts or waits — live in the system models
//! (Fabric's OCC in `dichotomy-txn`); this module only defines the data.
//!
//! A transaction's body is sealed: it is set once, by a constructor, and read
//! through accessors. An envelope records *whether* its client signed it,
//! not signature bytes: no model reads a signature while it runs. Signing
//! and verification are costs, which the models charge in simulated time
//! (`CostModel::sign_us` and `verify_signatures_us` in `dichotomy-simnet`),
//! and tamper evidence is the ledger's hash chain over the content
//! [`digest`](Transaction::digest). Generating a workload therefore hashes
//! nothing.

use crate::codec;
use crate::codec::Encode;
use crate::hash::{Hash, Hasher};
use crate::types::{ClientId, Key, Timestamp, TxnId, Value, Version};

/// What a single operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperationKind {
    /// Read the current value of the key.
    Read,
    /// Overwrite the value of the key.
    Write,
    /// Read the key, then write a new value derived from it
    /// (the "modify" pattern used by the paper's skew experiments,
    /// Section 5.3.1: "first read, then update and write back").
    ReadModifyWrite,
}
codec!(Encode for enum OperationKind { Read = 0, Write = 1, ReadModifyWrite = 2 });

/// One key-level operation inside a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    /// Operation kind.
    pub kind: OperationKind,
    /// Target key.
    pub key: Key,
    /// Payload for writes; `None` for pure reads.
    pub value: Option<Value>,
}
codec!(Encode for struct Operation { kind, key, value });

impl Operation {
    /// A read of `key`.
    pub fn read(key: Key) -> Self {
        Operation {
            kind: OperationKind::Read,
            key,
            value: None,
        }
    }

    /// A blind write of `value` to `key`.
    pub fn write(key: Key, value: Value) -> Self {
        Operation {
            kind: OperationKind::Write,
            key,
            value: Some(value),
        }
    }

    /// A read-modify-write of `key`, writing `value` back.
    pub fn read_modify_write(key: Key, value: Value) -> Self {
        Operation {
            kind: OperationKind::ReadModifyWrite,
            key,
            value: Some(value),
        }
    }

    /// Whether the operation reads the key (reads and read-modify-writes).
    pub fn reads(&self) -> bool {
        matches!(
            self.kind,
            OperationKind::Read | OperationKind::ReadModifyWrite
        )
    }

    /// Whether the operation writes the key (writes and read-modify-writes).
    pub fn writes(&self) -> bool {
        matches!(
            self.kind,
            OperationKind::Write | OperationKind::ReadModifyWrite
        )
    }

    /// Size of the operation payload in bytes (key + value), used for
    /// transaction-size accounting and bandwidth modelling.
    pub fn payload_bytes(&self) -> usize {
        self.key.len() + self.value.as_ref().map_or(0, Value::len)
    }
}

/// The operations of a [`Transaction`], in program order, as its
/// constructors take them: a `Vec<Operation>` or one `Operation`.
///
/// One operation (the paper's YCSB default, Table 3) is stored inline, so an
/// in-flight one-operation transaction holds no heap allocation; more become
/// one boxed slice, taken over from the `Vec` without a copy when it is full.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operations(Repr);

/// Exactly one representation per operation count (`Many` never holds one),
/// so the derived equality is equality of the operation slices.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    One(Operation),
    Many(Box<[Operation]>),
}

impl Operations {
    fn as_slice(&self) -> &[Operation] {
        match &self.0 {
            Repr::One(op) => std::slice::from_ref(op),
            Repr::Many(ops) => ops,
        }
    }
}

impl From<Operation> for Operations {
    fn from(op: Operation) -> Self {
        Operations(Repr::One(op))
    }
}

impl From<Vec<Operation>> for Operations {
    fn from(ops: Vec<Operation>) -> Self {
        match <[Operation; 1]>::try_from(ops) {
            Ok([op]) => Operations(Repr::One(op)),
            Err(ops) => Operations(Repr::Many(ops.into_boxed_slice())),
        }
    }
}

/// Count-prefixed like a `Vec<Operation>`, whichever representation holds
/// the operations.
impl Encode for Operations {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let ops = self.as_slice();
        out.extend_from_slice(&(ops.len() as u32).to_be_bytes());
        for op in ops {
            op.encode_into(out);
        }
    }
}

/// The isolation byte of the wire form and the content digest: every
/// transaction runs serializable (ledger order), and this is that level's tag.
const SERIALIZABLE: u8 = 1;

/// A client transaction: a sealed body (id, operations), a submit time, and
/// whether the client signed the body.
///
/// The body is private and fixed at construction, so the content
/// [`digest`](Self::digest) cannot drift from it. A different body is a
/// different `Transaction`.
#[derive(Debug, Clone, PartialEq)]
pub struct Transaction {
    /// Globally unique id (client, sequence).
    id: TxnId,
    /// Operations in program order.
    ops: Operations,
    /// Client wall-clock submit time (simulated microseconds); carried in the
    /// envelope the way real systems carry timestamps, and used by the
    /// harness to compute end-to-end latency. Not signed.
    pub submit_time: Timestamp,
    /// Whether the issuing client signed the body.
    signed: bool,
}

impl Transaction {
    /// Build an unsigned transaction.
    pub fn new(id: TxnId, ops: impl Into<Operations>) -> Self {
        Transaction {
            id,
            ops: ops.into(),
            submit_time: 0,
            signed: false,
        }
    }

    /// Build a transaction signed by its own client.
    pub fn client_signed(id: TxnId, ops: impl Into<Operations>) -> Self {
        Transaction {
            signed: true,
            ..Self::new(id, ops)
        }
    }

    /// Globally unique id (client, sequence).
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Operations in program order.
    pub fn ops(&self) -> &[Operation] {
        self.ops.as_slice()
    }

    /// Whether the client signed the transaction.
    pub fn is_signed(&self) -> bool {
        self.signed
    }

    /// Content digest over id, the isolation byte and operations: what a
    /// client signs and a block's transactions digest folds.
    pub fn digest(&self) -> Hash {
        let mut h = Hasher::new();
        h.update(&self.id.client.0.to_be_bytes());
        h.update(&self.id.seq.to_be_bytes());
        h.update(&[SERIALIZABLE]);
        for op in self.ops() {
            h.update(&[match op.kind {
                OperationKind::Read => 0u8,
                OperationKind::Write => 1u8,
                OperationKind::ReadModifyWrite => 2u8,
            }]);
            h.update(&(op.key.len() as u64).to_be_bytes());
            h.update(op.key.as_bytes());
            if let Some(v) = &op.value {
                h.update(&(v.len() as u64).to_be_bytes());
                h.update(v.as_bytes());
            } else {
                h.update(&u64::MAX.to_be_bytes());
            }
        }
        h.finalize()
    }

    /// Keys read by this transaction (deduplicated, in first-occurrence order).
    pub fn read_set(&self) -> Vec<&Key> {
        self.distinct_keys(Operation::reads)
    }

    /// Keys written by this transaction (deduplicated, in first-occurrence order).
    pub fn write_set(&self) -> Vec<&Key> {
        self.distinct_keys(Operation::writes)
    }

    /// Keys of the operations `selected` picks, each once, in first-occurrence
    /// order. Transactions carry at most a handful of operations, so scanning
    /// the keys already chosen beats building a set per call.
    fn distinct_keys(&self, selected: fn(&Operation) -> bool) -> Vec<&Key> {
        let ops = self.ops();
        let mut keys: Vec<&Key> = Vec::with_capacity(ops.len());
        for op in ops.iter().filter(|op| selected(op)) {
            if !keys.contains(&&op.key) {
                keys.push(&op.key);
            }
        }
        keys
    }

    /// Whether the transaction performs no writes.
    pub fn is_read_only(&self) -> bool {
        self.ops().iter().all(|op| !op.writes())
    }

    /// Total payload size (keys + values) in bytes, the quantity the paper
    /// holds at 1000 bytes in the operation-count experiment (Section 5.3.2).
    pub fn payload_bytes(&self) -> usize {
        self.ops().iter().map(Operation::payload_bytes).sum()
    }

    /// Approximate size of the transaction envelope on the wire: payload plus
    /// a fixed header (id, timestamps) and the signature.
    pub fn wire_bytes(&self) -> usize {
        const HEADER: usize = 48;
        const SIGNATURE: usize = 96;
        HEADER + self.payload_bytes() + if self.signed { SIGNATURE } else { 0 }
    }

    /// Number of operations.
    pub fn op_count(&self) -> usize {
        self.ops().len()
    }

    /// Issuing client.
    pub fn client(&self) -> ClientId {
        self.id.client
    }
}

// Hand-written: the isolation byte is a constant, not a field.
impl Encode for Transaction {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.id.encode_into(out);
        self.ops.encode_into(out);
        SERIALIZABLE.encode_into(out);
        self.submit_time.encode_into(out);
        self.signed.encode_into(out);
    }
}

/// Why a transaction aborted. The categories mirror the paper's abort-rate
/// analysis (Figures 9b and 10b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbortReason {
    /// Fabric-style MVCC validation failure: a key read during simulation was
    /// overwritten before commit ("read-write conflict").
    ReadWriteConflict,
    /// Fabric proposal-phase failure: endorsing peers returned different
    /// simulation results ("inconsistent read").
    InconsistentRead,
    /// A written key is still held by an in-flight transaction (TiDB aborts
    /// instead of waiting).
    WriteWriteConflict,
    /// Pessimistic locking could not acquire a lock. No built-in model emits
    /// it; the variant stays for its codec tag.
    LockConflict,
    /// 2PC coordinator or a participant voted to abort.
    CrossShardAbort,
    /// The request was rejected because the system is overloaded (admission
    /// control / queue overflow).
    Overload,
    /// Smallbank application-level constraint violation (e.g. insufficient
    /// balance); counted separately because it is not a concurrency artifact.
    ApplicationConstraint,
}
codec!(Encode + Decode for enum AbortReason {
    ReadWriteConflict = 0,
    InconsistentRead = 1,
    WriteWriteConflict = 2,
    LockConflict = 3,
    CrossShardAbort = 4,
    Overload = 5,
    ApplicationConstraint = 6,
});

/// Final status of a transaction as observed by the issuing client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    /// Committed and durable.
    Committed,
    /// Aborted for the given reason.
    Aborted(AbortReason),
}
codec!(Encode for enum TxnStatus { Committed = 0, Aborted(reason) = 1 });

impl TxnStatus {
    /// Whether this status is `Committed`.
    pub fn is_committed(&self) -> bool {
        matches!(self, TxnStatus::Committed)
    }
}

/// The receipt returned to the client when a transaction finishes, carrying
/// everything the benchmark harness needs to compute throughput, latency and
/// abort-rate breakdowns, plus the per-phase latency decomposition used by
/// Figures 8 and 11.
#[derive(Debug, Clone, PartialEq)]
pub struct TxnReceipt {
    /// The transaction this receipt is for.
    pub txn_id: TxnId,
    /// Commit or abort outcome.
    pub status: TxnStatus,
    /// When the client submitted the transaction (simulated µs).
    pub submit_time: Timestamp,
    /// When the outcome became visible to the client (simulated µs).
    pub finish_time: Timestamp,
    /// Values read, for read(-modify-write) operations, in operation order.
    pub reads: Vec<(Key, Option<Value>)>,
    /// Version assigned to the writes, when committed.
    pub commit_version: Option<Version>,
    /// Named per-phase latencies, e.g. ("execute", 480_000), ("order", ...),
    /// ("validate", ...) for Fabric or ("proposal"/"consensus"/"commit") for
    /// Quorum. Phases are system-specific; the harness aggregates them by name.
    pub phase_latencies: Vec<(&'static str, u64)>,
}
codec!(Encode for struct TxnReceipt {
    txn_id,
    status,
    submit_time,
    finish_time,
    reads,
    commit_version,
    phase_latencies,
});

impl TxnReceipt {
    /// End-to-end latency in microseconds.
    pub fn latency_us(&self) -> u64 {
        self.finish_time.saturating_sub(self.submit_time)
    }

    /// Convenience constructor for a committed receipt.
    pub fn committed(txn_id: TxnId, submit_time: Timestamp, finish_time: Timestamp) -> Self {
        TxnReceipt {
            txn_id,
            status: TxnStatus::Committed,
            submit_time,
            finish_time,
            reads: Vec::new(),
            commit_version: None,
            phase_latencies: Vec::new(),
        }
    }

    /// Convenience constructor for an aborted receipt.
    pub fn aborted(
        txn_id: TxnId,
        reason: AbortReason,
        submit_time: Timestamp,
        finish_time: Timestamp,
    ) -> Self {
        TxnReceipt {
            txn_id,
            status: TxnStatus::Aborted(reason),
            submit_time,
            finish_time,
            reads: Vec::new(),
            commit_version: None,
            phase_latencies: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ClientId;

    fn txn_id() -> TxnId {
        TxnId::new(ClientId(1), 1)
    }

    #[test]
    fn read_and_write_sets_deduplicate() {
        let k1 = Key::from_str("a");
        let k2 = Key::from_str("b");
        let t = Transaction::new(
            txn_id(),
            vec![
                Operation::read(k1.clone()),
                Operation::read_modify_write(k1.clone(), Value::filler(4)),
                Operation::write(k2.clone(), Value::filler(4)),
            ],
        );
        assert_eq!(t.read_set(), vec![&k1]);
        assert_eq!(t.write_set(), vec![&k1, &k2]);
        assert!(!t.is_read_only());

        // Ten operations over four keys, repeats far apart and of every kind.
        let k = |i: usize| Key::from_str(&format!("user{i:012}"));
        let v = || Value::filler(4);
        let t = Transaction::new(
            txn_id(),
            vec![
                Operation::read(k(3)),
                Operation::write(k(1), v()),
                Operation::read(k(3)),
                Operation::read_modify_write(k(2), v()),
                Operation::write(k(3), v()),
                Operation::read(k(1)),
                Operation::write(k(1), v()),
                Operation::read(k(4)),
                Operation::read_modify_write(k(2), v()),
                Operation::read(k(3)),
            ],
        );
        assert_eq!(t.read_set(), vec![&k(3), &k(2), &k(1), &k(4)]);
        assert_eq!(t.write_set(), vec![&k(1), &k(2), &k(3)]);
    }

    #[test]
    fn read_only_detection() {
        let t = Transaction::new(txn_id(), vec![Operation::read(Key::from_str("a"))]);
        assert!(t.is_read_only());
    }

    #[test]
    fn payload_bytes_sums_keys_and_values() {
        let t = Transaction::new(
            txn_id(),
            vec![
                Operation::write(Key::from_str("ab"), Value::filler(10)),
                Operation::read(Key::from_str("cde")),
            ],
        );
        assert_eq!(t.payload_bytes(), 2 + 10 + 3);
        assert!(t.wire_bytes() > t.payload_bytes());
    }

    /// Captured at the commit before the SHA-256 kernel was replaced: only a
    /// fixed digest pins the hash function itself. Signing covers this
    /// digest, so a signed and an unsigned envelope of one body share it.
    #[test]
    fn signed_transaction_matches_golden_digests() {
        let id = TxnId::new(ClientId(1), 42);
        let ops = vec![
            Operation::read(Key::from_str("user00000007")),
            Operation::write(Key::from_str("user00000042"), Value::filler(100)),
        ];
        for t in [
            Transaction::client_signed(id, ops.clone()),
            Transaction::new(id, ops),
        ] {
            assert_eq!(
                t.digest().to_hex(),
                "6149839011409216d45a598a74aba3fecff36361582d843000ccf6ecbcf1dd73"
            );
        }
    }

    /// Whether `t`'s operations lie inside its own `size_of` bytes, by
    /// address comparison.
    fn holds_ops_inline(t: &Transaction) -> bool {
        let start = std::ptr::from_ref(t).addr();
        let ops = t.ops().as_ptr().addr();
        (start..start + std::mem::size_of::<Transaction>()).contains(&ops)
    }

    /// A one-operation transaction carries its operation with no heap
    /// allocation, whether it was given an `Operation` or a one-element
    /// `Vec`; several operations live in one boxed slice. (The YCSB generator
    /// is checked by the test of the same name in `dichotomy-workload`.)
    #[test]
    fn a_single_operation_lives_inside_the_transaction() {
        let op = || Operation::write(Key::from_str("k"), Value::filler(4));
        let one = Transaction::new(txn_id(), op());
        assert!(holds_ops_inline(&one));
        assert_eq!(one.ops(), [op()]);
        let from_vec = Transaction::client_signed(txn_id(), vec![op()]);
        assert!(holds_ops_inline(&from_vec));
        let many = Transaction::new(txn_id(), vec![op(), op()]);
        assert!(!holds_ops_inline(&many));
        assert_eq!(many.ops(), [op(), op()]);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The wire form and content digest of four fixed transactions, recorded
    /// before one-operation transactions stored their operation inline: no
    /// operation count encodes differently, and the isolation byte (`1`,
    /// serializable) is still written where it always was. A signed
    /// envelope ends in the flag byte `01` where it once carried the flag
    /// and 64 signature bytes.
    #[test]
    fn wire_form_and_digest_match_golden() {
        let long_key = Key::from_str("account-with-a-key-of-thirty-bytes");
        assert!(long_key.len() > 22);
        let at = |submit_time, mut t: Transaction| {
            t.submit_time = submit_time;
            t
        };
        let cases = [
            Transaction::new(TxnId::new(ClientId(3), 5), Vec::new()),
            at(
                1_234,
                Transaction::new(
                    TxnId::new(ClientId(4), 6),
                    vec![Operation::write(Key::from_str("k1"), Value::filler(5))],
                ),
            ),
            Transaction::client_signed(
                TxnId::new(ClientId(5), 7),
                vec![Operation::read_modify_write(
                    Key::from_str("user000000000042"),
                    Value::filler(3),
                )],
            ),
            at(
                9_999,
                Transaction::client_signed(
                    TxnId::new(ClientId(6), 8),
                    vec![
                        Operation::read(long_key),
                        Operation::write(Key::from_str("w"), Value::filler(2)),
                        Operation::read_modify_write(Key::from_str("rmw"), Value::filler(1)),
                    ],
                ),
            ),
        ];
        let golden = [
            (
                "000000000000000300000000000000050000000001000000000000000000",
                "c2c58936eb476f00d4abefe4c69472fd0866bb748709cef986ef2e2a9a8ab898",
            ),
            (
                "000000000000000400000000000000060000000101000000026b310100000005\
                 78787878780100000000000004d200",
                "5fc805f09d0d18e9c48ce2e74dcd62f3120329d7b92fadf67998c70d9d3a0fdc",
            ),
            (
                "0000000000000005000000000000000700000001020000001075736572303030\
                 303030303030303432010000000378787801000000000000000001",
                "b3390cdbc638807d3e34a3f321d81acd3f3728dd77d4dfe24e173284fcc55613",
            ),
            (
                "000000000000000600000000000000080000000300000000226163636f756e74\
                 2d776974682d612d6b65792d6f662d7468697274792d62797465730001000000\
                 0177010000000278780200000003726d7701000000017801000000000000270f\
                 01",
                "7739d52cc7e85f8fa47c46120ea02e8d3636b8ace423f2e86b79291f637c1798",
            ),
        ];
        for (t, (encoded, digest)) in cases.iter().zip(golden) {
            assert_eq!(hex(&t.encode()), encoded);
            assert_eq!(t.digest().to_hex(), digest);
        }
    }

    #[test]
    fn digest_changes_with_ops() {
        let t1 = Transaction::new(txn_id(), vec![Operation::read(Key::from_str("a"))]);
        let t2 = Transaction::new(txn_id(), vec![Operation::read(Key::from_str("b"))]);
        assert_ne!(t1.digest(), t2.digest());
    }

    #[test]
    fn digest_distinguishes_read_from_empty_value_write() {
        let t1 = Transaction::new(txn_id(), vec![Operation::read(Key::from_str("a"))]);
        let t2 = Transaction::new(
            txn_id(),
            vec![Operation::write(Key::from_str("a"), Value::new(Vec::new()))],
        );
        assert_ne!(t1.digest(), t2.digest());
    }

    #[test]
    fn receipt_latency_and_status() {
        let r = TxnReceipt::committed(txn_id(), 100, 350);
        assert_eq!(r.latency_us(), 250);
        assert!(r.status.is_committed());
        let a = TxnReceipt::aborted(txn_id(), AbortReason::ReadWriteConflict, 100, 200);
        assert!(!a.status.is_committed());
        assert_eq!(a.latency_us(), 100);
    }
}
