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
//! through accessors. The signature is therefore a function of the body and
//! the signer's key, and a transaction stores *who* signed rather than the
//! signature bytes: unsigned, signed by its own client (the bytes are
//! computed whenever [`Transaction::signature`] reads them, identical to
//! signing at creation), or an explicit signature kept as given (another
//! key, or a forged or tampered envelope). Generating a workload therefore
//! hashes nothing; the models charge signature work in simulated time.

use crate::codec;
use crate::codec::Encode;
use crate::crypto::{KeyPair, Signature};
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

/// Who signed a [`Transaction`] (the module documentation says why this, and
/// not the signature bytes, is what a transaction stores).
#[derive(Debug, Clone, PartialEq)]
enum Signer {
    /// No signature.
    Unsigned,
    /// Signed with `KeyPair::for_client` of the client in the id.
    Client,
    /// A signature carried as given: made with another key, or travelling
    /// with content it was not made over (a forged or tampered envelope).
    Explicit(Box<Signature>),
}

/// A client transaction: a sealed body (id, operations), a submit time, and
/// who signed the body.
///
/// The body is private and fixed at construction, so the content
/// [`digest`](Self::digest) and the [`signature`](Self::signature) over it
/// cannot drift apart. A different body is a different `Transaction`: build
/// a tampered envelope with [`from_parts`](Self::from_parts), never by
/// editing one in place.
#[derive(Debug, Clone)]
pub struct Transaction {
    /// Globally unique id (client, sequence).
    id: TxnId,
    /// Operations in program order.
    ops: Operations,
    /// Client wall-clock submit time (simulated microseconds); carried in the
    /// envelope the way real systems carry timestamps, and used by the
    /// harness to compute end-to-end latency. Not signed.
    pub submit_time: Timestamp,
    signer: Signer,
}

impl Transaction {
    fn sealed(
        id: TxnId,
        ops: impl Into<Operations>,
        submit_time: Timestamp,
        signer: Signer,
    ) -> Self {
        Transaction {
            id,
            ops: ops.into(),
            submit_time,
            signer,
        }
    }

    /// Build an unsigned transaction.
    pub fn new(id: TxnId, ops: impl Into<Operations>) -> Self {
        Self::sealed(id, ops, 0, Signer::Unsigned)
    }

    /// Build a transaction signed with its own client's key. Nothing is hashed
    /// here: [`signature`](Self::signature) computes the bytes
    /// [`signed`](Self::signed) with `KeyPair::for_client` would store.
    pub fn client_signed(id: TxnId, ops: impl Into<Operations>) -> Self {
        Self::sealed(id, ops, 0, Signer::Client)
    }

    /// Build and sign a transaction with `keypair`, now.
    pub fn signed(
        id: TxnId,
        ops: impl Into<Operations>,
        submit_time: Timestamp,
        keypair: &KeyPair,
    ) -> Self {
        let mut txn = Self::sealed(id, ops, submit_time, Signer::Unsigned);
        let signature = keypair.sign(txn.digest().as_bytes());
        txn.signer = Signer::Explicit(Box::new(signature));
        txn
    }

    /// A transaction from an envelope produced elsewhere: the content and the
    /// signature that came with it, kept as given whether or not it was made
    /// over this content ([`verify_signature`](Self::verify_signature) tells).
    pub fn from_parts(
        id: TxnId,
        ops: impl Into<Operations>,
        submit_time: Timestamp,
        signature: Option<Signature>,
    ) -> Self {
        let signer = match signature {
            None => Signer::Unsigned,
            Some(signature) => Signer::Explicit(Box::new(signature)),
        };
        Self::sealed(id, ops, submit_time, signer)
    }

    /// Globally unique id (client, sequence).
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Operations in program order.
    pub fn ops(&self) -> &[Operation] {
        self.ops.as_slice()
    }

    /// Whether the transaction carries a signature (valid or not).
    pub fn is_signed(&self) -> bool {
        !matches!(self.signer, Signer::Unsigned)
    }

    /// The signature over the content, if the transaction is signed. A
    /// client-signed transaction computes it on every call (the client's key
    /// pair, the content digest, the tag); no model reads it during a run,
    /// since signature work is charged as simulated time.
    pub fn signature(&self) -> Option<Signature> {
        match &self.signer {
            Signer::Unsigned => None,
            Signer::Client => {
                Some(KeyPair::for_client(self.id.client.0).sign(self.digest().as_bytes()))
            }
            Signer::Explicit(signature) => Some(**signature),
        }
    }

    /// Content digest over id, the isolation byte and operations (excludes
    /// the signature itself).
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

    /// Verify the client signature, rederiving the client's key from the
    /// transaction's client id (stands in for a certificate lookup).
    pub fn verify_signature(&self) -> bool {
        self.signature().is_some_and(|sig| {
            sig.verify(
                self.digest().as_bytes(),
                &KeyPair::for_client(self.id.client.0),
            )
        })
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
        HEADER + self.payload_bytes() + if self.is_signed() { SIGNATURE } else { 0 }
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

/// Equal content and equal signature *values*: a client-signed transaction
/// equals the same content signed eagerly with that client's key.
impl PartialEq for Transaction {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.submit_time == other.submit_time
            && self.ops == other.ops
            // Equal content under equal signers signs to equal bytes.
            && (self.signer == other.signer || self.signature() == other.signature())
    }
}

// Hand-written: the signature is not a stored field (a client-signed
// transaction records only who signed), so the wire form emits `signature()`
// where the field list had it and the bytes are the eagerly signed ones.
impl Encode for Transaction {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.id.encode_into(out);
        self.ops.encode_into(out);
        SERIALIZABLE.encode_into(out);
        self.submit_time.encode_into(out);
        self.signature().encode_into(out);
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

    #[test]
    fn signature_roundtrip_and_tamper_detection() {
        let ops = vec![Operation::write(Key::from_str("k"), Value::filler(8))];
        for t in [
            Transaction::signed(txn_id(), ops.clone(), 0, &KeyPair::for_client(1)),
            Transaction::client_signed(txn_id(), ops),
        ] {
            assert!(t.verify_signature());
            // The same envelope rebuilt from its parts, the signature as a value:
            // the same transaction, byte for byte.
            let copy = Transaction::from_parts(t.id(), t.ops().to_vec(), 0, t.signature());
            assert!(copy.verify_signature());
            assert_eq!(copy, t);
            assert_eq!(copy.encode(), t.encode());
            // Tampered content under the original signature: it must not verify.
            let mut ops = t.ops().to_vec();
            ops[0].value = Some(Value::filler(9));
            let tampered = Transaction::from_parts(t.id(), ops, 0, t.signature());
            assert!(!tampered.verify_signature());
            assert_ne!(tampered, t);
        }
    }

    /// Captured at the commit before the SHA-256 kernel was replaced: sign and
    /// verify agree with each other under any self-consistent hash, so only a
    /// fixed digest and tag pin the function itself. Signing at creation and
    /// signing when read must both produce them.
    #[test]
    fn signed_transaction_matches_golden_digests() {
        let id = TxnId::new(ClientId(1), 42);
        let ops = vec![
            Operation::read(Key::from_str("user00000007")),
            Operation::write(Key::from_str("user00000042"), Value::filler(100)),
        ];
        for t in [
            Transaction::signed(id, ops.clone(), 1_000, &KeyPair::for_client(1)),
            Transaction::client_signed(id, ops),
        ] {
            assert_eq!(
                t.digest().to_hex(),
                "6149839011409216d45a598a74aba3fecff36361582d843000ccf6ecbcf1dd73"
            );
            assert_eq!(
                t.signature().expect("signed").tag.to_hex(),
                "f4b12240136aa315766ab8928f81d73a97303303850c7b31e7e79caf41f6e27c"
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
    /// operation count and no signer encodes differently, and the isolation
    /// byte (`1`, serializable) is still written where it always was.
    #[test]
    fn wire_form_and_digest_match_golden() {
        let long_key = Key::from_str("account-with-a-key-of-thirty-bytes");
        assert!(long_key.len() > 22);
        let cases = [
            Transaction::new(TxnId::new(ClientId(3), 5), Vec::new()),
            Transaction::from_parts(
                TxnId::new(ClientId(4), 6),
                vec![Operation::write(Key::from_str("k1"), Value::filler(5))],
                1_234,
                None,
            ),
            Transaction::client_signed(
                TxnId::new(ClientId(5), 7),
                vec![Operation::read_modify_write(
                    Key::from_str("user000000000042"),
                    Value::filler(3),
                )],
            ),
            Transaction::signed(
                TxnId::new(ClientId(6), 8),
                vec![
                    Operation::read(long_key),
                    Operation::write(Key::from_str("w"), Value::filler(2)),
                    Operation::read_modify_write(Key::from_str("rmw"), Value::filler(1)),
                ],
                9_999,
                &KeyPair::for_client(6),
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
                 303030303030303432010000000378787801000000000000000001994943866f\
                 3076d95ab4f9bb5497c71f563c5301d84b1a22a987fc8d5aeba713b40c935e05\
                 e7b0d76a5fe370ce8ba2e6487863fa250c71412ec8c4b2e81dec80",
                "b3390cdbc638807d3e34a3f321d81acd3f3728dd77d4dfe24e173284fcc55613",
            ),
            (
                "000000000000000600000000000000080000000300000000226163636f756e74\
                 2d776974682d612d6b65792d6f662d7468697274792d62797465730001000000\
                 0177010000000278780200000003726d7701000000017801000000000000270f\
                 013920d32ce604bae69a2eccb87351e68a9a8643f8c6b73dcfa8e79213fff25b\
                 742f275805cfc376811f1fb283e1a5822d87808a4a1360256e523f5ff4cff319\
                 b8",
                "7739d52cc7e85f8fa47c46120ea02e8d3636b8ace423f2e86b79291f637c1798",
            ),
        ];
        for (t, (encoded, digest)) in cases.iter().zip(golden) {
            assert_eq!(hex(&t.encode()), encoded);
            assert_eq!(t.digest().to_hex(), digest);
        }
    }

    #[test]
    fn unsigned_transaction_does_not_verify() {
        let t = Transaction::new(txn_id(), vec![]);
        assert!(!t.is_signed());
        assert_eq!(t.signature(), None);
        assert!(!t.verify_signature());
        assert_ne!(t, Transaction::client_signed(txn_id(), vec![]));
    }

    #[test]
    fn signature_bound_to_client_identity() {
        // Signed with the wrong client's key: digest check fails.
        let other = KeyPair::for_client(999);
        let t = Transaction::signed(txn_id(), vec![], 0, &other);
        assert!(!t.verify_signature());
        // Equal content, different signature values: different transactions.
        assert_ne!(t, Transaction::client_signed(txn_id(), vec![]));
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
