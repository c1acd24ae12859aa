//! No layer copies a payload it only stores: a `Value` written through a
//! storage engine, the version store, the state trie or a loaded (and forked)
//! system model is read back as the *same buffer* it was written from. The
//! check is pointer equality on `as_bytes()`, so it needs no allocator hook:
//! a layer that re-homed the bytes anywhere would hand back another address.

use dichotomy_common::{ClientId, Key, Operation, Transaction, TxnId, Value};
use dichotomy_merkle::MerklePatriciaTrie;
use dichotomy_storage::lsm::LsmConfig;
use dichotomy_storage::{BPlusTree, KvEngine, LsmTree, MvccStore};
use dichotomy_systems::pipeline::drive_arrivals;
use dichotomy_systems::{SystemKind, SystemSpec, TransactionalSystem};

#[track_caller]
fn assert_same_buffer(read: Option<Value>, written: &Value) {
    let read = read.expect("the key was written");
    assert!(
        std::ptr::eq(read.as_bytes(), written.as_bytes()),
        "the value read back is a copy of the one written"
    );
}

fn key(i: u32) -> Key {
    Key::from_str(&format!("user{i:012}"))
}

#[test]
fn storage_engines_hand_back_the_buffer_they_were_given() {
    let payload = Value::filler(1_000);

    let mut lsm = LsmTree::with_config(LsmConfig {
        memtable_budget_bytes: 4_096,
        max_runs: 64,
    });
    lsm.put(key(0), payload.clone());
    assert_same_buffer(lsm.get(&key(0)), &payload);
    lsm.flush();
    assert_same_buffer(lsm.get(&key(0)), &payload);
    for i in 1..40 {
        lsm.put(key(i), Value::filler(500));
    }
    assert!(lsm.run_count() > 2, "the budget should have forced flushes");
    lsm.compact();
    assert_eq!(lsm.run_count(), 1);
    assert_same_buffer(lsm.get(&key(0)), &payload);
    assert_same_buffer(lsm.clone().get(&key(0)), &payload);
    assert_same_buffer(lsm.scan(&key(0), &key(1)).pop().map(|(_, v)| v), &payload);

    let mut btree = BPlusTree::new();
    for i in 0..200 {
        let value = if i == 77 {
            payload.clone()
        } else {
            Value::filler(8)
        };
        btree.put(key(i), value);
    }
    assert!(btree.height() > 1, "the leaf holding the payload has split");
    assert_same_buffer(btree.get(&key(77)), &payload);

    let mut mvcc = MvccStore::new();
    let v1 = mvcc.begin_commit();
    mvcc.commit_write(key(0), v1, Some(payload.clone()));
    assert_same_buffer(mvcc.get_latest(&key(0)), &payload);
    mvcc.freeze();
    let mut fork = mvcc.clone();
    let newer = Value::filler(1_000);
    let v2 = fork.begin_commit();
    fork.commit_write(key(0), v2, Some(newer.clone()));
    assert_same_buffer(fork.get_latest(&key(0)), &newer);
    assert_same_buffer(fork.get_at(&key(0), v1), &payload);
    assert_same_buffer(mvcc.get_latest(&key(0)), &payload);
}

#[test]
fn the_state_trie_shares_a_value_with_every_node_that_ever_held_it() {
    let payload = Value::filler(1_000);
    let mut trie = MerklePatriciaTrie::new();
    trie.insert(&Key::from_str("user00"), &payload);
    assert_same_buffer(trie.get(&Key::from_str("user00")), &payload);
    // A diverging key re-homes the leaf under a new branch; a longer key
    // moves the value onto a branch; spine rewrites copy neither.
    trie.insert(&Key::from_str("user01"), &Value::filler(10));
    assert_same_buffer(trie.get(&Key::from_str("user00")), &payload);
    trie.insert(&Key::from_str("user00x"), &Value::filler(10));
    trie.insert(&Key::from_str("user00y"), &Value::filler(10));
    assert_same_buffer(trie.get(&Key::from_str("user00")), &payload);
    // An overwrite hands back the new buffer, on a fork as well. (New bytes:
    // a node with the encoding of a stored one is that node, old buffer and
    // all.)
    let newer = Value::new([b'y'; 1_000]);
    trie.insert(&Key::from_str("user00"), &newer);
    assert_same_buffer(trie.get(&Key::from_str("user00")), &newer);
    trie.freeze();
    let mut fork = trie.clone();
    fork.insert(&Key::from_str("user02"), &Value::filler(10));
    assert_same_buffer(fork.get(&Key::from_str("user00")), &newer);
    fork.insert(&Key::from_str("user00"), &payload);
    assert_same_buffer(fork.get(&Key::from_str("user00")), &payload);
    assert_same_buffer(trie.get(&Key::from_str("user00")), &newer);
}

/// What a read-only transaction on `key` returns from `system`.
fn read_back(system: &mut dyn TransactionalSystem, key: &Key) -> Option<Value> {
    let txn = Transaction::new(
        TxnId::new(ClientId(1), 1),
        vec![Operation::read(key.clone())],
    );
    let mut receipts = drive_arrivals(system, vec![(txn, 10)]);
    assert_eq!(receipts.len(), 1);
    receipts.remove(0).reads.remove(0).1
}

#[test]
fn loaded_and_forked_models_serve_the_generator_s_buffer() {
    let payload = Value::filler(1_000);
    let records: Vec<(Key, Value)> = (0..50).map(|i| (key(i), payload.clone())).collect();
    for kind in [SystemKind::Quorum, SystemKind::Fabric] {
        let build = || SystemSpec::new(kind).build().unwrap();
        let mut loaded = build();
        loaded.load(&records);
        let shared = loaded.share_state().expect("the model shares its state");
        let mut fork = build();
        assert!(fork.adopt_state(&shared));
        assert_same_buffer(read_back(&mut *fork, &key(7)), &payload);
        assert_same_buffer(read_back(&mut *loaded, &key(7)), &payload);
    }
}
