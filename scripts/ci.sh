#!/usr/bin/env sh
# Tier-1 verification plus lint gates and a smoke run of the repro binary.
# The workspace is offline-only: everything must resolve from path
# dependencies (no crates.io access in CI).
set -eu

cd "$(dirname "$0")/.."

# What the checkout looked like before any stage ran (which paths differ from
# HEAD, and the content of the tracked ones); the last stage compares.
tree_state() { git status --porcelain; git diff | cksum; }
TREE_BEFORE="$(tree_state)"

# Run a test stage under a wall-clock bound (coreutils `timeout`, which kills
# the whole process group), so a test that never terminates fails CI with
# the stage named instead of stalling it.
STAGE_TIMEOUT_S=1800
bounded() {
    stage="$1"
    shift
    status=0
    timeout "$STAGE_TIMEOUT_S" "$@" || status=$?
    if [ "$status" -eq 124 ]; then
        echo "ci.sh: the $stage stage hung: still running after ${STAGE_TIMEOUT_S} s" >&2
    fi
    return "$status"
}

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# Tests and examples too: clippy.toml's determinism rules and the
# reason-carrying `#[expect]` discipline have no test exemption.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
# A doc link to a deleted, renamed or private item is a rustdoc warning;
# without this gate it would pass CI unnoticed.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release"
cargo build --release

echo "==> examples: quickstart, contention_study, hybrid_designer"
# Clippy compiles the examples; this runs them, since they are where a
# reader first sees a spec build a model. Each takes well under a second.
for example in quickstart contention_study hybrid_designer; do
  cargo run -q --release -p dichotomy-core --example "$example" > /dev/null
done

echo "==> cargo test -q"
bounded "cargo test -q" cargo test -q

echo "==> cargo test --release -p dichotomy-common -p dichotomy-workload (SHA-256 kernels and generator goldens under optimisation)"
# The hash kernels are wrapping arithmetic plus the workspace's one unsafe
# module; the debug run above checks them with overflow and debug assertions
# on, this one as they actually ship. The workload goldens pin every
# generated transaction's wire form the same way.
cargo test -q --release -p dichotomy-common -p dichotomy-workload

echo "==> cargo test --release -p dichotomy-core timestamp_ledger (arrival-timestamp bitmap under optimisation)"
# The driver's TimestampLedger (driver/ledger.rs; its tests sit in
# driver/tests.rs) is shift-and-mask arithmetic up to Timestamp::MAX: overflow
# panics in the debug run above and would wrap here. A name filter that
# matches nothing passes, so the stage also requires a nonzero pass count.
cargo test -q --release -p dichotomy-core --lib driver::tests::timestamp_ledger \
    > /tmp/ci_ledger.out
if ! grep -qE 'test result: ok\. [1-9]' /tmp/ci_ledger.out; then
    echo "ci.sh: the release ledger stage ran no test" >&2
    exit 1
fi

echo "==> cargo test --release -p dichotomy-simnet (the timer wheel against its heap reference)"
# The wheel's cascades reuse bucket allocations up to a bound; the
# differential tests in crates/simnet/tests/wheel_vs_heap.rs pop long sparse
# and overflowing schedules through it and a BinaryHeap, here as they ship.
# The stage also requires a nonzero pass count.
bounded "release simnet" cargo test -q --release -p dichotomy-simnet > /tmp/ci_simnet.out
if ! grep -qE 'test result: ok\. [1-9]' /tmp/ci_simnet.out; then
    echo "ci.sh: the release simnet stage ran no test" >&2
    exit 1
fi

echo "==> cargo test --release -p dichotomy-merkle -p dichotomy-storage -p dichotomy-ledger (node interning, differential oracles, bulk loads)"
# Node interning, the digest memo forks share and both differential oracles
# (the SHA-keyed MPT reference, the eager MBT rebuild) run here as they ship,
# not only in the debug build above; so do the storage crate's differential
# loops of each bulk load against the per-record writes it stands for, and
# the ledger's on-demand chains against the same chains hashed eagerly.
cargo test -q --release -p dichotomy-merkle -p dichotomy-storage -p dichotomy-ledger

echo "==> cargo test --release -p dichotomy-bench --test claims -- --ignored (the claims table at full size)"
# The debug run above checks every row of crates/bench/src/claims.rs at quick
# size; this one runs every experiment at full size and checks each row
# against its recorded full-size status. A name filter that matches nothing
# passes, so the stage also requires a nonzero pass count.
cargo test -q --release -p dichotomy-bench --test claims -- --ignored \
    > /tmp/ci_claims.out
if ! grep -qE 'test result: ok\. [1-9]' /tmp/ci_claims.out; then
    echo "ci.sh: the release claims stage ran no test" >&2
    exit 1
fi

echo "==> clippy.toml negative check (a throwaway crate outside the checkout)"
# The determinism rules must be *able* to fail: a crate that returns a
# HashMap and reads the wall clock, linted under this checkout's clippy.toml,
# must be refused for both. (`! cmd` is exempt from `set -e`, so test the
# exit status explicitly.)
NEG_DIR="$(mktemp -d)"
trap 'rm -rf "$NEG_DIR"' EXIT
mkdir "$NEG_DIR/src"
cat > "$NEG_DIR/Cargo.toml" <<'TOML'
[package]
name = "determinism-negative-check"
version = "0.0.0"
edition = "2021"

[workspace]
TOML
cat > "$NEG_DIR/src/lib.rs" <<'RUST'
pub fn order() -> std::collections::HashMap<u32, u32> {
    Default::default()
}

pub fn clock() -> std::time::Instant {
    std::time::Instant::now()
}
RUST
if CLIPPY_CONF_DIR="$PWD" cargo clippy --offline --quiet \
    --manifest-path "$NEG_DIR/Cargo.toml" -- -D warnings 2> "$NEG_DIR/clippy.err"; then
    echo "ci.sh: clippy passed a HashMap and Instant::now() under clippy.toml" >&2
    exit 1
fi
grep -q 'disallowed type' "$NEG_DIR/clippy.err"
grep -q 'disallowed method' "$NEG_DIR/clippy.err"

echo "==> repro lint (semantic plan linter over all experiments)"
# Every experiment expands clean: no deny-level plan diagnostics. The only
# expected finding is tab02's zero-probe note.
cargo run -p dichotomy-bench --release --bin repro -- \
    lint --quick --json /tmp/ci_plan_lint.json all > /tmp/ci_plan_lint.out
grep -q '"generator":"repro-lint"' /tmp/ci_plan_lint.json
# 20 experiment plans + the explore-spec pseudo-id.
grep -q '"experiments":21' /tmp/ci_plan_lint.json
grep -q '"deny":0' /tmp/ci_plan_lint.json
grep -q 'experiments expanded' /tmp/ci_plan_lint.out
# Negative check: a prune floor that cuts every candidate must deny (S008),
# through both the linter and the explore command itself.
if cargo run -p dichotomy-bench --release --bin repro -- \
    lint --quick --min-forecast-tps 1e30 explore > /tmp/ci_plan_lint_neg.out; then
    echo "ci.sh: repro lint passed a zero-survivor explore spec" >&2
    exit 1
fi
grep -q 'S008' /tmp/ci_plan_lint_neg.out
if cargo run -p dichotomy-bench --release --bin repro -- \
    explore --quick --min-forecast-tps 1e30 > /dev/null 2> /tmp/ci_explore_s008.err; then
    echo "ci.sh: repro explore ran a zero-survivor spec" >&2
    exit 1
fi
grep -q 'S008' /tmp/ci_explore_s008.err

# Worker count for the parallel runs: every core, but at least 4 so the
# pool (channel queue, out-of-order completion, reassembly) is exercised
# even on small CI machines.
CORES="$(nproc 2>/dev/null || echo 1)"
JOBS="$CORES"
[ "$JOBS" -lt 4 ] && JOBS=4

echo "==> repro --json reproducibility (seeded, byte-for-byte, --jobs 1 vs --jobs $JOBS)"
# Every experiment `repro --list` names, pinned in Exact metrics mode: the
# scheduler (timer wheel), the arena driver state, and the worker pool must
# all be invisible in the seeded JSON. scale01 (streaming metrics, 1M-client
# population) and chaos01 (the fault × oracle grid) are smoked separately
# below. The set is derived, so a new experiment joins the comparison.
REPRO_LIST="$(cargo run -q -p dichotomy-bench --release --bin repro -- --list)"
CI_EXPERIMENTS="$(printf '%s\n' "$REPRO_LIST" \
    | awk '$1 != "scale01" && $1 != "chaos01" { print $1 }')"
test -n "$CI_EXPERIMENTS"
# --no-cache pins the determinism comparisons to real executions: a cache
# hit being byte-identical is asserted by its own stage below, not assumed
# here.
cargo run -p dichotomy-bench --release --bin repro -- \
    --quick --seed 7 --jobs 1 --no-cache --json /tmp/ci_repro_a.json $CI_EXPERIMENTS > /tmp/ci_repro_a.out
cargo run -p dichotomy-bench --release --bin repro -- \
    --quick --seed 7 --jobs "$JOBS" --no-cache --json /tmp/ci_repro_b.json $CI_EXPERIMENTS > /tmp/ci_repro_b.out
test -s /tmp/ci_repro_a.out
test -s /tmp/ci_repro_a.json
cmp /tmp/ci_repro_a.out /tmp/ci_repro_b.out
cmp /tmp/ci_repro_a.json /tmp/ci_repro_b.json
# The fault, closed-loop and ramp scenarios' windowed series must be present
# in the JSON document. (A clamped event or a violated oracle panics its
# probe, and a failed probe makes repro exit nonzero, so no grep looks for
# either.)
grep -q '"key":"fault01"' /tmp/ci_repro_a.json
grep -q '"key":"closed01"' /tmp/ci_repro_a.json
grep -q '"key":"ramp01"' /tmp/ci_repro_a.json
grep -q '"windows":\[{' /tmp/ci_repro_a.json
grep -q '"events_clamped":' /tmp/ci_repro_a.json
grep -q '"offered_tps":' /tmp/ci_repro_a.json

echo "==> repro scale01 --quick (million-client engine path, streaming metrics)"
# The quick variant (8 / 64 / 2000 closed-loop clients) exercises the same
# wheel + arena + streaming-sketch path as the full 1M-client run. It does
# not saturate, so it shows no knee (the claims table records that; the
# full-size stage above checks the knee). Seeded determinism holds in
# streaming mode too.
cargo run -p dichotomy-bench --release --bin repro -- \
    --quick --seed 7 --jobs 1 --no-cache --json /tmp/ci_scale_a.json scale01 > /tmp/ci_scale_a.out
cargo run -p dichotomy-bench --release --bin repro -- \
    --quick --seed 7 --jobs 1 --no-cache --json /tmp/ci_scale_b.json scale01 > /dev/null
cmp /tmp/ci_scale_a.json /tmp/ci_scale_b.json
grep -q '"key":"scale01"' /tmp/ci_scale_a.json
grep -q "2000 clients" /tmp/ci_scale_a.out

echo "==> repro --metrics streaming closed01 (estimator override, --jobs 1 vs --jobs $JOBS)"
# An Exact-mode experiment forced onto the P² estimator: seeded output must
# not depend on the worker count.
cargo run -p dichotomy-bench --release --bin repro -- \
    --quick --seed 7 --jobs 1 --no-cache --metrics streaming \
    --json /tmp/ci_metrics_a.json closed01 > /dev/null
cargo run -p dichotomy-bench --release --bin repro -- \
    --quick --seed 7 --jobs "$JOBS" --no-cache --metrics streaming \
    --json /tmp/ci_metrics_b.json closed01 > /dev/null
cmp /tmp/ci_metrics_a.json /tmp/ci_metrics_b.json

echo "==> repro chaos01 --quick (chaos grid: fault injection x invariant oracles)"
# The full model grid through the declarative fault schedules, on the shared
# worker pool: the seeded JSON must be byte-identical whatever the worker
# count and carry every cell's oracle battery. (The chaos01 rows of the
# claims table check the battery's verdicts and the dip and recovery.)
cargo run -p dichotomy-bench --release --bin repro -- \
    --quick --seed 7 --jobs 1 --no-cache --json /tmp/ci_chaos_a.json chaos01 > /tmp/ci_chaos_a.out
cargo run -p dichotomy-bench --release --bin repro -- \
    --quick --seed 7 --jobs "$JOBS" --no-cache --json /tmp/ci_chaos_b.json chaos01 > /tmp/ci_chaos_b.out
cmp /tmp/ci_chaos_a.out /tmp/ci_chaos_b.out
cmp /tmp/ci_chaos_a.json /tmp/ci_chaos_b.json
grep -q '"key":"chaos01"' /tmp/ci_chaos_a.json
# The passing oracle battery, rendered per cell in registration order.
grep -qF '"oracles":[{"name":"receipt-conservation","violation":null},{"name":"no-duplicate-receipt","violation":null},{"name":"commit-order-monotonic","violation":null},{"name":"no-clamped-events","violation":null}]' /tmp/ci_chaos_a.json

echo "==> repro --cache (cold vs warm: byte-identical JSON, >=5x wall-clock win)"
REPRO_BIN=target/release/repro
"$REPRO_BIN" cache clear > /dev/null
COLD_NS="$(date +%s%N)"
"$REPRO_BIN" --quick --seed 8 --jobs "$JOBS" --cache --json /tmp/ci_cache_cold.json \
    all > /tmp/ci_cache_cold.out
COLD_MS=$(( ($(date +%s%N) - COLD_NS) / 1000000 ))
WARM_NS="$(date +%s%N)"
"$REPRO_BIN" --quick --seed 8 --jobs "$JOBS" --cache --json /tmp/ci_cache_warm.json \
    all > /tmp/ci_cache_warm.out 2> /tmp/ci_cache_warm.err
WARM_MS=$(( ($(date +%s%N) - WARM_NS) / 1000000 ))
# A cache hit is pinned byte-identical to a cold run, reports and JSON both.
cmp /tmp/ci_cache_cold.out /tmp/ci_cache_warm.out
cmp /tmp/ci_cache_cold.json /tmp/ci_cache_warm.json
# The warm run answered every distinct probe from the cache...
grep -q ' cache hits' /tmp/ci_cache_warm.err
if grep -q ' 0 cache hits' /tmp/ci_cache_warm.err; then
    echo "ci.sh: the warm run hit the cache zero times" >&2
    exit 1
fi
# ...and must be at least 5x faster end-to-end than the cold one.
if [ "$COLD_MS" -lt $(( 5 * WARM_MS )) ]; then
    echo "ci.sh: warm cache run not >=5x faster (cold ${COLD_MS} ms, warm ${WARM_MS} ms)" >&2
    exit 1
fi
echo "    cold ${COLD_MS} ms, warm ${WARM_MS} ms"
"$REPRO_BIN" cache stats | grep -q entries
"$REPRO_BIN" cache clear > /dev/null

echo "==> repro explore (design-space explorer: determinism, Pareto front, calibration)"
# Byte-identity across worker counts: the report and JSON carry no wall
# clocks, cache counters or jobs fields, so 1 worker vs $JOBS must match.
"$REPRO_BIN" explore --quick --seed 7 --jobs 1 --no-cache \
    --json /tmp/ci_explore_a.json > /tmp/ci_explore_a.out
"$REPRO_BIN" explore --quick --seed 7 --jobs "$JOBS" --no-cache \
    --json /tmp/ci_explore_b.json > /tmp/ci_explore_b.out
cmp /tmp/ci_explore_a.out /tmp/ci_explore_b.out
cmp /tmp/ci_explore_a.json /tmp/ci_explore_b.json
grep -q '"generator":"repro-explore"' /tmp/ci_explore_a.json
# The funnel must cut candidates (no silent caps: every cut is listed) and
# still leave a non-empty Pareto front over the measured survivors.
grep -q '"pruned":\[{' /tmp/ci_explore_a.json
grep -qE '"pareto_front":\["[^"]' /tmp/ci_explore_a.json
# Per-taxonomy-cell calibration with fitted corrections rides the same JSON.
grep -q '"kendall_tau":' /tmp/ci_explore_a.json
grep -qE '"cell":"[^"]+","designs":[1-9]' /tmp/ci_explore_a.json
grep -q '"correction":' /tmp/ci_explore_a.json
# Cold vs warm cache: same bytes whether probes execute or replay.
"$REPRO_BIN" explore --quick --seed 8 --jobs "$JOBS" --cache \
    --json /tmp/ci_explore_cold.json > /tmp/ci_explore_cold.out
"$REPRO_BIN" explore --quick --seed 8 --jobs "$JOBS" --cache \
    --json /tmp/ci_explore_warm.json > /tmp/ci_explore_warm.out 2> /tmp/ci_explore_warm.err
cmp /tmp/ci_explore_cold.out /tmp/ci_explore_warm.out
cmp /tmp/ci_explore_cold.json /tmp/ci_explore_warm.json
grep -q ' cache hits' /tmp/ci_explore_warm.err
if grep -q ' 0 cache hits' /tmp/ci_explore_warm.err; then
    echo "ci.sh: the warm explore run hit the cache zero times" >&2
    exit 1
fi
"$REPRO_BIN" cache clear > /dev/null

echo "==> microbench --smoke (engine hot-path regression canary)"
cargo run -p dichotomy-bench --release --bin microbench -- --smoke > /tmp/ci_microbench.out
test -s /tmp/ci_microbench.out
grep -q "event_queue_schedule_pop_10k" /tmp/ci_microbench.out
grep -q "engine_loop_etcd_update_300" /tmp/ci_microbench.out
grep -q "plan_parallel_8probe_etcd" /tmp/ci_microbench.out
grep -q "event_queue_wheel_churn_256k" /tmp/ci_microbench.out
# Sparse far-future timers, the invariant oracles over distinct ids, the
# driver loop over a model that commits every arrival at once (at 8 192 and at
# 200 000 clients) and one-operation YCSB generation.
grep -q "event_queue_sparse_far_timers" /tmp/ci_microbench.out
grep -q "oracle_observe_250k" /tmp/ci_microbench.out
# A read then a write of a record in a loaded LSM tree and MVCC store: the
# point lookups the transaction path makes by hash.
grep -q "lsm_point_ops_5k_1kb" /tmp/ci_microbench.out
grep -q "mvcc_point_ops_5k" /tmp/ci_microbench.out
grep -q "driver_loop_null_closed_200k" /tmp/ci_microbench.out
grep -q "driver_loop_null_closed_200k_clients" /tmp/ci_microbench.out
grep -q "ycsb_next_transaction_1op" /tmp/ci_microbench.out
grep -q "latency_sketch_stream_100k" /tmp/ci_microbench.out
# Load vs fork of a shared Quorum state: the per-probe saving of a state
# group, printed as two ns/op lines.
grep -q "quorum_load_5k_1kb" /tmp/ci_microbench.out
grep -q "quorum_fork_5k_1kb" /tmp/ci_microbench.out
# The Figure 13 probe's substrate work: both indexes over 10 000 keys, no
# root read.
grep -q "adr_probe_10k_1kb" /tmp/ci_microbench.out
# YCSB updates into a loaded trie, each storing the bytes its record already
# holds (an unchanged write keeps its nodes), with the root read after each.
grep -q "mpt_overwrite_unchanged_5k_1kb" /tmp/ci_microbench.out
# What a payload costs between layers (printed, not gated): a key handle, a
# value handle, one generated transaction, one memtable frozen into a run.
grep -q "key_clone_16b" /tmp/ci_microbench.out
grep -q "value_clone_1kb" /tmp/ci_microbench.out
grep -q "ycsb_next_txn_1kb" /tmp/ci_microbench.out
grep -q "lsm_flush_4mb" /tmp/ci_microbench.out
# A model's preload into each storage substrate, built in one sorted pass.
grep -q "lsm_load_5k_1kb" /tmp/ci_microbench.out
grep -q "mvcc_load_5k_1kb" /tmp/ci_microbench.out
# Fabric's OCC lifecycle (simulate, then validate and commit) through the
# free functions of `txn::occ`.
grep -q "occ_simulate_validate_commit" /tmp/ci_microbench.out
# One 100 x 1 KB block appended to the ledger: it hashes nothing until the
# tip is read.
grep -q "ledger_append_block_100x1kb" /tmp/ci_microbench.out
# An argument selects benchmarks by name: one name runs that benchmark and
# none of its neighbours, and a name that selects nothing is refused.
cargo run -q -p dichotomy-bench --release --bin microbench -- --smoke mpt_insert_1kb \
    > /tmp/ci_microbench_one.out
grep -q "^mpt_insert_1kb " /tmp/ci_microbench_one.out
if grep -qE "^(mbt_|lsm_)" /tmp/ci_microbench_one.out; then
    echo "ci.sh: microbench mpt_insert_1kb ran other benchmarks" >&2
    exit 1
fi
if cargo run -q -p dichotomy-bench --release --bin microbench -- --smoke no_such_benchmark \
    > /dev/null 2>&1; then
    echo "ci.sh: microbench accepted a filter that selects no benchmark" >&2
    exit 1
fi

echo "==> benchmark/ (the frozen harness against this tree: smoke check + fidelity digests)"
# The standalone harness package builds from this checkout's crates, so a
# widened trait or a drifted `observe` breaks here, not in the next
# benchmark run: check.sh smoke-runs every workload and cross-checks traced
# against untraced digests; the test suite pins the mirror to the real path
# and the suite document to `repro --json`.
benchmark/check.sh
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

echo "==> git status (CI writes only to /tmp, target/, .repro-cache and benchmark/{target,out})"
# Every stage above writes to ignored paths only: a tracked file modified or
# an untracked file left behind is a bug in the stage that did it. On a clean
# checkout this is `git status --porcelain` must print nothing.
if [ "$(tree_state)" != "$TREE_BEFORE" ]; then
    echo "ci.sh: a stage modified the checkout:" >&2
    git status --porcelain >&2
    if git diff --name-only | grep -qx 'benchmark/Cargo.lock'; then
        echo "ci.sh: the workspace crate graph is frozen with the harness lockfile (benchmark/Cargo.lock): adding, removing or folding a crate needs a [benchmark] PR" >&2
    fi
    exit 1
fi

echo "==> ci.sh: all checks passed"
