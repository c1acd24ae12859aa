#!/usr/bin/env bash
# Smoke-check the benchmark: build offline, run every workload at --smoke
# size, and assert that the result document carries every metric
# BENCHMARK.json names (finite, with its unit) and that an injected digest
# mismatch or failed probe is counted and fails the run.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline --quiet
harness="${CARGO_TARGET_DIR:-target}/release/harness"

"$harness" --smoke --seconds 0.3 --out out/smoke.json >/dev/null

python3 - out/smoke.json ../BENCHMARK.json <<'PY'
import json, math, sys
result, bench = (json.load(open(p)) for p in sys.argv[1:3])
names = [w["name"] for w in result["workloads"]]
assert {w["name"] for w in bench["workloads"]} <= set(names), "a BENCHMARK.json workload did not run"
for w in result["workloads"]:
    for section, runs in (("end_to_end", w["runs"]), ("per_layer", [w["traced"]])):
        for run in runs:
            assert run["correct"] and run["failed"] == 0 and run["failed_share"] == 0, w["name"]
            assert run["attempted"] >= 1 and run["host"]["nproc"] >= 1
            for metric in bench[section]:
                got = run["metrics"].get(metric["name"])
                assert got is not None, f'{w["name"]}: {metric["name"]} missing'
                assert got["unit"] == metric["unit"], f'{w["name"]}: {metric["name"]} unit'
                value = got["value"]
                assert isinstance(value, (int, float)) and math.isfinite(value), metric["name"]
                assert section == "per_layer" or value > 0, f'{w["name"]}: {metric["name"]} is 0'
    assert w["runs"][0]["output_digest"] == w["traced"]["output_digest"], w["name"]
    for name, count in w["runs"][0]["exact"].items():
        assert w["traced"]["exact"][name] == count, f'{w["name"]}: {name} differs'
print(f"check: {len(names)} workloads carry every metric of BENCHMARK.json")
PY

for fault in digest probe; do
    if out=$("$harness" --workload substrate_state --smoke --seconds 0.3 --inject "$fault" 2>/dev/null); then
        echo "check: --inject $fault did not fail the run" >&2
        exit 1
    fi
    python3 -c '
import json, sys
line = json.loads(sys.argv[1].strip().splitlines()[-1])
assert not line["correct"] and line["failed"] > 0, line
' "$out"
done
echo "check: injected faults are counted and exit nonzero"

"$harness" compare out/smoke.json out/smoke.json >/dev/null
echo "check: compare accepts a document against itself"
