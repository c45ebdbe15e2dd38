#!/usr/bin/env bash
# Smoke check of the benchmark itself (not of the stack's speed): builds the
# package, runs its unit tests, runs all four workloads at smoke scale with
# tracing off and on, and asserts that
#   - BENCHMARK.json is exactly what `hqmr-benchmark spec` prints,
#   - every run printed one result line with exactly the four contract keys,
#   - every end-to-end metric (trace 0) and every per-layer metric (trace 1)
#     named in BENCHMARK.json was emitted exactly once with its unit,
#   - names match [A-Za-z0-9][A-Za-z0-9_.-]* and the limits hold
#     (<= 8 workloads, <= 16 end-to-end, <= 128 per-layer),
#   - no op failed.
# Run from the repository root: bash benchmark/check.sh
set -euo pipefail

cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
out=benchmark/out/check
rm -rf "$out"
mkdir -p "$out"

cargo test --release --offline --quiet --manifest-path "$manifest"
cargo build --release --offline --quiet --manifest-path "$manifest"
run() { cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"; }

run spec | diff -u BENCHMARK.json - || {
  echo "BENCHMARK.json differs from \`hqmr-benchmark spec\`" >&2
  exit 1
}

start=$(date +%s)
for trace in 0 1; do
  for workload in insitu_write cold_read net_serve paper_workflow; do
    run --workload "$workload" --seed 7 --seconds 1 --trace "$trace" --smoke --out "$out" \
      >"$out/$workload-t$trace.stdout" 2>"$out/$workload-t$trace.stderr" || {
      cat "$out/$workload-t$trace.stderr" >&2
      echo "$workload (trace $trace) failed" >&2
      exit 1
    }
  done
done
echo "smoke runs took $(($(date +%s) - start)) s"

python3 - "$out" <<'EOF'
import json, re, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
assert list(spec) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"], list(spec)
assert 2 <= len(spec["workloads"]) <= 8
assert 1 <= len(spec["end_to_end"]) <= 16
assert 1 <= len(spec["per_layer"]) <= 128
name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in spec[key]]
assert all(name.match(n) for n in names), names
assert len(set(names)) == len(names), "a name is used twice"
assert any(m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]} for m in spec["end_to_end"])
assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])

for trace, key in ((0, "end_to_end"), (1, "per_layer")):
    want = {m["name"]: m["unit"] for m in spec[key]}
    assert all(unit.match(u) for u in want.values()), want
    for w in spec["workloads"]:
        lines = open(f"{out}/{w['name']}-t{trace}.stdout").read().strip().splitlines()
        assert len(lines) == 1, (w["name"], trace, "expected exactly one line on stdout")
        seen = []
        result = json.loads(lines[-1], object_pairs_hook=lambda kv: seen.append([k for k, _ in kv]) or dict(kv))
        assert list(result) == ["correct", "attempted", "failed", "metrics"], list(result)
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
        assert seen[-2] == list(want), (w["name"], trace, "metric names or order differ from BENCHMARK.json")
        for m, u in want.items():
            got = result["metrics"][m]
            assert list(got) == ["value", "unit"] and got["unit"] == u, (m, got)
            assert isinstance(got["value"], (int, float)), (m, got)
            if trace == 0:
                assert got["value"] > 0, (m, got)
print(f"ok: {len(spec['workloads'])} workloads, {len(spec['end_to_end'])} end-to-end and "
      f"{len(spec['per_layer'])} per-layer metrics, each emitted exactly once with its unit")
EOF
