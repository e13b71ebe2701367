#!/usr/bin/env bash
# Calibration: run every workload 5 times at seed 1 and record, for every
# metric the binary prints, the values, their quartiles and their max/min
# spread, stamped with the git commit and the host's hardware threads.
#
#   bench/ledger/calibrate.sh OUT.json
#   bench/ledger/calibrate.sh --compare A.json B.json
#
# Runs are interleaved across workloads, so drift of the host over the
# calibration spreads over every workload alike. The second form checks that
# two calibration sets of the same code agree: for every end-to-end metric
# in BENCHMARK.json, on every workload, the medians must differ by no more
# than the metric's bound, in either direction.
set -euo pipefail
cd "$(dirname "$0")/../.."

if [[ "${1:-}" == "--compare" ]]; then
  exec python3 - "$2" "$3" <<'EOF'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
bounds = {m["name"]: m["bound"]
          for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
ok = True
for w, metrics in a["workloads"].items():
    for name, bound in bounds.items():
        ma = metrics[name]["median"]
        mb = b["workloads"][w][name]["median"]
        diff = (mb - ma) / ma
        flag = "" if abs(diff) <= bound else "  EXCEEDS BOUND"
        ok = ok and not flag
        print(f"{w:14s} {name:14s} {ma:14.6g} {mb:14.6g} "
              f"{100 * diff:+7.2f}% (bound {100 * bound:.0f}%){flag}")
sys.exit(0 if ok else 1)
EOF
fi

out=${1:?usage: calibrate.sh OUT.json | --compare A.json B.json}
runs=5
seed=1
bdir="${CARGO_TARGET_DIR:-.bench_build}/ledger"
python3 bench/ledger/run.py --workload pingpong_shm --smoke > /dev/null
raw="$bdir/calibrate-raw.jsonl"
: > "$raw"
for ((i = 1; i <= runs; i++)); do
  for w in pingpong_shm multiflow_shm stream_udp mixed_udp; do
    echo "calibrate: $w run $i/$runs" >&2
    "$bdir/bench_ledger" --workload "$w" --seed "$seed" >> "$raw"
  done
done
sha=$(git describe --always --dirty 2>/dev/null || echo unknown)
python3 - "$raw" "$out" "$sha" "$runs" "$seed" <<'EOF'
import collections, json, statistics, sys
raw, out, sha, runs, seed = sys.argv[1:6]
values = collections.defaultdict(lambda: collections.defaultdict(list))
units, hw = {}, None
for line in open(raw):
    r = json.loads(line)
    if "metric" in r:
        values[r["workload"]][r["metric"]].append(r["value"])
        units[r["metric"]] = r["unit"]
        hw = r["hw_threads"]
result = {"git_sha": sha, "hw_threads": hw, "seed": int(seed),
          "runs": int(runs), "workloads": {}}
for w, metrics in values.items():
    result["workloads"][w] = {}
    for m, v in metrics.items():
        q1, q2, q3 = statistics.quantiles(v, n=4)
        result["workloads"][w][m] = {
            "unit": units[m], "values": v, "median": statistics.median(v),
            "q1": q1, "q3": q3,
            "spread": max(v) / min(v) if min(v) > 0 else None}
with open(out, "w") as f:
    json.dump(result, f, indent=1)
    f.write("\n")
print(f"calibrate: wrote {out}", file=sys.stderr)
EOF
