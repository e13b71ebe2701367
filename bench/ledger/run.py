#!/usr/bin/env python3
"""Build bench_ledger from source, run one workload, print one result line.

    python3 bench/ledger/run.py --workload W --seed N --seconds S --trace 0|1

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics named in BENCHMARK.json, measured untraced; with
--trace 1 they are its per_layer metrics, from a run that also writes a
Chrome trace next to the binary. Build output goes to standard error.
The exit code is non-zero if the build, the run or any check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "ledger")


def build(bdir):
    """Configure once, then let CMake rebuild whatever changed."""
    out = sys.stderr
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=out, stderr=out, check=True,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   stdout=out, stderr=out, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(bdir, "bench_ledger")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="1 s per workload, all checks live")
    ap.add_argument("--self-test", action="store_true",
                    help="corrupt one delivered byte; the run must fail")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (subprocess.SubprocessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    trace_path = os.path.join(
        bdir, f"trace-{args.workload}-{args.seed}.json")
    if args.trace:
        cmd += ["--trace", trace_path]
    if args.smoke:
        cmd.append("--smoke")
    if args.self_test:
        cmd.append("--self-test")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: bench_ledger timed out", file=sys.stderr)
        return 1

    metrics, summary = {}, None
    for line in proc.stdout.splitlines():
        rec = json.loads(line)
        if "metric" in rec:
            metrics[rec["metric"]] = rec
        else:
            summary = rec
    if summary is None:
        print(f"run.py: bench_ledger exited {proc.returncode} without a "
              "summary", file=sys.stderr)
        return 1

    bad = [m["name"] for m in wanted
           if metrics.get(m["name"], {}).get("unit") != m["unit"]]
    if bad:
        print(f"run.py: metrics missing or in another unit: {bad}",
              file=sys.stderr)
        return 1
    correct = summary["correct"] and proc.returncode == 0
    if args.trace:
        try:
            with open(trace_path) as f:
                correct = correct and bool(json.load(f)["traceEvents"])
        except (OSError, ValueError, KeyError) as e:
            print(f"run.py: bad trace {trace_path}: {e}", file=sys.stderr)
            correct = False

    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
