#!/usr/bin/env python3
"""A/B the ledger benchmark between two commits and write BENCH_<pr>.json.

    python3 bench/ab.py --parent REV --change REV --pr N \\
        [--pairs 10] [--pairs W=N ...] [--seed2-pairs 1] [--seconds 20] \\
        [--scratch DIR]

Each revision is `git archive`d into the scratch directory and builds its
own ledger through its own bench/ledger/run.py, in its own CARGO_TARGET_DIR,
so both sides run identical benchmark code from their own trees. For every
workload of BENCHMARK.json it runs the given number of pairs at seed 1,
then --seed2-pairs pairs at seed 2, swapping which side runs first from one
pair to the next, then three `--trace 1` pairs at seed 1 for the per-layer
rows, and one pair against the anchor commit fab1f73, where the ledger
first ran: absolute numbers drift from one day or machine to the next,
ratios to a fixed anchor much less.

The file written at the repository root holds every run, the per-pair
change/parent ratios, each side's median and quartiles, pair wins,
hw_threads and both `git describe`s. A run that is not correct or exits
non-zero keeps the last 40 lines of its standard error. The traced pairs'
per_layer rows are stored per side as the median, min and max over the
pairs, with the ratio of the medians (change/parent) and no verdict:
BENCHMARK.json gives them no bounds, and traced runs of one tree spread
too widely for one pair to tell spread from change. Each end-to-end
metric gets one verdict under BENCHMARK.json's bounds and the
rules below, the first that applies:
  failed      a run was incorrect or had failed operations
  regression  the change's median is worse than the parent's by more than
              the bound, however noisy the runs
  bimodal     a side's max/min exceeds 2: unresolved, neither pass nor fail
  unresolved  a side's spread (max/min - 1) exceeds the bound and not every
              change run beats every parent run
  gain        the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range
  flat        none of the above
A traced run that is not correct adds a failed verdict for W/per_layer.
The exit status is 1 if any verdict is failed or regression, else 2 if any
is bimodal or unresolved, else 0. Nothing under bench/ledger/ is edited.
Progress goes to standard error.
"""
import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ANCHOR = "fab1f73"
TRACED_PAIRS = 3
RUN_TIMEOUT_S = 1200
STDERR_TAIL = 40


def log(msg):
    print(f"[ab {datetime.datetime.now():%H:%M:%S}] {msg}", file=sys.stderr,
          flush=True)


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def export(rev, scratch, name):
    """Unpack `rev` into scratch/name; returns the tree's directory."""
    tree = os.path.join(scratch, name)
    if not os.path.isdir(tree):
        os.makedirs(tree)
        archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                                 check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
    return tree


class Side:
    def __init__(self, label, rev, scratch):
        self.label = label
        self.rev = git("rev-parse", rev)
        self.describe = git("describe", "--always", "--tags", rev)
        name = f"{label}-{self.rev[:12]}"
        self.tree = export(self.rev, scratch, name)
        self.target = os.path.join(scratch, "target-" + name)

    def run(self, workload, seed, seconds, smoke=False, trace=0):
        cmd = [sys.executable,
               os.path.join(self.tree, "bench", "ledger", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        if smoke:
            cmd.append("--smoke")
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        proc = subprocess.run(cmd, env=env, text=True, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        try:
            rec = json.loads(lines[-1])
        except (IndexError, ValueError):
            rec = {"correct": False, "attempted": 0, "failed": 0,
                   "metrics": {}}
        rec["side"] = self.label
        rec["seed"] = seed
        rec["exit"] = proc.returncode
        if not rec["correct"] or proc.returncode != 0:
            rec["stderr_tail"] = proc.stderr.splitlines()[-STDERR_TAIL:]
        return rec


def value(run, metric):
    return run["metrics"].get(metric, {}).get("value")


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values)}


def better(a, b, higher):
    """True if value a beats value b."""
    return a > b if higher else a < b


def verdict(spec, pairs):
    name, bound = spec["name"], spec["bound"]
    higher = spec["better"] == "higher"
    runs = [(p["parent"], p["change"]) for p in pairs]
    if any(not r["correct"] or r["failed"] for pr in runs for r in pr):
        return {"verdict": "failed"}
    par = [value(p, name) for p, _ in runs]
    chg = [value(c, name) for _, c in runs]
    if None in par or None in chg:
        return {"verdict": "failed"}
    out = {"unit": spec["unit"], "better": spec["better"], "bound": bound,
           "parent": summary(par), "change": summary(chg)}
    pm, cm = out["parent"]["median"], out["change"]["median"]
    out["median_ratio"] = cm / pm if pm else None
    out["wins"] = sum(better(c, p, higher) for p, c in zip(par, chg))
    out["losses"] = sum(better(p, c, higher) for p, c in zip(par, chg))
    out["pairs"] = len(runs)
    spread = max(max(v) / min(v) if min(v) > 0 else float("inf")
                 for v in (par, chg))
    worse_by = (1 - cm / pm if higher else cm / pm - 1) if pm else 0.0
    all_better = all(better(c, p, higher) for c in chg for p in par)
    iqr = out["parent"]["q3"] - out["parent"]["q1"]
    if worse_by > bound:
        out["verdict"] = "regression"
    elif spread > 2:
        out["verdict"] = "bimodal"
    elif spread - 1 > bound and not all_better:
        out["verdict"] = "unresolved"
    elif (out["wins"] * 10 >= 9 * len(runs) and len(runs) >= 10 and
          better(cm, pm, higher) and abs(cm - pm) > iqr):
        out["verdict"] = "gain"
    else:
        out["verdict"] = "flat"
    return out


def pair(first, second, workload, seed, seconds, trace=0):
    a = first.run(workload, seed, seconds, trace=trace)
    b = second.run(workload, seed, seconds, trace=trace)
    return {first.label: a, second.label: b}


def extent(values):
    """Median, min and max of the values that exist, or None."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def per_layer(spec, traced):
    """Each per_layer row over the traced pairs: both sides' spread and the
    ratio of their medians."""
    rows = {}
    for m in spec["per_layer"]:
        par, chg = (extent(value(p[side], m["name"]) for p in traced)
                    for side in ("parent", "change"))
        rows[m["name"]] = {"unit": m["unit"], "better": m["better"],
                           "parent": par, "change": chg,
                           "ratio": chg["median"] / par["median"]
                           if par and chg and par["median"] else None}
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--pr", required=True, type=int)
    ap.add_argument("--pairs", action="append", default=[],
                    help="seed-1 pairs: N for every workload, or W=N")
    ap.add_argument("--seed2-pairs", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--scratch", default=os.path.join(ROOT, ".bench_ab"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    npairs = dict.fromkeys(workloads, 10)
    for p in args.pairs:  # later flags override earlier ones
        w, _, n = p.rpartition("=")
        for name in [w] if w else workloads:
            npairs[name] = int(n)

    os.makedirs(args.scratch, exist_ok=True)
    parent = Side("parent", args.parent, args.scratch)
    change = Side("change", args.change, args.scratch)
    anchor = Side("anchor", ANCHOR, args.scratch)
    for side in (parent, change, anchor):
        log(f"building {side.label} ({side.describe})")
        side.run(workloads[0], 1, 1, smoke=True)

    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    out = {"pr": args.pr, "hw_threads": os.cpu_count(), "seconds": seconds,
           "started": started,
           "parent": {"rev": parent.rev, "describe": parent.describe},
           "change": {"rev": change.rev, "describe": change.describe},
           "anchor": {"rev": anchor.rev, "describe": anchor.describe},
           "workloads": {}}
    order = 0
    for w in workloads:
        seeds = [1] * npairs[w] + [2] * args.seed2_pairs
        pairs = []
        for seed in seeds:
            sides = (parent, change) if order % 2 == 0 else (change, parent)
            order += 1
            log(f"{w} seed {seed} pair {len(pairs) + 1}/{len(seeds)}, "
                f"{sides[0].label} first")
            p = pair(*sides, w, seed, seconds)
            p["seed"] = seed
            p["first"] = sides[0].label
            p["ratios"] = {
                m["name"]: (value(p["change"], m["name"]) /
                            value(p["parent"], m["name"]))
                if value(p["parent"], m["name"]) else None
                for m in spec["end_to_end"]
                if value(p["change"], m["name"]) is not None and
                value(p["parent"], m["name"]) is not None}
            pairs.append(p)
        entry = {"pairs": pairs, "metrics": {
            m["name"]: verdict(m, pairs) for m in spec["end_to_end"]}}
        for seed in (1, 2):
            sub = [p for p in pairs if p["seed"] == seed]
            if sub:
                entry[f"seed{seed}_medians"] = {
                    m["name"]: {
                        side: statistics.median(
                            value(p[side], m["name"]) for p in sub)
                        for side in ("parent", "change")}
                    for m in spec["end_to_end"]
                    if all(value(p[s], m["name"]) is not None
                           for p in sub for s in ("parent", "change"))}
        traced = []
        for _ in range(TRACED_PAIRS):
            sides = (parent, change) if order % 2 == 0 else (change, parent)
            order += 1
            log(f"{w} traced pair {len(traced) + 1}/{TRACED_PAIRS}, "
                f"{sides[0].label} first")
            t = pair(*sides, w, 1, seconds, trace=1)
            t["first"] = sides[0].label
            traced.append(t)
        entry["per_layer"] = {"pairs": traced, "rows": per_layer(spec, traced)}
        log(f"{w} anchor pair")
        a = pair(anchor, change, w, 1, seconds)
        a["ratios"] = {
            m["name"]: value(a["change"], m["name"]) /
            value(a["anchor"], m["name"])
            for m in spec["end_to_end"]
            if value(a["anchor"], m["name"]) and
            value(a["change"], m["name"]) is not None}
        entry["anchor_pair"] = a
        out["workloads"][w] = entry
        with open(os.path.join(ROOT, f"BENCH_{args.pr}.json"), "w") as f:
            json.dump(out, f, indent=1)

    out["finished"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    verdicts = {}
    for w, entry in out["workloads"].items():
        for m, v in entry["metrics"].items():
            verdicts.setdefault(v["verdict"], []).append(f"{w}/{m}")
        if not all(r["correct"] and not r["failed"]
                   for t in entry["per_layer"]["pairs"]
                   for r in t.values() if isinstance(r, dict)):
            verdicts.setdefault("failed", []).append(f"{w}/per_layer")
    out["verdicts"] = verdicts
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
    for v, items in sorted(verdicts.items()):
        print(f"{v}: {', '.join(items)}")
    log(f"wrote {path}")
    if {"failed", "regression"} & verdicts.keys():
        return 1
    return 2 if {"bimodal", "unresolved"} & verdicts.keys() else 0


if __name__ == "__main__":
    sys.exit(main())
