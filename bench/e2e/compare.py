#!/usr/bin/env python3
"""Compare two sets of perf_e2e results against the bounds in BENCHMARK.json.

    python3 bench/e2e/compare.py --base OLD.json [...] --new NEW.json [...]
                                 [--claim METRIC@WORKLOAD ...]

Each file is a results ledger written by run.py --record: {"host": {...},
"runs": [{"workload", "seed", "trace", "correct", "metrics", ...}]}.

For every workload x end-to-end metric it prints both sides' median and
quartiles and a verdict:
  ok          the new median is no worse than the base median by more than
              the metric's bound (or every new run beats every base run)
  regressed   worse by more than the bound
  unresolved  a side's quartile spread is wider than the bound, so the
              runs cannot tell a change that size from noise
Traced runs (--trace 1) are checked for exact counts: every count metric
below must read the same on every run of a seed, on both sides.

--claim METRIC@WORKLOAD checks a claimed gain: at least 10 base/new pairs
(paired by seed), the new side wins at least 9 in 10 pairs (ties count for
neither), and the medians differ by more than the base side's quartile
distance. Exit status 0 iff every row is ok, the counts repeat, no run
failed and every claim holds. Standard library only.
"""
import argparse
import json
import os
import statistics
import sys

EXACT_COUNTS = ("exec.ops.", "solver.tier_solves.", "dist.exchange_rounds")
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "BENCHMARK.json")


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            runs.extend(json.load(f)["runs"])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def e2e_values(runs, workload, metric):
    """(seed, value) of every plain, correct run of `workload`."""
    out = []
    for run in runs:
        if run["workload"] == workload and not run.get("trace") and run.get("correct"):
            if metric in run["metrics"]:
                out.append((run["seed"], run["metrics"][metric]["value"]))
    return out


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(base, new, metric):
    bound, direction = metric["bound"], metric["better"]
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    spread = max((b3 - b1) / bmed if bmed else 0.0, (n3 - n1) / nmed if nmed else 0.0)
    change = (nmed - bmed) / bmed if bmed else 0.0
    worse = change if direction == "lower" else -change
    if spread > bound:
        all_better = all(better(n, b, direction) for n in new for b in base)
        return ("ok" if all_better else "unresolved"), change
    return ("regressed" if worse > bound else "ok"), change


def check_counts(runs):
    """Exact counts of traced runs that differ between runs of one seed."""
    seen, bad = {}, []
    for run in runs:
        if not run.get("trace"):
            continue
        for name, m in run["metrics"].items():
            if name.startswith(EXACT_COUNTS):
                key = (run["workload"], run["seed"], name)
                seen.setdefault(key, set()).add(m["value"])
    for (workload, seed, name), values in sorted(seen.items()):
        if len(values) > 1:
            bad.append("%s seed %s %s: %s" % (workload, seed, name, sorted(values)))
    return len(seen), bad


def check_claim(base_runs, new_runs, claim, metrics):
    name, _, workload = claim.partition("@")
    metric = next((m for m in metrics if m["name"] == name), None)
    if metric is None or not workload:
        return False, "unknown claim %r (want METRIC@WORKLOAD)" % claim
    base = dict(e2e_values(base_runs, workload, name))
    new = dict(e2e_values(new_runs, workload, name))
    seeds = sorted(set(base) & set(new))
    if len(seeds) < 10:
        return False, "%s: %d pairs, need 10" % (claim, len(seeds))
    wins = sum(better(new[s], base[s], metric["better"]) for s in seeds)
    b1, bmed, b3 = quartiles(list(base.values()))
    nmed = statistics.median(list(new.values()))
    gain = (bmed - nmed) if metric["better"] == "lower" else (nmed - bmed)
    ok = wins >= 0.9 * len(seeds) and gain > (b3 - b1)
    return ok, "%s: %d/%d wins, median gain %.4g vs base quartile distance %.4g -> %s" % (
        claim, wins, len(seeds), gain, b3 - b1, "met" if ok else "not met")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    parser.add_argument("--claim", action="append", default=[])
    args = parser.parse_args()

    with open(args.benchmark, encoding="utf-8") as f:
        bench = json.load(f)
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    ok = True

    print("%-13s %-12s %27s %27s %8s %6s  %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change", "bound",
        "verdict"))
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            base = [v for _, v in e2e_values(base_runs, workload, metric["name"])]
            new = [v for _, v in e2e_values(new_runs, workload, metric["name"])]
            if not base or not new:
                print("%-13s %-12s %s" % (workload, metric["name"], "missing runs"))
                ok = False
                continue
            result, change = verdict(base, new, metric)
            ok = ok and result == "ok"
            b1, bmed, b3 = quartiles(base)
            n1, nmed, n3 = quartiles(new)
            print("%-13s %-12s %9.4g [%7.4g, %7.4g] %9.4g [%7.4g, %7.4g] %+7.1f%% %5.0f%%  %s" % (
                workload, metric["name"], bmed, b1, b3, nmed, n1, n3, 100 * change,
                100 * metric["bound"], result))

    failed = [r for r in base_runs + new_runs if not r.get("correct") or r.get("failed")]
    print("runs: %d base, %d new, %d with failed jobs" % (len(base_runs), len(new_runs),
                                                         len(failed)))
    ok = ok and not failed

    checked, bad = check_counts(base_runs + new_runs)
    if checked:
        print("exact counts: %d checked, %s" % (checked, "all repeat" if not bad else
                                                 "MISMATCH:\n  " + "\n  ".join(bad)))
        ok = ok and not bad

    for claim in args.claim:
        met, line = check_claim(base_runs, new_runs, claim, bench["end_to_end"])
        print("claim " + line)
        ok = ok and met
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
