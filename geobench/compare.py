#!/usr/bin/env python3
"""Repeat-and-compare tool for the GeoLic benchmark.

repeat: runs one workload k times (seeds seed0 .. seed0+k-1) and prints,
for every metric, its median, quartiles, sample count and spread
(interquartile range over median):

    python3 geobench/compare.py repeat --workload paper_issue --runs 10

compare: runs the benchmark of two checkouts (parent and change) in
alternating pairs, one seed per pair, parent first in even pairs, and
judges every metric on every workload by the rule below, one row per
workload:

    python3 geobench/compare.py compare --parent ../parent --change . --pairs 10

Both modes can save their runs (--out) and judge saved runs again
(evaluate --parent-results a.json --change-results b.json).

The rule:
  * gain: the change wins at least 9 in 10 of the pairs (ties count for
    neither side), and the medians differ by more than the parent's
    interquartile range;
  * regression: the change's median is worse than the parent's by more
    than the metric's bound;
  * unresolved: a bounded metric whose spread (either side) exceeds its
    bound, unless every run of the change beats every run of the parent;
  * otherwise unchanged. Per-layer metrics have no bound: they are judged
    for a gain only.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_specs(benchmark):
    """name -> {"better", "bound" (None for per-layer), "trace"}."""
    specs = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for metric in benchmark[key]:
            specs[metric["name"]] = {"better": metric["better"],
                                     "bound": metric.get("bound"),
                                     "trace": trace}
    return specs


def run_once(root, workload, seed, seconds, trace):
    """One benchmark run in checkout `root`; returns its metrics or None."""
    command = ["python3", os.path.join(root, "geobench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    result = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                            text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        print(f"# run failed: {' '.join(command)}", file=sys.stderr)
        return None
    parsed = json.loads(lines[-1])
    if not parsed["correct"]:
        print(f"# incorrect result: {' '.join(command)}", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in parsed["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def better(spec, a, b):
    """True when value a is strictly better than value b."""
    return a < b if spec["better"] == "lower" else a > b


def judge(spec, parent, change):
    """Verdict for one metric from paired runs (parent[i] vs change[i])."""
    pairs = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if better(spec, c, p))
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gap = abs(c_med - p_med)
    if (pairs > 0 and wins >= 0.9 * pairs and gap > p_q3 - p_q1
            and better(spec, c_med, p_med)):
        return "gain", wins
    bound = spec["bound"]
    if bound is None:
        return "no-gain", wins
    all_better = all(better(spec, c, p) for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved", wins
    worse_by = (c_med - p_med) if spec["better"] == "lower" else (p_med - c_med)
    if worse_by > bound * abs(p_med):
        return "regression", wins
    return "unchanged", wins


def summarize(runs):
    """runs: list of {metric: value} -> {metric: values}."""
    by_metric = {}
    for run in runs:
        for name, value in run.items():
            by_metric.setdefault(name, []).append(value)
    return by_metric


def print_repeat(workload, runs, specs):
    print(f"## {workload}: {len(runs)} runs")
    for name, values in summarize(runs).items():
        q1, median, q3 = quartiles(values)
        bound = specs.get(name, {}).get("bound")
        flag = ""
        if bound is not None:
            flag = "  OVER BOUND" if spread(values) > bound else "  ok"
        print(f"{name:32s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"n {len(values)}  spread {spread(values):.3f}"
              + (f" (bound {bound})" if bound is not None else "") + flag)


def print_compare(results, specs):
    """results: {workload: {"parent": [runs], "change": [runs]}}."""
    for workload, sides in results.items():
        parent = summarize(sides["parent"])
        change = summarize(sides["change"])
        verdicts = []
        details = []
        for name in parent:
            if name not in change or name not in specs:
                continue
            verdict, wins = judge(specs[name], parent[name], change[name])
            verdicts.append(f"{name}={verdict}")
            p_q1, p_med, p_q3 = quartiles(parent[name])
            c_q1, c_med, c_q3 = quartiles(change[name])
            details.append(
                f"    {name:32s} parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]"
                f"  change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]  wins "
                f"{wins}/{min(len(parent[name]), len(change[name]))}  "
                f"{verdict}")
        print(f"{workload}: " + " ".join(verdicts))
        print("\n".join(details))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    repeat = sub.add_parser("repeat")
    repeat.add_argument("--workload", required=True)
    repeat.add_argument("--runs", type=int, default=10)
    repeat.add_argument("--seed0", type=int, default=1)
    repeat.add_argument("--trace", type=int, default=0, choices=(0, 1))
    repeat.add_argument("--checkout", default=os.path.dirname(HERE))
    repeat.add_argument("--out")
    compare = sub.add_parser("compare")
    compare.add_argument("--parent", required=True)
    compare.add_argument("--change", required=True)
    compare.add_argument("--workloads", nargs="*")
    compare.add_argument("--pairs", type=int, default=10)
    compare.add_argument("--seed0", type=int, default=1000)
    compare.add_argument("--trace", type=int, default=0, choices=(0, 1))
    compare.add_argument("--out")
    evaluate = sub.add_parser("evaluate")
    evaluate.add_argument("--parent-results", required=True)
    evaluate.add_argument("--change-results", required=True)
    args = parser.parse_args()

    if args.mode == "repeat":
        benchmark = load_benchmark(args.checkout)
        runs = []
        for k in range(args.runs):
            run = run_once(args.checkout, args.workload, args.seed0 + k,
                           benchmark["run_seconds"], args.trace)
            if run is not None:
                runs.append(run)
        print_repeat(args.workload, runs, metric_specs(benchmark))
        if args.out:
            with open(args.out, "w") as f:
                json.dump({args.workload: runs}, f, indent=1)
        return 0 if len(runs) == args.runs else 1

    if args.mode == "compare":
        benchmark = load_benchmark(args.change)
        workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
        results = {}
        for workload in workloads:
            sides = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {}
                for side in order:
                    root = args.parent if side == "parent" else args.change
                    pair[side] = run_once(root, workload, args.seed0 + i,
                                          benchmark["run_seconds"], args.trace)
                if pair["parent"] is not None and pair["change"] is not None:
                    sides["parent"].append(pair["parent"])
                    sides["change"].append(pair["change"])
            results[workload] = sides
        print_compare(results, metric_specs(benchmark))
        if args.out:
            with open(args.out, "w") as f:
                json.dump(results, f, indent=1)
        return 0

    with open(args.parent_results) as f:
        parent = json.load(f)
    with open(args.change_results) as f:
        change = json.load(f)
    benchmark = load_benchmark(os.path.dirname(HERE))
    results = {w: {"parent": parent[w], "change": change[w]}
               for w in parent if w in change}
    print_compare(results, metric_specs(benchmark))
    return 0


if __name__ == "__main__":
    sys.exit(main())
