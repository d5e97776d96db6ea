"""Run the benchmark of two source trees in alternated pairs and summarise each metric.

Each pair runs `python3 bench/run.py` once in each tree, one run at a time;
the tree that goes first switches every pair, so a drift of the host's
speed falls on both sides alike. Every metric of the runs' summary lines
(`workload.metric`) gets, per side, the median and the first and third
quartiles, and the number of pairs in which the change read lower and
higher than the parent (a tie counts for neither). `meets_lower_rule` says
whether a metric shows a gain: the change read lower in at least 9 of every
10 pairs, and its median is below the parent's by more than the parent's
interquartile range (q3 - q1). It is null (printed n/a) unless the change
tree's BENCHMARK.json says lower is better for the metric and there are at
least 10 pairs. `within_bound` says whether the change's median stays within
the metric's BENCHMARK.json bound of the parent's: for a lower-is-better
metric, at most the parent's median times (1 + bound). It is null for a
metric with no bound:

    python3 scripts/bench_pairs.py --parent OLD --change . --pairs 10 --out BENCH_N.json
    python3 scripts/bench_pairs.py --parent OLD --change . --pairs 3 --trace 1 --out traced.json

The output is rewritten after every pair, so a run that is stopped keeps
the pairs it finished. A run whose checks failed is kept and counted.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def bench_once(tree, trace):
    """The summary line of one bench/run.py run in tree, and its exit code."""
    argv = [sys.executable, "bench/run.py", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        summary = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return summary, proc.returncode


def spread(values):
    """Median and quartiles, linear between order statistics as numpy's percentile."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def declared(benchmark):
    """Each metric's entry in a parsed BENCHMARK.json, by its name after the workload."""
    return {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}


def summarise(runs, declared):
    """Per metric: each side's spread, how many pairs the change read lower or higher, the rules.

    A metric is skipped in a pair that lacks it on either side. `declared`
    maps a metric's name after its workload (`workload.name`) to its
    BENCHMARK.json entry, as declared returns it.
    """
    names = sorted(set().union(*(run[side]["metrics"] for run in runs for side in SIDES)))
    out = {}
    for name in names:
        both = [run for run in runs if all(name in run[side]["metrics"] for side in SIDES)]
        if not both:
            continue
        parent, change = ([run[side]["metrics"][name]["value"] for run in both] for side in SIDES)
        before, after = spread(parent), spread(change)
        lower = sum(c < p for p, c in zip(parent, change))
        spec = declared.get(name.split(".", 1)[-1], {})
        rule_applies = spec.get("better") == "lower" and len(both) >= 10
        bound = spec.get("bound")
        out[name] = {
            "unit": both[0]["parent"]["metrics"][name]["unit"],
            "parent": before,
            "change": after,
            "pairs": len(both),
            "change_lower": lower,
            "change_higher": sum(c > p for p, c in zip(parent, change)),
            "meets_lower_rule": (
                10 * lower >= 9 * len(both)
                and before["median"] - after["median"] > before["q3"] - before["q1"]
            ) if rule_applies else None,
            "within_bound": None if bound is None else (
                after["median"] <= before["median"] * (1 + bound) if spec["better"] == "lower"
                else after["median"] >= before["median"] * (1 - bound)
            ),
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="root of the parent tree")
    parser.add_argument("--change", required=True, help="root of the changed tree")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--note", default="", help="text kept as the output's 'what' entry")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {side: Path(getattr(args, side)).resolve() for side in SIDES}
    for side, tree in trees.items():
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"--{side} {tree} has no bench/run.py")
    metrics = declared(json.loads((trees["change"] / "BENCHMARK.json").read_text()))

    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        run = {"pair": pair + 1, "first": order[0]}
        for side in order:
            summary, code = bench_once(trees[side], args.trace)
            run[side] = dict(summary, exit=code)
            print(f"pair {pair + 1}/{args.pairs} {side}: exit {code}, "
                  f"{summary['failed']} of {summary['attempted']} checks failed", flush=True)
        runs.append(run)
        report = {
            "what": args.note,
            "command": f"python3 bench/run.py --trace {args.trace}",
            "pairs": len(runs),
            "failed_runs": {side: sum(r[side]["exit"] != 0 for r in runs) for side in SIDES},
            "metrics": summarise(runs, metrics),
            "runs": runs,
        }
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")

    for name, entry in report["metrics"].items():
        p, c, rule, within = (entry[key] for key in ("parent", "change", "meets_lower_rule",
                                                      "within_bound"))
        print(f"{name:<40} {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] -> "
              f"{c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] {entry['unit']}, "
              f"lower in {entry['change_lower']} of {entry['pairs']}, "
              f"meets lower rule: {'n/a' if rule is None else rule}, "
              f"within bound: {'n/a' if within is None else within}")
    return 0 if not any(report["failed_runs"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
