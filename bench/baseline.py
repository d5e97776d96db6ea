"""Repeat bench/run.py over seeds and summarise the spread of every metric.

    python3 bench/baseline.py --seeds 1-10                       # print spreads
    python3 bench/baseline.py --seeds 1-10 --traced --write bench/baseline.json
    python3 bench/baseline.py --seeds 1-10 --compare bench/baseline.json

For each workload it runs `run.py --trace 0` once per seed, one run at a
time (and, with --traced, one `--trace 1` run on the first seed), each
measuring run_seconds from BENCHMARK.json, as run.py does by default. The spread
of a metric is the distance between the first and third quartiles of its
values (statistics.quantiles, n=4) as a share of their median; each
end-to-end metric's spread, setup_s's too, is compared with its bound in
BENCHMARK.json.
--write stores the environment, every printed value per seed with its
median, quartiles and spread, the seed spread of epoch_s and val_loss over
the first three seeds, and the traced run's per-module numbers. --compare
checks a new set of runs against a stored one: each end-to-end median may
be worse by at most its bound, and val_loss and val_acc must repeat exactly
for every seed both sets ran.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LINE = re.compile(r"^  (\S+)\s+(\S+)\s+(\S+)$")
EXACT = ("val_loss", "val_acc")


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, trace):
    """One run.py process; returns (passed, printed metrics, env line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    printed, env = {}, None
    for line in lines:
        if line.startswith("env "):
            env = line[4:]
        match = LINE.match(line)
        if match:
            printed[match.group(1)] = float(match.group(2))
    try:
        passed = proc.returncode == 0 and json.loads(lines[-1])["correct"] is True
    except (IndexError, ValueError, KeyError):
        passed = False
    if not passed:
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
    return passed, printed, env


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}


def compare(old, new, bounds, better):
    """Problems found between two sets of runs of one workload."""
    problems = []
    for name, bound in bounds.items():
        a, b = old[name]["median"], new[name]["median"]
        worse = (b - a) / a if better[name] == "lower" else (a - b) / a
        print(f"    {name}: median {a:.5g} -> {b:.5g} ({worse:+.3f} worse, bound {bound})")
        if worse > bound:
            problems.append(f"{name} median worse by {worse:.3f}")
    for name in EXACT:
        before = dict(zip(old["seeds"], old[name]["values"]))
        for seed, value in zip(new["seeds"], new[name]["values"]):
            if seed in before and before[seed] != value:
                problems.append(f"{name} differs at seed {seed}: {before[seed]!r} vs {value!r}")
    return problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--write")
    parser.add_argument("--compare")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)
    previous = json.loads(Path(args.compare).read_text()) if args.compare else None
    report = {"seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            passed, printed, env = run_once(workload, seed, 0)
            ok &= passed
            runs.append(printed)
            report["env"] = env
            print(f"{workload} seed {seed} passed={passed} "
                  + " ".join(f"{k}={printed.get(k, float('nan')):.5g}" for k in (*bounds, *EXACT)),
                  flush=True)
        summary = {"seeds": seeds}
        for name in runs[0]:
            values = [r.get(name, float("nan")) for r in runs]
            summary[name] = dict(spread(values), values=values)
        for name, bound in bounds.items():
            rel = summary[name]["spread"]
            flag = "below a third of bound" if rel < bound / 3 else (
                "within bound" if rel <= bound else "OVER BOUND")
            print(f"  {workload} {name}: median {summary[name]['median']:.5g} "
                  f"spread {rel:.3f} (bound {bound}) {flag}", flush=True)
            ok &= rel <= bound
        entry = {
            "end_to_end": summary,
            "seed_spread": {
                name: {"seeds": seeds[:3], "values": summary[name]["values"][:3]}
                for name in ("epoch_s", "val_loss")
            },
        }
        if args.traced:
            passed, printed, _ = run_once(workload, seeds[0], 1)
            ok &= passed
            entry["per_layer"] = {"seed": seeds[0], "values": printed}
        if previous and workload in previous["workloads"]:
            problems = compare(previous["workloads"][workload]["end_to_end"], summary, bounds, better)
            for problem in problems:
                print(f"  {workload} MISMATCH {problem}")
            ok &= not problems
        report["workloads"][workload] = entry
    if args.write:
        Path(args.write).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
