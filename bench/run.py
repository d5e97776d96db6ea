"""metacloud benchmark: three workloads through the public API, one command.

Run from the repository root:

    python3 bench/run.py                            # all workloads, untraced, seed 1
    python3 bench/run.py --trace 1                  # all workloads, per-module
    python3 bench/run.py --workload meta-composite --seed 3 --trace 0

--seconds is the time each workload measures; it defaults to run_seconds in
BENCHMARK.json, so the command with all workloads runs about three times that.

Each workload runs in its own process with BLAS and OpenMP pinned to one
thread. With --trace 0 the run is untraced and gives the end-to-end numbers.
With --trace 1 the first half of the budget runs untraced and the second
half traced (spans around every public function of metacloud's modules);
the traced half gives the per-module numbers, and the two halves give the
tracing overhead. Every metric is printed as "name value unit" lines; the
last line is one JSON object with the keys correct, attempted, failed and
metrics, holding the metrics BENCHMARK.json declares. The exit code is 0
only if every check passed.
"""

import os
import sys

# Before numpy is imported anywhere in this process.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
NUMPY_LOADED_BEFORE_PIN = "numpy" in sys.modules
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
WORKLOADS = ("meta-composite", "plain-clean", "cli-dense")
TRACED_MODULES = ("geometry", "network", "data", "meta", "cli")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace):
    """Names BENCHMARK.json lists for this kind of run."""
    return [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree."""
    # Stop git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=30,
        )
        if sha.returncode != 0:
            return None, None
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def blas_info(numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def os_threads():
    """Threads of this process, from /proc; None where /proc is unavailable."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def check_threads(numpy, checks):
    a = numpy.ones((256, 256))
    a @ a  # BLAS starts its worker threads on first use
    threads = os_threads()
    pinned = (
        not NUMPY_LOADED_BEFORE_PIN
        and all(os.environ.get(v) == "1" for v in THREAD_VARS)
        and threads in (None, 1)
    )
    checks.add("threads_pinned", pinned, f"{threads} OS threads after a BLAS call")
    return threads


class CountHandler(logging.Handler):
    """Counts density fallbacks that metacloud.geometry logs as warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "density transform empty" in record.getMessage():
            self.count += 1


def emit(name, value, unit):
    print(f"  {name:<42} {value} {unit}")


def run_workload(args):
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import numpy

    import metacloud
    import spans
    import workloads

    if Path(metacloud.__file__).resolve().parent != SRC / "metacloud":
        print(f"error: imported metacloud from {metacloud.__file__}, not {SRC}", file=sys.stderr)
        return 2

    checks = workloads.Checks()
    threads = check_threads(numpy, checks)
    sha, dirty = git_state()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(
        f"env python {platform.python_version()} numpy {numpy.__version__} "
        f"blas {blas_info(numpy)} nproc {os.cpu_count()} threads {threads} "
        f"git {sha or 'unknown'} dirty {'unknown' if dirty is None else dirty}"
    )

    fallbacks = CountHandler()
    logging.getLogger("metacloud.geometry").addHandler(fallbacks)

    def once(seconds, part):
        if args.workload == "cli-dense":
            work = TMP_ROOT / f"cli-dense-{os.getpid()}-{part}"
            work.mkdir(parents=True)
            work_dirs.append(work)
            return workloads.run_cli(args.seed, seconds, checks, work)
        mode = "metasets" if args.workload == "meta-composite" else "none"
        return workloads.run_training(mode, args.seed, seconds, checks)

    metrics, work_dirs = {}, []
    try:
        workloads.gradient_spot_check(args.seed, checks)
        if args.trace == 0:
            result = once(args.seconds, "untraced")
            result.verify(checks)
            metrics.update(result.metrics)
        else:
            untraced = once(args.seconds / 2, "untraced")
            untraced.verify(checks)
            modules = [importlib.import_module(f"metacloud.{name}") for name in TRACED_MODULES]
            annotators, samples = spans.make_annotators(os.path.getsize)
            tracer = spans.Tracer(modules, annotators).install()
            fallbacks.count = 0
            tracer.start()
            try:
                traced = once(args.seconds / 2, "traced")
            finally:
                tracer.stop()
                tracer.uninstall()
            traced.verify(checks)
            metrics.update(
                spans.layer_metrics(
                    tracer, samples, workloads.CLI_CLASSES, fallbacks.count, traced.nonzero_exits
                )
            )
            ratio = workloads.median(traced.cycles) / workloads.median(untraced.cycles)
            metrics["trace.overhead_ratio"] = (ratio, "ratio")
    except Exception:  # the run must still report, and fail
        traceback.print_exc()
        checks.add("workload_completed", False, "exception, see stderr")
    finally:
        for work in work_dirs:
            shutil.rmtree(work, ignore_errors=True)

    for name, ok, detail in checks.rows:
        if not ok:
            print(f"FAILED check {name}: {detail}")
    passed = checks.attempted - checks.failed
    print(f"checks {passed}/{checks.attempted} passed")
    metrics["error_rate"] = (checks.failed / checks.attempted, "ratio")
    for name, (value, unit) in metrics.items():
        emit(name, value, unit)

    keep = declared_metrics(args.trace)
    out = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
        if name in keep
    }
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": out,
    }))
    return 0 if checks.failed == 0 else 1


def run_all(args):
    """Each workload in its own process, one after another; one summary line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            last = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        correct = correct and last["correct"] and proc.returncode == 0
        attempted += last["attempted"]
        failed += last["failed"]
        for name, entry in last["metrics"].items():
            metrics[f"{workload}.{name}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "metacloud" / "__init__.py").is_file():
        print(f"error: no metacloud sources at {SRC / 'metacloud'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
