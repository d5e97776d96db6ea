"""Write every artifact of a fixed set of metacloud commands, to compare two trees.

Runs, with the sources at --src:
- `generate`: 3 classes x 12 clouds of 96 points, seed 7, into `data`, which
  the steps below read;
- `generate-5`: all 5 surface kinds x 4 clouds of 64 points, seed 9, into
  `data5`, so sphere and torus clouds are compared too;
- `train` in every mode under both task grids (`paper`, `stratified`), seed
  11, batch 8, 3 tasks per step, 3 epochs, eta 0.001, beta 0.002, plus
  `metasets` and `static-transform` at eta 0; then `eval --out` of each
  checkpoint on the generated set, and `logits.txt` beside it: the `repr`
  of every `network.logits_batch` entry on that set, whose last bits the
  loss and accuracies of `eval` can hide;
- one `transform` of each kind (`--g 1.4`, `--x 36`, `--w 0.05`, seed 3)
  over all generated clouds, and `transformed/<kind>-logits.txt` beside
  its directory: the `repr` logits of the `metasets-paper-eta0.001`
  checkpoint on the transformed clouds, read with `data.load_cloud` in
  sorted name order, so inference on clouds of mixed sizes is compared too.

Each step runs in its own interpreter with BLAS pinned to one thread and
the output directory as working directory, and its stdout and exit code go
to `<step>.log`, so runs of two source trees compare with one `diff -r`:

    python3 scripts/reference_outputs.py --src OLD/src --out /tmp/old
    python3 scripts/reference_outputs.py --src src --out /tmp/new
    diff -r /tmp/old /tmp/new
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

MODES = ("metasets", "none", "augment", "no-soft-sampling", "static-transform")
TASK_GRIDS = ("paper", "stratified")
CONFIG = "batch_size = 8\ntasks_per_step = 3\nmax_epochs = 3\nbeta = 0.002\n"
TRANSFORMS = (("density", "--g", "1.4"), ("dropping", "--x", "36"), ("occlusion", "--w", "0.05"))
# The run whose checkpoint scores the transformed clouds.
CHECKPOINT_RUN = "metasets-paper-eta0.001"
# argv: checkpoint, then a dataset directory (it holds a manifest) or a
# directory of transformed clouds, then the output file; one line of logits
# per cloud.
LOGITS = """
import sys
from pathlib import Path
from metacloud import cli, data, network
params = network.load_checkpoint(sys.argv[1])[0]
source = Path(sys.argv[2])
if (source / data.MANIFEST_NAME).is_file():
    clouds, _ = data.load_dataset(source).points_and_labels()
else:
    files = sorted(p for p in source.iterdir() if p.name != cli.PROVENANCE_NAME)
    clouds = [data.load_cloud(p).points for p in files]
with open(sys.argv[3], "w") as fh:
    for row in network.logits_batch(params, clouds).tolist():
        fh.write(" ".join(map(repr, row)) + "\\n")
"""


def python(src, out, step, argv):
    """Run `python argv` from out; stop the whole script if it fails."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=out, env=env, capture_output=True, text=True,
    )
    (out / f"{step}.log").write_text(f"exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    if proc.returncode != 0:
        sys.exit(f"{step}: exit {proc.returncode}\n{proc.stderr}")


def run(src, out, step, argv):
    """Run `python -m metacloud argv` from out; stop the whole script if it fails."""
    python(src, out, step, ["-m", "metacloud", *argv])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the src directory of the tree to run")
    parser.add_argument("--out", required=True, help="new or empty directory for the outputs")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        parser.error(f"{out} is not empty")

    run(src, out, "generate", ["generate", "--classes", "3", "--per-class", "12",
                                "--points", "96", "--seed", "7", "--out", "data"])
    run(src, out, "generate-5", ["generate", "--classes", "5", "--per-class", "4",
                                  "--points", "64", "--seed", "9", "--out", "data5"])
    for eta in ("0.001", "0"):
        (out / f"eta{eta}.cfg").write_text(f"{CONFIG}eta = {eta}\n")
    for grid in TASK_GRIDS:
        for mode in MODES:
            for eta in ("0.001", "0") if mode in ("metasets", "static-transform") else ("0.001",):
                name = f"{mode}-{grid}-eta{eta}"
                run(src, out, f"train-{name}",
                    ["train", "--manifest", "data", "--config", f"eta{eta}.cfg", "--mode", mode,
                     "--task-params", grid, "--seed", "11", "--out", f"runs/{name}"])
                run(src, out, f"eval-{name}",
                    ["eval", "--checkpoint", f"runs/{name}/model.ckpt", "--manifest", "data",
                     "--out", f"runs/{name}/eval.json"])
                python(src, out, f"logits-{name}",
                    ["-c", LOGITS, f"runs/{name}/model.ckpt", "data", f"runs/{name}/logits.txt"])
    clouds = sorted(str(p.relative_to(out)) for p in (out / "data").rglob("*.txt")
                    if p.name != "manifest.txt")
    for kind, flag, value in TRANSFORMS:
        run(src, out, f"transform-{kind}",
            ["transform", "--kind", kind, flag, value, "--seed", "3",
             "--out", f"transformed/{kind}", *clouds])
        python(src, out, f"logits-transform-{kind}",
            ["-c", LOGITS, f"runs/{CHECKPOINT_RUN}/model.ckpt", f"transformed/{kind}",
             f"transformed/{kind}-logits.txt"])
    print(f"outputs in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
