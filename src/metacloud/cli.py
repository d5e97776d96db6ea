"""Command line front end: generate, transform, train, eval.

Every stochastic command requires an explicit --seed (flag or config key);
nothing is ever seeded from the clock. Exit codes: 0 success, 2 usage
errors, 3 file parse errors (clouds, manifests, config), 4 runtime errors
(bad shapes, incompatible checkpoints, IO failures).

Seed derivation inside `train`: the dataset split consumes the root stream
of the run seed, stratified task construction consumes spawn key (100,),
and the training loop forks its own named substreams; all three are
disjoint, so one seed fixes the whole run.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import data, meta, network
from .geometry import (
    KIND_DENSITY,
    KIND_DROPPING,
    KIND_OCCLUSION,
    PointCloud,
    TransformSpec,
    apply_transform,
)

CHECKPOINT_NAME = "model.ckpt"
HISTORY_NAME = "history.csv"
SUMMARY_NAME = "summary.json"
PROVENANCE_NAME = "provenance.txt"

EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_RUNTIME = 4

# Which CLI value flag goes with which transform kind.
KIND_FLAGS = {KIND_DENSITY: "g", KIND_DROPPING: "x", KIND_OCCLUSION: "w"}

# Config file keys and the type each value parses as: every TrainConfig field,
# plus the two strings that pick the mode and the task set.
TRAIN_CONFIG_TYPES = {field.name: field.type for field in dataclasses.fields(meta.TrainConfig)}
CONFIG_TYPES = dict(TRAIN_CONFIG_TYPES, mode=str, task_params=str)
CONFIG_CHOICES = {"mode": meta.MODES, "task_params": meta.TASK_MODES}


class ConfigError(ValueError):
    """A training config file failed to parse; message carries file:line."""


def read_config(path):
    """Parse a flat key-value config file ("key = value", # comments) of UTF-8 text.

    Each key may appear once; a repeat names the line that first set it.
    """
    values, first = {}, {}
    for lineno, raw in enumerate(data._read_lines(Path(path), ConfigError), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set on line {first[key]}")
        first[key] = lineno
        try:
            values[key] = CONFIG_TYPES[key](value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
        if key in CONFIG_CHOICES and value not in CONFIG_CHOICES[key]:
            raise ConfigError(f"{path}:{lineno}: unknown {key} {value!r}")
    return values


def _seed(text):
    """argparse type of --seed: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def cmd_generate(args, parser):
    if not 2 <= args.classes <= len(data.SURFACE_KINDS):
        parser.error(f"--classes must be in [2, {len(data.SURFACE_KINDS)}]")
    if args.per_class < 1:
        parser.error("--per-class must be >= 1")
    if args.points < 64:
        parser.error("--points must be >= 64")
    families = data.default_families(points=args.points)[: args.classes]
    dataset = data.generate_synthetic_dataset(families, args.per_class, args.seed)
    manifest = data.save_dataset(dataset, args.out)
    print(
        f"wrote {len(dataset.items)} clouds "
        f"({args.classes} classes x {args.per_class}, {args.points} points) to {args.out}"
    )
    print(f"manifest: {manifest}")
    return 0


def cmd_transform(args, parser):
    flag = KIND_FLAGS[args.kind]
    given = {name: getattr(args, name) for name in ("g", "x", "w")}
    for name, value in given.items():
        if name == flag and value is None:
            parser.error(f"--kind {args.kind} needs --{flag}")
        if name != flag and value is not None:
            parser.error(f"--{name} does not apply to --kind {args.kind}")
    spec = TransformSpec(args.kind, given[flag])
    out = Path(args.out)
    # Outputs are named by the input's base name; two inputs must not share one.
    names = {}
    for src in args.files:
        name = Path(src).name
        if name in names:
            parser.error(f"{names[name]} and {src} would both be written to {out / name}")
        names[name] = src
    rng = np.random.default_rng(args.seed)
    # Transform every file before writing any, so a bad file leaves no output.
    done = []
    for src in args.files:
        cloud = data.load_cloud(src)
        try:
            transformed = apply_transform(spec, cloud.points, rng)
        except ValueError as exc:
            raise ValueError(f"{src}: {exc}") from None
        done.append((src, cloud, transformed))
    out.mkdir(parents=True, exist_ok=True)
    for src, cloud, transformed in done:
        dest = out / Path(src).name
        data.save_cloud(dest, PointCloud(transformed, cloud.label))
        print(f"{src} -> {dest} ({len(cloud.points)} -> {len(transformed)} points)")
    (out / PROVENANCE_NAME).write_text(
        f"kind={args.kind} {flag}={given[flag]} seed={args.seed}\n", encoding="utf-8"
    )
    return 0


def cmd_train(args, parser):
    file_values = read_config(args.config) if args.config else {}
    seed = args.seed if args.seed is not None else file_values.get("seed")
    if seed is None:
        parser.error("--seed is required (flag or config key)")
    mode = args.mode or file_values.get("mode", meta.MODE_METASETS)
    task_params = args.task_params or file_values.get("task_params", meta.TASK_MODE_FIXED)
    train_values = {key: file_values[key] for key in TRAIN_CONFIG_TYPES if key in file_values}
    config = meta.TrainConfig(**dict(train_values, seed=seed))

    dataset = data.load_dataset(args.manifest)
    train_set, val_set = data.split_train_val(dataset, seed)
    task_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(100,)))
    task_set = meta.build_task_set(task_params, rng=task_rng)

    run = meta.Run(config, train_set, val_set, task_set, mode)
    while not run.done:
        rec = run.epoch()
        print(f"epoch {rec.epoch}: train_loss={rec.train_loss:.4f} "
              f"val_loss_mean={rec.val_losses.mean():.4f} "
              f"val_acc_mean={rec.val_accuracies.mean():.4f}", flush=True)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    network.save_checkpoint(out / CHECKPOINT_NAME, run.params, run.adam, dataset.class_names)
    meta.write_history_csv(out / HISTORY_NAME, run.history, len(task_set.transforms))
    summary = meta.build_summary(config, mode, task_set, run)
    summary["task_params"] = task_params
    meta.write_summary(out / SUMMARY_NAME, summary)
    print(f"{'converged' if run.converged else 'not converged'} "
          f"after {len(run.history)} epochs; outputs in {out}")
    return 0


def cmd_eval(args, parser):
    params, _, class_names = network.load_checkpoint(args.checkpoint)
    dataset = data.load_dataset(args.manifest)
    if list(dataset.class_names) != list(class_names):
        raise ValueError(
            f"class names differ: checkpoint {class_names} vs dataset {dataset.class_names}"
        )
    clouds, labels = dataset.points_and_labels()
    logits = network.logits_batch(params, clouds)
    predicted = logits.argmax(axis=1)
    loss = float(network.cross_entropy(logits, labels)[0])
    per_class = {}
    print(f"{'class':<12} {'count':>5} {'accuracy':>9}")
    for idx, name in enumerate(dataset.class_names):
        mask = labels == idx
        acc = float((predicted[mask] == idx).mean())
        per_class[name] = {"count": int(mask.sum()), "accuracy": acc}
        print(f"{name:<12} {int(mask.sum()):>5} {acc:>9.4f}")
    accuracy = float((predicted == labels).mean())
    print(f"{'overall':<12} {len(labels):>5} {accuracy:>9.4f}   loss {loss:.6f}")
    if args.out:
        meta.write_summary(
            args.out,
            {
                "accuracy": accuracy,
                "loss": loss,
                "count": len(labels),
                "per_class": per_class,
            },
        )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="metacloud",
        description="Point cloud classifiers trained to survive density, cropping, "
        "and occlusion shifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic labeled dataset")
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--points", type=int, default=1024)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("transform", help="apply one corruption to cloud files")
    p.add_argument("--kind", choices=sorted(KIND_FLAGS), required=True)
    p.add_argument("--g", type=float, help="density gate (> 1)")
    p.add_argument("--x", type=float, help="drop percent in (0, 100)")
    p.add_argument("--w", type=float, help="occlusion cell size (> 0)")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("train", help="train a classifier on a dataset")
    p.add_argument("--manifest", required=True, help="dataset manifest or directory")
    p.add_argument("--config", help="flat key-value config file")
    p.add_argument("--mode", choices=meta.MODES)
    p.add_argument("--task-params", dest="task_params", choices=meta.TASK_MODES)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True, help="dataset manifest or directory")
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (data.DatasetFormatError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
