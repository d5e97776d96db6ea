"""Task sets, the bilevel training loop, and its ablation baselines.

One training step samples K corruption tasks from the current probability
vector, corrupts the same source minibatch once per task, takes a one-step
inner gradient descent per task, and sums the post-adaptation gradients
(first order: the inner Jacobian is treated as identity) into one outer Adam
update. After each epoch every task is scored on the validation split and
the sampling probabilities become the softmax of those losses, so harder
tasks are sampled more. The ablation baselines are the same loop with parts
switched off (see Run); with inner rate 0 a task takes one gradient.

Every task batch is a row table, the rows each task keeps of each cloud; a
step cuts its corrupted clouds from the clean ones, and the static-transform
caches hold rows, never corrupted copies.

Randomness: each run forks one seed into named substreams, in this fixed
order: "init" (parameters), "order" (batch shuffling), "tasks" (task index
draws), "transform" (dynamic transform draws; static mode draws all its rows
up front, training before validation), "validate" (validation-time transform
draws). The order is part of the reproducibility contract; new streams must
be appended.
"""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import network
from .geometry import (
    KIND_DENSITY,
    KIND_DROPPING,
    KIND_OCCLUSION,
    TransformSpec,
    transform_rows,
)

MODE_METASETS = "metasets"
MODE_NONE = "none"
MODE_AUGMENT = "augment"
MODE_NO_SOFT = "no-soft-sampling"
MODE_STATIC = "static-transform"
MODES = (MODE_METASETS, MODE_NONE, MODE_AUGMENT, MODE_NO_SOFT, MODE_STATIC)

TASK_MODE_FIXED = "paper"
TASK_MODE_STRATIFIED = "stratified"
TASK_MODES = (TASK_MODE_FIXED, TASK_MODE_STRATIFIED)

# Stock nine-task grid: three static parameters per transform kind.
FIXED_TASK_VALUES = {
    KIND_DENSITY: (1.3, 1.4, 1.6),
    KIND_DROPPING: (24.0, 36.0, 45.0),
    KIND_OCCLUSION: (0.035, 0.022, 0.017),
}

# Stratified mode draws one value per equal third of each range.
DEFAULT_TASK_RANGES = {
    KIND_DENSITY: (1.2, 1.8),
    KIND_DROPPING: (20.0, 50.0),
    KIND_OCCLUSION: (0.015, 0.04),
}

_STREAM_NAMES = ("init", "order", "tasks", "transform", "validate")


@dataclass
class TaskSet:
    """The N corruption tasks; sampling starts from uniform weights over them."""

    transforms: list

    def __post_init__(self):
        if not self.transforms:
            raise ValueError("task set needs at least one transform")

    @property
    def probabilities(self):
        """The uniform starting weights, a new array on every read."""
        return np.full(len(self.transforms), 1.0 / len(self.transforms))


def build_task_set(mode=TASK_MODE_FIXED, rng=None, ranges=None):
    """Construct the task set, uniform initial probabilities.

    "paper" uses the fixed nine-value grid above. "stratified" splits each
    kind's (t1, t2) range into three equal thirds and draws one uniform
    value per third (kind order density, dropping, occlusion; thirds low to
    high), which needs an rng.
    """
    kinds = (KIND_DENSITY, KIND_DROPPING, KIND_OCCLUSION)
    transforms = []
    if mode == TASK_MODE_FIXED:
        for kind in kinds:
            transforms.extend(TransformSpec(kind, v) for v in FIXED_TASK_VALUES[kind])
    elif mode == TASK_MODE_STRATIFIED:
        if rng is None:
            raise ValueError("stratified task construction needs an rng")
        ranges = dict(DEFAULT_TASK_RANGES, **(ranges or {}))
        for kind in kinds:
            lo, hi = ranges[kind]
            if not lo < hi:
                raise ValueError(f"bad range for {kind}: ({lo}, {hi})")
            edges = np.linspace(lo, hi, 4)
            for a, b in zip(edges[:-1], edges[1:]):
                transforms.append(TransformSpec(kind, float(rng.uniform(a, b))))
    else:
        raise ValueError(f"unknown task mode {mode!r}")
    return TaskSet(transforms)


def sample_task_indices(probabilities, k, rng):
    """Draw k task indices with replacement from a categorical distribution."""
    p = np.asarray(probabilities, dtype=np.float64)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not (p > 0.0).all() or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("probabilities must be positive and sum to 1")
    return rng.choice(len(p), size=k, replace=True, p=p / p.sum())


def update_probabilities(losses):
    """Softmax of per-task validation losses (max subtracted for stability)."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 1 or len(losses) < 2:
        raise ValueError("need at least two task losses")
    if not np.isfinite(losses).all():
        raise ValueError("task losses must be finite")
    z = np.exp(losses - losses.max())
    return z / z.sum()


@dataclass
class MetaStepResult:
    """Outer gradients plus per-task diagnostics for one training step."""

    grads: dict
    loss: float
    task_indices: np.ndarray
    task_losses: np.ndarray
    adapted_losses: np.ndarray


def _draw_rows(task_set, tasks, clouds, rng):
    """Rows each task keeps of each cloud, drawn task major, cloud minor; task None gets None."""
    return [
        None if t is None else [transform_rows(task_set.transforms[t], c, rng) for c in clouds]
        for t in tasks
    ]


def _meta_step(params, clouds, labels, indices, task_rows, eta):
    """Shared bilevel step: each task trains on the clouds cut to its rows (None: the raw batch).

    With eta 0 the adapted parameters equal params, so no second gradient is taken.
    """
    total = None
    task_losses, adapted_losses = [], []
    for rows in task_rows:
        clouds_t = clouds if rows is None else [c[r] for c, r in zip(clouds, rows)]
        loss_t, grads_t = network.loss_and_grad(params, clouds_t, labels)
        loss_a, grads_a = loss_t, grads_t
        if eta != 0.0:
            adapted = network.sgd_step(params, grads_t, eta)
            loss_a, grads_a = network.loss_and_grad(adapted, clouds_t, labels)
        task_losses.append(loss_t)
        adapted_losses.append(loss_a)
        if total is None:
            total = grads_a
        else:
            total = {key: total[key] + grads_a[key] for key in network.PARAM_KEYS}
    return MetaStepResult(
        grads=total,
        loss=float(sum(adapted_losses)),
        task_indices=indices,
        task_losses=np.array(task_losses),
        adapted_losses=np.array(adapted_losses),
    )


def meta_validate(params, task_set, clouds, labels, rng):
    """Score every task on a validation split.

    Each validation cloud is corrupted once per task with fresh dynamic
    draws (task major, cloud minor). Only the rows each task keeps are drawn;
    the network scores every task from one pass over the clean clouds.
    Returns (losses, accuracies), one entry per task.
    """
    task_rows = _draw_rows(task_set, range(len(task_set.transforms)), clouds, rng)
    return network.evaluate_tasks(params, clouds, task_rows, labels)


def _check_step(result, epoch, step):
    """Raise ValueError at the first non-finite task loss or summed outer gradient.

    The message names the epoch and step (both from 1) and the task (its
    1-based place in the task set, or "raw" for the source batch) or the parameter.
    """
    pairs = zip(result.task_indices, result.task_losses.tolist(), result.adapted_losses.tolist())
    for t, before, after in pairs:
        if not (math.isfinite(before) and math.isfinite(after)):
            task = "raw" if t is None else t + 1
            raise ValueError(
                f"epoch {epoch}, step {step}, task {task}: training loss is {before!r}"
                f" before and {after!r} after the inner step"
            )
    bad = [key for key in network.PARAM_KEYS if not np.isfinite(result.grads[key]).all()]
    if bad:
        raise ValueError(f"epoch {epoch}, step {step}: outer gradient of {bad[0]} is not finite")


def _draw_one_uniform(probabilities, k, rng):
    return [int(rng.integers(len(probabilities)))]


def _draw_raw(probabilities, k, rng):
    return [None]


# The tasks a step draws in the modes that do not draw k by weight.
_DRAWS = {MODE_NONE: _draw_raw, MODE_AUGMENT: _draw_one_uniform}


@dataclass
class TrainConfig:
    """Hyperparameters for one training run."""

    seed: int
    batch_size: int = 128
    tasks_per_step: int = 4
    eta: float = 0.0003
    beta: float = 0.001
    epsilon: float = 0.001
    max_epochs: int = 30

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for key in ("eta", "beta", "epsilon"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.tasks_per_step < 1:
            raise ValueError("tasks_per_step must be >= 1")
        if self.eta < 0.0:
            raise ValueError("eta must be >= 0")
        if not self.beta > 0.0:
            raise ValueError("beta must be > 0")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be > 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")


@dataclass
class EpochRecord:
    """One history row: per-task validation stats after one epoch."""

    epoch: int
    val_losses: np.ndarray
    val_accuracies: np.ndarray
    probabilities: np.ndarray
    train_loss: float


def _streams(seed):
    children = np.random.SeedSequence(seed).spawn(len(_STREAM_NAMES))
    return {name: np.random.default_rng(c) for name, c in zip(_STREAM_NAMES, children)}


class Run:
    """One training run's state, advanced one epoch at a time by epoch().

    All modes share one loop; the mode is read once, here, as four settings:
    the tasks a step draws (k by weight, one uniform task, or the raw
    batch), soft or frozen weights, the inner rate (0 turns the inner step
    off) and fresh or cached task rows. Fresh rows are drawn anew for every
    batch and validation; cached ones are drawn once per task and cloud
    here, training before validation, and reused every epoch. The run holds
    params, adam, probabilities, step_index (outer updates so far), history
    (one EpochRecord per epoch) and converged (every per-task validation
    loss of the last epoch below config.epsilon).
    """

    def __init__(self, config, train_set, val_set, task_set, mode=MODE_METASETS):
        if mode not in MODES:
            raise ValueError(f"unknown training mode {mode!r}")
        n_tasks = len(task_set.transforms)
        if config.tasks_per_step > n_tasks:
            raise ValueError(f"tasks_per_step {config.tasks_per_step} exceeds task count {n_tasks}")
        if not train_set.items or not val_set.items:
            raise ValueError("train and validation splits must be non-empty")
        self.config, self.task_set = config, task_set
        self.train_set, self.val_set = train_set, val_set
        self.streams = _streams(config.seed)
        self.params = network.init_params(len(train_set.class_names), self.streams["init"])
        self.adam = network.init_adam(self.params)
        self.probabilities = task_set.probabilities
        self.draw = _DRAWS.get(mode, sample_task_indices)
        self.soft = mode in (MODE_METASETS, MODE_STATIC) and n_tasks >= 2
        self.eta = 0.0 if mode in (MODE_NONE, MODE_AUGMENT) else config.eta
        self.train_cache = self.val_cache = None
        if mode == MODE_STATIC:
            tasks, rng = range(n_tasks), self.streams["transform"]
            self.train_cache = _draw_rows(task_set, tasks, train_set.points_and_labels()[0], rng)
            self.val_cache = _draw_rows(task_set, tasks, val_set.points_and_labels()[0], rng)
        self.step_index, self.history, self.converged = 0, [], False

    @property
    def done(self):
        """True once the run has converged or finished config.max_epochs epochs."""
        return self.converged or len(self.history) >= self.config.max_epochs

    def epoch(self, step_callback=None):
        """Run one epoch's outer steps and its validation; return the epoch's EpochRecord.

        step_callback(step_index, params), when given, runs after every outer
        update. A task loss or an outer gradient that is not finite stops the
        epoch before its update with a ValueError naming the epoch, the step
        and the task or the parameter.
        """
        config, streams, epoch = self.config, self.streams, len(self.history) + 1
        train_clouds, train_labels = self.train_set.points_and_labels()
        order = streams["order"].permutation(len(train_clouds))
        step_losses = []
        for step, lo in enumerate(range(0, len(order), config.batch_size), start=1):
            batch = order[lo : lo + config.batch_size]
            indices = self.draw(self.probabilities, config.tasks_per_step, streams["tasks"])
            clouds, labels = [train_clouds[i] for i in batch], train_labels[batch]
            if self.train_cache is None:
                task_rows = _draw_rows(self.task_set, indices, clouds, streams["transform"])
            else:
                task_rows = [[self.train_cache[t][i] for i in batch] for t in indices]
            result = _meta_step(self.params, clouds, labels, indices, task_rows, self.eta)
            _check_step(result, epoch, step)
            self.adam, self.params = network.adam_step(
                self.adam, self.params, result.grads, config.beta
            )
            self.step_index += 1
            step_losses.append(result.loss)
            if step_callback is not None:
                step_callback(self.step_index, self.params)

        params, task_set = self.params, self.task_set
        val_clouds, val_labels = self.val_set.points_and_labels()
        if self.val_cache is None:
            scores = meta_validate(params, task_set, val_clouds, val_labels, streams["validate"])
        else:
            scores = network.evaluate_tasks(params, val_clouds, self.val_cache, val_labels)
        val_losses, val_accuracies = scores
        if self.soft:
            self.probabilities = update_probabilities(val_losses)
        record = EpochRecord(
            epoch=epoch,
            val_losses=val_losses,
            val_accuracies=val_accuracies,
            probabilities=self.probabilities.copy(),
            train_loss=float(np.mean(step_losses)),
        )
        self.history.append(record)
        self.converged = bool((val_losses < config.epsilon).all())
        return record


def train(config, train_set, val_set, task_set, mode=MODE_METASETS, step_callback=None):
    """Run one training mode to convergence or the epoch cap (see Run); return the Run."""
    run = Run(config, train_set, val_set, task_set, mode)
    while not run.done:
        run.epoch(step_callback)
    return run


def write_history_csv(path, history, n_tasks):
    """One row per epoch: epoch, N losses, N accuracies, N probabilities, train loss.

    Floats are written with repr, so identical histories give identical
    bytes.
    """
    cols = ["epoch"]
    cols += [f"val_loss_{i + 1}" for i in range(n_tasks)]
    cols += [f"val_acc_{i + 1}" for i in range(n_tasks)]
    cols += [f"p_{i + 1}" for i in range(n_tasks)]
    cols.append("train_loss")
    lines = [",".join(cols)]
    for rec in history:
        fields = [str(rec.epoch)]
        for block in (rec.val_losses, rec.val_accuracies, rec.probabilities):
            fields.extend(repr(float(v)) for v in block)
        fields.append(repr(float(rec.train_loss)))
        lines.append(",".join(fields))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def build_summary(config, mode, task_set, run):
    """Structured run summary for the summary JSON file."""
    final = run.history[-1]
    return {
        "mode": mode,
        "converged": run.converged,
        "epochs_run": len(run.history),
        "final_train_loss": final.train_loss,
        "final_val_losses": [float(v) for v in final.val_losses],
        "final_val_accuracies": [float(v) for v in final.val_accuracies],
        "final_probabilities": [float(v) for v in final.probabilities],
        "tasks": [{"kind": s.kind, "value": s.value} for s in task_set.transforms],
        "config": asdict(config),
    }


def write_summary(path, summary):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
