"""Acceptance scorecard: the ten checks this project treats as done.

Each test prints one PASS/FAIL line (visible with pytest -s) and asserts the
same condition, so the pytest summary doubles as the scorecard. The desk
scale benchmarks (criteria 6 to 9) train real models and take a few minutes;
every run is seeded, so outcomes are reproducible bit for bit.
"""

import hashlib
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from metacloud import cli, data, meta, network
from metacloud.geometry import (
    TransformSpec,
    apply_transform,
    density_rows,
    drop_count,
    occlusion_rows,
    random_unit_vector,
    transform_rows,
    viewing_frame,
)

from oracles import PARAM_KEYS, fd_full, fd_naive, relative_error

# Shared benchmark scale: 96-point clouds keep every corruption meaningful
# while a full training run stays under a minute.
BENCH_POINTS = 96
BENCH_PER_CLASS = 60
BENCH_EVAL_PER_CLASS = 100
BENCH_SEEDS = (0, 1, 2)
ETA = 0.01
BETA = 0.01
TASKS_PER_STEP = 4

# Composite-target benchmark (criteria 7 and 8): harsh task ranges and a
# harsh target, with a larger training pool so the task-weighting signal
# rises above 3-seed noise.
COMPOSITE_RANGES = {"density": (1.2, 1.7), "dropping": (30.0, 65.0), "occlusion": (0.35, 0.7)}
COMPOSITE_TARGET = (0.45, 65.0)
COMPOSITE_EPOCHS = 45
COMPOSITE_BATCH = 20
COMPOSITE_PER_CLASS = 90

# Dynamic-versus-static benchmark (criterion 9): longer training at milder
# corruption, where frozen per-cloud draws are easiest to overfit.
STATIC_RANGES = {"density": (1.2, 1.6), "dropping": (20.0, 50.0), "occlusion": (0.2, 0.5)}
STATIC_TARGET = (0.3, 60.0)
STATIC_EPOCHS = 60
STATIC_BATCH = 25


def _report(criterion, ok, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}  {detail}", flush=True)


def identity_task_set():
    return meta.TaskSet([TransformSpec("identity")])


def make_bench_data(seed, points, per_class, eval_per_class):
    families = data.default_families(points=points)
    source = data.generate_synthetic_dataset(families, per_class, seed)
    train_set, val_set = data.split_train_val(source, seed)
    eval_set = data.generate_synthetic_dataset(families, eval_per_class, seed + 1000)
    return train_set, val_set, eval_set


def target_accuracy(params, eval_set, seed, cell_size, drop_percent, replicas=5):
    """Mean accuracy over fresh corruption draws of the held-out clouds."""
    accs = []
    for r in range(replicas):
        target = data.build_target_domain(
            eval_set, cell_size=cell_size, drop_percent=drop_percent, seed=seed * 17 + r
        )
        clouds, labels = target.points_and_labels()
        _, acc = network.evaluate(params, clouds, labels)
        accs.append(acc)
    return float(np.mean(accs))


# --- criterion 1: analytic gradients match finite differences ---


def test_gradients_match_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(5):
        clouds = [rng.standard_normal((5, 3)) for _ in range(3)]
        labels = rng.integers(0, 3, size=3)
        params = network.init_params(3, rng)
        fd = fd_full(params, clouds, labels, h=1e-6)
        _, grads = network.loss_and_grad(params, clouds, labels)
        for key in PARAM_KEYS:
            worst = max(worst, float(relative_error(fd[key], grads[key]).max()))
        # engine honesty: the fast column oracle agrees with plain recomputation
        for key in ("w1", "b3", "w5"):
            index = int(rng.integers(params[key].size))
            naive = fd_naive(params, clouds, labels, key, index, h=1e-6)
            assert abs(fd[key].flat[index] - naive) < 1e-7
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 10.0
    _report(1, ok, f"5 instances, worst rel err {worst:.2e} < 1e-4, {elapsed:.1f}s < 10s")
    assert ok, f"worst {worst:.3e}, elapsed {elapsed:.1f}s"


# --- criterion 2: transform laws over randomized clouds ---


def test_transform_laws_randomized():
    started = time.perf_counter()
    cases = 1000

    rng = np.random.default_rng(10)
    for i in range(cases):  # ordered-subset law, all kinds
        n = int(rng.integers(8, 80))
        pts = rng.standard_normal((n, 3))
        kind = ("density", "dropping", "occlusion")[i % 3]
        if kind == "density":
            spec = TransformSpec(kind, float(rng.uniform(1.05, 3.0)))
        elif kind == "dropping":
            spec = TransformSpec(kind, float(rng.uniform(1.0, 90.0)))
        else:
            spec = TransformSpec(kind, float(rng.uniform(0.05, 0.9)))
        rows = transform_rows(spec, pts, rng)
        assert len(rows) >= 1 and rows[0] >= 0 and rows[-1] < n
        assert (np.diff(rows) > 0).all()

    rng = np.random.default_rng(11)
    for _ in range(cases):  # exact removal count
        n = int(rng.integers(5, 400))
        while True:
            percent = float(rng.uniform(0.5, 95.0))
            if drop_count(n, percent) < n:
                break
        pts = rng.standard_normal((n, 3))
        rows = transform_rows(TransformSpec("dropping", percent), pts, rng)
        assert len(rows) == n - drop_count(n, percent)

    rng = np.random.default_rng(12)
    for _ in range(cases):  # per-cell depth minimum, lowest index on ties
        n = int(rng.integers(5, 200))
        pts = rng.standard_normal((n, 3))
        direction = random_unit_vector(rng)
        cell = float(rng.uniform(0.08, 0.9))
        rows = occlusion_rows(pts, direction, cell)
        u, w, v = viewing_frame(direction)
        a, b, c = pts @ u, pts @ w, pts @ v
        col = np.floor((a - a.min()) / cell).astype(int)
        row = np.floor((b - b.min()) / cell).astype(int)
        best = {}
        for j in range(n):
            key = (col[j], row[j])
            if key not in best or c[j] < c[best[key]]:
                best[key] = j
        assert rows.tolist() == sorted(best.values())

    rng = np.random.default_rng(13)
    for _ in range(cases):  # density edges: nearest point kept, saturated rates dropped
        n = int(rng.integers(8, 200))
        pts = rng.standard_normal((n, 3))
        anchor = random_unit_vector(rng)
        gate = float(rng.uniform(1.05, 3.0))
        kept = set(density_rows(pts, anchor, gate, rng).tolist())
        d = np.linalg.norm(pts - anchor, axis=1)
        rate = (d - d.min()) / (d.max() - d.min())
        assert int(d.argmin()) in kept
        assert not (set(np.flatnonzero(gate * rate >= 1.0).tolist()) & kept)

    elapsed = time.perf_counter() - started
    ok = elapsed < 30.0
    _report(2, ok, f"4 laws x {cases} randomized cases, 0 failures, {elapsed:.1f}s < 30s")
    assert ok, f"elapsed {elapsed:.1f}s"


# --- criterion 3: task-weight update reference triple ---


def test_probability_update_reference_triple():
    got = meta.update_probabilities(np.array([1.13, 1.20, 1.26]))
    expected = np.array([0.3114, 0.3340, 0.3546])
    err = float(np.abs(got - expected).max())
    ok = err < 1e-4
    _report(3, ok, f"softmax(1.13, 1.20, 1.26) within {err:.1e} of reference < 1e-4")
    assert ok, f"{got} vs {expected}"


# --- criterion 4: occlusion grid-size limits ---


def test_occlusion_cell_size_limits():
    rng = np.random.default_rng(4)
    for _ in range(100):  # cell wider than the cloud: one survivor
        n = int(rng.integers(20, 200))
        pts = rng.standard_normal((n, 3)) * float(rng.uniform(0.5, 3.0))
        diameter = float(
            np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)).max()
        )
        rows = occlusion_rows(pts, random_unit_vector(rng), diameter * 1.01)
        assert len(rows) == 1
    for _ in range(100):  # cell below the least in-plane separation: all survive
        n = int(rng.integers(10, 60))
        pts = rng.standard_normal((n, 3))
        direction = random_unit_vector(rng)
        u, w, _ = viewing_frame(direction)
        a, b = pts @ u, pts @ w
        sep = np.maximum(
            np.abs(a[:, None] - a[None, :]), np.abs(b[:, None] - b[None, :])
        )
        np.fill_diagonal(sep, np.inf)
        rows = occlusion_rows(pts, direction, 0.99 * float(sep.min()))
        assert len(rows) == len(pts)
    _report(4, True, "100 clouds each: wide cell keeps 1 point, narrow cell keeps all")


# --- criterion 5: single-task zero-rate run equals the plain baseline ---


def test_single_task_zero_rate_collapse():
    families = data.default_families(points=64)[:2]
    dataset = data.generate_synthetic_dataset(families, 10, seed=5)
    config = meta.TrainConfig(
        seed=7, batch_size=4, tasks_per_step=1, eta=0.0, beta=0.01,
        epsilon=1e-12, max_epochs=20,
    )

    def run(mode):
        digests = []

        def capture(step_index, params):
            blob = b"".join(params[key].tobytes() for key in PARAM_KEYS)
            digests.append(hashlib.sha256(blob).hexdigest())

        meta.train(config, dataset, dataset, identity_task_set(), mode=mode,
                   step_callback=capture)
        return digests

    meta_trace = run("metasets")
    plain_trace = run("none")
    ok = len(meta_trace) == 100 and meta_trace == plain_trace
    _report(5, ok, f"{len(meta_trace)} outer steps, parameter digests identical")
    assert ok


# --- criterion 6: accuracy degrades with dropping severity and retraining recovers ---


def drop_eval(params, eval_set, x, seed, replicas=3):
    accs = []
    for r in range(replicas):
        rng = np.random.default_rng(np.random.SeedSequence((seed, int(x), r)))
        spec = TransformSpec("dropping", float(x))
        clouds = [apply_transform(spec, item.points, rng) for item in eval_set.items]
        labels = np.array([item.label for item in eval_set.items])
        _, acc = network.evaluate(params, clouds, labels)
        accs.append(acc)
    return float(np.mean(accs))


def transformed_copy(dataset, spec, rng, replicas):
    items = [
        data.PointCloud(apply_transform(spec, item.points, rng), item.label)
        for _ in range(replicas)
        for item in dataset.items
    ]
    return data.Dataset(items, list(dataset.class_names))


def test_degradation_and_recovery_curve():
    started = time.perf_counter()
    severities = (10, 20, 30, 40, 50, 60)
    tasks = identity_task_set()
    curves, cleans, recovered = [], [], []
    for seed in BENCH_SEEDS:
        train_set, val_set, eval_set = make_bench_data(seed, 64, 60, 30)
        config = meta.TrainConfig(
            seed=seed, batch_size=25, tasks_per_step=1, eta=0.0, beta=0.01,
            epsilon=0.001, max_epochs=20,
        )
        base = meta.train(config, train_set, val_set, tasks, mode="none")
        clouds, labels = eval_set.points_and_labels()
        _, clean_acc = network.evaluate(base.params, clouds, labels)
        cleans.append(clean_acc)
        curves.append([drop_eval(base.params, eval_set, x, seed) for x in severities])

        # retrain on statically dropped replicas of the training split
        spec = TransformSpec("dropping", 60.0)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 60, 999)))
        retrain_config = meta.TrainConfig(
            seed=seed, batch_size=25, tasks_per_step=1, eta=0.0, beta=0.01,
            epsilon=0.001, max_epochs=30,
        )
        retrained = meta.train(
            retrain_config,
            transformed_copy(train_set, spec, rng, replicas=2),
            transformed_copy(val_set, spec, rng, replicas=1),
            tasks,
            mode="none",
        )
        recovered.append(drop_eval(retrained.params, eval_set, 60, seed))

    mean_curve = np.mean(curves, axis=0)
    drop = mean_curve[0] - mean_curve[-1]
    recovery_gap = float(np.mean(cleans)) - float(np.mean(recovered))
    elapsed = time.perf_counter() - started
    monotone = bool(np.all(np.diff(mean_curve) <= 0.0))
    ok = monotone and drop >= 0.15 and recovery_gap <= 0.05 and elapsed < 900.0
    _report(
        6,
        ok,
        f"curve {' '.join(f'{a:.3f}' for a in mean_curve)} monotone={monotone}, "
        f"drop {100 * drop:.1f} >= 15 pts, recovery gap {100 * recovery_gap:.1f} <= 5 pts, "
        f"{elapsed:.0f}s < 900s",
    )
    assert ok, f"curve {mean_curve}, drop {drop:.3f}, recovery gap {recovery_gap:.3f}"


# --- criteria 7 and 8: composite-target benchmark ---


def bench_inputs(seed, ranges, per_class=BENCH_PER_CLASS):
    """One seed's training, validation and held-out sets, and its stratified task set."""
    train_set, val_set, eval_set = make_bench_data(
        seed, BENCH_POINTS, per_class, BENCH_EVAL_PER_CLASS
    )
    task_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(100,)))
    tasks = meta.build_task_set("stratified", rng=task_rng, ranges=ranges)
    return train_set, val_set, eval_set, tasks


def bench_config(mode, seed, epochs, batch_size):
    return meta.TrainConfig(
        seed=seed,
        batch_size=batch_size,
        tasks_per_step=1 if mode in ("none", "augment") else TASKS_PER_STEP,
        eta=ETA,
        beta=BETA,
        epsilon=0.001,
        max_epochs=epochs,
    )


def run_benchmark_mode(mode, seed, ranges, target, epochs, batch_size,
                       per_class=BENCH_PER_CLASS):
    train_set, val_set, eval_set, tasks = bench_inputs(seed, ranges, per_class)
    config = bench_config(mode, seed, epochs, batch_size)
    started = time.perf_counter()
    result = meta.train(config, train_set, val_set, tasks, mode=mode)
    seconds = time.perf_counter() - started
    acc = target_accuracy(result.params, eval_set, seed, *target)
    return acc, seconds, result


@pytest.fixture(scope="module")
def composite_benchmark():
    runs = {}
    for mode in ("metasets", "none", "augment", "no-soft-sampling"):
        runs[mode] = [
            run_benchmark_mode(
                mode, seed, COMPOSITE_RANGES, COMPOSITE_TARGET,
                COMPOSITE_EPOCHS, COMPOSITE_BATCH, per_class=COMPOSITE_PER_CLASS,
            )
            for seed in BENCH_SEEDS
        ]
    return runs


def test_composite_target_benchmark_gaps(composite_benchmark):
    means = {
        mode: float(np.mean([acc for acc, _, _ in runs]))
        for mode, runs in composite_benchmark.items()
    }
    spent = sum(
        seconds
        for mode in ("metasets", "none", "augment")
        for _, seconds, _ in composite_benchmark[mode]
    )
    none_gap = means["metasets"] - means["none"]
    augment_gap = means["metasets"] - means["augment"]
    ok = none_gap >= 0.10 and augment_gap >= 0.02 and spent < 1800.0
    _report(
        7,
        ok,
        f"3-seed means: full {means['metasets']:.3f} vs plain {means['none']:.3f} "
        f"(+{100 * none_gap:.1f} >= 10 pts) vs random-task {means['augment']:.3f} "
        f"(+{100 * augment_gap:.1f} >= 2 pts), {spent:.0f}s < 1800s",
    )
    assert ok, f"gaps {none_gap:.3f}/{augment_gap:.3f}, {spent:.0f}s"


def test_soft_sampling_beats_frozen_weights(composite_benchmark):
    soft = float(np.mean([acc for acc, _, _ in composite_benchmark["metasets"]]))
    frozen = float(np.mean([acc for acc, _, _ in composite_benchmark["no-soft-sampling"]]))
    uniform = np.full(9, 1.0 / 9.0)
    frozen_constant = all(
        np.array_equal(record.probabilities, uniform)
        for _, _, result in composite_benchmark["no-soft-sampling"]
        for record in result.history
    )
    ok = soft >= frozen and frozen_constant
    _report(
        8,
        ok,
        f"soft {soft:.3f} >= frozen {frozen:.3f}, frozen weights constant 1/9: "
        f"{frozen_constant}",
    )
    assert ok, f"soft {soft:.3f}, frozen {frozen:.3f}, constant {frozen_constant}"


# --- criterion 9: per-iteration draws beat frozen per-cloud draws ---


@pytest.fixture(scope="module")
def static_benchmark():
    # Per seed, the two modes' runs take their epochs in turn, so host speed
    # drift loads both alike. A mode's seconds cover building its Run and all
    # its epochs, the work of one meta.train call.
    runs = {"metasets": [], "static-transform": []}
    for seed in BENCH_SEEDS:
        train_set, val_set, eval_set, tasks = bench_inputs(seed, STATIC_RANGES)
        live, seconds = {}, {}
        for mode in runs:
            config = bench_config(mode, seed, STATIC_EPOCHS, STATIC_BATCH)
            started = time.perf_counter()
            live[mode] = meta.Run(config, train_set, val_set, tasks, mode)
            seconds[mode] = time.perf_counter() - started
        while not all(run.done for run in live.values()):
            for mode, run in live.items():
                if not run.done:
                    started = time.perf_counter()
                    run.epoch()
                    seconds[mode] += time.perf_counter() - started
        for mode, run in live.items():
            acc = target_accuracy(run.params, eval_set, seed, *STATIC_TARGET)
            runs[mode].append((acc, seconds[mode], run))
    return runs


def test_dynamic_draws_beat_static_copies(static_benchmark):
    dynamic = float(np.mean([acc for acc, _, _ in static_benchmark["metasets"]]))
    static = float(np.mean([acc for acc, _, _ in static_benchmark["static-transform"]]))
    epoch_times = {
        mode: [seconds / len(result.history) for _, seconds, result in runs]
        for mode, runs in static_benchmark.items()
    }
    overhead = float(
        np.mean(epoch_times["metasets"]) / np.mean(epoch_times["static-transform"]) - 1.0
    )
    ok = dynamic > static and overhead < 0.25
    _report(
        9,
        ok,
        f"dynamic {dynamic:.3f} > static {static:.3f}, "
        f"per-epoch overhead {100 * overhead:+.1f}% < 25%",
    )
    assert ok, f"dynamic {dynamic:.3f}, static {static:.3f}, overhead {overhead:.3f}"


# --- criterion 10: repeated training runs are byte-identical ---


def test_cli_training_is_deterministic(tmp_path, child_env):
    dataset_dir = tmp_path / "clouds"
    rc = cli.main([
        "generate", "--classes", "2", "--per-class", "9", "--points", "64",
        "--seed", "3", "--out", str(dataset_dir),
    ])
    assert rc == 0
    config_path = tmp_path / "train.cfg"
    config_path.write_text(
        "mode = metasets\nseed = 11\nbatch_size = 8\ntasks_per_step = 2\n"
        "max_epochs = 2\neta = 0.005\nbeta = 0.01\n"
    )
    outputs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "metacloud", "train",
                "--manifest", str(dataset_dir / "manifest.txt"),
                "--config", str(config_path),
                "--out", str(out_dir),
            ],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append({
            name: (out_dir / name).read_bytes()
            for name in ("model.ckpt", "history.csv", "summary.json")
        })
    same = {name: outputs[0][name] == outputs[1][name] for name in outputs[0]}
    ok = all(same.values())
    _report(10, ok, f"two identical train invocations, byte-equal artifacts: {same}")
    assert ok, same
