"""Unit tests for task sets, soft sampling, and the bilevel training loop."""

import numpy as np
import pytest

import metacloud.meta as meta
from metacloud.data import Dataset
from metacloud.geometry import PointCloud, TransformSpec, apply_transform, normalize_unit_ball
from metacloud.meta import (
    DEFAULT_TASK_RANGES,
    FIXED_TASK_VALUES,
    MODE_AUGMENT,
    MODE_METASETS,
    MODE_NO_SOFT,
    MODE_NONE,
    MODE_STATIC,
    MODES,
    Run,
    TaskSet,
    TrainConfig,
    build_summary,
    build_task_set,
    meta_validate,
    sample_task_indices,
    train,
    update_probabilities,
    write_history_csv,
    write_summary,
)
from metacloud.network import (
    PARAM_KEYS,
    adam_step,
    evaluate,
    init_adam,
    init_params,
    loss_and_grad,
    sgd_step,
)


def toy_dataset(seed, per_class=4, n_points=16, n_classes=3):
    """Classes are blobs stretched along different axes (survives centering)."""
    rng = np.random.default_rng(seed)
    items = []
    for label in range(n_classes):
        stretch = np.full(3, 0.2)
        stretch[label % 3] = 1.0
        for _ in range(per_class):
            pts = normalize_unit_ball(rng.standard_normal((n_points, 3)) * stretch)
            items.append(PointCloud(pts, label))
    names = [f"class{label}" for label in range(n_classes)]
    return Dataset(items=items, class_names=names)


def identity_task_set(n=1):
    return TaskSet([TransformSpec("identity") for _ in range(n)])


def quick_config(**overrides):
    base = dict(seed=0, batch_size=6, tasks_per_step=1, eta=0.01, beta=0.01, max_epochs=2)
    base.update(overrides)
    return TrainConfig(**base)


# ------------------------------------------------------------------ task sets


def test_task_set_rejects_no_tasks_and_starts_uniform():
    with pytest.raises(ValueError, match="at least one transform"):
        TaskSet([])
    ts = TaskSet([TransformSpec("identity"), TransformSpec("density", 1.4)] * 2)
    np.testing.assert_array_equal(ts.probabilities, np.full(4, 0.25))
    ts.probabilities[0] = 1.0  # a read is a copy: the starting weights stay uniform
    np.testing.assert_array_equal(ts.probabilities, np.full(4, 0.25))
    with pytest.raises(AttributeError):
        ts.probabilities = np.array([1.0, 0.0, 0.0, 0.0])


def test_fixed_task_set_layout():
    ts = build_task_set("paper")
    assert len(ts.transforms) == 9
    np.testing.assert_allclose(ts.probabilities, 1.0 / 9.0)
    kinds = [s.kind for s in ts.transforms]
    assert kinds == ["density"] * 3 + ["dropping"] * 3 + ["occlusion"] * 3
    values = [s.value for s in ts.transforms]
    assert values[:3] == list(FIXED_TASK_VALUES["density"])
    assert values[3:6] == list(FIXED_TASK_VALUES["dropping"])
    assert values[6:] == list(FIXED_TASK_VALUES["occlusion"])


def test_stratified_task_set_values_land_in_their_thirds():
    for seed in range(30):
        ts = build_task_set("stratified", rng=np.random.default_rng(seed))
        assert len(ts.transforms) == 9
        for j, spec in enumerate(ts.transforms):
            lo, hi = DEFAULT_TASK_RANGES[spec.kind]
            edges = np.linspace(lo, hi, 4)
            third = j % 3
            assert edges[third] <= spec.value <= edges[third + 1]


def test_stratified_task_set_accepts_custom_ranges():
    ts = build_task_set(
        "stratified",
        rng=np.random.default_rng(0),
        ranges={"density": (2.0, 2.3)},
    )
    for spec in ts.transforms[:3]:
        assert 2.0 <= spec.value <= 2.3
    # untouched kinds keep their defaults
    lo, hi = DEFAULT_TASK_RANGES["dropping"]
    for spec in ts.transforms[3:6]:
        assert lo <= spec.value <= hi


def test_stratified_task_set_requires_rng_and_sane_ranges():
    with pytest.raises(ValueError):
        build_task_set("stratified")
    with pytest.raises(ValueError):
        build_task_set("stratified", rng=np.random.default_rng(0), ranges={"density": (2.0, 2.0)})
    with pytest.raises(ValueError):
        build_task_set("nope")


def test_sample_task_indices_follows_distribution():
    rng = np.random.default_rng(0)
    p = np.array([0.7, 0.2, 0.1])
    draws = sample_task_indices(p, 30_000, rng)
    freq = np.bincount(draws, minlength=3) / 30_000
    np.testing.assert_allclose(freq, p, atol=0.01)
    with pytest.raises(ValueError):
        sample_task_indices(p, 0, rng)
    with pytest.raises(ValueError):
        sample_task_indices([0.5, 0.4], 1, rng)


# --------------------------------------------------------------- soft sampling


def test_update_probabilities_frozen_example():
    got = update_probabilities([1.13, 1.20, 1.26])
    np.testing.assert_allclose(got, [0.3114, 0.3340, 0.3546], atol=1e-4)


def test_update_probabilities_properties():
    rng = np.random.default_rng(1)
    for _ in range(100):
        losses = rng.uniform(0.0, 5.0, size=int(rng.integers(2, 10)))
        p = update_probabilities(losses)
        assert abs(p.sum() - 1.0) < 1e-12
        assert (p > 0.0).all()
        # harder tasks get more probability, ordering preserved
        assert (np.argsort(p) == np.argsort(losses, kind="stable")).all()
        shifted = update_probabilities(losses + 3.7)
        np.testing.assert_allclose(shifted, p, atol=1e-12)


def test_update_probabilities_rejects_bad_input():
    with pytest.raises(ValueError):
        update_probabilities([1.0])
    with pytest.raises(ValueError):
        update_probabilities([1.0, np.inf])
    with pytest.raises(ValueError):
        update_probabilities([[1.0, 2.0], [3.0, 4.0]])


# ------------------------------------------------------------------ meta step


def fresh_step(params, task_set, clouds, labels, k, eta, task_rng, transform_rng):
    """One training step with fresh rows: k tasks by weight, their rows, the bilevel step."""
    indices = sample_task_indices(task_set.probabilities, k, task_rng)
    task_rows = meta._draw_rows(task_set, indices, clouds, transform_rng)
    return meta._meta_step(params, clouds, labels, indices, task_rows, eta)


def test_meta_step_matches_manual_bilevel_computation():
    """K draws of the only task: summed gradients at the adapted parameters."""
    ds = toy_dataset(2)
    clouds, labels = ds.points_and_labels()
    params = init_params(3, np.random.default_rng(3))
    ts = identity_task_set()
    eta = 0.05
    result = fresh_step(
        params, ts, clouds, labels, k=2, eta=eta,
        task_rng=np.random.default_rng(4), transform_rng=np.random.default_rng(5),
    )
    loss_t, grads_t = loss_and_grad(params, clouds, labels)
    adapted = sgd_step(params, grads_t, eta)
    loss_a, grads_a = loss_and_grad(adapted, clouds, labels)
    np.testing.assert_array_equal(result.task_indices, [0, 0])
    np.testing.assert_allclose(result.task_losses, [loss_t, loss_t], rtol=1e-15)
    np.testing.assert_allclose(result.adapted_losses, [loss_a, loss_a], rtol=1e-15)
    assert result.loss == 2.0 * loss_a
    for key in PARAM_KEYS:
        np.testing.assert_array_equal(result.grads[key], grads_a[key] + grads_a[key])


def test_meta_step_zero_eta_reduces_to_plain_gradients():
    ds = toy_dataset(6)
    clouds, labels = ds.points_and_labels()
    params = init_params(3, np.random.default_rng(7))
    result = fresh_step(
        params, identity_task_set(), clouds, labels, k=1, eta=0.0,
        task_rng=np.random.default_rng(8), transform_rng=np.random.default_rng(9),
    )
    loss, grads = loss_and_grad(params, clouds, labels)
    assert result.loss == loss
    for key in PARAM_KEYS:
        np.testing.assert_array_equal(result.grads[key], grads[key])


def test_meta_step_inner_update_descends():
    """A small inner step lowers the per-task loss it adapted on."""
    ds = toy_dataset(10, per_class=6)
    clouds, labels = ds.points_and_labels()
    params = init_params(3, np.random.default_rng(11))
    result = fresh_step(
        params, identity_task_set(), clouds, labels, k=1, eta=0.05,
        task_rng=np.random.default_rng(12), transform_rng=np.random.default_rng(13),
    )
    assert result.adapted_losses[0] < result.task_losses[0]


def test_meta_step_corrupts_batch_once_per_sampled_task(monkeypatch):
    calls = []
    real = meta.transform_rows

    def counting(spec, points, rng):
        calls.append(spec.kind)
        return real(spec, points, rng)

    monkeypatch.setattr(meta, "transform_rows", counting)
    ds = toy_dataset(14)
    clouds, labels = ds.points_and_labels()
    params = init_params(3, np.random.default_rng(15))
    fresh_step(
        params, identity_task_set(2), clouds, labels, k=3, eta=0.01,
        task_rng=np.random.default_rng(16), transform_rng=np.random.default_rng(17),
    )
    assert len(calls) == 3 * len(clouds)


def bilevel_grads_on_copies(params, batch_for, indices, eta):
    """Summed post-adaptation gradients; batch_for(t) gives task t's copies and labels."""
    total = None
    for t in indices:
        clouds_t, labels_t = batch_for(t)
        _, grads_t = loss_and_grad(params, clouds_t, labels_t)
        _, grads_a = loss_and_grad(sgd_step(params, grads_t, eta), clouds_t, labels_t)
        total = grads_a if total is None else {k: total[k] + grads_a[k] for k in PARAM_KEYS}
    return total


def test_meta_step_equals_steps_on_apply_transform_copies():
    """Drawing rows and cutting the clouds gives the bits of apply_transform copies."""
    ds = toy_dataset(46, per_class=5, n_points=40)
    clouds, labels = ds.points_and_labels()
    ts = build_task_set("paper")
    params = init_params(3, np.random.default_rng(47))
    result = fresh_step(
        params, ts, clouds, labels, k=4, eta=0.05,
        task_rng=np.random.default_rng(48), transform_rng=np.random.default_rng(49),
    )
    indices = sample_task_indices(ts.probabilities, 4, np.random.default_rng(48))
    draws = np.random.default_rng(49)
    want = bilevel_grads_on_copies(
        params, lambda t: ([apply_transform(ts.transforms[t], c, draws) for c in clouds], labels),
        indices, 0.05,
    )
    np.testing.assert_array_equal(result.task_indices, indices)
    for key in PARAM_KEYS:
        np.testing.assert_array_equal(result.grads[key], want[key])


def test_static_epoch_equals_steps_on_apply_transform_copies():
    """One static-transform epoch: the parameters of a loop over apply_transform copies.

    The copies are drawn once per task and cloud from the "transform" stream
    (task major, cloud minor), before any step; streams fork in the
    documented order init, order, tasks, transform, validate.
    """
    train_set, val_set = toy_dataset(50), toy_dataset(51)
    ts = build_task_set("paper")
    config = quick_config(seed=52, tasks_per_step=3, max_epochs=1)
    seen = []
    result = train(config, train_set, val_set, ts, mode=MODE_STATIC,
                   step_callback=lambda i, p: seen.append(p))

    init, order, tasks, transform, _ = (
        np.random.default_rng(c) for c in np.random.SeedSequence(52).spawn(5)
    )
    clouds, labels = train_set.points_and_labels()
    copies = [[apply_transform(spec, c, transform) for c in clouds] for spec in ts.transforms]
    params = init_params(3, init)
    adam = init_adam(params)
    perm = order.permutation(len(clouds))
    for step, lo in enumerate(range(0, len(perm), config.batch_size)):
        idx = perm[lo : lo + config.batch_size]
        indices = sample_task_indices(ts.probabilities, config.tasks_per_step, tasks)
        grads = bilevel_grads_on_copies(
            params, lambda t: ([copies[t][i] for i in idx], labels[idx]), indices, config.eta
        )
        adam, params = adam_step(adam, params, grads, config.beta)
        for key in PARAM_KEYS:
            np.testing.assert_array_equal(seen[step][key], params[key])
    assert len(seen) == step + 1
    for key in PARAM_KEYS:
        np.testing.assert_array_equal(result.params[key], params[key])


def test_meta_validate_identity_equals_plain_evaluate():
    ds = toy_dataset(18)
    clouds, labels = ds.points_and_labels()
    params = init_params(3, np.random.default_rng(19))
    losses, accs = meta_validate(
        params, identity_task_set(2), clouds, labels, np.random.default_rng(20)
    )
    loss, acc = evaluate(params, clouds, labels)
    np.testing.assert_array_equal(losses, [loss, loss])
    np.testing.assert_array_equal(accs, [acc, acc])


def test_meta_validate_equals_corrupt_then_evaluate():
    """Scoring rows of the clean clouds gives the bits of scoring corrupted copies.

    Mixed sizes totalling more than 2,048 clean rows, one cloud of 1,124
    points, an identity task and a task that leaves one point per cloud.
    """
    rng = np.random.default_rng(40)
    sizes = [int(n) for n in rng.integers(2, 200, size=30)]
    sizes.insert(7, 1124)
    clouds = [normalize_unit_ball(rng.standard_normal((n, 3))) for n in sizes]
    labels = rng.integers(0, 3, size=len(clouds))
    specs = [
        TransformSpec("identity"),
        TransformSpec("density", 1.4),
        TransformSpec("dropping", 36.0),
        TransformSpec("occlusion", 0.25),
        TransformSpec("occlusion", 10.0),
    ]
    ts = TaskSet(specs)
    assert sum(sizes) > 2048
    for seed in (41, 42):
        params = init_params(3, np.random.default_rng(seed))
        losses, accs = meta_validate(params, ts, clouds, labels, np.random.default_rng(seed))
        draws = np.random.default_rng(seed)
        for t, spec in enumerate(specs):
            corrupted = [apply_transform(spec, c, draws) for c in clouds]
            if spec.value == 10.0:
                assert {len(c) for c in corrupted} == {1}
            loss, acc = evaluate(params, corrupted, labels)
            assert losses[t] == loss and accs[t] == acc, (seed, spec)


def test_static_validation_caches_rows_not_clouds(monkeypatch):
    """Static mode draws validation rows once; every epoch scores the same rows."""
    seen = []
    real = meta.network.evaluate_tasks

    def recording(params, clouds, task_rows, labels):
        seen.append(task_rows)
        return real(params, clouds, task_rows, labels)

    monkeypatch.setattr(meta.network, "evaluate_tasks", recording)
    train(quick_config(max_epochs=2), toy_dataset(43), toy_dataset(44), build_task_set("paper"),
          mode=MODE_STATIC)
    assert len(seen) == 2 and seen[0] is seen[1]


def test_meta_validate_scores_every_task():
    ds = toy_dataset(21)
    clouds, labels = ds.points_and_labels()
    params = init_params(3, np.random.default_rng(22))
    ts = build_task_set("paper")
    losses, accs = meta_validate(params, ts, clouds, labels, np.random.default_rng(23))
    assert losses.shape == accs.shape == (9,)
    assert np.isfinite(losses).all()
    assert ((accs >= 0.0) & (accs <= 1.0)).all()


# ------------------------------------------------------------------- training


def test_train_config_validation():
    quick_config()
    with pytest.raises(ValueError):
        quick_config(batch_size=0)
    with pytest.raises(ValueError):
        quick_config(tasks_per_step=0)
    with pytest.raises(ValueError):
        quick_config(eta=-0.1)
    with pytest.raises(ValueError):
        quick_config(beta=0.0)
    with pytest.raises(ValueError):
        quick_config(epsilon=0.0)
    with pytest.raises(ValueError):
        quick_config(max_epochs=0)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        quick_config(seed=-1)
    for key in ("eta", "beta", "epsilon"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"^{key} must be finite"):
                quick_config(**{key: value})
    quick_config(eta=0.0)  # zero inner step is allowed


def test_train_rejects_oversized_k_and_bad_mode():
    ds = toy_dataset(24)
    tr, va = ds, ds
    with pytest.raises(ValueError):
        train(quick_config(tasks_per_step=2), tr, va, identity_task_set(1))
    with pytest.raises(ValueError):
        train(quick_config(), tr, va, identity_task_set(1), mode="bogus")


def test_train_none_mode_learns_toy_problem():
    ds = toy_dataset(25, per_class=8)
    cfg = quick_config(max_epochs=12, beta=0.02)
    result = train(cfg, ds, ds, identity_task_set(), mode=MODE_NONE)
    clouds, labels = ds.points_and_labels()
    _, acc = evaluate(result.params, clouds, labels)
    assert acc == 1.0
    assert len(result.history) <= cfg.max_epochs
    rec = result.history[-1]
    assert rec.epoch == len(result.history)
    assert rec.val_losses.shape == (1,)


def test_train_is_seed_deterministic():
    ds = toy_dataset(26)
    ts = build_task_set("paper")
    cfg = quick_config(tasks_per_step=2, max_epochs=2)
    a = train(cfg, ds, ds, ts, mode=MODE_METASETS)
    b = train(cfg, ds, ds, ts, mode=MODE_METASETS)
    for key in PARAM_KEYS:
        np.testing.assert_array_equal(a.params[key], b.params[key])
    for ra, rb in zip(a.history, b.history):
        np.testing.assert_array_equal(ra.val_losses, rb.val_losses)
        np.testing.assert_array_equal(ra.probabilities, rb.probabilities)
    c = train(quick_config(seed=1, tasks_per_step=2, max_epochs=2), ds, ds, ts)
    assert any((c.params[k] != a.params[k]).any() for k in PARAM_KEYS)


def test_train_metasets_probabilities_track_validation_losses():
    ds = toy_dataset(27, per_class=6)
    ts = build_task_set("paper")
    cfg = quick_config(tasks_per_step=2, max_epochs=3)
    result = train(cfg, ds, ds, ts, mode=MODE_METASETS)
    for rec in result.history:
        np.testing.assert_allclose(
            rec.probabilities, update_probabilities(rec.val_losses), atol=1e-12
        )


def test_train_no_soft_sampling_keeps_uniform_probabilities():
    ds = toy_dataset(28)
    ts = build_task_set("paper")
    result = train(quick_config(tasks_per_step=2), ds, ds, ts, mode=MODE_NO_SOFT)
    for rec in result.history:
        np.testing.assert_array_equal(rec.probabilities, np.full(9, 1.0 / 9.0))


def test_train_static_mode_updates_probabilities_and_is_deterministic():
    ds = toy_dataset(29)
    ts = build_task_set("paper")
    cfg = quick_config(tasks_per_step=2, max_epochs=2)
    a = train(cfg, ds, ds, ts, mode=MODE_STATIC)
    b = train(cfg, ds, ds, ts, mode=MODE_STATIC)
    for key in PARAM_KEYS:
        np.testing.assert_array_equal(a.params[key], b.params[key])
    rec = a.history[-1]
    np.testing.assert_allclose(
        rec.probabilities, update_probabilities(rec.val_losses), atol=1e-12
    )


def test_train_augment_mode_runs():
    ds = toy_dataset(30)
    ts = build_task_set("paper")
    result = train(quick_config(max_epochs=2), ds, ds, ts, mode=MODE_AUGMENT)
    assert len(result.history) == 2
    assert np.isfinite(result.history[-1].train_loss)


def test_train_converges_early_under_loose_epsilon():
    ds = toy_dataset(31)
    cfg = quick_config(epsilon=100.0, max_epochs=10)
    result = train(cfg, ds, ds, identity_task_set(), mode=MODE_NONE)
    assert result.converged
    assert len(result.history) == 1


def test_train_step_callback_sees_every_outer_update():
    ds = toy_dataset(32, per_class=4)  # 12 items, batch 6 -> 2 steps per epoch
    seen = []
    result = train(
        quick_config(max_epochs=3),
        ds,
        ds,
        identity_task_set(),
        mode=MODE_NONE,
        step_callback=lambda i, p: seen.append(i),
    )
    assert seen == list(range(1, 3 * 2 + 1))
    assert result.adam.step == 6


def test_train_metasets_collapses_to_none_under_identity_tasks():
    """K=1, eta=0, identity-only tasks: bit-identical to the plain baseline."""
    ds = toy_dataset(33)
    cfg = quick_config(eta=0.0, max_epochs=3)
    a = train(cfg, ds, ds, identity_task_set(), mode=MODE_METASETS)
    b = train(cfg, ds, ds, identity_task_set(), mode=MODE_NONE)
    for key in PARAM_KEYS:
        np.testing.assert_array_equal(a.params[key], b.params[key])


@pytest.mark.parametrize("mode", [MODE_NONE, MODE_AUGMENT, MODE_NO_SOFT, MODE_STATIC])
def test_train_stops_at_first_non_finite_loss(mode):
    """A diverging run stops before its update instead of writing nan parameters."""
    ds = toy_dataset(45)
    cfg = quick_config(tasks_per_step=2, beta=1e200, eta=1e300 if mode == MODE_NO_SOFT else 0.01)
    steps = []
    with np.errstate(all="ignore"), pytest.raises(
        ValueError, match=r"^epoch 1, step \d+, task (raw|\d+): training loss is \S+ before and nan"
    ):
        train(cfg, ds, ds, build_task_set("paper"), mode=mode,
              step_callback=lambda i, p: steps.append(all(np.isfinite(v).all() for v in p.values())))
    assert all(steps)


@pytest.mark.parametrize("mode", MODES)
def test_epoch_stops_at_non_finite_gradient_before_the_update(monkeypatch, mode):
    """Finite losses with a nan gradient raise naming epoch, step and parameter; no update runs."""
    real_step, results, updated = meta._meta_step, [], []

    def nan_w3_gradient_at_step_2(*args):
        result = real_step(*args)
        results.append(result)
        if len(results) == 2:
            result.grads["w3"].flat[5] = np.nan
        return result

    monkeypatch.setattr(meta, "_meta_step", nan_w3_gradient_at_step_2)
    ds = toy_dataset(46)
    run = Run(quick_config(batch_size=4, tasks_per_step=2), ds, ds, build_task_set("paper"), mode)
    with pytest.raises(ValueError, match=r"^epoch 1, step 2: outer gradient of w3 is not finite$"):
        run.epoch(step_callback=lambda i, p: updated.append({k: v.copy() for k, v in p.items()}))
    for result in results:
        assert np.isfinite(result.task_losses).all() and np.isfinite(result.adapted_losses).all()
    assert run.step_index == run.adam.step == len(updated) == 1
    for key in PARAM_KEYS:
        np.testing.assert_array_equal(run.params[key], updated[0][key])


@pytest.mark.parametrize(
    "mode, eta, per_step",
    [
        (MODE_NONE, 0.01, 1),
        (MODE_AUGMENT, 0.01, 1),
        (MODE_METASETS, 0.01, 2 * 3),
        (MODE_METASETS, 0.0, 3),
        (MODE_STATIC, 0.01, 2 * 3),
    ],
)
def test_train_gradients_per_outer_step(monkeypatch, mode, eta, per_step):
    """k = 3 tasks take 2k gradients with the inner step on and k at eta 0.

    Static mode draws every task's rows of every training and validation
    cloud before step 1 and none after it.
    """
    counts = {"grads": 0, "transforms": 0}
    real_grad, real_transform = meta.network.loss_and_grad, meta.transform_rows

    def counting_grad(params, clouds, labels):
        counts["grads"] += 1
        return real_grad(params, clouds, labels)

    def counting_transform(spec, points, rng):
        counts["transforms"] += 1
        return real_transform(spec, points, rng)

    monkeypatch.setattr(meta.network, "loss_and_grad", counting_grad)
    monkeypatch.setattr(meta, "transform_rows", counting_transform)
    seen = []
    train_set, val_set = toy_dataset(36), toy_dataset(37)  # 12 items each
    train(
        quick_config(tasks_per_step=3, eta=eta, max_epochs=1),
        train_set,  # batch 6 -> 2 steps; validation runs after both
        val_set,
        build_task_set("paper"),
        mode=mode,
        step_callback=lambda i, p: seen.append(dict(counts)),
    )
    assert [c["grads"] for c in seen] == [per_step, 2 * per_step]
    if mode == MODE_NONE:
        assert [c["transforms"] for c in seen] == [0, 0]
    if mode == MODE_STATIC:
        up_front = 9 * (len(train_set.items) + len(val_set.items))
        assert [c["transforms"] for c in seen] == [up_front, up_front]
        assert counts["transforms"] == up_front


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("epsilon, epochs", [(1e-3, 3), (100.0, 1)])
def test_run_epoch_by_epoch_equals_train(mode, epsilon, epochs):
    """A Run advanced until done has train's bits; it stops at convergence or max_epochs."""
    train_set, val_set, ts = toy_dataset(53), toy_dataset(54), build_task_set("paper")
    cfg = quick_config(tasks_per_step=2, epsilon=epsilon, max_epochs=3)
    want = train(cfg, train_set, val_set, ts, mode=mode)
    run = Run(cfg, train_set, val_set, ts, mode)
    records = []
    while not run.done:
        records.append(run.epoch())
    assert len(records) == epochs and run.converged == (epochs < cfg.max_epochs)
    assert all(a is b for a, b in zip(records, run.history, strict=True))
    assert run.adam.step == run.step_index == want.adam.step
    assert (run.converged, len(run.history)) == (want.converged, len(want.history))
    for key in PARAM_KEYS:
        for got, expected in ((run.params, want.params), (run.adam.m, want.adam.m),
                              (run.adam.v, want.adam.v)):
            np.testing.assert_array_equal(got[key], expected[key])
    for got, expected in zip(run.history, want.history):
        assert (got.epoch, got.train_loss) == (expected.epoch, expected.train_loss)
        for name in ("val_losses", "val_accuracies", "probabilities"):
            np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))


# ----------------------------------------------------------------- run outputs


def test_write_history_csv_layout_and_determinism(tmp_path):
    ds = toy_dataset(34)
    ts = build_task_set("paper")
    result = train(quick_config(tasks_per_step=2, max_epochs=2), ds, ds, ts)
    p1, p2 = tmp_path / "h1.csv", tmp_path / "h2.csv"
    write_history_csv(p1, result.history, 9)
    write_history_csv(p2, result.history, 9)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert len(lines) == 1 + len(result.history)
    header = lines[0].split(",")
    assert header[0] == "epoch"
    assert header[1] == "val_loss_1"
    assert header[-1] == "train_loss"
    assert len(header) == 1 + 3 * 9 + 1
    row = lines[1].split(",")
    assert int(row[0]) == 1
    # repr round-trips exactly
    np.testing.assert_array_equal(
        np.array([float(v) for v in row[1:10]]), result.history[0].val_losses
    )


def test_summary_contents_and_write_determinism(tmp_path):
    ds = toy_dataset(35)
    ts = build_task_set("paper")
    cfg = quick_config(tasks_per_step=2, max_epochs=2)
    result = train(cfg, ds, ds, ts)
    summary = build_summary(cfg, MODE_METASETS, ts, result)
    assert summary["mode"] == MODE_METASETS
    assert summary["epochs_run"] == len(result.history)
    assert len(summary["tasks"]) == 9
    assert summary["config"]["seed"] == cfg.seed
    p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
    write_summary(p1, summary)
    write_summary(p2, summary)
    assert p1.read_bytes() == p2.read_bytes()
    import json

    loaded = json.loads(p1.read_text())
    assert loaded["final_val_losses"] == summary["final_val_losses"]
