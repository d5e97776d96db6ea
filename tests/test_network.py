"""Unit tests for the point classifier: forward, gradients, optimizers, checkpoints."""

import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metacloud import network
from metacloud.network import (
    PARAM_KEYS,
    AdamState,
    adam_step,
    evaluate,
    evaluate_tasks,
    init_adam,
    init_params,
    load_checkpoint,
    logits_batch,
    loss_and_grad,
    loss_batch,
    save_checkpoint,
    sgd_step,
)

from oracles import (
    dense_loss_and_grad,
    fd_naive,
    mini_logits,
    mini_loss,
    point_features,
    relative_error,
)


def tiny_batch(seed, n_clouds=4, n_classes=3, min_pts=5, max_pts=12):
    rng = np.random.default_rng(seed)
    clouds = [
        rng.standard_normal((int(rng.integers(min_pts, max_pts + 1)), 3))
        for _ in range(n_clouds)
    ]
    labels = rng.integers(0, n_classes, size=n_clouds)
    params = init_params(n_classes, rng)
    return params, clouds, labels


# --------------------------------------------------------------------- init


def test_init_shapes_and_scales():
    rng = np.random.default_rng(0)
    params = init_params(5, rng)
    assert tuple(params) == PARAM_KEYS
    assert params["w1"].shape == (3, 64)
    assert params["w2"].shape == (64, 128)
    assert params["w3"].shape == (128, 256)
    assert params["w4"].shape == (256, 128)
    assert params["w5"].shape == (128, 5)
    for key in ("b1", "b2", "b3", "b4", "b5"):
        assert (params[key] == 0.0).all()
    # uniform on (-a, a) has std a/sqrt(3); a = 1/sqrt(fan_in)
    for wkey, fan in (("w1", 3), ("w2", 64), ("w3", 128), ("w4", 256), ("w5", 128)):
        w = params[wkey]
        bound = 1.0 / np.sqrt(fan)
        assert np.abs(w).max() <= bound
        assert abs(w.std() - bound / np.sqrt(3.0)) < 0.2 * bound / np.sqrt(3.0)
    with pytest.raises(ValueError):
        init_params(1, rng)


def test_init_is_seed_deterministic():
    a = init_params(4, np.random.default_rng(7))
    b = init_params(4, np.random.default_rng(7))
    for key in PARAM_KEYS:
        np.testing.assert_array_equal(a[key], b[key])


# ------------------------------------------------------------------ forward


def test_forward_matches_independent_implementation():
    params, clouds, _ = tiny_batch(1)
    got = logits_batch(params, clouds)
    want = np.stack([mini_logits(params, c) for c in clouds])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(logits_batch(params, clouds[:1])[0], want[0], atol=1e-12)


def random_clouds(sizes, seed, classes):
    """Fresh parameters for classes and one standard-normal cloud per size, from seed."""
    rng = np.random.default_rng(seed)
    return rng, init_params(classes, rng), [rng.standard_normal((n, 3)) for n in sizes]


CLOUD_SIZES = st.lists(st.integers(1, 299), min_size=1, max_size=11)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(classes=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), sizes=CLOUD_SIZES)
def test_forward_invariant_to_point_order(classes, seed, sizes):
    """Shuffling each cloud's rows leaves every logit bit-equal."""
    rng, params, clouds = random_clouds(sizes, seed, classes)
    shuffled = [c[rng.permutation(len(c))] for c in clouds]
    np.testing.assert_array_equal(logits_batch(params, clouds), logits_batch(params, shuffled))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    classes=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    sizes=CLOUD_SIZES,
    extra=st.integers(1, 40),
)
def test_forward_invariant_to_point_duplication(classes, seed, sizes, extra):
    """Appending copies of a cloud's own points leaves every logit bit-equal."""
    rng, params, clouds = random_clouds(sizes, seed, classes)
    doubled = [np.concatenate([c, c[rng.integers(len(c), size=extra)]]) for c in clouds]
    np.testing.assert_array_equal(logits_batch(params, clouds), logits_batch(params, doubled))


def test_forward_chunking_transparent(monkeypatch):
    """Inference runs the per-point layers cloud by cloud and gives the same logits.

    Each call of the per-point layers sees one whole cloud, in order, and
    the head runs once, on every cloud of the call. Splitting the call
    reorders the head's accumulation, so cross-call equality is to rounding
    only; the same call is bit-repeatable.
    """
    rng = np.random.default_rng(5)
    params = init_params(3, rng)
    clouds = [rng.standard_normal((40, 3)) for _ in range(300)]
    got = logits_batch(params, clouds)
    want = np.concatenate([logits_batch(params, clouds[i : i + 10]) for i in range(0, 300, 10)])
    np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_array_equal(got, logits_batch(params, clouds))

    mixed = [rng.standard_normal((int(n), 3)) for n in rng.integers(1, 1500, size=12)]
    mixed.insert(5, rng.standard_normal((1124, 3)))
    mixed.insert(8, rng.standard_normal((1, 3)))
    seen, heads = [], []
    features, head = network._point_features, network._head

    def record_features(params, pts):
        seen.append(pts.copy())
        return features(params, pts)

    def record_head(params, pooled):
        heads.append(len(pooled))
        return head(params, pooled)

    monkeypatch.setattr(network, "_point_features", record_features)
    monkeypatch.setattr(network, "_head", record_head)
    got = logits_batch(params, mixed)
    want = np.stack([mini_logits(params, c) for c in mixed])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert len(seen) == len(mixed)
    for pts, cloud in zip(seen, mixed):
        np.testing.assert_array_equal(pts, cloud)
    assert heads == [len(mixed)]


def test_inference_rejects_bad_cloud_shapes():
    """Every inference entry point checks each cloud's shape, as training does."""
    params, clouds, labels = tiny_batch(9)
    for bad in (np.zeros((0, 3)), np.zeros((4, 2)), np.zeros(3)):
        broken = clouds[:2] + [bad] + clouds[3:]
        message = re.escape(f"bad cloud shape {bad.shape}")
        with pytest.raises(ValueError, match=message):
            loss_and_grad(params, broken, labels)
        with pytest.raises(ValueError, match=message):
            logits_batch(params, broken)
        with pytest.raises(ValueError, match=message):
            evaluate_tasks(params, broken, [[np.arange(len(c)) for c in clouds]], labels)


def test_every_entry_point_rejects_an_empty_cloud_list():
    """No clouds is one designed error on every path, never an empty result or numpy's own."""
    params = tiny_batch(9)[0]
    calls = {
        "logits_batch": lambda: logits_batch(params, []),
        "evaluate": lambda: evaluate(params, [], []),
        "loss_batch": lambda: loss_batch(params, [], []),
        "evaluate_tasks": lambda: evaluate_tasks(params, [], [[]], []),
        "loss_and_grad": lambda: loss_and_grad(params, [], []),
    }
    for call in calls.values():
        with pytest.raises(ValueError, match=r"^need at least one cloud$"):
            call()


def test_logits_are_one_head_product_over_every_cloud():
    """Inference runs the head once on the whole call's pooled rows, as training does.

    With three classes the head's last product rounds its last rows by
    their place in the product, so any split of the head into packs shows
    in the bits. The clouds total more than 2,048 rows; every cloud has two
    or more points, so the oracle's per-cloud features have the bits of
    any product.
    """
    rng = np.random.default_rng(50)
    params = init_params(3, rng)
    clouds = [rng.standard_normal((int(n), 3)) for n in rng.integers(50, 401, size=30)]
    labels = rng.integers(0, 3, size=len(clouds))
    assert sum(len(c) for c in clouds) > 2048
    pooled = np.stack([point_features(params, c).max(axis=0) for c in clouds])
    want = network._head(params, pooled)[1]
    assert logits_batch(params, clouds).tobytes() == want.tobytes()
    assert loss_batch(params, clouds, labels) == loss_and_grad(params, clouds, labels)[0]


def test_ragged_pool_matches_per_cloud_reference(monkeypatch):
    """Ragged and same-size packs pool each cloud as the per-cloud oracle does, bit for bit.

    Checked at both pools, training's (loss_and_grad) and inference's
    (logits_batch), by what reaches the head. Covers ties (repeated rows),
    features that are zero over a whole cloud and a two-point cloud, and a
    batch that training pools in chunks, ragged and same-size ones. Every
    cloud has two or more points, so every product has more than one row
    and each row gets the same bits packed or alone. Training's winners are
    the lowest rows attaining each maximum.
    """
    rng = np.random.default_rng(30)
    params = init_params(3, rng)
    ragged = [rng.standard_normal((int(n), 3)) for n in rng.integers(2, 60, size=15)]
    ragged.append(np.repeat(ragged[0][:3], 4, axis=0))
    ragged.append(rng.standard_normal((2, 3)))
    ragged.append(-np.abs(rng.standard_normal((9, 3))) * 50.0)
    same = [rng.standard_normal((12, 3)) for _ in range(5)]
    same.append(np.repeat(same[0][:3], 4, axis=0))
    same.append(-np.abs(rng.standard_normal((12, 3))) * 50.0)
    chunked = [rng.standard_normal((n, 3)) for n in (40, 300, 256, 256, 3, 600)]
    chunked.insert(2, -np.abs(rng.standard_normal((90, 3))) * 50.0)
    pooled_seen = []
    head = network._head

    def record_head(params, pooled):
        pooled_seen.append(pooled.copy())
        return head(params, pooled)

    monkeypatch.setattr(network, "_head", record_head)
    for clouds, widths in ((ragged, [None]), (same, [12]), (chunked, [None, 256, 3, 600])):
        pts, starts, chunks = network._pack(clouds)
        assert [width for _, _, width in chunks] == widths
        feats = [point_features(params, c) for c in clouds]
        want = np.stack([f.max(axis=0) for f in feats])
        assert (want == 0.0).any()
        pooled_seen.clear()
        loss_and_grad(params, clouds, np.zeros(len(clouds), dtype=int))
        logits_batch(params, clouds)
        assert len(pooled_seen) == 2
        for pooled in pooled_seen:
            np.testing.assert_array_equal(pooled, want)
        winners = np.concatenate([
            network._pool(network._point_features(params, pts[rows]), starts[cut], width)[1]
            for cut, rows, width in chunks
        ])
        for lo, f, won in zip(starts, feats, winners):
            np.testing.assert_array_equal(won - lo, (f == f.max(axis=0)).argmax(axis=0))


def test_evaluate_tasks_equals_evaluate_on_subsets():
    """Each task's logits and score are evaluate's on the row subsets, bit for bit.

    The clouds' sizes are awkward: a one-point cloud among others, and
    clouds of 1,024 rows and more.
    Tasks keep whole clouds, one row per cloud, a third of each cloud, and
    whole clouds but one row of the 40-point cloud.
    """
    rng = np.random.default_rng(32)
    params = init_params(3, rng)
    sizes = [5, 300, 1034, 1, 1024, 40, 1024, 2, 7, 3]
    clouds = [rng.standard_normal((n, 3)) for n in sizes]
    labels = rng.integers(0, 3, size=len(clouds))
    everything = [np.arange(n) for n in sizes]
    task_rows = [
        everything,
        [np.array([int(rng.integers(n))]) for n in sizes],
        [np.sort(rng.choice(n, size=max(1, n // 3), replace=False)) for n in sizes],
        everything[:5] + [np.array([17])] + everything[6:],
    ]
    logits = network._task_logits(params, clouds, task_rows)
    losses, accs = evaluate_tasks(params, clouds, task_rows, labels)
    assert losses.shape == accs.shape == (len(task_rows),)
    for t, rows in enumerate(task_rows):
        subsets = [c[r] for c, r in zip(clouds, rows)]
        np.testing.assert_array_equal(logits[t], logits_batch(params, subsets))
        loss, acc = evaluate(params, subsets, labels)
        assert losses[t] == loss and accs[t] == acc, t


def test_evaluate_tasks_holds_one_clouds_features_at_a_time():
    """Inference's traced peak is one cloud's per-point layers, not many clouds'.

    The bound is one cloud's three per-point layers, plus every task's and
    cloud's pooled features, plus 256 KB for the rest of the call.
    """
    rng = np.random.default_rng(60)
    params = init_params(3, rng)
    clouds = [rng.standard_normal((200, 3)) for _ in range(40)]
    labels = rng.integers(0, 3, size=len(clouds))
    task_rows = [[np.arange(200)] * len(clouds), [np.arange(0, 200, 2)] * len(clouds)]
    layers = 200 * sum(network.POINT_SIZES[1:]) * 8
    pooled = len(task_rows) * len(clouds) * network.POINT_SIZES[-1] * 8
    evaluate_tasks(params, clouds, task_rows, labels)
    tracemalloc.start()
    try:
        evaluate_tasks(params, clouds, task_rows, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < layers + pooled + 256 * 1024


def test_loss_and_grad_holds_one_chunks_features_at_a_time():
    """Training's traced peak is one chunk's per-point layers plus the critical rows' backward.

    The bound is one chunk's three per-point layers; plus, for at most 256
    critical rows a cloud, each row's point, its layers 1 to 3 and the
    gradients of layers 2 and 1; plus the pack, and 256 KB for the rest of
    the call. Holding every point's layers would take about 59 MB here.
    """
    rng = np.random.default_rng(61)
    params = init_params(3, rng)
    clouds = [rng.standard_normal((1024, 3)) for _ in range(16)]
    labels = rng.integers(0, 3, size=len(clouds))
    layers = network.CHUNK_ROWS * sum(network.POINT_SIZES[1:]) * 8
    critical = len(clouds) * 256 * (sum(network.POINT_SIZES) + sum(network.POINT_SIZES[1:3])) * 8
    pack = sum(c.nbytes for c in clouds)
    loss_and_grad(params, clouds, labels)
    tracemalloc.start()
    try:
        loss_and_grad(params, clouds, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < layers + critical + pack + 256 * 1024


CHUNK_BATCHES = {
    "one-point-cloud": [5, 1, 510, 1, 2],
    "cloud-over-chunk-rows": [30, 700, 2],
    "boundary-in-same-size-batch": [96] * 11,
    "same-size-run-in-ragged-batch": [20, 30, 500, 256, 256, 7, 1],
}


@pytest.mark.parametrize("sizes", CHUNK_BATCHES.values(), ids=CHUNK_BATCHES)
def test_chunk_boundaries_do_not_move_bits(monkeypatch, sizes):
    """Loss and gradients have the same bytes with one cloud a chunk and with one chunk in all.

    With CHUNK_ROWS at 1 every cloud is a chunk of its own, so a one-point
    cloud runs alone; with CHUNK_ROWS at the batch's rows one chunk holds
    the whole batch. The default cuts each batch here into several chunks.
    """
    rng, params, clouds = random_clouds(sizes, 70 + len(sizes), 3)
    labels = rng.integers(0, 3, size=len(clouds))
    assert len(network._pack(clouds)[2]) > 1
    got = []
    for rows in (1, network.CHUNK_ROWS, sum(sizes)):
        monkeypatch.setattr(network, "CHUNK_ROWS", rows)
        loss, grads = loss_and_grad(params, clouds, labels)
        got.append([loss] + [grads[key].tobytes() for key in PARAM_KEYS])
    assert got[0] == got[1] == got[2]


def test_label_count_must_match_cloud_count():
    """Every loss and score rejects a label list that is not one label per cloud."""
    params, clouds, labels = tiny_batch(8)
    rows = [[np.arange(len(c)) for c in clouds]]
    for wrong in (labels[:3], labels[:2], np.append(labels, 0)):
        message = rf"^got {len(wrong)} labels for 4 clouds$"
        with pytest.raises(ValueError, match=message):
            loss_and_grad(params, clouds, wrong)
        with pytest.raises(ValueError, match=message):
            loss_batch(params, clouds, list(wrong))
        with pytest.raises(ValueError, match=message):
            evaluate(params, clouds, wrong)
        with pytest.raises(ValueError, match=message):
            evaluate_tasks(params, clouds, rows, wrong)


def test_loss_batch_uniform_logits():
    """Zero weights give uniform softmax, so loss is log C exactly."""
    params, clouds, labels = tiny_batch(6, n_classes=5)
    zeroed = {k: np.zeros_like(v) for k, v in params.items()}
    loss = loss_batch(zeroed, clouds, labels)
    assert abs(loss - np.log(5.0)) < 1e-12


def test_loss_matches_independent_implementation():
    params, clouds, labels = tiny_batch(7)
    got = loss_batch(params, clouds, labels)
    np.testing.assert_allclose(got, mini_loss(params, clouds, labels), rtol=1e-12)


def test_evaluate_reports_loss_and_accuracy():
    params, clouds, labels = tiny_batch(8)
    loss, acc = evaluate(params, clouds, labels)
    logits = logits_batch(params, clouds)
    want_acc = float((logits.argmax(axis=1) == labels).mean())
    assert acc == want_acc
    np.testing.assert_allclose(loss, loss_batch(params, clouds, labels), rtol=1e-12)


# ---------------------------------------------------------------- gradients


def test_loss_and_grad_loss_matches_loss_batch():
    params, clouds, labels = tiny_batch(9)
    loss, grads = loss_and_grad(params, clouds, labels)
    np.testing.assert_allclose(loss, loss_batch(params, clouds, labels), rtol=1e-12)
    assert tuple(grads) == PARAM_KEYS
    for key in PARAM_KEYS:
        assert grads[key].shape == params[key].shape


def test_gradients_against_central_differences():
    """Spot-check sampled coordinates of every parameter tensor.

    Run on clouds of mixed sizes and on clouds of one size, which take the
    two pooling paths.
    """
    for params, clouds, labels in (tiny_batch(10), tiny_batch(10, min_pts=9, max_pts=9)):
        _, grads = loss_and_grad(params, clouds, labels)
        rng = np.random.default_rng(11)
        for key in PARAM_KEYS:
            flat = grads[key].ravel()
            idx = rng.choice(flat.size, size=min(6, flat.size), replace=False)
            for i in idx:
                fd = fd_naive(params, clouds, labels, key, int(i))
                assert relative_error(fd, flat[i]) < 1e-6, (len(clouds[0]), key, int(i))


def test_gradients_invariant_to_point_order():
    """Pool routing follows the winning points, not their positions."""
    params, clouds, labels = tiny_batch(12)
    rng = np.random.default_rng(12)
    shuffled = [c[rng.permutation(len(c))] for c in clouds]
    _, g_a = loss_and_grad(params, clouds, labels)
    _, g_b = loss_and_grad(params, shuffled, labels)
    for key in PARAM_KEYS:
        np.testing.assert_allclose(g_a[key], g_b[key], rtol=1e-10, atol=1e-15)


def test_grad_of_batch_is_mean_of_singles():
    for size_range in ((5, 12), (8, 8)):
        params, clouds, labels = tiny_batch(13, 5, 3, *size_range)
        _, g_all = loss_and_grad(params, clouds, labels)
        singles = [loss_and_grad(params, [c], labels[i : i + 1])[1] for i, c in enumerate(clouds)]
        for key in PARAM_KEYS:
            want = np.mean([g[key] for g in singles], axis=0)
            np.testing.assert_allclose(g_all[key], want, rtol=1e-10, atol=1e-14)


def test_same_size_pool_routes_like_deduplicated_clouds():
    """Duplicated points and an all-zero feature leave the gradients alone.

    Every cloud is padded to 9 points by repeating some of its own points,
    so the batch takes the same-size pool; the deduplicated clouds have
    sizes 5 to 8 and take the per-segment one. Feature 7 of the last layer
    is zero at every point, so every point ties for its maximum.
    """
    params, uniques, labels = tiny_batch(21, n_clouds=4, min_pts=5, max_pts=8)
    params["b3"][7] = -1e3
    rng = np.random.default_rng(22)
    padded = []
    for pts in uniques:
        extra = rng.integers(len(pts), size=9 - len(pts))
        padded.append(np.concatenate([pts, pts[extra]])[rng.permutation(9)])
    assert len({len(c) for c in uniques}) > 1
    loss_a, g_a = loss_and_grad(params, padded, labels)
    loss_b, g_b = loss_and_grad(params, uniques, labels)
    np.testing.assert_allclose(loss_a, loss_b, rtol=1e-12)
    assert (g_a["b3"][7] == 0.0) and (g_a["w3"][:, 7] == 0.0).all()
    for key in PARAM_KEYS:
        np.testing.assert_allclose(g_a[key], g_b[key], rtol=1e-10, atol=1e-15)


def test_gradients_match_dense_reference():
    """The winner-rows backward equals a dense backward over every point.

    Batches: mixed sizes; one size; a cloud whose points are all equal, so
    every feature ties and one point wins them all, in a same-size and in a
    mixed batch; every last-layer feature zero at every point of exactly one
    cloud; clouds whose second half repeats the first, so that half wins no
    feature; mixed sizes over several chunks. Each gradient agrees to 1e-12
    of its largest entry: the two sum the batch in different orders, so tiny
    entries differ more in relative terms.
    """
    batches = [tiny_batch(30), tiny_batch(31, min_pts=9, max_pts=9)]

    params, clouds, labels = tiny_batch(32, min_pts=7, max_pts=7)
    clouds[1] = np.repeat(clouds[1][:1], 7, axis=0)
    batches.append((params, clouds, labels))
    batches.append((params, [clouds[0][:4]] + clouds[1:], labels))

    params, clouds, labels = tiny_batch(33)
    highs = []
    for pts in clouds:
        h = pts
        for i in (1, 2):
            h = np.maximum(h @ params[f"w{i}"] + params[f"b{i}"], 0.0)
        highs.append((h @ params["w3"]).max(axis=0))
    lowest = np.sort(highs, axis=0)
    params["b3"] = -(lowest[0] + lowest[1]) / 2.0
    assert ((np.array(highs) + params["b3"] <= 0.0).sum(axis=0) == 1).all()
    batches.append((params, clouds, labels))

    for params, clouds, labels in (tiny_batch(34), tiny_batch(35, min_pts=6, max_pts=6)):
        batches.append((params, [np.concatenate([c, c]) for c in clouds], labels))

    batches.append(tiny_batch(36, n_clouds=12, min_pts=1, max_pts=300))
    assert len(network._pack(batches[-1][1])[2]) > 1

    for params, clouds, labels in batches:
        loss, grads = loss_and_grad(params, clouds, labels)
        want_loss, want = dense_loss_and_grad(params, clouds, labels)
        np.testing.assert_allclose(loss, want_loss, rtol=1e-12)
        for key in PARAM_KEYS:
            scale = np.abs(want[key]).max()
            assert np.abs(grads[key] - want[key]).max() <= 1e-12 * scale, key


# --------------------------------------------------------------- optimizers


def test_sgd_step_linearity():
    params, clouds, labels = tiny_batch(14)
    _, grads = loss_and_grad(params, clouds, labels)
    out = sgd_step(params, grads, 0.01)
    for key in PARAM_KEYS:
        np.testing.assert_array_equal(out[key], params[key] - 0.01 * grads[key])
    zero = sgd_step(params, grads, 0.0)
    for key in PARAM_KEYS:
        np.testing.assert_array_equal(zero[key], params[key])


def test_sgd_step_does_not_mutate_inputs():
    params, clouds, labels = tiny_batch(15)
    _, grads = loss_and_grad(params, clouds, labels)
    before = {k: v.copy() for k, v in params.items()}
    sgd_step(params, grads, 0.1)
    for key in PARAM_KEYS:
        np.testing.assert_array_equal(params[key], before[key])


def test_adam_two_steps_match_reference():
    """Hand-rolled Adam on a single scalar parameter, two updates."""
    params = {"w": np.array([1.0])}
    state = AdamState(m={"w": np.zeros(1)}, v={"w": np.zeros(1)}, step=0)
    lr = 0.1
    g1 = {"w": np.array([2.0])}
    g2 = {"w": np.array([-1.0])}

    # reference: standard bias-corrected update
    m = v = 0.0
    x = 1.0
    for t, g in ((1, 2.0), (2, -1.0)):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1 - 0.9**t)
        vh = v / (1 - 0.999**t)
        x = x - lr * mh / (np.sqrt(vh) + 1e-8)

    state, params = adam_step(state, params, g1, lr)
    state, params = adam_step(state, params, g2, lr)
    assert state.step == 2
    np.testing.assert_allclose(params["w"], [x], rtol=1e-15)


def test_optimizer_steps_match_textbook_bits_and_keep_inputs():
    """Several Adam and SGD steps on full-size parameters.

    Each step equals the textbook expressions bit for bit, and writes
    none of state.m, state.v, params or grads: callers keep those arrays.
    """
    rng = np.random.default_rng(18)
    params = init_params(5, rng)
    state = init_adam(params)
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 1e-3
    for t in range(1, 5):
        grads = {k: rng.standard_normal(v.shape) * 10.0 ** rng.integers(-6, 2) for k, v in params.items()}
        inputs = (state.m, state.v, params, grads)
        before = [{k: v.copy() for k, v in group.items()} for group in inputs]
        new_state, new_params = adam_step(state, params, grads, lr)
        stepped = sgd_step(params, grads, lr)
        for group, kept in zip(inputs, before):
            for key in PARAM_KEYS:
                np.testing.assert_array_equal(group[key], kept[key])
        assert new_state.step == t
        for key in PARAM_KEYS:
            g = grads[key]
            m = b1 * state.m[key] + (1.0 - b1) * g
            v = b2 * state.v[key] + (1.0 - b2) * g**2
            want = params[key] - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
            assert new_state.m[key].tobytes() == m.tobytes(), key
            assert new_state.v[key].tobytes() == v.tobytes(), key
            assert new_params[key].tobytes() == want.tobytes(), key
            assert stepped[key].tobytes() == (params[key] - lr * g).tobytes(), key
        state, params = new_state, new_params


def test_adam_first_step_is_signed_lr():
    """With zero state, step one moves each weight by ~lr * sign(grad)."""
    params, clouds, labels = tiny_batch(16)
    _, grads = loss_and_grad(params, clouds, labels)
    state = init_adam(params)
    _, out = adam_step(state, params, grads, 1e-3)
    key = "w5"
    delta = out[key] - params[key]
    big = np.abs(grads[key]) > 1e-6
    np.testing.assert_allclose(
        delta[big], -1e-3 * np.sign(grads[key][big]), rtol=2e-2
    )


def test_init_adam_zero_state():
    params, _, _ = tiny_batch(17)
    state = init_adam(params)
    assert state.step == 0
    for key in PARAM_KEYS:
        assert (state.m[key] == 0.0).all()
        assert (state.v[key] == 0.0).all()
        assert state.m[key].shape == params[key].shape


# -------------------------------------------------------------- checkpoints


def test_checkpoint_roundtrip(tmp_path):
    params, clouds, labels = tiny_batch(18)
    _, grads = loss_and_grad(params, clouds, labels)
    state = init_adam(params)
    state, params = adam_step(state, params, grads, 1e-3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, state, ["cone", "cube", "sphere"])
    got_params, got_state, names = load_checkpoint(path)
    assert names == ["cone", "cube", "sphere"]
    assert got_state.step == 1
    blob = path.read_bytes()
    (size,) = struct.unpack("<I", blob[4:8])
    adam = json.loads(blob[8 : 8 + size])["adam"]
    assert adam == {"step": 1, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}
    for key in PARAM_KEYS:
        np.testing.assert_array_equal(got_params[key], params[key])
        np.testing.assert_array_equal(got_state.m[key], state.m[key])
        np.testing.assert_array_equal(got_state.v[key], state.v[key])


def test_checkpoint_bytes_deterministic(tmp_path):
    params, _, _ = tiny_batch(19)
    state = init_adam(params)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, params, state, ["x", "y", "z"])
    save_checkpoint(p2, params, state, ["x", "y", "z"])
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_corruption(tmp_path):
    params, _, _ = tiny_batch(20)
    state = init_adam(params)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, state, ["a", "b", "c"])
    blob = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.ckpt"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError):
        load_checkpoint(bad_magic)

    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ValueError):
        load_checkpoint(truncated)

    (size,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8 : 8 + size])
    bad_headers = {
        "no_version": {k: v for k, v in header.items() if k != "version"},
        "no_adam": {k: v for k, v in header.items() if k != "adam"},
        "no_arrays": {k: v for k, v in header.items() if k != "arrays"},
        "no_adam_eps": dict(header, adam={k: v for k, v in header["adam"].items() if k != "eps"}),
        "missing_array": dict(header, arrays=header["arrays"][1:]),
        "version_2": dict(header, version=2),
        "not_a_dict": [header],
        "w1_transposed": dict(
            header,
            arrays=[[name, [64, 3] if name == "param/w1" else shape] for name, shape in header["arrays"]],
        ),
        "adam_v_two_classes": dict(
            header,
            arrays=[[name, [128, 2] if name == "adam_v/w5" else shape] for name, shape in header["arrays"]],
        ),
        "four_class_names": dict(header, class_names=["a", "b", "c", "d"]),
        "class_names_string": dict(header, class_names="abc"),
        "class_names_numbers": dict(header, class_names=[1, 2, 3]),
        "adam_step_string": dict(header, adam=dict(header["adam"], step="x")),
        "adam_step_negative": dict(header, adam=dict(header["adam"], step=-1)),
        "adam_step_float": dict(header, adam=dict(header["adam"], step=1.5)),
        "adam_beta1_string": dict(header, adam=dict(header["adam"], beta1="x")),
        "adam_beta1_null": dict(header, adam=dict(header["adam"], beta1=None)),
        "adam_beta1_list": dict(header, adam=dict(header["adam"], beta1=[1])),
        "adam_beta1_other": dict(header, adam=dict(header["adam"], beta1=0.8)),
        "adam_beta2_other": dict(header, adam=dict(header["adam"], beta2=0.99)),
        "adam_eps_string": dict(header, adam=dict(header["adam"], eps="x")),
        "adam_eps_null": dict(header, adam=dict(header["adam"], eps=None)),
        "adam_eps_list": dict(header, adam=dict(header["adam"], eps=[1])),
        "adam_eps_negative": dict(header, adam=dict(header["adam"], eps=-1.0)),
    }
    files = {"header_cut": b"MCC\x01\x05", "json_cut": blob[:20]}
    for name, bad in bad_headers.items():
        text = json.dumps(bad).encode()
        files[name] = blob[:4] + struct.pack("<I", len(text)) + text + blob[8 + size :]
    for name, content in files.items():
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_checkpoint(path)
    for name, array in (
        ("w1_transposed", "param/w1"),
        ("adam_v_two_classes", "adam_v/w5"),
        ("four_class_names", "param/w5"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"array {array} has shape")):
            load_checkpoint(tmp_path / f"{name}.ckpt")
