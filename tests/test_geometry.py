"""Unit tests for normalization and the corruption transforms."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from metacloud.geometry import (
    DegenerateCloudError,
    TransformSpec,
    _normalize_stack,
    apply_transform,
    density_rows,
    drop_count,
    dropping_rows,
    normalize_unit_ball,
    occlusion_rows,
    random_unit_vector,
    transform_rows,
    viewing_frame,
)

from oracles import survivor_indices


def random_cloud(rng, n=64):
    return normalize_unit_ball(rng.standard_normal((n, 3)))


# ---------------------------------------------------------------- normalize


def test_normalize_centers_and_scales():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((200, 3)) * 3.0 + np.array([5.0, -2.0, 0.5])
    out = normalize_unit_ball(pts)
    norms = np.linalg.norm(out, axis=1)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
    assert abs(norms.max() - 1.0) < 1e-9
    assert (norms <= 1.0 + 1e-12).all()


def test_normalize_idempotent():
    rng = np.random.default_rng(1)
    out = normalize_unit_ball(rng.standard_normal((50, 3)))
    again = normalize_unit_ball(out)
    np.testing.assert_allclose(again, out, atol=1e-9)


def test_normalize_invariant_to_translation_and_scale():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((80, 3))
    base = normalize_unit_ball(pts)
    moved = normalize_unit_ball(pts * 7.5 + np.array([1.0, 2.0, -3.0]))
    np.testing.assert_allclose(moved, base, atol=1e-9)


def test_normalize_rejects_degenerate():
    with pytest.raises(DegenerateCloudError):
        normalize_unit_ball(np.zeros((0, 3)))
    with pytest.raises(DegenerateCloudError):
        normalize_unit_ball(np.ones((5, 3)))
    with pytest.raises(ValueError):
        normalize_unit_ball(np.zeros((4, 2)))


def test_normalize_stack_is_normalize_per_cloud():
    """A stack normalized in one pass gives each cloud's own bits; any coincident cloud raises."""
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((7, 33, 3)) * rng.uniform(0.1, 10.0, size=(7, 1, 3))
    out = _normalize_stack(stack)
    for cloud, got in zip(stack, out):
        assert got.tobytes() == normalize_unit_ball(cloud).tobytes()
    stack[4] = 2.5
    with pytest.raises(DegenerateCloudError):
        _normalize_stack(stack)


def test_random_unit_vector_uniform():
    rng = np.random.default_rng(3)
    draws = np.array([random_unit_vector(rng) for _ in range(100_000)])
    np.testing.assert_allclose(np.linalg.norm(draws, axis=1), 1.0, atol=1e-12)
    assert (np.abs(draws.mean(axis=0)) < 0.02).all()


def assert_rows(rows, n):
    """Rows of an n-point cloud: a non-empty, strictly increasing int array in range."""
    assert rows.dtype.kind == "i" and rows.ndim == 1
    assert len(rows) >= 1 and rows[0] >= 0 and rows[-1] < n
    assert (np.diff(rows) > 0).all()


# -------------------------------------------------------------- density_rows


def test_distance_thin_subset_and_edge_laws():
    """Nearest point always survives; gate*rate >= 1 points never do."""
    rng = np.random.default_rng(4)
    for _ in range(200):
        pts = random_cloud(rng, n=48)
        anchor = random_unit_vector(rng)
        gate = rng.uniform(1.1, 2.5)
        d = np.linalg.norm(pts - anchor, axis=1)
        rate = (d - d.min()) / (d.max() - d.min())
        kept = density_rows(pts, anchor, gate, rng)
        assert_rows(kept, len(pts))
        assert int(d.argmin()) in kept
        doomed = np.where(gate * rate >= 1.0)[0]
        assert not set(doomed) & set(kept)


def test_distance_thin_survival_frequencies():
    """Empirical survival rates match 1 - min(1, gate*rate)."""
    rng = np.random.default_rng(5)
    pts = random_cloud(rng, n=30)
    anchor = np.array([0.0, 0.0, 1.0])
    gate = 1.4
    d = np.linalg.norm(pts - anchor, axis=1)
    rate = (d - d.min()) / (d.max() - d.min())
    expected = 1.0 - np.minimum(1.0, gate * rate)
    trials = 4000
    counts = np.zeros(len(pts))
    for _ in range(trials):
        counts[density_rows(pts, anchor, gate, rng)] += 1
    freq = counts / trials
    sigma = np.sqrt(expected * (1.0 - expected) / trials)
    assert (np.abs(freq - expected) < 5.0 * sigma + 1e-9).all()


def test_distance_thin_equidistant_cloud_untouched():
    rng = np.random.default_rng(6)
    anchor = np.array([0.0, 0.0, 2.0])
    pts = np.array([anchor + 0.5 * random_unit_vector(rng) for _ in range(40)])
    np.testing.assert_array_equal(density_rows(pts, anchor, 1.6, rng), np.arange(40))


def test_distance_thin_mean_survivors_decrease_with_gate():
    """Monte-Carlo: harsher gates keep strictly fewer points on average."""
    rng = np.random.default_rng(7)
    pts = random_cloud(rng, n=2048)
    anchor = random_unit_vector(np.random.default_rng(8))
    means = []
    for gate in (1.3, 1.4, 1.6):
        total = 0
        draw = np.random.default_rng(9)
        for _ in range(200):
            total += len(density_rows(pts, anchor, gate, draw))
        means.append(total / 200.0)
    assert means[0] > means[1] > means[2]


def test_distance_thin_validates_gate():
    rng = np.random.default_rng(10)
    pts = random_cloud(rng, n=8)
    with pytest.raises(ValueError):
        density_rows(pts, np.zeros(3), 1.0, rng)
    with pytest.raises(ValueError):
        density_rows(pts, np.zeros(3), np.inf, rng)
    with pytest.raises(ValueError, match="not finite"):
        density_rows(pts * 1e200, np.zeros(3), 1.4, rng)


# ------------------------------------------------------------- dropping_rows


def test_drop_count_rounds_half_up():
    assert drop_count(1000, 36.0) == 360
    assert drop_count(2048, 45.0) == 922
    assert drop_count(10, 25.0) == 3  # 2.5 rounds up
    assert drop_count(10, 24.0) == 2


def test_drop_nearest_collinear_example():
    """Ten unit-spaced points, anchor leftmost, 30% -> 3 leftmost removed."""
    pts = np.zeros((10, 3))
    pts[:, 0] = np.arange(10.0)
    np.testing.assert_array_equal(dropping_rows(pts, 0, 30.0), np.arange(3, 10))


def test_drop_nearest_count_law():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(10, 200))
        pts = random_cloud(rng, n=n)
        percent = float(rng.uniform(5.0, 90.0))
        anchor = int(rng.integers(n))
        kept = dropping_rows(pts, anchor, percent)
        assert_rows(kept, n)
        assert len(kept) == n - drop_count(n, percent)
        assert anchor not in kept  # the anchor is its own nearest point


def test_drop_nearest_tie_breaks_to_lower_index():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    kept = dropping_rows(pts, 0, 50.0)  # m = 2: anchor plus the first of the tied pair
    np.testing.assert_array_equal(kept, [2, 3])


def test_drop_nearest_rejects_bad_input():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        dropping_rows(pts, 0, 0.0)
    with pytest.raises(ValueError):
        dropping_rows(pts, 0, 100.0)
    with pytest.raises(ValueError):
        dropping_rows(pts, 5, 30.0)
    with pytest.raises(ValueError):
        dropping_rows(pts[:1], 0, 30.0)
    with pytest.raises(ValueError):
        dropping_rows(pts, 0, 99.0)  # m = 2 would empty the cloud
    with pytest.raises(ValueError, match="not finite"):
        dropping_rows(np.vstack([pts, pts + 1.0]) * 1e200, 0, 30.0)  # distances overflow


# ------------------------------------------------------------ occlusion_rows


def test_viewing_frame_is_orthonormal():
    rng = np.random.default_rng(12)
    for _ in range(200):
        u, w, v = viewing_frame(random_unit_vector(rng))
        basis = np.stack([u, w, v])
        np.testing.assert_allclose(basis @ basis.T, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(np.cross(v, u), w, atol=1e-12)


def test_viewing_frame_bits_match_np_cross():
    """The frame equals, byte for byte, one built with np.cross."""

    def reference(direction):
        v = direction / np.linalg.norm(direction)
        axis = np.zeros(3)
        axis[np.argmin(np.abs(v))] = 1.0
        u = np.cross(axis, v)
        u = u / np.linalg.norm(u)
        return u, np.cross(v, u), v

    rng = np.random.default_rng(16)
    directions = list(rng.standard_normal((2000, 3)))
    directions += [sign * np.eye(3)[i] for i in range(3) for sign in (1.0, -1.0)]
    directions += [np.full(3, 0.5), np.array([-2.0, -2.0, -2.0]), np.array([0.0, -0.0, 1.0])]
    for direction in directions:
        got, want = viewing_frame(direction), reference(direction)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want], direction


def test_self_occlude_worked_example():
    """Two depth columns: only the low-depth point of each survives."""
    pts = np.array(
        [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.0], [0.5, 0.0, 1.0]]
    )
    np.testing.assert_array_equal(occlusion_rows(pts, np.array([0.0, 0.0, -1.0]), 0.3), [1, 3])


def test_self_occlude_huge_cell_keeps_one_point():
    rng = np.random.default_rng(13)
    pts = random_cloud(rng, n=100)
    direction = random_unit_vector(rng)
    kept = occlusion_rows(pts, direction, 10.0)
    depth = pts @ (direction / np.linalg.norm(direction))
    np.testing.assert_array_equal(kept, [depth.argmin()])


def test_self_occlude_tiny_cell_keeps_everything():
    rng = np.random.default_rng(14)
    pts = random_cloud(rng, n=60)
    direction = random_unit_vector(rng)
    u, w, _ = viewing_frame(direction)
    plane = np.stack([pts @ u, pts @ w], axis=1)
    gaps = np.abs(plane[:, None, :] - plane[None, :, :]).max(axis=2)
    gaps[np.arange(len(pts)), np.arange(len(pts))] = np.inf
    everything = np.arange(len(pts))
    np.testing.assert_array_equal(occlusion_rows(pts, direction, 0.99 * gaps.min()), everything)
    # Cell indices far past the int64 range still tell the cells apart.
    np.testing.assert_array_equal(occlusion_rows(pts, direction, 1e-300), everything)


def test_self_occlude_keeps_cell_minima():
    """Survivors match a dict-based per-cell minimum recomputation."""
    rng = np.random.default_rng(15)
    for _ in range(50):
        pts = random_cloud(rng, n=80)
        direction = random_unit_vector(rng)
        cell = float(rng.uniform(0.05, 0.5))
        kept = occlusion_rows(pts, direction, cell)
        assert_rows(kept, len(pts))
        u, w, v = viewing_frame(direction)
        a, b, c = pts @ u, pts @ w, pts @ v
        cells = {}
        for i in range(len(pts)):
            key = (int(np.floor((a[i] - a.min()) / cell)), int(np.floor((b[i] - b.min()) / cell)))
            if key not in cells or c[i] < c[cells[key]]:
                cells[key] = i
        assert sorted(cells.values()) == kept.tolist()


def test_self_occlude_rejects_overflowing_cell_indices():
    """A cell index past the float range would be inf and merge distinct cells."""
    pts = np.array([[0.0, 0.0, 0.0], [1e10, -1e10, 0.0], [2e10, -3e10, 0.5]])
    view = np.array([0.0, 0.0, 1.0])
    np.testing.assert_array_equal(occlusion_rows(pts, view, 1e-290), [0, 1, 2])
    with pytest.raises(ValueError, match="cell indices are not finite"):
        occlusion_rows(pts, view, 1e-300)
    with pytest.raises(ValueError, match="cell indices are not finite"):
        apply_transform(TransformSpec("occlusion", 1e-300), pts, np.random.default_rng(0))


def test_self_occlude_depth_tie_breaks_to_lower_index():
    pts = np.array([[0.0, 0.0, 0.5], [0.05, 0.0, 0.5], [0.9, 0.0, 0.5]])
    np.testing.assert_array_equal(occlusion_rows(pts, np.array([0.0, 0.0, 1.0]), 0.2), [0, 2])


def test_self_occlude_validates_input():
    pts = np.zeros((3, 3))
    pts[:, 0] = np.arange(3.0)
    with pytest.raises(ValueError):
        occlusion_rows(pts, np.array([0.0, 0.0, 1.0]), 0.0)
    with pytest.raises(ValueError):
        occlusion_rows(pts, np.zeros(3), 0.1)


# ------------------------------------------------------------ TransformSpec


def test_transform_spec_validation():
    TransformSpec("density", 1.3)
    TransformSpec("dropping", 45.0)
    TransformSpec("occlusion", 0.02)
    TransformSpec("identity")
    with pytest.raises(ValueError):
        TransformSpec("density", 0.9)
    with pytest.raises(ValueError):
        TransformSpec("density", np.inf)
    with pytest.raises(ValueError):
        TransformSpec("dropping", 100.0)
    with pytest.raises(ValueError):
        TransformSpec("occlusion", 0.0)
    with pytest.raises(ValueError):
        TransformSpec("identity", 1.0)
    with pytest.raises(ValueError):
        TransformSpec("blur", 1.0)
    with pytest.raises(ValueError):
        TransformSpec("density", None)


def test_apply_transform_identity_returns_input():
    rng = np.random.default_rng(16)
    pts = random_cloud(rng)
    assert apply_transform(TransformSpec("identity"), pts, rng) is pts


def test_apply_transform_outputs_are_subsets():
    rng = np.random.default_rng(17)
    for spec in (
        TransformSpec("density", 1.4),
        TransformSpec("dropping", 36.0),
        TransformSpec("occlusion", 0.25),
    ):
        for _ in range(20):
            pts = random_cloud(rng)
            out = apply_transform(spec, pts, rng)
            survivor_indices(pts, out)
            assert 1 <= len(out) <= len(pts)


COORDINATES = st.one_of(
    st.just(0.0),
    st.floats(1e-300, 1e300),
    st.floats(-1e300, -1e-300),
)

SPEC_VALUES = {
    "density": st.floats(1.0, 1e300, exclude_min=True),
    "dropping": st.floats(0.0, 100.0, exclude_min=True, exclude_max=True),
    "occlusion": st.floats(1e-300, 1e300),
    "identity": st.none(),
}


@st.composite
def awkward_clouds(draw):
    """1-64 points: general, duplicated, collinear or coplanar rows."""
    n = draw(st.integers(1, 64))
    rows = draw(arrays(np.float64, (n, 3), elements=COORDINATES))
    layout = draw(st.sampled_from(("general", "duplicate", "collinear", "coplanar")))
    if layout == "duplicate":
        picks = draw(arrays(np.intp, n, elements=st.integers(0, min(n, 3) - 1)))
        return rows[picks]
    if layout == "general":
        return rows
    # Convex combinations of two or three rows stay within the coordinate range.
    weights = draw(arrays(np.float64, (n, 2), elements=st.floats(0.0, 0.5)))
    if layout == "collinear":
        weights[:, 1] = 0.0
    p0, p1, p2 = rows[0], rows[1 % n], rows[2 % n]
    return p0 + weights[:, :1] * (p1 - p0) + weights[:, 1:] * (p2 - p0)


@pytest.mark.parametrize("kind", sorted(SPEC_VALUES))
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_apply_transform_returns_ordered_subset_or_raises(kind, data):
    """Any valid spec on any awkward cloud: a non-empty ordered subset, or ValueError."""
    spec = TransformSpec(kind, data.draw(SPEC_VALUES[kind], label="value"))
    pts = data.draw(awkward_clouds(), label="points")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    try:
        out = apply_transform(spec, pts, rng)
    except ValueError:
        return
    assert len(out) >= 1
    survivor_indices(pts, out)


@pytest.mark.parametrize("kind", sorted(SPEC_VALUES))
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_transform_rows_picks_what_apply_transform_keeps(kind, data):
    """Strictly increasing rows, the same cloud as apply_transform, the same draws."""
    spec = TransformSpec(kind, data.draw(SPEC_VALUES[kind], label="value"))
    pts = data.draw(awkward_clouds(), label="points")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng_rows, rng_apply = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        rows = transform_rows(spec, pts, rng_rows)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            apply_transform(spec, pts, rng_apply)
        return
    out = apply_transform(spec, pts, rng_apply)
    assert len(rows) >= 1 and rows[0] >= 0 and rows[-1] < len(pts)
    assert (np.diff(rows) > 0).all()
    np.testing.assert_array_equal(pts[rows], out)
    assert rng_rows.bit_generator.state == rng_apply.bit_generator.state
