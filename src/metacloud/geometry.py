"""Point cloud normalization and stochastic corruption transforms.

All functions operate on (n, 3) float64 arrays of xyz coordinates and never
mutate their inputs. A corruption keeps a subset of the input cloud's rows,
so each kind is one row function (density_rows, dropping_rows,
occlusion_rows) returning the kept row indices in increasing order;
transform_rows draws a kind's dynamic parameters and calls it, and
apply_transform alone returns the kept points.
"""

import math
from dataclasses import dataclass

import numpy as np

# Transform kinds understood by TransformSpec / apply_transform.
KIND_DENSITY = "density"
KIND_DROPPING = "dropping"
KIND_OCCLUSION = "occlusion"
KIND_IDENTITY = "identity"
TRANSFORM_KINDS = (KIND_DENSITY, KIND_DROPPING, KIND_OCCLUSION, KIND_IDENTITY)


class DegenerateCloudError(ValueError):
    """Cloud has no spatial extent (all points coincide) or is empty."""


@dataclass
class PointCloud:
    """A labeled point set: points is an (n, 3) float64 array."""

    points: np.ndarray
    label: int


def _check_points(points):
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) array, got shape {points.shape}")
    if points.shape[0] == 0:
        raise DegenerateCloudError("empty point cloud")
    return points


def normalize_unit_ball(points):
    """Center a cloud on its centroid and scale the farthest point to norm 1.

    Args:
        points: (n, 3) array, n >= 1.

    Returns:
        New (n, 3) float64 array with zero centroid and max norm 1 (to within
        float rounding; no point exceeds 1 by more than a few ulp).

    Raises:
        DegenerateCloudError: empty cloud or all points coincide.
    """
    return _normalize_stack(_check_points(points)[None])[0]


def _normalize_stack(stack):
    """normalize_unit_ball of each cloud of a (clouds, n, 3) stack, n >= 1, in one pass."""
    centered = stack - stack.mean(axis=1, keepdims=True)
    scale = np.linalg.norm(centered, axis=2).max(axis=1)
    if (scale < 1e-12).any():
        raise DegenerateCloudError("cloud has no spatial extent")
    return centered / scale[:, None, None]


def random_unit_vector(rng):
    """Draw a uniformly distributed point on the unit sphere."""
    while True:
        v = rng.standard_normal(3)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def _distances(points, origin):
    """Euclidean distance of every point to origin; raises if any overflows."""
    with np.errstate(over="ignore"):
        d = np.linalg.norm(points - origin, axis=1)
    if not np.isfinite(d).all():
        raise ValueError("point distances are not finite; coordinates too large")
    return d


def density_rows(points, anchor, gate, rng):
    """Drop points with probability growing with distance from an anchor.

    Distances to the anchor are min-max normalized to basic rates in [0, 1];
    each point is dropped independently with probability min(1, gate * rate).
    The point nearest the anchor has rate 0 and always survives; any point
    with gate * rate >= 1 is always dropped.

    Args:
        points: (n, 3) array.
        anchor: (3,) position the thinning is centered on (on the unit
            sphere when driven by transform_rows).
        gate: rate multiplier, finite and > 1.
        rng: numpy Generator for the per-point survival draws.

    Returns:
        Strictly increasing indices of the surviving rows; never empty.

    Raises:
        ValueError: bad gate, or a distance to the anchor is not finite.
    """
    points = _check_points(points)
    anchor = np.asarray(anchor, dtype=np.float64).reshape(3)
    if not 1.0 < gate < np.inf:
        raise ValueError(f"gate must be finite and > 1, got {gate}")
    d = _distances(points, anchor)
    span = d.max() - d.min()
    if span < 1e-12:
        rate = np.zeros(len(points))
    else:
        rate = (d - d.min()) / span
    drop_prob = np.minimum(1.0, gate * rate)
    keep = rng.random(len(points)) >= drop_prob
    return np.flatnonzero(keep)


def drop_count(n, percent):
    """Number of points removed by dropping_rows: round-half-up of n*percent/100."""
    return int(np.floor(n * percent / 100.0 + 0.5))


def dropping_rows(points, anchor_index, percent):
    """Remove the m points nearest to an existing anchor point.

    m is the round-half-up of n * percent / 100. Distance ties are broken
    toward the lower point index. The anchor itself is at distance 0, so it
    is always among the removed points (m >= 1 whenever percent >= 50/n).

    Args:
        points: (n, 3) array with n >= 2.
        anchor_index: index of the anchor point within the cloud.
        percent: drop percentage, 0 < percent < 100.

    Returns:
        Strictly increasing indices of the n - m surviving rows.

    Raises:
        ValueError: bad percent, bad anchor index, n < 2, m >= n, or a
            distance to the anchor is not finite.
    """
    points = _check_points(points)
    n = len(points)
    if n < 2:
        raise ValueError("dropping needs at least 2 points")
    if not 0.0 < percent < 100.0:
        raise ValueError(f"percent must be in (0, 100), got {percent}")
    if not 0 <= anchor_index < n:
        raise ValueError(f"anchor index {anchor_index} out of range for {n} points")
    m = drop_count(n, percent)
    if m >= n:
        raise ValueError(f"would drop all {n} points (m={m})")
    d = _distances(points, points[anchor_index])
    # Stable sort keeps equal distances in index order; the rest survive.
    return np.sort(np.argsort(d, kind="stable")[m:])


def viewing_frame(direction):
    """Build a deterministic orthonormal frame (u, w, v) from a view direction.

    v is the normalized direction; u is the normalized cross product of the
    coordinate axis least aligned with v (lowest index on ties) and v; w
    completes the right-handed frame as v x u.

    Returns:
        (u, w, v) unit vectors, each (3,).
    """
    v = np.asarray(direction, dtype=np.float64).reshape(3)
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise ValueError("view direction must be nonzero")
    v = v / norm
    axis = [0.0, 0.0, 0.0]
    axis[int(np.argmin(np.abs(v)))] = 1.0
    u = np.array(_cross(axis, v.tolist()))
    u = u / np.linalg.norm(u)
    w = np.array(_cross(v.tolist(), u.tolist()))
    return u, w, v


def _cross(a, b):
    """a x b for two 3-sequences of floats, with np.cross's formula and rounding."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def occlusion_rows(points, direction, cell_size):
    """Keep only the point nearest the viewer in each in-plane grid cell.

    Points are expressed in the viewing frame of `direction`: in-plane
    coordinates (a, b) = (p.u, p.w) and depth c = p.v. The plane is tiled
    with square cells of side cell_size anchored at the in-plane bounding
    box minimum; within each occupied cell only the point with minimal depth
    survives, ties broken toward the lower point index.

    Args:
        points: (n, 3) array.
        direction: (3,) view direction (normalized defensively).
        cell_size: grid cell side W > 0.

    Returns:
        Strictly increasing indices of the surviving rows, one per occupied
        cell.

    Raises:
        ValueError: bad cell size, or a cell index is not finite (the
            in-plane extent over cell_size passes the float range).
    """
    points = _check_points(points)
    if not cell_size > 0.0:
        raise ValueError(f"cell size must be > 0, got {cell_size}")
    u, w, v = viewing_frame(direction)
    a = points @ u
    b = points @ w
    c = points @ v
    # Cell indices stay floats: a tiny cell gives indices past the int64 range.
    # Past the float range they would become inf and merge distinct cells; no
    # index exceeds the in-plane extent over the cell size, checked here in
    # Python floats, which overflow to inf without a warning.
    for extent in (float(a.max()) - float(a.min()), float(b.max()) - float(b.min())):
        if not math.isfinite(extent / cell_size):
            raise ValueError(
                f"occlusion cell indices are not finite; cell size {cell_size} is too small"
                " for the cloud's extent"
            )
    col = np.floor((a - a.min()) / cell_size)
    row = np.floor((b - b.min()) / cell_size)
    # Stable lexsort: within a cell, equal depths stay in index order.
    order = np.lexsort((c, row, col))
    col_s, row_s = col[order], row[order]
    first = np.ones(len(points), dtype=bool)
    first[1:] = (col_s[1:] != col_s[:-1]) | (row_s[1:] != row_s[:-1])
    return np.sort(order[first])


@dataclass(frozen=True)
class TransformSpec:
    """One corruption task: a transform kind plus its static parameter.

    value holds the gate for density, the drop percent for dropping, the
    grid cell size for occlusion, and None for identity.
    """

    kind: str
    value: float | None = None

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.kind == KIND_IDENTITY:
            if self.value is not None:
                raise ValueError("identity takes no parameter")
            return
        if self.value is None:
            raise ValueError(f"{self.kind} needs a parameter value")
        if self.kind == KIND_DENSITY and not 1.0 < self.value < np.inf:
            raise ValueError(f"density gate must be finite and > 1, got {self.value}")
        if self.kind == KIND_DROPPING and not 0.0 < self.value < 100.0:
            raise ValueError(f"drop percent must be in (0, 100), got {self.value}")
        if self.kind == KIND_OCCLUSION and not self.value > 0.0:
            raise ValueError(f"occlusion cell size must be > 0, got {self.value}")


def transform_rows(spec, points, rng):
    """Rows of points that one transform keeps, with fresh dynamic draws from rng.

    Dynamic draws per kind: density draws an anchor on the unit sphere,
    dropping draws the anchor point index, occlusion draws the view
    direction; identity draws nothing and keeps every row.

    Args:
        spec: TransformSpec naming the kind and its static parameter.
        points: (n, 3) array, assumed normalized to the unit ball.
        rng: numpy Generator for the dynamic draws.

    Returns:
        Strictly increasing, non-empty int array of row indices.

    Raises:
        ValueError: the kind's transform rejects the cloud.
    """
    points = _check_points(points)
    if spec.kind == KIND_IDENTITY:
        return np.arange(len(points))
    if spec.kind == KIND_DENSITY:
        return density_rows(points, random_unit_vector(rng), spec.value, rng)
    if spec.kind == KIND_DROPPING:
        return dropping_rows(points, int(rng.integers(len(points))), spec.value)
    if spec.kind == KIND_OCCLUSION:
        return occlusion_rows(points, random_unit_vector(rng), spec.value)
    raise ValueError(f"unknown transform kind {spec.kind!r}")


def apply_transform(spec, points, rng):
    """Apply one transform with fresh dynamic parameters drawn from rng.

    The same draws as transform_rows, which picks the rows kept.

    Returns:
        The transformed cloud (a non-empty row subset; identity returns the
        input array itself).

    Raises:
        ValueError: the kind's transform rejects the cloud.
    """
    if spec.kind == KIND_IDENTITY:
        return points
    points = _check_points(points)
    return points[transform_rows(spec, points, rng)]
