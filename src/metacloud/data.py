"""Synthetic shape benchmark, dataset splitting, and the cloud file formats.

The benchmark draws labeled point clouds from five parametric surface
families. Every generated instance gets per-axis aspect jitter, an overall
scale jitter, a uniform yaw rotation about z, and unit-ball normalization.
Clouds are stored one per text file (header "n label", then n lines "x y z")
under a directory per class, indexed by a manifest of relative paths.
"""

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import (
    KIND_DROPPING,
    KIND_OCCLUSION,
    PointCloud,
    TransformSpec,
    _normalize_stack,
    apply_transform,
    drop_count,
)

logger = logging.getLogger(__name__)

SURFACE_KINDS = ("cone", "cube", "cylinder", "sphere", "torus")

TORUS_MINOR = 0.35
SCALE_JITTER = (0.8, 1.2)
ASPECT_JITTER = (0.8, 1.25)
MANIFEST_NAME = "manifest.txt"

# Validation share of a 5:1 train/val split.
VAL_FRACTION = 1.0 / 6.0


class DatasetFormatError(ValueError):
    """A cloud file or manifest failed to parse; message carries file:line."""


@dataclass
class ShapeFamily:
    """One synthetic class: a surface kind plus its points per cloud."""

    name: str
    points: int = 1024

    def __post_init__(self):
        if self.name not in SURFACE_KINDS:
            raise ValueError(f"unknown surface kind {self.name!r}")
        if self.points < 64:
            raise ValueError(f"points per cloud must be >= 64, got {self.points}")


@dataclass
class Dataset:
    """Labeled clouds plus the class-name table indexing their labels."""

    items: list
    class_names: list

    def points_and_labels(self):
        clouds = [item.points for item in self.items]
        labels = np.array([item.label for item in self.items])
        return clouds, labels

    def by_class(self):
        buckets = {i: [] for i in range(len(self.class_names))}
        for idx, item in enumerate(self.items):
            buckets[item.label].append(idx)
        return buckets


def default_families(points=1024):
    """The five stock families in alphabetical (= label) order."""
    return [ShapeFamily(name, points=points) for name in SURFACE_KINDS]


def sample_surface(kind, count, rng):
    """Sample `count` points uniformly on the canonical unit-scale surface.

    Canonical surfaces are centered at the origin: sphere of radius 1, cube
    side 2, capped cylinder radius 1 height 2, cone apex (0, 0, 1) over a
    base disk of radius 1 at z = -1, torus with major radius 1 and minor
    radius TORUS_MINOR. Sampling is area weighted on each surface.
    """
    return _shape_surface(kind, _draw_surface(kind, count, rng))


def _draw_surface(kind, count, rng):
    """One cloud's random draws for sample_surface, in its order: arrays of first axis count."""
    if kind == "sphere":
        return (rng.standard_normal((count, 3)),)
    if kind == "cube":
        return rng.integers(6, size=count), rng.uniform(-1.0, 1.0, size=(count, 2))
    if kind in ("cylinder", "cone"):
        side, theta = rng.random(count), rng.uniform(0.0, 2.0 * np.pi, size=count)
        if kind == "cylinder":
            return side, theta, rng.uniform(-1.0, 1.0, size=count), rng.random(count)
        return side, theta, rng.random(count)
    if kind == "torus":
        theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
        phi = np.empty(count)
        filled = 0
        ratio = TORUS_MINOR  # relative to major radius 1
        while filled < count:
            cand = rng.uniform(0.0, 2.0 * np.pi, size=2 * (count - filled))
            accept = rng.random(len(cand)) < (1.0 + ratio * np.cos(cand)) / (1.0 + ratio)
            picked = cand[accept][: count - filled]
            phi[filled : filled + len(picked)] = picked
            filled += len(picked)
        return theta, phi
    raise ValueError(f"unknown surface kind {kind!r}")


def _shape_surface(kind, draws):
    """Points on kind's surface from _draw_surface's arrays, stacked under any leading axes."""
    if kind == "sphere":
        return draws[0] / np.linalg.norm(draws[0], axis=-1, keepdims=True)
    if kind == "cube":
        # Face f lies on axis f // 2, at +1 for even f and -1 for odd f;
        # uv fills the other two axes in increasing order.
        face, uv = draws
        axis = face // 2
        sign = np.where(face % 2 == 0, 1.0, -1.0)
        u, v = uv[..., 0], uv[..., 1]
        x = np.where(axis == 0, sign, u)
        y = np.where(axis == 1, sign, np.where(axis == 0, u, v))
        return np.stack((x, y, np.where(axis == 2, sign, v)), axis=-1)
    if kind == "cylinder":
        # Lateral area 4*pi vs two caps of pi each.
        side, theta, h, r = draws
        lateral = side < 2.0 / 3.0
        rad = np.where(lateral, 1.0, np.sqrt(r))
        z = np.where(lateral, h, np.where(h >= 0.0, 1.0, -1.0))
        return np.stack((rad * np.cos(theta), rad * np.sin(theta), z), axis=-1)
    if kind == "cone":
        # Lateral area pi*sqrt(5) vs base disk pi.
        slant = np.sqrt(5.0)
        side, theta, t = draws
        t = np.sqrt(t)  # radius fraction, density grows with t
        z = np.where(side < slant / (slant + 1.0), 1.0 - 2.0 * t, -1.0)
        return np.stack((t * np.cos(theta), t * np.sin(theta), z), axis=-1)
    theta, phi = draws
    ring = 1.0 + TORUS_MINOR * np.cos(phi)
    x, y = ring * np.cos(theta), ring * np.sin(theta)
    return np.stack((x, y, TORUS_MINOR * np.sin(phi)), axis=-1)


def generate_synthetic_dataset(families, per_class, seed):
    """Generate per_class instances of each family under one seed.

    Labels follow the order of `families`; instances are drawn class major,
    instance minor, so a given (families, per_class, seed) triple always
    yields the identical dataset. Each cloud takes its draws in turn (its
    surface, then aspect, scale and yaw); a family's clouds are then shaped,
    jittered, rotated and normalized as one (per_class, points, 3) stack.
    """
    if not families:
        raise ValueError("need at least one shape family")
    names = [fam.name for fam in families]
    if len(set(names)) != len(names):
        raise ValueError("family names must be unique")
    if per_class < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")
    rng = np.random.default_rng(seed)
    items = []
    for label, fam in enumerate(families):
        draws, aspect, scale, yaw = [], [], [], []
        for _ in range(per_class):
            draws.append(_draw_surface(fam.name, fam.points, rng))
            aspect.append(rng.uniform(ASPECT_JITTER[0], ASPECT_JITTER[1], size=3))
            scale.append(rng.uniform(SCALE_JITTER[0], SCALE_JITTER[1]))
            yaw.append(rng.uniform(0.0, 2.0 * np.pi))
        pts = _shape_surface(fam.name, [np.stack(arrays) for arrays in zip(*draws)])
        pts = pts * np.stack(aspect)[:, None, :] * np.array(scale)[:, None, None]
        # Each cloud's yaw rotation about z, applied to row vectors.
        c, s = np.cos(yaw), np.sin(yaw)
        rot = np.zeros((per_class, 3, 3))
        rot[:, 0, 0] = rot[:, 1, 1] = c
        rot[:, 0, 1], rot[:, 1, 0] = -s, s
        rot[:, 2, 2] = 1.0
        stack = _normalize_stack(pts @ rot.transpose(0, 2, 1))
        items.extend(PointCloud(cloud.copy(), label) for cloud in stack)
    return Dataset(items=items, class_names=names)


def split_train_val(dataset, seed):
    """Stratified 5:1 train/val split of a dataset.

    Per class the validation share is floor(n_c / 6); remaining validation
    slots up to round(total / 6) go to the classes with the largest
    fractional remainders (ties toward the lower class index), keeping every
    class within one item of an exact 5:1 ratio. Classes with fewer than 6
    items trigger a warning and still contribute one validation item.
    """
    total = len(dataset.items)
    if total < 6:
        raise ValueError(f"need at least 6 items to split 5:1, got {total}")
    buckets = dataset.by_class()
    counts = {label: len(idx) for label, idx in buckets.items()}
    val_share = {}
    for label in sorted(buckets):
        n_c = counts[label]
        if n_c == 0:
            val_share[label] = 0
        elif n_c < 6:
            logger.warning(
                "class %s has only %d items; forcing one validation item",
                dataset.class_names[label],
                n_c,
            )
            val_share[label] = 1
        else:
            val_share[label] = n_c // 6
    target = int(np.floor(total * VAL_FRACTION + 0.5))
    deficit = target - sum(val_share.values())
    remainders = sorted(
        (label for label in buckets if counts[label] >= 6),
        key=lambda lb: (-(counts[lb] * VAL_FRACTION - val_share[lb]), lb),
    )
    # A class of n >= 6 items has n // 6 + 1 < n, so it always has room for one more.
    for label in remainders[: max(deficit, 0)]:
        val_share[label] += 1

    rng = np.random.default_rng(seed)
    train_idx, val_idx = [], []
    for label in sorted(buckets):
        perm = rng.permutation(buckets[label])
        k = val_share[label]
        val_idx.extend(sorted(perm[:k]))
        train_idx.extend(sorted(perm[k:]))
    train = Dataset(
        items=[dataset.items[i] for i in sorted(train_idx)],
        class_names=list(dataset.class_names),
    )
    val = Dataset(
        items=[dataset.items[i] for i in sorted(val_idx)],
        class_names=list(dataset.class_names),
    )
    return train, val


def build_target_domain(dataset, cell_size, drop_percent, seed, forbid=()):
    """Corrupt fresh copies of a dataset into a held-out evaluation domain.

    Applies occlusion with `cell_size` and then dropping with
    `drop_percent`, fresh dynamic draws per cloud (view direction, then
    anchor index). Either parameter may be None to skip that stage; both
    None yields an untouched copy. A cloud that dropping cannot thin, one
    of fewer than 2 points or one it would empty (occlusion can leave 1 or
    2 points), passes the dropping stage untouched and draws no anchor, so
    every other cloud gets the draws it would get without it. `forbid`
    lists TransformSpecs whose static values the target must not reuse.
    """
    for spec in forbid:
        if spec.kind == KIND_OCCLUSION and cell_size == spec.value:
            raise ValueError(f"target cell size {cell_size} collides with a training task")
        if spec.kind == KIND_DROPPING and drop_percent == spec.value:
            raise ValueError(f"target drop percent {drop_percent} collides with a training task")
    rng = np.random.default_rng(seed)
    stages = []
    if cell_size is not None:
        stages.append(TransformSpec(KIND_OCCLUSION, cell_size))
    if drop_percent is not None:
        stages.append(TransformSpec(KIND_DROPPING, drop_percent))
    items = []
    for item in dataset.items:
        pts = item.points
        for spec in stages:
            n = len(pts)
            if spec.kind == KIND_DROPPING and (n < 2 or drop_count(n, spec.value) >= n):
                continue
            pts = apply_transform(spec, pts, rng)
        items.append(PointCloud(pts, item.label))
    return Dataset(items=items, class_names=list(dataset.class_names))


def save_cloud(path, cloud):
    """Write one cloud file: header "n label", then one "x y z" line per point.

    Coordinates are written with repr so reading restores the exact float64
    bits; identical clouds produce identical bytes.
    """
    pts = cloud.points
    lines = [f"{len(pts)} {cloud.label}"]
    for x, y, z in pts.tolist():
        lines.append(f"{x!r} {y!r} {z!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_text(path, error=DatasetFormatError):
    """A file's UTF-8 text; other bytes raise error (a ValueError type) with file:line."""
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def _read_lines(path, error=DatasetFormatError):
    r"""A file's UTF-8 lines, each ended by "\n" only, numbered as _read_text numbers them.

    Other line breaks, such as form feed or U+2028, stay inside a line as whitespace, and
    so does the "\r" of a "\r\n" ending.
    """
    return _read_text(path, error).removesuffix("\n").split("\n")


def load_cloud(path):
    """Read one cloud file, validating the header count against the body."""
    path = Path(path)
    lines = _read_lines(path)
    if not lines[0].strip():
        raise DatasetFormatError(f"{path}:1: empty cloud file")
    head = lines[0].split()
    if len(head) != 2:
        raise DatasetFormatError(f"{path}:1: header must be 'n label'")
    try:
        n, label = int(head[0]), int(head[1])
    except ValueError:
        raise DatasetFormatError(f"{path}:1: header must hold two integers") from None
    if n < 1 or label < 0:
        raise DatasetFormatError(f"{path}:1: need n >= 1 and label >= 0")
    rows = list(filter(None, map(str.split, lines[1:])))
    if len(rows) != n:
        raise DatasetFormatError(
            f"{path}:{len(lines)}: header says {n} points, file holds {len(rows)}"
        )
    try:
        pts = np.array(rows, dtype=np.float64).reshape(n, 3)
    except ValueError:
        # Ragged rows or a bad float: parse line by line to name the line.
        pts = np.empty((n, 3))
        for i, (lineno, fields) in enumerate(zip(_body_line_numbers(lines), rows)):
            if len(fields) != 3:
                raise DatasetFormatError(f"{path}:{lineno}: expected 3 coordinates")
            try:
                pts[i] = [float(f) for f in fields]
            except ValueError:
                raise DatasetFormatError(f"{path}:{lineno}: bad float") from None
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if len(bad):
        lineno = _body_line_numbers(lines)[bad[0]]
        raise DatasetFormatError(f"{path}:{lineno}: coordinates must be finite")
    return PointCloud(pts, label)


def _body_line_numbers(lines):
    """1-based line numbers of the non-blank lines after a cloud file's header."""
    return [lineno for lineno, line in enumerate(lines[1:], start=2) if line.strip()]


def save_dataset(dataset, out_dir):
    """Write one file per cloud under a directory per class, plus a manifest.

    Returns the manifest path. Manifest rows are "relative/path class_name"
    in item order; file numbering is sequential within each class.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    counters = {}
    manifest_rows = []
    for item in dataset.items:
        name = dataset.class_names[item.label]
        cls_dir = out / name
        cls_dir.mkdir(exist_ok=True)
        idx = counters.get(name, 0)
        counters[name] = idx + 1
        rel = f"{name}/{name}_{idx:04d}.txt"
        save_cloud(out / rel, item)
        manifest_rows.append(f"{rel} {name}")
    manifest = out / MANIFEST_NAME
    manifest.write_text("\n".join(manifest_rows) + "\n", encoding="utf-8")
    return manifest


def load_dataset(path):
    """Load a dataset from a manifest file or a directory-per-class tree.

    Directories are resolved through their manifest when one exists;
    otherwise class subdirectories are scanned. Class names map to label
    indices alphabetically, overriding per-file header labels.
    """
    path = Path(path)
    if path.is_dir() and (path / MANIFEST_NAME).is_file():
        path = path / MANIFEST_NAME
    if path.is_file():
        base = path.parent
        rows = []
        for lineno, line in enumerate(_read_lines(path), start=1):
            if not line.strip():
                continue
            if "\0" in line:
                raise DatasetFormatError(f"{path}:{lineno}: manifest row holds a NUL byte")
            fields = line.split()
            if len(fields) != 2:
                raise DatasetFormatError(f"{path}:{lineno}: manifest rows are 'path name'")
            rows.append((fields[0], fields[1]))
        if not rows:
            raise DatasetFormatError(f"{path}:1: empty manifest")
    elif path.is_dir():
        rows = []
        for cls_dir in sorted(p for p in path.iterdir() if p.is_dir()):
            for f in sorted(cls_dir.glob("*.txt")):
                rows.append((f"{cls_dir.name}/{f.name}", cls_dir.name))
        if not rows:
            raise DatasetFormatError(f"{path}: no class directories with .txt files")
        base = path
    else:
        raise FileNotFoundError(f"no dataset at {path}")
    class_names = sorted({name for _, name in rows})
    label_of = {name: i for i, name in enumerate(class_names)}
    items = []
    for rel, name in rows:
        cloud = load_cloud(base / rel)
        items.append(PointCloud(cloud.points, label_of[name]))
    return Dataset(items=items, class_names=class_names)
