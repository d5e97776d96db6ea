"""Unit tests for the synthetic benchmark, splits, and the file formats."""

import hashlib
import logging

import numpy as np
import pytest

from metacloud import data
from metacloud.data import (
    ASPECT_JITTER,
    Dataset,
    DatasetFormatError,
    SCALE_JITTER,
    ShapeFamily,
    TORUS_MINOR,
    build_target_domain,
    default_families,
    generate_synthetic_dataset,
    load_cloud,
    load_dataset,
    sample_surface,
    save_cloud,
    save_dataset,
    split_train_val,
)
from metacloud.geometry import PointCloud, TransformSpec, apply_transform, normalize_unit_ball


# ------------------------------------------------------------------- families


def test_shape_family_validation():
    ShapeFamily("sphere")
    with pytest.raises(ValueError):
        ShapeFamily("pyramid")
    with pytest.raises(ValueError):
        ShapeFamily("cube", points=32)


def test_default_families_alphabetical():
    fams = default_families(points=128)
    assert [f.name for f in fams] == ["cone", "cube", "cylinder", "sphere", "torus"]
    assert all(f.points == 128 for f in fams)


# ------------------------------------------------------------- surface samples


def test_sphere_points_on_unit_sphere():
    pts = sample_surface("sphere", 4000, np.random.default_rng(0))
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    # roughly area uniform: each octant gets ~1/8
    octant = (pts > 0).astype(int) @ np.array([1, 2, 4])
    counts = np.bincount(octant, minlength=8) / 4000
    assert (np.abs(counts - 0.125) < 0.03).all()


def test_cube_points_on_faces():
    pts = sample_surface("cube", 4000, np.random.default_rng(1))
    on_face = np.isclose(np.abs(pts), 1.0).sum(axis=1)
    assert (on_face >= 1).all()
    assert (np.abs(pts) <= 1.0 + 1e-12).all()
    face = np.abs(np.abs(pts) - 1.0).argmin(axis=1)
    counts = np.bincount(face, minlength=3) / 4000
    assert (np.abs(counts - 1.0 / 3.0) < 0.05).all()


def test_cylinder_points_on_shell_or_caps():
    pts = sample_surface("cylinder", 4000, np.random.default_rng(2))
    r = np.hypot(pts[:, 0], pts[:, 1])
    lateral = np.isclose(r, 1.0)
    caps = np.isclose(np.abs(pts[:, 2]), 1.0)
    assert (lateral | caps).all()
    assert (np.abs(pts[lateral, 2]) <= 1.0 + 1e-12).all()
    assert (r[~lateral] <= 1.0 + 1e-12).all()
    # lateral share 2/3 by area
    assert abs(lateral.mean() - 2.0 / 3.0) < 0.05


def test_cone_points_on_slant_or_base():
    pts = sample_surface("cone", 4000, np.random.default_rng(3))
    r = np.hypot(pts[:, 0], pts[:, 1])
    base = np.isclose(pts[:, 2], -1.0)
    slant = np.isclose(r, (1.0 - pts[:, 2]) / 2.0)
    assert (base | slant).all()
    assert (r <= 1.0 + 1e-12).all()
    want = np.sqrt(5.0) / (np.sqrt(5.0) + 1.0)
    assert abs((~base).mean() - want) < 0.06


def test_torus_points_on_tube():
    pts = sample_surface("torus", 4000, np.random.default_rng(4))
    ring = np.hypot(pts[:, 0], pts[:, 1]) - 1.0
    tube = np.hypot(ring, pts[:, 2])
    np.testing.assert_allclose(tube, TORUS_MINOR, atol=1e-12)
    # rejection sampling favors the outer rim
    assert (ring > 0).mean() > 0.5


def test_sample_surface_unknown_kind():
    with pytest.raises(ValueError):
        sample_surface("plane", 10, np.random.default_rng(0))


# ------------------------------------------------------------------ generation


def test_generate_dataset_layout_and_determinism():
    fams = default_families(points=64)
    a = generate_synthetic_dataset(fams, per_class=3, seed=11)
    b = generate_synthetic_dataset(fams, per_class=3, seed=11)
    assert a.class_names == [f.name for f in fams]
    assert len(a.items) == 15
    labels = [item.label for item in a.items]
    assert labels == sorted(labels)  # class major
    assert np.bincount(labels).tolist() == [3] * 5
    for x, y in zip(a.items, b.items):
        np.testing.assert_array_equal(x.points, y.points)
    c = generate_synthetic_dataset(fams, per_class=3, seed=12)
    assert any((x.points != y.points).any() for x, y in zip(a.items, c.items))


def test_generate_dataset_bits_are_pinned():
    """The generator's exact output, so a reordered draw or changed rounding shows.

    Each cloud also owns its own array: no item shares memory with another.
    """
    ds = generate_synthetic_dataset(default_families(points=64), per_class=3, seed=11)
    digest = hashlib.sha256(
        b"".join(item.points.tobytes() + bytes([item.label]) for item in ds.items)
    ).hexdigest()
    assert digest == "27c43de9184ed541393f2e34d5f8d6b43a1b7618ef018d886e7723e83608badf"
    for i, a in enumerate(ds.items):
        assert a.points.base is None
        for b in ds.items[i + 1 :]:
            assert not np.shares_memory(a.points, b.points)


def draw_surface(kind, count, rng):
    """One cloud's surface draws, one generator call per quantity, in the documented order."""
    if kind == "sphere":
        return [rng.standard_normal((count, 3))]
    if kind == "cube":
        return [rng.integers(6, size=count), rng.uniform(-1.0, 1.0, size=2 * count)]
    if kind in ("cylinder", "cone"):
        side, theta = rng.random(count), rng.uniform(0.0, 2.0 * np.pi, size=count)
        if kind == "cylinder":
            return [side, theta, rng.uniform(-1.0, 1.0, size=count), rng.random(count)]
        return [side, theta, rng.random(count)]
    theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
    phi = np.empty(count)
    filled = 0
    while filled < count:
        cand = rng.uniform(0.0, 2.0 * np.pi, size=2 * (count - filled))
        accept = rng.random(len(cand)) < (1.0 + TORUS_MINOR * np.cos(cand)) / (1.0 + TORUS_MINOR)
        picked = cand[accept][: count - filled]
        phi[filled : filled + len(picked)] = picked
        filled += len(picked)
    return [theta, phi]


def per_cloud_dataset(families, per_class, seed):
    """The generator as a loop over clouds, each drawn, jittered, rotated and normalized alone."""
    rng = np.random.default_rng(seed)
    items = []
    for label, fam in enumerate(families):
        for _ in range(per_class):
            pts = data._shape_surface(fam.name, draw_surface(fam.name, fam.points, rng))
            aspect = rng.uniform(ASPECT_JITTER[0], ASPECT_JITTER[1], size=3)
            scale = rng.uniform(SCALE_JITTER[0], SCALE_JITTER[1])
            yaw = rng.uniform(0.0, 2.0 * np.pi)
            c, s = np.cos(yaw), np.sin(yaw)
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            items.append(PointCloud(normalize_unit_ball((pts * aspect * scale) @ rot.T), label))
    return items


@pytest.mark.parametrize("kind", data.SURFACE_KINDS)
@pytest.mark.parametrize("count", [3, 96])
def test_sample_surface_equals_per_quantity_draws(kind, count):
    """sample_surface reads the stream as one call per quantity would, and leaves it there.

    At 3 points a torus's first round sometimes keeps too few angles (seeds
    18 and 24 here), so its stream is restored and the angles drawn round
    by round.
    """
    for seed in range(32):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_surface(kind, count, rng)
        want = data._shape_surface(kind, draw_surface(kind, count, ref))
        assert got.tobytes() == want.tobytes()
        assert rng.random() == ref.random()


# Every family has its own size, and the batched kinds (cylinder and cone,
# one generator call per family) come first, in the middle and last.
MIXED_FAMILIES = [
    ShapeFamily(name, points)
    for name, points in zip(("cylinder", "sphere", "cone", "torus", "cube"), (64, 70, 81, 97, 65))
]


@pytest.mark.parametrize(
    "families, per_class, seed",
    [
        (default_families(points=64), 5, 2),
        (default_families(points=97), 3, 8),
        (default_families(points=1024), 2, 13),
        (MIXED_FAMILIES, 1, 21),
        (MIXED_FAMILIES[::-1], 1, 21),
    ],
    ids=["64-5-2", "97-3-8", "1024-2-13", "mixed-1-21", "mixed-reversed-1-21"],
)
def test_generate_dataset_equals_per_cloud_loop(families, per_class, seed):
    """Shaping a family as one stack gives each cloud the bits it gets alone, in the same draw order."""
    got = generate_synthetic_dataset(families, per_class, seed).items
    want = per_cloud_dataset(families, per_class, seed)
    assert [item.label for item in got] == [item.label for item in want]
    for a, b in zip(got, want, strict=True):
        assert a.points.tobytes() == b.points.tobytes()


def test_torus_family_is_one_call_or_falls_back_to_per_cloud_draws(monkeypatch):
    """A torus family is one call when every cloud's first round fills it.

    Otherwise the stream is restored and the family drawn cloud by cloud,
    one 1-D round of candidates at a time. Below ShapeFamily's 64-point
    floor, 6 candidates often keep fewer than 3 angles; the cone after the
    torus reads the stream where the torus left it.
    """
    accepts, shapes = data._torus_accepts, []

    def record(cand, tests):
        shapes.append(cand.shape)
        return accepts(cand, tests)

    monkeypatch.setattr(data, "_torus_accepts", record)
    families = [ShapeFamily("torus"), ShapeFamily("cone")]
    for points in (96, 3):
        shapes.clear()
        for fam in families:
            fam.points = points
        got = generate_synthetic_dataset(families, 20, 4).items
        assert shapes[0] == (20, 2 * points)
        if points == 96:
            assert len(shapes) == 1
        else:
            assert len(shapes) > 20 and all(len(shape) == 1 for shape in shapes[1:])
        for a, b in zip(got, per_cloud_dataset(families, 20, 4), strict=True):
            assert a.points.tobytes() == b.points.tobytes()


def test_generate_dataset_normalized_and_sized():
    ds = generate_synthetic_dataset(default_families(points=64), per_class=2, seed=0)
    for item in ds.items:
        norms = np.linalg.norm(item.points, axis=1)
        assert item.points.shape == (64, 3)
        assert abs(norms.max() - 1.0) < 1e-9
        assert np.abs(item.points.mean(axis=0)).max() < 1e-9


def test_generate_dataset_validation():
    fams = default_families(points=128)
    with pytest.raises(ValueError):
        generate_synthetic_dataset([], per_class=1, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic_dataset(fams, per_class=0, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic_dataset(fams + [ShapeFamily("cone")], per_class=1, seed=0)


# ---------------------------------------------------------------------- splits


def test_split_600_into_500_and_100():
    ds = generate_synthetic_dataset(default_families(points=64), per_class=120, seed=1)
    train, val = split_train_val(ds, seed=2)
    assert len(train.items) == 500
    assert len(val.items) == 100
    val_labels = [item.label for item in val.items]
    assert np.bincount(val_labels).tolist() == [20] * 5


def test_split_is_a_disjoint_cover():
    ds = generate_synthetic_dataset(default_families(points=64), per_class=9, seed=3)
    train, val = split_train_val(ds, seed=4)
    assert len(train.items) + len(val.items) == len(ds.items)

    def keyed(items):
        return {(it.label, it.points.tobytes()) for it in items}

    k_train, k_val, k_all = keyed(train.items), keyed(val.items), keyed(ds.items)
    assert not k_train & k_val
    assert k_train | k_val == k_all


def test_split_deterministic_in_seed():
    ds = generate_synthetic_dataset(default_families(points=64), per_class=8, seed=5)
    t1, v1 = split_train_val(ds, seed=6)
    t2, v2 = split_train_val(ds, seed=6)
    for a, b in zip(v1.items, v2.items):
        np.testing.assert_array_equal(a.points, b.points)
    _, v3 = split_train_val(ds, seed=7)
    assert {id(i) for i in v1.items} != {id(i) for i in v3.items}


def test_split_largest_remainder_topup():
    """Four classes of 7: floors give 4 val items, target 5, lowest label wins."""
    rng = np.random.default_rng(8)
    items = []
    for label in range(4):
        for _ in range(7):
            items.append(PointCloud(rng.standard_normal((8, 3)), label))
    ds = Dataset(items=items, class_names=["a", "b", "c", "d"])
    train, val = split_train_val(ds, seed=9)
    val_counts = np.bincount([i.label for i in val.items], minlength=4)
    assert val_counts.tolist() == [2, 1, 1, 1]
    assert len(val.items) == 5


def test_split_warns_on_tiny_class(caplog):
    rng = np.random.default_rng(10)
    items = [PointCloud(rng.standard_normal((8, 3)), 0) for _ in range(12)]
    items += [PointCloud(rng.standard_normal((8, 3)), 1) for _ in range(3)]
    ds = Dataset(items=items, class_names=["big", "tiny"])
    with caplog.at_level(logging.WARNING):
        train, val = split_train_val(ds, seed=11)
    assert "tiny" in caplog.text
    assert sum(1 for i in val.items if i.label == 1) == 1
    with pytest.raises(ValueError):
        split_train_val(Dataset(items=items[:5], class_names=["big"]), seed=0)


# --------------------------------------------------------------- target domain


def test_build_target_domain_applies_both_stages():
    ds = generate_synthetic_dataset(default_families(points=256), per_class=2, seed=12)
    target = build_target_domain(ds, cell_size=0.25, drop_percent=30.0, seed=13)
    assert [i.label for i in target.items] == [i.label for i in ds.items]
    for src, dst in zip(ds.items, target.items):
        assert len(dst.points) < len(src.points)


def test_build_target_domain_optional_stages():
    ds = generate_synthetic_dataset(default_families(points=64), per_class=1, seed=14)
    drop_only = build_target_domain(ds, cell_size=None, drop_percent=25.0, seed=15)
    for item in drop_only.items:
        assert len(item.points) == 48  # 64 minus 25%
    untouched = build_target_domain(ds, cell_size=None, drop_percent=None, seed=16)
    for src, dst in zip(ds.items, untouched.items):
        np.testing.assert_array_equal(src.points, dst.points)


def test_build_target_domain_deterministic():
    ds = generate_synthetic_dataset(default_families(points=128), per_class=2, seed=17)
    a = build_target_domain(ds, cell_size=0.3, drop_percent=40.0, seed=18)
    b = build_target_domain(ds, cell_size=0.3, drop_percent=40.0, seed=18)
    for x, y in zip(a.items, b.items):
        np.testing.assert_array_equal(x.points, y.points)


def test_build_target_domain_skips_dropping_it_cannot_do():
    """Dropping leaves a cloud it cannot thin as it is and draws nothing.

    With occlusion: the first cloud fits in one occlusion cell from every
    direction, so one point survives. Without: dropping 80% would empty a
    2-point cloud. In both, the last cloud gets the draws it would get alone.
    """
    tight = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]])
    other = generate_synthetic_dataset(default_families(points=64), per_class=1, seed=23).items[0]
    names = ["a", "b", "c", "d", "e"]
    occlusion = TransformSpec("occlusion", 0.5)

    ds = Dataset(items=[PointCloud(tight, 0), other], class_names=names)
    target = build_target_domain(ds, cell_size=0.5, drop_percent=45.0, seed=24)
    rng = np.random.default_rng(24)
    single = apply_transform(occlusion, tight, rng)
    assert len(single) == 1
    dropping = TransformSpec("dropping", 45.0)
    want = apply_transform(dropping, apply_transform(occlusion, other.points, rng), rng)
    np.testing.assert_array_equal(target.items[0].points, single)
    np.testing.assert_array_equal(target.items[1].points, want)

    ds = Dataset(items=[PointCloud(tight[:1], 0), PointCloud(tight[:2], 1), other], class_names=names)
    target = build_target_domain(ds, cell_size=None, drop_percent=80.0, seed=25)
    want = apply_transform(TransformSpec("dropping", 80.0), other.points, np.random.default_rng(25))
    np.testing.assert_array_equal(target.items[0].points, tight[:1])
    np.testing.assert_array_equal(target.items[1].points, tight[:2])
    np.testing.assert_array_equal(target.items[2].points, want)


# ----------------------------------------------------------------- cloud files


def test_cloud_file_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(20)
    pts = rng.standard_normal((17, 3))
    tiny = np.finfo(np.float64).smallest_subnormal
    pts[3] = [-0.0, 0.0, -0.0]
    pts[7] = [tiny, -tiny, 3.0 * tiny]
    pts[11] = [np.finfo(np.float64).tiny / 3.0, -np.finfo(np.float64).max, 1e-310]
    cloud = PointCloud(pts, 2)
    path = tmp_path / "c.txt"
    save_cloud(path, cloud)
    back = load_cloud(path)
    assert back.label == 2
    assert back.points.shape == (17, 3)
    assert back.points.tobytes() == cloud.points.tobytes()
    first = path.read_text().splitlines()[0]
    assert first == "17 2"
    save_cloud(tmp_path / "c2.txt", cloud)
    assert path.read_bytes() == (tmp_path / "c2.txt").read_bytes()


def test_load_cloud_reports_file_and_line(tmp_path):
    bad_header = tmp_path / "h.txt"
    bad_header.write_text("5\n0 0 0\n")
    with pytest.raises(DatasetFormatError, match=r"h\.txt:1"):
        load_cloud(bad_header)

    bad_count = tmp_path / "n.txt"
    bad_count.write_text("3 0\n0 0 0\n1 1 1\n")
    with pytest.raises(DatasetFormatError, match="header says 3"):
        load_cloud(bad_count)

    bad_float = tmp_path / "f.txt"
    bad_float.write_text("1 0\n0 zero 0\n")
    with pytest.raises(DatasetFormatError, match=r"f\.txt:2"):
        load_cloud(bad_float)

    bad_width = tmp_path / "w.txt"
    bad_width.write_text("1 0\n0 0\n")
    with pytest.raises(DatasetFormatError, match="3 coordinates"):
        load_cloud(bad_width)

    empty = tmp_path / "e.txt"
    empty.write_text("")
    with pytest.raises(DatasetFormatError, match="empty"):
        load_cloud(empty)

    blank_then_bad = tmp_path / "b.txt"
    blank_then_bad.write_text("2 0\n\n0 0 0\n\n1 one 1\n")
    with pytest.raises(DatasetFormatError, match=r"b\.txt:5: bad float"):
        load_cloud(blank_then_bad)

    for name, value in (("nan", "nan"), ("inf", "-inf")):
        path = tmp_path / f"{name}.txt"
        path.write_text(f"3 0\n0 0 0\n\n1 1 1\n0.5 {value} 0\n")
        with pytest.raises(DatasetFormatError, match=rf"{name}\.txt:5: .*finite"):
            load_cloud(path)

    # Six coordinates in all, but split 2 + 4 over the two lines.
    ragged = tmp_path / "r.txt"
    ragged.write_text("2 0\n0 0\n1 1 1 1\n")
    with pytest.raises(DatasetFormatError, match=r"r\.txt:2: expected 3 coordinates"):
        load_cloud(ragged)

    not_utf8 = tmp_path / "u.txt"
    not_utf8.write_bytes(b"\xff\xfe1 0\n0 0 0\n")
    with pytest.raises(DatasetFormatError, match=r"u\.txt:1: not UTF-8"):
        load_cloud(not_utf8)
    late_bad_byte = tmp_path / "u3.txt"
    late_bad_byte.write_bytes(b"2 0\n0 0 0\n1 \xe9 1\n")
    with pytest.raises(DatasetFormatError, match=r"u3\.txt:3: not UTF-8"):
        load_cloud(late_bad_byte)


def test_cloud_lines_end_at_newline_only(tmp_path):
    """Form feed and other Unicode breaks stay inside a line; CRLF endings load."""
    feed_ends_line = tmp_path / "ff.txt"
    feed_ends_line.write_text("3 0\n0 0 0\n1 1 1\x0c\n2 x 2\n")
    with pytest.raises(DatasetFormatError, match=r"ff\.txt:4: bad float"):
        load_cloud(feed_ends_line)

    feed_joins_points = tmp_path / "ff2.txt"
    feed_joins_points.write_text("2 0\n0 0 0\x0c1 1 1\n")
    with pytest.raises(DatasetFormatError, match=r"ff2\.txt:2: header says 2 points, file holds 1"):
        load_cloud(feed_joins_points)

    line_separator = tmp_path / "ls.txt"
    line_separator.write_text("2 0\n0 0 0\u20281 1 1\n1 1 1\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=r"ls\.txt:2: expected 3 coordinates"):
        load_cloud(line_separator)

    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(b"2 1\r\n0 0 0\r\n1 2 3\r\n")
    cloud = load_cloud(crlf)
    assert cloud.label == 1
    np.testing.assert_array_equal(cloud.points, [[0, 0, 0], [1, 2, 3]])


# -------------------------------------------------------------- dataset on disk


def test_dataset_roundtrip_via_manifest(tmp_path):
    ds = generate_synthetic_dataset(default_families(points=64), per_class=2, seed=21)
    manifest = save_dataset(ds, tmp_path / "bench")
    assert manifest.name == "manifest.txt"
    rows = manifest.read_text().splitlines()
    assert len(rows) == 10
    assert rows[0] == "cone/cone_0000.txt cone"
    back = load_dataset(manifest)
    assert back.class_names == ds.class_names
    assert [i.label for i in back.items] == [i.label for i in ds.items]
    for a, b in zip(back.items, ds.items):
        np.testing.assert_array_equal(a.points, b.points)
    # loading by directory resolves the manifest too
    back2 = load_dataset(tmp_path / "bench")
    assert [i.label for i in back2.items] == [i.label for i in ds.items]


def test_dataset_loads_from_bare_tree(tmp_path):
    ds = generate_synthetic_dataset(default_families(points=64), per_class=2, seed=22)
    save_dataset(ds, tmp_path / "bench")
    (tmp_path / "bench" / "manifest.txt").unlink()
    back = load_dataset(tmp_path / "bench")
    assert back.class_names == ds.class_names
    assert len(back.items) == len(ds.items)


def test_dataset_labels_follow_alphabetical_class_names(tmp_path):
    """Saved label order is irrelevant: the loader reindexes alphabetically."""
    rng = np.random.default_rng(23)
    items = [
        PointCloud(rng.standard_normal((8, 3)), 0),  # torus
        PointCloud(rng.standard_normal((8, 3)), 1),  # cone
    ]
    ds = Dataset(items=items, class_names=["torus", "cone"])
    save_dataset(ds, tmp_path / "flip")
    back = load_dataset(tmp_path / "flip")
    assert back.class_names == ["cone", "torus"]
    by_label = {i.label: i.points for i in back.items}
    np.testing.assert_array_equal(by_label[1], items[0].points)  # torus now label 1
    np.testing.assert_array_equal(by_label[0], items[1].points)


def test_load_dataset_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "missing")
    empty_manifest = tmp_path / "m.txt"
    empty_manifest.write_text("\n")
    with pytest.raises(DatasetFormatError):
        load_dataset(empty_manifest)
    bad = tmp_path / "bad.txt"
    bad.write_text("only_one_field\n")
    with pytest.raises(DatasetFormatError, match="path name"):
        load_dataset(bad)
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("a/a.txt a\nb/caf\xe9.txt b\n".encode("latin-1"))
    with pytest.raises(DatasetFormatError, match=r"latin1\.txt:2: not UTF-8"):
        load_dataset(latin1)
    bare = tmp_path / "no_classes"
    bare.mkdir()
    with pytest.raises(DatasetFormatError):
        load_dataset(bare)


def test_manifest_row_with_nul_byte_names_the_line(tmp_path):
    """A NUL byte in a manifest row is a format error at manifest:line, not an OS error."""
    ds = generate_synthetic_dataset(default_families(points=64)[:2], per_class=1, seed=24)
    manifest = save_dataset(ds, tmp_path / "bench")
    rows = manifest.read_text().splitlines()
    for row in (rows[1].replace("/", "/\0", 1), rows[1] + "\0"):
        manifest.write_text("\n".join([rows[0], row]) + "\n")
        with pytest.raises(DatasetFormatError, match=r"manifest\.txt:2: manifest row holds a NUL byte"):
            load_dataset(manifest)


def test_manifest_lines_end_at_newline_only(tmp_path):
    """A form feed between two manifest rows makes one bad row, not two rows."""
    ds = generate_synthetic_dataset(default_families(points=64)[:2], per_class=1, seed=25)
    manifest = save_dataset(ds, tmp_path / "bench")
    rows = manifest.read_text().splitlines()
    manifest.write_text(f"{rows[0]}\x0c{rows[1]}\n")
    with pytest.raises(DatasetFormatError, match=r"manifest\.txt:1: manifest rows are"):
        load_dataset(manifest)
    manifest.write_bytes(f"{rows[0]}\r\n{rows[1]}\r\n".encode())
    assert len(load_dataset(manifest).items) == 2
