"""Every file reader under arbitrary bytes: it returns, or raises its documented error naming the file.

Inputs are random byte strings and mutations (byte runs replaced, inserted
or deleted, or the file cut short) of a valid file. The documented errors:
- data.load_cloud: DatasetFormatError with file:line;
- data.load_dataset: DatasetFormatError with file:line for the manifest or a
  cloud file, or an OSError naming the file a row points at (missing, a
  directory, a name too long);
- cli.read_config: ConfigError with file:line;
- network.load_checkpoint: ValueError whose message starts with the path.

Hypothesis runs derandomized, without an example database, so every run
tries the same inputs.
"""

import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metacloud import cli, data, network
from metacloud.geometry import PointCloud

SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Byte runs that reach the parsers' edge cases more often than random bytes do.
TOKENS = [
    b"\x00", b"\n", b"\r", b" ", b"\t", b"#", b"=", b"-", b"1", b"0", b"nan",
    b"inf", b"1e999", b"\xff", b"\xe9", b"/", b"..", b".", b"{", b"[", b'"', b"\\",
]


@st.composite
def mutations(draw, valid, span=None):
    """valid with 1-6 edits; replacements, inserts and deletes start within span bytes."""
    blob = bytearray(valid)
    for _ in range(draw(st.integers(1, 6))):
        action = draw(st.sampled_from(("replace", "insert", "delete", "truncate")))
        if action == "truncate":
            del blob[draw(st.integers(0, len(blob))) :]
            continue
        at = draw(st.integers(0, min(len(blob), span or len(blob))))
        chunk = draw(st.one_of(st.binary(min_size=1, max_size=8), st.sampled_from(TOKENS)))
        if action == "replace":
            blob[at : at + len(chunk)] = chunk
        elif action == "insert":
            blob[at:at] = chunk
        else:
            del blob[at : at + len(chunk)]
    return bytes(blob)


def arbitrary(valid, span=None):
    return st.one_of(st.binary(max_size=300), mutations(valid, span))


def assert_names_line(exc, path):
    assert re.match(re.escape(str(path)) + r":\d+: ", str(exc)), str(exc)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A saved two-class dataset of 3-point clouds, and a checkpoint to mutate."""
    out = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    items = [PointCloud(rng.standard_normal((3, 3)), label) for label in (0, 1, 0)]
    data.save_dataset(data.Dataset(items=items, class_names=["cone", "cube"]), out)
    params = network.init_params(2, rng)
    network.save_checkpoint(out / "model.ckpt", params, network.init_adam(params), ["cone", "cube"])
    return out


VALID_CLOUD = b"3 1\n0.5 -1.0 2.0\n0.0 0.25 1e-3\n-7.0 3.0 0.0\n"
VALID_MANIFEST = b"cone/cone_0000.txt cone\ncube/cube_0000.txt cube\ncone/cone_0001.txt cone\n"
VALID_CONFIG = b"seed = 3\nmode = metasets  # paper\ntask_params = stratified\neta = 0.001\n"


@SETTINGS
@given(blob=arbitrary(VALID_CLOUD))
def test_load_cloud_returns_or_names_the_line(workdir, blob):
    path = workdir / "cloud.txt"
    path.write_bytes(blob)
    try:
        cloud = data.load_cloud(path)
    except data.DatasetFormatError as exc:
        assert_names_line(exc, path)
    else:
        assert cloud.points.ndim == 2 and cloud.points.shape[1] == 3 and len(cloud.points) >= 1
        assert np.isfinite(cloud.points).all() and cloud.label >= 0


@SETTINGS
@given(blob=arbitrary(VALID_MANIFEST))
def test_load_dataset_returns_or_names_the_file(workdir, blob):
    path = workdir / "fuzz_manifest.txt"
    path.write_bytes(blob)
    try:
        dataset = data.load_dataset(path)
    except data.DatasetFormatError as exc:
        # The manifest, or the cloud file of a row; rows hold no whitespace.
        assert re.match(r"\S+:\d+: ", str(exc)), str(exc)
    except OSError as exc:
        assert exc.filename is not None, exc
    else:
        assert len(dataset.items) >= 1
        assert all(0 <= item.label < len(dataset.class_names) for item in dataset.items)


@SETTINGS
@given(blob=arbitrary(VALID_CONFIG))
def test_read_config_returns_or_names_the_line(workdir, blob):
    path = workdir / "fuzz.cfg"
    path.write_bytes(blob)
    try:
        values = cli.read_config(path)
    except cli.ConfigError as exc:
        assert_names_line(exc, path)
    else:
        assert set(values) <= set(cli.CONFIG_TYPES)


@SETTINGS
@given(data_strategy=st.data())
def test_load_checkpoint_returns_or_names_the_path(workdir, data_strategy):
    valid = (workdir / "model.ckpt").read_bytes()
    (size,) = struct.unpack("<I", valid[4:8])
    blob = data_strategy.draw(arbitrary(valid, span=8 + size + 16))
    path = workdir / "fuzz.ckpt"
    path.write_bytes(blob)
    try:
        params, _, class_names = network.load_checkpoint(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)
    else:
        assert set(params) == set(network.PARAM_KEYS)
        assert params["w5"].shape == (network.HEAD_HIDDEN, len(class_names))


def test_deeply_nested_checkpoint_header_names_the_path(workdir):
    """A header nested past the JSON decoder's recursion limit is a bad header, not a crash."""
    blob = b"[" * 100_000
    path = workdir / "deep.ckpt"
    path.write_bytes(network.CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob)
    with pytest.raises(ValueError, match=re.escape(f"{path}: bad checkpoint header")):
        network.load_checkpoint(path)
