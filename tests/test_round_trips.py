"""Round trips through every file format: what is written reads back exactly.

- network.save_checkpoint / load_checkpoint: parameters, Adam state and
  class names come back with the same bits, and two saves give the same
  bytes;
- "key = value" config files: cli.read_config returns every value with its
  type and bits;
- data.save_dataset / load_dataset: every cloud comes back with the same
  bits under the same class name.

Hypothesis runs derandomized, without an example database, so every run
tries the same inputs.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metacloud import cli, data, meta, network
from metacloud.geometry import PointCloud


def round_trip_settings(max_examples):
    return settings(
        derandomize=True,
        database=None,
        max_examples=max_examples,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@round_trip_settings(100)
@given(
    classes=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 3),
    names=st.lists(st.text(max_size=12), min_size=6, max_size=6),
    specials=st.lists(
        st.tuples(st.sampled_from(network.PARAM_KEYS), st.integers(0, 2**20), st.floats()),
        max_size=4,
    ),
)
def test_checkpoint_round_trip(classes, seed, steps, names, specials):
    """Random parameters with special floats, 1-3 Adam steps, any str class names."""
    rng = np.random.default_rng(seed)
    params = {
        key: rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300)
        for key, shape in network.param_shapes(classes).items()
    }
    for key, index, value in specials:
        params[key].flat[index % params[key].size] = value
    state = network.init_adam(params)
    for _ in range(steps):
        grads = {key: rng.standard_normal(p.shape) for key, p in params.items()}
        state, params = network.adam_step(state, params, grads, 1e-3)
    class_names = names[:classes]
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.ckpt", Path(tmp) / "b.ckpt"
        network.save_checkpoint(first, params, state, class_names)
        network.save_checkpoint(second, params, state, class_names)
        assert first.read_bytes() == second.read_bytes()
        got_params, got_state, got_names = network.load_checkpoint(first)
    assert got_names == class_names
    assert got_state.step == steps
    for key in network.PARAM_KEYS:
        assert same_bits(got_params[key], params[key]), key
        assert same_bits(got_state.m[key], state.m[key]), key
        assert same_bits(got_state.v[key], state.v[key]), key


def positive_floats():
    return st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


CONFIG_VALUES = {
    "seed": st.integers(0, 2**128),
    "batch_size": st.integers(1, 2**63),
    "tasks_per_step": st.integers(1, 2**63),
    "eta": st.floats(min_value=0.0, allow_infinity=False),
    "beta": positive_floats(),
    "epsilon": positive_floats(),
    "max_epochs": st.integers(1, 2**63),
    "mode": st.sampled_from(meta.MODES),
    "task_params": st.sampled_from(meta.TASK_MODES),
}


@round_trip_settings(400)
@given(
    values=st.fixed_dictionaries({}, optional=CONFIG_VALUES),
    order=st.randoms(use_true_random=False),
)
def test_config_round_trip(values, order):
    """Valid TrainConfig values as repr, the mode and task set as bare words, in any order."""
    assert set(CONFIG_VALUES) == set(cli.CONFIG_TYPES)
    train_values = {k: v for k, v in values.items() if k in cli.TRAIN_CONFIG_TYPES}
    meta.TrainConfig(**dict({"seed": 0}, **train_values))
    keys = list(values)
    order.shuffle(keys)
    text = {key: value if isinstance(value, str) else repr(value) for key, value in values.items()}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text("".join(f"{key} = {text[key]}\n" for key in keys), encoding="utf-8")
        got = cli.read_config(path)
    assert {k: (type(v), repr(v)) for k, v in got.items()} == {
        k: (type(v), repr(v)) for k, v in values.items()
    }


# A class name is a directory and a file name prefix, and one field of a
# whitespace-split manifest row: no whitespace, "/", NUL or surrogate.
CLASS_NAMES = st.text(
    st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters="/\0",
    ).filter(lambda c: not c.isspace()),
    min_size=1,
    max_size=16,
).filter(lambda name: name not in (".", ".."))

COORDINATES = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    names = draw(st.lists(CLASS_NAMES, min_size=1, max_size=4, unique=True))
    items = []
    for _ in range(draw(st.integers(1, 6))):
        label = draw(st.integers(0, len(names) - 1))
        count = draw(st.integers(1, 5))
        coords = draw(st.lists(COORDINATES, min_size=3 * count, max_size=3 * count))
        items.append(PointCloud(np.array(coords, dtype=np.float64).reshape(count, 3), label))
    return data.Dataset(items=items, class_names=names)


@round_trip_settings(200)
@given(dataset=datasets())
def test_manifest_round_trip(dataset):
    """save_dataset then load_dataset: same clouds in item order, bit for bit, same names."""
    with tempfile.TemporaryDirectory() as tmp:
        data.save_dataset(dataset, tmp)
        loaded = data.load_dataset(tmp)
    assert len(loaded.items) == len(dataset.items)
    for want, got in zip(dataset.items, loaded.items):
        assert same_bits(got.points, want.points)
        assert loaded.class_names[got.label] == dataset.class_names[want.label]
