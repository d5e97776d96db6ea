"""Permutation-invariant point cloud classifier, float64 numpy throughout.

Architecture: a shared per-point MLP 3 -> 64 -> 128 -> 256 with ReLU,
coordinate-wise max pooling over the points of each cloud, then a head
256 -> 128 -> C with one ReLU. Gradients are hand-derived reverse mode; the
max pool routes each feature's gradient to the lowest-index point attaining
the maximum. No normalization layers, no dropout, no input alignment.

Training packs its clouds into one (total, 3) block. Bias adds, ReLUs and
ReLU masks run in place on the matmul results, with the same arithmetic as
fresh arrays would get.

Each row of a per-point layer gets the same bits in any product (seen with
OpenBLAS): a product of two or more rows computes every row alike, and a
lone point goes through as two rows, since numpy would send one row down
the matrix-vector path. A head row does depend on its product: with fewer
than four classes the last rows of its last product round differently, so
training and inference both run the head once per call, on all its rows.

Training (loss_and_grad) keeps all three per-point layers for its
backward. A pack whose clouds share one size n pools the (clouds, n,
features) reshape of the last layer, a pack of mixed sizes cloud by cloud;
a maximum has the same bits in any order it is taken. The backward is
sparse below the pool. Only a point that wins a feature whose maximum is
positive gets any gradient (the "critical" points of PointNet, Qi et al.
2017): a feature that is zero at every point is a closed ReLU. The winners
come from `argmax` beside the pool, are gathered once with `np.unique`, and
layers 3, 2 and 1 run their backward on those rows alone. Their sums then
cover fewer rows in another order than a dense backward would, so the
gradients agree with it to rounding, not bit for bit; the same inputs still
give the same bits.

Inference has one path and no pack. The scorer of row subsets behind
evaluate_tasks runs the per-point layers one clean cloud at a time, pools
each task's rows of that cloud and frees its features before the next
cloud's. Plain logits (logits_batch, evaluate, loss_batch) are the
one-task case: each subset is a whole cloud, pooled with no gather. The
pooled features of every cloud and task (256 floats each) wait for the head.
"""

import json
import struct
from dataclasses import dataclass

import numpy as np

POINT_SIZES = (3, 64, 128, 256)
HEAD_HIDDEN = 128
PARAM_KEYS = ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4", "w5", "b5")

CHECKPOINT_MAGIC = b"MCC\x01"
CHECKPOINT_VERSION = 1

# Adam's decay rates and denominator guard; a checkpoint header records them.
ADAM_SETTINGS = {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8}


def param_shapes(class_count):
    """Shape of every parameter of a class_count-way classifier, PARAM_KEYS order."""
    widths = POINT_SIZES + (HEAD_HIDDEN, class_count)
    shapes = {}
    for layer in range(1, len(widths)):
        shapes[f"w{layer}"] = (widths[layer - 1], widths[layer])
        shapes[f"b{layer}"] = (widths[layer],)
    return shapes


def init_params(class_count, rng):
    """Create the parameter dict for a class_count-way classifier.

    Weights are uniform on (-1/sqrt(fan_in), 1/sqrt(fan_in)), biases zero.
    Weight matrices are drawn in PARAM_KEYS order, so a given rng state
    yields one exact parameter set.
    """
    if class_count < 2:
        raise ValueError(f"need at least 2 classes, got {class_count}")
    params = {}
    for key, shape in param_shapes(class_count).items():
        if key.startswith("w"):
            bound = 1.0 / np.sqrt(shape[0])
            params[key] = rng.uniform(-bound, bound, size=shape)
        else:
            params[key] = np.zeros(shape)
    return params


def _pack(clouds):
    """Concatenate clouds into one (total, 3) block.

    Returns (packed, starts, width): the segment starts, and the size every
    cloud shares, or None when the sizes differ.
    """
    sizes = []
    for pts in clouds:
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise ValueError(f"bad cloud shape {pts.shape}")
        sizes.append(pts.shape[0])
    packed = np.concatenate(clouds, axis=0).astype(np.float64, copy=False)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.intp)
    width = sizes[0] if sizes.count(sizes[0]) == len(sizes) else None
    return packed, starts, width


def _dense_relu(x, w, b):
    """ReLU(x @ w + b), adding the bias and clipping in the matmul's output."""
    z = x @ w
    z += b
    return np.maximum(z, 0.0, out=z)


def _point_layer(x, w, b):
    """_dense_relu for a per-point layer: every row gets the bits it gets among any other rows.

    numpy sends a one-row product down BLAS's matrix-vector path, which can
    round differently from the matrix-matrix path of larger products, so a
    lone point goes through as two copies.
    """
    if len(x) == 1:
        return _dense_relu(np.concatenate((x, x)), w, b)[:1]
    return _dense_relu(x, w, b)


def _point_features(params, pts):
    """Last per-point layer of packed points; each layer is freed once the next exists."""
    h = _point_layer(pts, params["w1"], params["b1"])
    h = _point_layer(h, params["w2"], params["b2"])
    return _point_layer(h, params["w3"], params["b3"])


def _head(params, pooled):
    """(h4, logits) of pooled features, one row per cloud."""
    h4 = _dense_relu(pooled, params["w4"], params["b4"])
    logits = h4 @ params["w5"]
    logits += params["b5"]
    return h4, logits


def logits_batch(params, clouds):
    """Logits for a sequence of clouds, shape (len(clouds), C)."""
    clouds = list(clouds)
    return _task_logits(params, clouds, [[range(len(pts)) for pts in clouds]])[0]


def cross_entropy(logits, labels):
    """Mean cross entropy and the softmax matrix (stable log-sum-exp); one label per row."""
    if len(labels) != len(logits):
        raise ValueError(f"got {len(labels)} labels for {len(logits)} clouds")
    shift = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shift)
    total = exp.sum(axis=1, keepdims=True)
    log_p = shift - np.log(total)
    loss = -log_p[np.arange(len(labels)), labels].mean()
    return loss, exp / total


def loss_batch(params, clouds, labels):
    """Mean cross entropy of the batch."""
    labels = np.asarray(labels)
    logits = logits_batch(params, clouds)
    return float(cross_entropy(logits, labels)[0])


def _pool(h3, starts, width):
    """(pooled, winners): each cloud's max pool of packed features, and the lowest row attaining it.

    A mixed pack pools cloud by cloud, about seven times faster than
    np.maximum.reduceat on 20 clouds of 96 points. The argmax runs on where
    h3 equals its maximum: on floats it would first copy all of h3.
    """
    if width is not None:
        cube = h3.reshape(len(starts), width, -1)
        pooled = cube.max(axis=1)
        return pooled, starts[:, None] + (cube == pooled[:, None]).argmax(axis=1)
    segments = np.split(h3, starts[1:])
    pooled = np.stack([seg.max(axis=0) for seg in segments])
    tops = zip(starts, segments, pooled)
    return pooled, np.stack([lo + (seg == top).argmax(axis=0) for lo, seg, top in tops])


def loss_and_grad(params, clouds, labels):
    """Mean cross entropy plus its exact gradient for every parameter.

    Returns:
        (loss, grads) where grads has the same keys and shapes as params.
    """
    labels = np.asarray(labels)
    pts, starts, width = _pack(list(clouds))
    h1 = _point_layer(pts, params["w1"], params["b1"])
    h2 = _point_layer(h1, params["w2"], params["b2"])
    pooled, winners = _pool(_point_layer(h2, params["w3"], params["b3"]), starts, width)
    h4, logits = _head(params, pooled)
    loss, softmax = cross_entropy(logits, labels)
    batch = len(labels)

    d_logits = softmax.copy()
    d_logits[np.arange(batch), labels] -= 1.0
    d_logits /= batch

    grads = {}
    grads["w5"] = h4.T @ d_logits
    grads["b5"] = d_logits.sum(axis=0)
    d_h4 = d_logits @ params["w5"].T
    d_z4 = np.multiply(d_h4, h4 > 0.0, out=d_h4)
    grads["w4"] = pooled.T @ d_z4
    grads["b4"] = d_z4.sum(axis=0)
    d_pooled = d_z4 @ params["w4"].T

    # Max pool: each feature's gradient goes to its winner, and only where
    # the maximum is positive, since a winner's h3 equals pooled and a zero
    # there is a closed ReLU. No other point gets any gradient, so layers 3,
    # 2 and 1 run their backward on the winner rows alone.
    live = pooled > 0.0
    critical, slot = np.unique(winners[live], return_inverse=True)
    d_z3 = np.zeros((len(critical), pooled.shape[1]))
    d_z3[slot, np.nonzero(live)[1]] = d_pooled[live]
    h2, h1, pts = h2[critical], h1[critical], pts[critical]

    grads["w3"] = h2.T @ d_z3
    grads["b3"] = d_z3.sum(axis=0)
    d_h2 = d_z3 @ params["w3"].T
    d_z2 = np.multiply(d_h2, h2 > 0.0, out=d_h2)
    grads["w2"] = h1.T @ d_z2
    grads["b2"] = d_z2.sum(axis=0)
    d_h1 = d_z2 @ params["w2"].T
    d_z1 = np.multiply(d_h1, h1 > 0.0, out=d_h1)
    grads["w1"] = pts.T @ d_z1
    grads["b1"] = d_z1.sum(axis=0)
    return float(loss), {key: grads[key] for key in PARAM_KEYS}


def evaluate(params, clouds, labels):
    """Mean cross entropy and accuracy over a labeled cloud list."""
    return _score(logits_batch(params, clouds), np.asarray(labels))


def _score(logits, labels):
    loss, _ = cross_entropy(logits, labels)
    return float(loss), float((logits.argmax(axis=1) == labels).mean())


def _task_logits(params, clouds, task_rows):
    """Logits of every task's row subsets of the clouds, one (clouds, C) array per task.

    Array t holds the logits of the clouds [c[r] for c, r in zip(clouds,
    task_rows[t])]. A point's features do not depend on the other points, so
    the per-point layers run once per clean cloud, and a subset's max pool
    is the maximum over its rows of them. The head runs once per task on
    all its rows, as loss_and_grad runs it on its batch.
    """
    pooled = np.empty((len(task_rows), len(clouds), POINT_SIZES[-1]))
    for i, pts in enumerate(clouds):
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise ValueError(f"bad cloud shape {pts.shape}")
        feats = _point_features(params, pts.astype(np.float64, copy=False))
        for out, kept in zip(pooled[:, i], [task[i] for task in task_rows]):
            # Rows are strictly increasing, so as many rows as the cloud has are all of it.
            (feats if len(kept) == len(feats) else feats[kept]).max(axis=0, out=out)
        del feats  # before the next cloud's features exist
    return [_head(params, task_pooled)[1] for task_pooled in pooled]


def evaluate_tasks(params, clouds, task_rows, labels):
    """Mean cross entropy and accuracy of each task's row subsets of the clouds.

    task_rows[t][i] holds the strictly increasing rows of clouds[i] that
    task t keeps; a list as long as the cloud is taken as the whole cloud.
    Entry t of the result equals evaluate(params, [c[r] for c, r in
    zip(clouds, task_rows[t])], labels) bit for bit; the per-point layers
    run once over the clean clouds for all tasks.

    Returns:
        (losses, accuracies), float arrays with one entry per task.
    """
    labels = np.asarray(labels)
    scores = [_score(logits, labels) for logits in _task_logits(params, clouds, task_rows)]
    return np.array([loss for loss, _ in scores]), np.array([acc for _, acc in scores])


def sgd_step(params, grads, lr):
    """One plain gradient step; returns a new parameter dict."""
    return {key: params[key] - lr * grads[key] for key in params}


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter."""

    m: dict
    v: dict
    step: int = 0


def init_adam(params):
    return AdamState(
        m={key: np.zeros_like(params[key]) for key in params},
        v={key: np.zeros_like(params[key]) for key in params},
    )


def adam_step(state, params, grads, lr):
    """One bias-corrected Adam step; returns (new_state, new_params)."""
    t = state.step + 1
    b1, b2, eps = ADAM_SETTINGS["beta1"], ADAM_SETTINGS["beta2"], ADAM_SETTINGS["eps"]
    m, v, out = {}, {}, {}
    for key in params:
        m[key] = b1 * state.m[key] + (1.0 - b1) * grads[key]
        v[key] = b2 * state.v[key] + (1.0 - b2) * grads[key] ** 2
        m_hat = m[key] / (1.0 - b1**t)
        v_hat = v[key] / (1.0 - b2**t)
        out[key] = params[key] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return AdamState(m=m, v=v, step=t), out


def save_checkpoint(path, params, adam_state, class_names):
    """Write params + Adam state to a versioned binary file.

    Layout: 4-byte magic, little-endian u32 header length, minified JSON
    header (version, class names, Adam scalars, array shapes in order),
    then the raw float64 little-endian array buffers in header order.
    Identical inputs produce identical bytes; loading round-trips bit
    exactly.
    """
    arrays = []
    for group, source in (("param", params), ("adam_m", adam_state.m), ("adam_v", adam_state.v)):
        for key in PARAM_KEYS:
            arrays.append((f"{group}/{key}", np.ascontiguousarray(source[key], dtype=np.float64)))
    header = {
        "version": CHECKPOINT_VERSION,
        "class_names": list(class_names),
        "adam": dict(ADAM_SETTINGS, step=adam_state.step),
        "arrays": [[name, list(arr.shape)] for name, arr in arrays],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, arr in arrays:
            fh.write(arr.astype("<f8", copy=False).tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (params, adam_state, class_names).

    A file that is not a whole checkpoint of this version raises ValueError
    with the path in its message.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        size = fh.read(4)
        if len(size) != 4:
            raise ValueError(f"{path}: truncated checkpoint")
        (header_len,) = struct.unpack("<I", size)
        try:
            header = json.loads(fh.read(header_len).decode())
            if header["version"] != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {header['version']}")
            adam = {key: header["adam"][key] for key in ("step", *ADAM_SETTINGS)}
            if type(adam["step"]) is not int or adam["step"] < 0:
                raise ValueError(f"Adam step must be a non-negative int, got {adam['step']!r}")
            for key, value in ADAM_SETTINGS.items():
                if adam[key] != value:
                    raise ValueError(f"Adam {key} must be {value!r}, got {adam[key]!r}")
            shapes = {name: [int(n) for n in shape] for name, shape in header["arrays"]}
            class_names = header["class_names"]
            if type(class_names) is not list or not all(type(n) is str for n in class_names):
                raise ValueError(f"class names must be a list of strings, got {class_names!r}")
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: bad checkpoint header ({exc!r})") from None
        groups = {"param": {}, "adam_m": {}, "adam_v": {}}
        if list(shapes) != [f"{group}/{key}" for group in groups for key in PARAM_KEYS]:
            raise ValueError(f"{path}: checkpoint does not hold the expected arrays")
        expected = param_shapes(len(class_names))
        for name, shape in shapes.items():
            group, key = name.split("/")
            if shape != list(expected[key]):
                raise ValueError(
                    f"{path}: array {name} has shape {shape}, expected"
                    f" {list(expected[key])} for {len(class_names)} classes"
                )
            count = int(np.prod(shape))
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise ValueError(f"{path}: truncated checkpoint")
            groups[group][key] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    adam_state = AdamState(m=groups["adam_m"], v=groups["adam_v"], step=adam["step"])
    return groups["param"], adam_state, class_names
