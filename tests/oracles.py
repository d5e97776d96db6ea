"""Independent reference implementations used as test oracles.

Nothing here reuses the library's forward/backward code paths: the forward
pass is re-derived per cloud with plain loops, and gradients come from
central finite differences of that independent loss.
"""

import numpy as np

PARAM_KEYS = ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4", "w5", "b5")


def point_features(params, pts):
    """Single-cloud per-point MLP: the (n, 256) features that the max pool reduces."""
    h = pts
    for i in (1, 2, 3):
        h = np.maximum(h @ params[f"w{i}"] + params[f"b{i}"], 0.0)
    return h


def mini_logits(params, pts):
    """Single-cloud forward: per-point MLP, max pool, head."""
    pooled = point_features(params, pts).max(axis=0)
    h4 = np.maximum(pooled @ params["w4"] + params["b4"], 0.0)
    return h4 @ params["w5"] + params["b5"]


def mini_loss(params, clouds, labels):
    """Mean cross entropy over a batch, scalar arithmetic per cloud."""
    total = 0.0
    for pts, label in zip(clouds, labels):
        logits = mini_logits(params, pts)
        m = logits.max()
        total += np.log(np.exp(logits - m).sum()) + m - logits[label]
    return total / len(labels)


def dense_loss_and_grad(params, clouds, labels):
    """Mean cross entropy and its gradient, one cloud at a time, every point.

    The backward of each per-point layer runs over all points of the cloud,
    and the max pool routes each feature's gradient to the first point
    attaining the maximum; the ReLU masks then zero what a closed unit gets.
    """
    batch = len(labels)
    grads = {key: np.zeros_like(params[key]) for key in PARAM_KEYS}
    total = 0.0
    for pts, label in zip(clouds, labels):
        acts = [np.asarray(pts, dtype=np.float64)]
        for i in (1, 2, 3):
            acts.append(np.maximum(acts[-1] @ params[f"w{i}"] + params[f"b{i}"], 0.0))
        pooled = acts[3].max(axis=0)
        h4 = np.maximum(pooled @ params["w4"] + params["b4"], 0.0)
        logits = h4 @ params["w5"] + params["b5"]
        p = np.exp(logits - logits.max())
        total += np.log(p.sum()) + logits.max() - logits[label]
        d = p / p.sum()
        d[label] -= 1.0
        d /= batch
        grads["w5"] += np.outer(h4, d)
        grads["b5"] += d
        d = (d @ params["w5"].T) * (h4 > 0.0)
        grads["w4"] += np.outer(pooled, d)
        grads["b4"] += d
        d_pooled = d @ params["w4"].T
        d = np.zeros_like(acts[3])
        d[acts[3].argmax(axis=0), np.arange(d.shape[1])] = d_pooled
        for i in (3, 2, 1):
            d = d * (acts[i] > 0.0)
            grads[f"w{i}"] += acts[i - 1].T @ d
            grads[f"b{i}"] += d.sum(axis=0)
            d = d @ params[f"w{i}"].T
    return total / batch, grads


def fd_naive(params, clouds, labels, key, index, h=1e-5):
    """Central difference for one coordinate by full recomputation."""
    plus = {k: v.copy() for k, v in params.items()}
    minus = {k: v.copy() for k, v in params.items()}
    plus[key].flat[index] += h
    minus[key].flat[index] -= h
    return (mini_loss(plus, clouds, labels) - mini_loss(minus, clouds, labels)) / (2.0 * h)


def fd_full(params, clouds, labels, h=1e-5):
    """Central finite differences for every parameter coordinate.

    Perturbing w_l[i, j] by d shifts layer-l pre-activation column j by
    d * input_l[:, i] and nothing else (d alone for biases), because a
    matmul is a sum of per-column outer products. The engine perturbs all
    columns of one row at once and honestly recomputes everything downstream
    of the touched column. Exactness of the column identity is separately
    cross-checked against fd_naive in the tests that use this.
    """
    sizes = [len(c) for c in clouds]
    starts = np.array([0] + list(np.cumsum(sizes)[:-1]), dtype=np.intp)
    pts = np.concatenate(clouds, axis=0).astype(np.float64)
    labels = np.asarray(labels)
    batch = len(labels)
    uniform = len(set(sizes)) == 1

    def segment_max(arr, axis):
        # equal-size clouds admit a reshape, much faster than reduceat
        if uniform:
            shape = arr.shape
            if axis == 0:
                return arr.reshape(batch, sizes[0], *shape[1:]).max(axis=1)
            return arr.reshape(shape[0], batch, sizes[0], *shape[2:]).max(axis=2)
        return np.maximum.reduceat(arr, starts, axis=axis)

    z, inputs = {}, {}
    inputs[1] = pts
    z[1] = pts @ params["w1"] + params["b1"]
    inputs[2] = np.maximum(z[1], 0.0)
    z[2] = inputs[2] @ params["w2"] + params["b2"]
    inputs[3] = np.maximum(z[2], 0.0)
    z[3] = inputs[3] @ params["w3"] + params["b3"]
    h3 = np.maximum(z[3], 0.0)
    pooled = segment_max(h3, 0)
    inputs[4] = pooled
    z[4] = pooled @ params["w4"] + params["b4"]
    inputs[5] = np.maximum(z[4], 0.0)
    z[5] = inputs[5] @ params["w5"] + params["b5"]

    def ce(logits):
        m = logits.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(logits - m).sum(axis=-1)) + m[..., 0]
        true = logits[..., np.arange(batch), labels]
        return (lse - true).mean(axis=-1)

    def head_losses(z4_stack):
        h4s = np.maximum(z4_stack, 0.0)
        return ce(h4s @ params["w5"] + params["b5"])

    def col_losses(level, delta):
        """Losses when layer `level` column j is shifted by delta, for all j."""
        if level == 1:
            cand = np.maximum(z[1] + delta[:, None], 0.0)
            d = cand - inputs[2]
            z2s = z[2][None] + np.einsum("tj,jf->jtf", d, params["w2"])
            h2s = np.maximum(z2s, 0.0)
            h3s = np.maximum(h2s @ params["w3"] + params["b3"], 0.0)
            pooled_s = segment_max(h3s, 1)
            return head_losses(pooled_s @ params["w4"] + params["b4"])
        if level == 2:
            cand = np.maximum(z[2] + delta[:, None], 0.0)
            d = cand - inputs[3]
            z3s = z[3][None] + np.einsum("tj,jf->jtf", d, params["w3"])
            h3s = np.maximum(z3s, 0.0)
            pooled_s = segment_max(h3s, 1)
            return head_losses(pooled_s @ params["w4"] + params["b4"])
        if level == 3:
            cand = np.maximum(z[3] + delta[:, None], 0.0)
            pooled_cand = segment_max(cand, 0)
            dpool = pooled_cand - pooled
            z4s = z[4][None] + np.einsum("bj,jf->jbf", dpool, params["w4"])
            return head_losses(z4s)
        if level == 4:
            cand = np.maximum(z[4] + delta[:, None], 0.0)
            d = cand - inputs[5]
            logits_s = z[5][None] + np.einsum("bj,jc->jbc", d, params["w5"])
            return ce(logits_s)
        if level == 5:
            cand = z[5] + delta[:, None]
            n_cls = z[5].shape[1]
            stack = np.repeat(z[5][None], n_cls, axis=0)
            stack[np.arange(n_cls), :, np.arange(n_cls)] = cand.T
            return ce(stack)
        raise AssertionError(level)

    fd = {}
    for level in (1, 2, 3, 4, 5):
        inp = inputs[level]
        grad_w = np.empty_like(params[f"w{level}"])
        for i in range(inp.shape[1]):
            col = inp[:, i]
            grad_w[i] = (col_losses(level, h * col) - col_losses(level, -h * col)) / (2.0 * h)
        fd[f"w{level}"] = grad_w
        ones = np.ones(inp.shape[0])
        fd[f"b{level}"] = (col_losses(level, h * ones) - col_losses(level, -h * ones)) / (2.0 * h)
    return fd


def relative_error(a, b, floor=1e-5):
    """|a - b| over max(|a|, |b|, floor), elementwise."""
    a = np.asarray(a)
    b = np.asarray(b)
    return np.abs(a - b) / np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))


def survivor_indices(original, survivors):
    """Map each surviving row back to its source index, enforcing order.

    Asserts the subset property: every output row appears in the input, in
    the original relative order (exact float comparison).
    """
    idx = []
    i = 0
    for row in survivors:
        while i < len(original) and not np.array_equal(original[i], row):
            i += 1
        assert i < len(original), "output row is not an ordered subset of the input"
        idx.append(i)
        i += 1
    return np.array(idx, dtype=int)
