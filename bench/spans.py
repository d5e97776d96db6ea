"""Span recording around metacloud's public functions, from outside the package.

`Tracer.install` wraps every public function of the traced modules and
rebinds each wrapper at every module attribute that holds the original
function (so `meta.apply_transform` and `cli.apply_transform` are traced as
well as `geometry.apply_transform`). Spans stay in memory until the run
ends; each records its parent, so a layer's self time is its duration minus
the time its child spans cover.
"""

import inspect
import sys
import time

import numpy as np

# network.py architecture: per-point MLP widths and the head's hidden width.
POINT_SIZES = (3, 64, 128, 256)
HEAD_HIDDEN = 128

# Keep the inputs of every Nth loss_and_grad call for the critical-point count.
CRITICAL_SAMPLE_EVERY = 8
CRITICAL_SAMPLE_LIMIT = 64


class Tracer:
    """In-memory span recorder; spans are (id, parent, name, t0, t1, info)."""

    def __init__(self, modules, annotators=None):
        self.modules = modules
        self.annotators = annotators or {}
        self.spans = []
        self.enabled = False
        self.wall = 0.0
        self._stack = [0]
        self._next_id = 1
        self._since = None
        self._restore = []

    def install(self):
        """Wrap each public function and rebind it wherever a module binds it."""
        wrappers = {}
        for module in self.modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(f"{short}.{name}", obj)
        package = self.modules[0].__name__.split(".")[0]
        owners = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((owner, attr, value))
                    setattr(owner, attr, wrapper)
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def start(self):
        self.enabled = True
        self._since = time.perf_counter()

    def stop(self):
        if self.enabled:
            self.wall += time.perf_counter() - self._since
        self.enabled = False

    def _wrap(self, name, fn):
        annotate = self.annotators.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(span_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, name, t0, t1, {"error": type(exc).__name__}))
                raise
            t1 = time.perf_counter()
            tracer._stack.pop()
            info = annotate(args, kwargs, result) if annotate else None
            tracer.spans.append((span_id, parent, name, t0, t1, info))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced


def self_times(spans):
    """Map span id -> duration minus the durations of its direct children."""
    child = {}
    for _, parent, _, t0, t1, _ in spans:
        child[parent] = child.get(parent, 0.0) + (t1 - t0)
    return {sid: (t1 - t0) - child.get(sid, 0.0) for sid, _, _, t0, t1, _ in spans}


# --- annotators: cheap facts about one call, taken after its span closes ---


def _cloud_facts(clouds):
    sizes = [len(c) for c in clouds]
    return {"points": sum(sizes), "clouds": len(sizes), "uniform": len(set(sizes)) == 1}


def make_annotators(file_size):
    """Annotators keyed by span name; file_size(path) returns bytes on disk."""
    samples = []
    counter = {"loss_and_grad": 0}

    def loss_and_grad(args, kwargs, result):
        params, clouds = args[0], list(args[1])
        facts = _cloud_facts(clouds)
        counter["loss_and_grad"] += 1
        if (
            counter["loss_and_grad"] % CRITICAL_SAMPLE_EVERY == 1
            and len(samples) < CRITICAL_SAMPLE_LIMIT
        ):
            samples.append((params, clouds))
        return facts

    def logits_batch(args, kwargs, result):
        return _cloud_facts(list(args[1]))

    def apply_transform(args, kwargs, result):
        spec, points = args[0], args[1]
        return {"kind": spec.kind, "n_in": len(points), "n_out": len(result)}

    def save_cloud(args, kwargs, result):
        return {"bytes": file_size(args[0])}

    def load_cloud(args, kwargs, result):
        return {"bytes": file_size(args[0])}

    def main(args, kwargs, result):
        argv = args[0] if args else kwargs.get("argv")
        return {"command": argv[0] if argv else None, "code": result}

    annotators = {
        "network.loss_and_grad": loss_and_grad,
        "network.logits_batch": logits_batch,
        "geometry.apply_transform": apply_transform,
        "data.save_cloud": save_cloud,
        "data.load_cloud": load_cloud,
        "cli.main": main,
    }
    return annotators, samples


def critical_point_share(samples):
    """Share of points that win at least one max-pool feature.

    The forward is recomputed here from each sampled call's inputs; ties go
    to the lowest point index, as in the network's max-pool backward. A
    feature that is zero at every point sends no gradient back, so it has no
    winner.
    """
    winners = total = 0
    for params, clouds in samples:
        for pts in clouds:
            h = pts
            for i in (1, 2, 3):
                h = np.maximum(h @ params[f"w{i}"] + params[f"b{i}"], 0.0)
            live = h.max(axis=0) > 0.0
            winners += len(np.unique(h.argmax(axis=0)[live]))
            total += len(pts)
    return winners / total if total else 0.0


def loss_and_grad_flops(points, clouds, classes):
    """Matmul flops of one loss_and_grad call (forward plus backward)."""
    a, b, c, d = POINT_SIZES
    per_point_fwd = 2 * (a * b + b * c + c * d)
    # Backward: weight and input gradients for layers 3 and 2, weight only for 1.
    per_point_bwd = 2 * (2 * c * d + 2 * b * c + a * b)
    head = d * HEAD_HIDDEN + HEAD_HIDDEN * classes
    per_cloud = 2 * head + 2 * 2 * head
    return points * (per_point_fwd + per_point_bwd) + clouds * per_cloud


def _p50(values):
    return float(np.median(values)) if values else 0.0


def layer_metrics(tracer, samples, classes, fallbacks, nonzero_exits):
    """Per-module metrics from the recorded spans, name -> (value, unit)."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def durations(name):
        return [t1 - t0 for _, _, _, t0, t1, _ in by_name.get(name, [])]

    def calls(name):
        return len(by_name.get(name, []))

    def module_self(module):
        return sum(selfs[s[0]] for s in spans if s[2].startswith(module + "."))

    m = {}

    transforms = by_name.get("geometry.apply_transform", [])
    for kind in ("density", "dropping", "occlusion"):
        rows = [s for s in transforms if s[5] and s[5].get("kind") == kind]
        m[f"geometry.{kind}.us_p50"] = (_p50([s[4] - s[3] for s in rows]) * 1e6, "us")
        n_in = sum(s[5]["n_in"] for s in rows)
        n_out = sum(s[5]["n_out"] for s in rows)
        m[f"geometry.survivor_ratio.{kind}"] = (n_out / n_in if n_in else 0.0, "ratio")
    m["geometry.apply_transform.calls"] = (len(transforms), "count")
    m["geometry.self_s"] = (module_self("geometry"), "s")
    m["geometry.density_fallbacks"] = (fallbacks, "count")
    density_calls = sum(1 for s in transforms if s[5] and s[5].get("kind") == "density")
    m["geometry.density_retries"] = (calls("geometry.distance_thin") - density_calls, "count")

    lag = by_name.get("network.loss_and_grad", [])
    lag_points = sum(s[5]["points"] for s in lag)
    lag_clouds = sum(s[5]["clouds"] for s in lag)
    lag_time = sum(s[4] - s[3] for s in lag)
    m["network.loss_and_grad.calls"] = (len(lag), "count")
    m["network.loss_and_grad.ms_p50"] = (_p50(durations("network.loss_and_grad")) * 1e3, "ms")
    m["network.loss_and_grad.self_s"] = (sum(selfs[s[0]] for s in lag), "s")
    m["network.loss_and_grad.points_per_call"] = (lag_points / len(lag) if lag else 0.0, "count")
    flops = loss_and_grad_flops(lag_points, lag_clouds, classes)
    m["network.loss_and_grad.gflop_per_s"] = (flops / lag_time / 1e9 if lag_time else 0.0, "GFLOP/s")
    lb = by_name.get("network.logits_batch", [])
    m["network.logits_batch.calls"] = (len(lb), "count")
    m["network.logits_batch.ms_p50"] = (_p50(durations("network.logits_batch")) * 1e3, "ms")
    m["network.logits_batch.points"] = (
        sum(s[5]["points"] for s in lb) / len(lb) if lb else 0.0,
        "count",
    )
    m["network.loss_batch.calls"] = (calls("network.loss_batch"), "count")
    m["network.evaluate.ms_p50"] = (_p50(durations("network.evaluate")) * 1e3, "ms")
    m["network.adam_step.ms_p50"] = (_p50(durations("network.adam_step")) * 1e3, "ms")
    m["network.sgd_step.ms_p50"] = (_p50(durations("network.sgd_step")) * 1e3, "ms")
    m["network.save_checkpoint.ms"] = (_p50(durations("network.save_checkpoint")) * 1e3, "ms")
    m["network.load_checkpoint.ms"] = (_p50(durations("network.load_checkpoint")) * 1e3, "ms")
    batched = lag + lb
    m["network.uniform_batch_share"] = (
        sum(1 for s in batched if s[5]["uniform"]) / len(batched) if batched else 0.0,
        "ratio",
    )
    m["network.critical_point_share"] = (critical_point_share(samples), "ratio")

    m["data.generate_synthetic_dataset.s"] = (_p50(durations("data.generate_synthetic_dataset")), "s")
    m["data.split_train_val.s"] = (_p50(durations("data.split_train_val")), "s")
    m["data.save_cloud.us_p50"] = (_p50(durations("data.save_cloud")) * 1e6, "us")
    m["data.load_cloud.us_p50"] = (_p50(durations("data.load_cloud")) * 1e6, "us")
    m["data.bytes_written"] = (sum(s[5]["bytes"] for s in by_name.get("data.save_cloud", [])), "B")
    m["data.bytes_read"] = (sum(s[5]["bytes"] for s in by_name.get("data.load_cloud", [])), "B")

    m["meta.train.self_s"] = (sum(selfs[s[0]] for s in by_name.get("meta.train", [])), "s")
    m["meta.meta_validate.s"] = (_p50(durations("meta.meta_validate")), "s")
    m["meta.steps"] = (calls("network.adam_step"), "count")

    # cli self time per subcommand: every cli.* span under one cli.main call.
    parent_of = {s[0]: s[1] for s in spans}
    command_of = {s[0]: s[5]["command"] for s in by_name.get("cli.main", []) if s[5]}
    per_command = {}
    for sid, _, name, _, _, _ in spans:
        if not name.startswith("cli."):
            continue
        root = sid
        while root not in command_of and root in parent_of:
            root = parent_of[root]
        if root in command_of:
            per_command[command_of[root]] = per_command.get(command_of[root], 0.0) + selfs[sid]
    for command in ("generate", "transform", "eval"):
        count = sum(1 for c in command_of.values() if c == command)
        m[f"cli.self_s.{command}"] = (per_command.get(command, 0.0) / count if count else 0.0, "s")
    m["cli.nonzero_exits"] = (nonzero_exits, "count")

    covered = sum(selfs.values())
    m["trace.coverage"] = (covered / tracer.wall if tracer.wall else 0.0, "ratio")
    m["trace.spans"] = (len(spans), "count")
    return m
