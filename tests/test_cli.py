"""End-to-end tests for the command line: exit codes, files, output text."""

import importlib.metadata
import json
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metacloud
from metacloud import data, meta, network
from metacloud.cli import ConfigError, main, read_config
from metacloud.geometry import PointCloud


def run_cli(argv):
    """Invoke main() in process, folding argparse SystemExit into the code."""
    try:
        return int(main(argv))
    except SystemExit as exc:
        return int(exc.code)


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    """A small generated dataset shared by the read-only CLI tests."""
    out = tmp_path_factory.mktemp("bench")
    code = run_cli(
        ["generate", "--classes", "3", "--per-class", "7", "--points", "64",
         "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    return out


# ------------------------------------------------------------------- generate


def test_generate_writes_dataset(bench_dir, capsys):
    manifest = bench_dir / "manifest.txt"
    assert manifest.is_file()
    rows = manifest.read_text().splitlines()
    assert len(rows) == 21
    ds = data.load_dataset(bench_dir)
    assert ds.class_names == ["cone", "cube", "cylinder"]
    assert all(item.points.shape == (64, 3) for item in ds.items)


def test_generate_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(
            ["generate", "--classes", "2", "--per-class", "2", "--points", "64",
             "--seed", "9", "--out", str(out)]
        ) == 0
    for rel in (a / "manifest.txt").read_text().split():
        if rel.endswith(".txt"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_generate_usage_errors(tmp_path):
    base = ["generate", "--per-class", "2", "--seed", "0", "--out", str(tmp_path / "x")]
    assert run_cli(base + ["--classes", "1"]) == 2
    assert run_cli(base + ["--classes", "9"]) == 2
    assert run_cli(base + ["--points", "10"]) == 2
    assert run_cli(["generate", "--per-class", "0", "--seed", "0",
                    "--out", str(tmp_path / "y")]) == 2
    assert run_cli(["generate", "--per-class", "2", "--seed", "0"]) == 2  # no --out


def test_no_subcommand_is_usage_error():
    assert run_cli([]) == 2
    assert run_cli(["frobnicate"]) == 2


# ------------------------------------------------------------------ transform


@pytest.fixture()
def cloud_file(tmp_path):
    rng = np.random.default_rng(21)
    path = tmp_path / "cloud_000.txt"
    data.save_cloud(path, PointCloud(rng.standard_normal((1000, 3)), 0))
    return path


def test_transform_dropping_file_counts(cloud_file, tmp_path, capsys):
    out = tmp_path / "dropped"
    code = run_cli(
        ["transform", "--kind", "dropping", "--x", "36", "--seed", "3",
         "--out", str(out), str(cloud_file)]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "(1000 -> 640 points)" in captured.out
    back = data.load_cloud(out / cloud_file.name)
    assert len(back.points) == 640
    assert back.label == 0
    assert (out / "provenance.txt").read_text() == "kind=dropping x=36.0 seed=3\n"


def test_transform_density_and_occlusion(cloud_file, tmp_path):
    out_g = tmp_path / "thinned"
    assert run_cli(
        ["transform", "--kind", "density", "--g", "1.4", "--seed", "4",
         "--out", str(out_g), str(cloud_file)]
    ) == 0
    thinned = data.load_cloud(out_g / cloud_file.name)
    assert 0 < len(thinned.points) < 1000

    out_w = tmp_path / "occluded"
    assert run_cli(
        ["transform", "--kind", "occlusion", "--w", "0.1", "--seed", "4",
         "--out", str(out_w), str(cloud_file)]
    ) == 0
    occluded = data.load_cloud(out_w / cloud_file.name)
    assert 0 < len(occluded.points) < 1000

    out_tiny = tmp_path / "tiny_cells"
    assert run_cli(
        ["transform", "--kind", "occlusion", "--w", "1e-300", "--seed", "4",
         "--out", str(out_tiny), str(cloud_file)]
    ) == 0
    assert len(data.load_cloud(out_tiny / cloud_file.name).points) == 1000


def test_transform_rejects_infinite_gate_and_overflowing_cloud(cloud_file, tmp_path, capsys):
    """Inputs the transforms cannot honour exit 4 and write no cloud."""
    out = tmp_path / "o"
    assert run_cli(["transform", "--kind", "density", "--g", "inf", "--seed", "0",
                    "--out", str(out), str(cloud_file)]) == 4
    assert "error: density gate must be finite and > 1, got inf" in capsys.readouterr().err
    huge = tmp_path / "huge.txt"
    data.save_cloud(huge, PointCloud(data.load_cloud(cloud_file).points * 1e200, 0))
    for kind, flag, value in (("density", "--g", "1.4"), ("dropping", "--x", "36")):
        assert run_cli(["transform", "--kind", kind, flag, value, "--seed", "0",
                        "--out", str(out), str(huge)]) == 4
        assert "point distances are not finite" in capsys.readouterr().err
        assert not (out / huge.name).exists()


def test_transform_writes_nothing_when_a_file_fails(cloud_file, tmp_path, capsys):
    """Every file is transformed before any is written; the error names the file."""
    huge = tmp_path / "huge.txt"
    data.save_cloud(huge, PointCloud(data.load_cloud(cloud_file).points * 1e200, 0))
    out = tmp_path / "o"
    assert run_cli(["transform", "--kind", "dropping", "--x", "30", "--seed", "0",
                    "--out", str(out), str(cloud_file), str(huge)]) == 4
    err = capsys.readouterr().err
    assert f"error: {huge}: point distances are not finite" in err
    assert not out.exists()


def test_transform_rejects_overflowing_occlusion_cells(tmp_path, capsys):
    """Cell indices past the float range would merge cells; the transform exits 4."""
    src = tmp_path / "far.txt"
    data.save_cloud(src, PointCloud(
        np.array([[0.0, 0.0, 0.0], [1e10, -1e10, 0.0], [2e10, -3e10, 0.5]]), 0))
    out = tmp_path / "o"
    assert run_cli(["transform", "--kind", "occlusion", "--w", "1e-300", "--seed", "0",
                    "--out", str(out), str(src)]) == 4
    assert f"error: {src}: occlusion cell indices are not finite" in capsys.readouterr().err
    assert not out.exists()


def test_transform_seed_determinism(cloud_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(
            ["transform", "--kind", "density", "--g", "1.3", "--seed", "7",
             "--out", str(out), str(cloud_file)]
        ) == 0
    assert (a / cloud_file.name).read_bytes() == (b / cloud_file.name).read_bytes()


def test_transform_flag_pairing_enforced(cloud_file, tmp_path):
    out = str(tmp_path / "o")
    assert run_cli(["transform", "--kind", "dropping", "--g", "1.3", "--seed", "0",
                    "--out", out, str(cloud_file)]) == 2
    assert run_cli(["transform", "--kind", "density", "--seed", "0",
                    "--out", out, str(cloud_file)]) == 2
    assert run_cli(["transform", "--kind", "occlusion", "--w", "0.1", "--x", "20",
                    "--seed", "0", "--out", out, str(cloud_file)]) == 2
    assert run_cli(["transform", "--kind", "blur", "--seed", "0",
                    "--out", out, str(cloud_file)]) == 2


def test_transform_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a header\n")
    out = str(tmp_path / "o")
    assert run_cli(["transform", "--kind", "dropping", "--x", "20", "--seed", "0",
                    "--out", out, str(bad)]) == 3
    assert run_cli(["transform", "--kind", "dropping", "--x", "20", "--seed", "0",
                    "--out", out, str(tmp_path / "missing.txt")]) == 4
    nan = tmp_path / "nan.txt"
    nan.write_text("2 0\n0 0 0\nnan 0 0\n")
    assert run_cli(["transform", "--kind", "dropping", "--x", "20", "--seed", "0",
                    "--out", out, str(nan)]) == 3
    utf16 = tmp_path / "utf16.txt"
    utf16.write_bytes(b"\xff\xfe1\x00 \x000\x00")
    assert run_cli(["transform", "--kind", "dropping", "--x", "20", "--seed", "0",
                    "--out", out, str(utf16)]) == 3
    assert f"error: {utf16}:1: not UTF-8" in capsys.readouterr().err


def test_transform_rejects_inputs_sharing_a_base_name(cloud_file, tmp_path, capsys):
    """Two inputs that would write one output file are a usage error; nothing is written."""
    other = tmp_path / "b" / cloud_file.name
    other.parent.mkdir()
    other.write_bytes(cloud_file.read_bytes())
    out = tmp_path / "t"
    assert run_cli(["transform", "--kind", "dropping", "--x", "30", "--seed", "2",
                    "--out", str(out), str(cloud_file), str(other)]) == 2
    err = capsys.readouterr().err
    assert f"{cloud_file} and {other} would both be written to {out / cloud_file.name}" in err
    assert not out.exists()


# --------------------------------------------------------------------- config


def test_read_config_parses_flat_keys(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "# comment line\n"
        "seed = 3\n"
        "batch_size = 16   # trailing comment\n"
        "eta = 0.01\n"
        "\n"
        "mode = augment\n"
        "task_params = stratified\n"
    )
    values = read_config(cfg)
    assert values == {
        "seed": 3, "batch_size": 16, "eta": 0.01,
        "mode": "augment", "task_params": "stratified",
    }


def test_read_config_errors_carry_line_numbers(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("seed = 3\nlearning_rate = 0.1\n")
    with pytest.raises(ConfigError, match=r"a\.cfg:2: unknown key"):
        read_config(bad_key)

    bad_value = tmp_path / "b.cfg"
    bad_value.write_text("seed = soon\n")
    with pytest.raises(ConfigError, match=r"b\.cfg:1: bad value"):
        read_config(bad_value)

    bad_shape = tmp_path / "c.cfg"
    bad_shape.write_text("seed 3\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        read_config(bad_shape)

    bad_mode = tmp_path / "d.cfg"
    bad_mode.write_text("seed = 3\nmode = turbo\n")
    with pytest.raises(ConfigError, match=r"d\.cfg:2: unknown mode 'turbo'"):
        read_config(bad_mode)

    bad_tasks = tmp_path / "e.cfg"
    bad_tasks.write_text("task_params = fancy\n")
    with pytest.raises(ConfigError, match=r"e\.cfg:1: unknown task_params 'fancy'"):
        read_config(bad_tasks)

    not_utf8 = tmp_path / "f.cfg"
    not_utf8.write_bytes(b"seed = 3\nmode = none \xff\n")
    with pytest.raises(ConfigError, match=r"f\.cfg:2: not UTF-8 text"):
        read_config(not_utf8)


def test_read_config_rejects_a_repeated_key(tmp_path, bench_dir, capsys):
    """A key set twice is a parse error at the repeat, naming the first line."""
    cfg = tmp_path / "a.cfg"
    cfg.write_text("max_epochs = 1\n# again\nmax_epochs = 2\n")
    with pytest.raises(ConfigError, match=r"a\.cfg:3: key 'max_epochs' already set on line 1$"):
        read_config(cfg)
    out = tmp_path / "run"
    assert run_cli(["train", "--manifest", str(bench_dir), "--config", str(cfg),
                    "--seed", "0", "--out", str(out)]) == 3
    assert f"error: {cfg}:3: key 'max_epochs' already set on line 1" in capsys.readouterr().err
    assert not out.exists()


def test_read_config_lines_end_at_newline_only(tmp_path):
    """A form feed neither ends a config line nor shifts the numbers of later lines."""
    shifted = tmp_path / "a.cfg"
    shifted.write_text("seed = 3\x0c\nlearning_rate = 0.1\n")
    with pytest.raises(ConfigError, match=r"a\.cfg:2: unknown key 'learning_rate'"):
        read_config(shifted)

    joined = tmp_path / "b.cfg"
    joined.write_text("seed = 3\nmode = none\x0cbatch_size = 4\n")
    with pytest.raises(ConfigError, match=r"b\.cfg:2: unknown mode"):
        read_config(joined)

    crlf = tmp_path / "c.cfg"
    crlf.write_bytes(b"seed = 3\r\nmode = none\r\n")
    assert read_config(crlf) == {"seed": 3, "mode": "none"}


# ------------------------------------------------------------------ train/eval


@pytest.fixture(scope="module")
def trained_dir(bench_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = out / "train.cfg"
    cfg.write_text(
        "batch_size = 8\ntasks_per_step = 2\nmax_epochs = 2\n"
        "eta = 0.005\nbeta = 0.01\n"
    )
    code = run_cli(
        ["train", "--manifest", str(bench_dir), "--config", str(cfg),
         "--seed", "11", "--out", str(out)]
    )
    assert code == 0
    return out


def test_train_writes_artifacts(trained_dir, capsys):
    assert (trained_dir / "model.ckpt").is_file()
    history = (trained_dir / "history.csv").read_text().splitlines()
    assert len(history) == 3  # header + 2 epochs
    assert history[0].startswith("epoch,val_loss_1")
    summary = json.loads((trained_dir / "summary.json").read_text())
    assert summary["mode"] == "metasets"
    assert summary["task_params"] == "paper"
    assert summary["epochs_run"] == 2
    assert summary["config"]["seed"] == 11
    assert len(summary["tasks"]) == 9


def test_train_flags_override_config(bench_dir, tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("seed = 11\nmode = none\nbatch_size = 8\nmax_epochs = 1\nbeta = 0.01\n")
    out = tmp_path / "run"
    code = run_cli(
        ["train", "--manifest", str(bench_dir), "--config", str(cfg),
         "--mode", "augment", "--out", str(out)]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "epoch 1:" in captured.out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "augment"
    assert summary["config"]["seed"] == 11  # seed came from the file


def test_train_requires_a_seed(bench_dir, tmp_path):
    assert run_cli(["train", "--manifest", str(bench_dir),
                    "--out", str(tmp_path / "r")]) == 2


def test_negative_seeds_are_rejected_by_name(bench_dir, cloud_file, tmp_path, capsys):
    """--seed below 0 is a usage error naming the flag; a config seed below 0 names the key."""
    out = str(tmp_path / "o")
    for argv in (
        ["generate", "--per-class", "2", "--seed", "-1", "--out", out],
        ["transform", "--kind", "density", "--g", "1.4", "--seed", "-2", "--out", out,
         str(cloud_file)],
        ["train", "--manifest", str(bench_dir), "--seed", "-3", "--out", out],
        ["train", "--manifest", str(bench_dir), "--seed", "three", "--out", out],
    ):
        assert run_cli(argv) == 2
        assert "argument --seed: expected a non-negative integer" in capsys.readouterr().err
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("seed = -5\n")
    assert run_cli(["train", "--manifest", str(bench_dir), "--config", str(cfg),
                    "--out", out]) == 4
    assert "error: seed must be >= 0, got -5" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_reports_config_and_data_errors(bench_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_factor = 9\n")
    assert run_cli(["train", "--manifest", str(bench_dir), "--config", str(cfg),
                    "--seed", "0", "--out", str(tmp_path / "r")]) == 3
    cfg.write_bytes(b"seed = 3\nmode = none \xff\n")
    assert run_cli(["train", "--manifest", str(bench_dir), "--config", str(cfg),
                    "--out", str(tmp_path / "r")]) == 3
    assert f"error: {cfg}:2: not UTF-8 text" in capsys.readouterr().err
    cfg.write_text("seed = 0\nepsilon = inf\n")
    assert run_cli(["train", "--manifest", str(bench_dir), "--config", str(cfg),
                    "--out", str(tmp_path / "r")]) == 4
    assert "error: epsilon must be finite" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
    assert run_cli(["train", "--manifest", str(tmp_path / "nowhere"),
                    "--seed", "0", "--out", str(tmp_path / "r")]) == 4
    assert run_cli(["train", "--manifest", str(bench_dir), "--mode", "warp",
                    "--seed", "0", "--out", str(tmp_path / "r")]) == 2


def test_train_stops_on_non_finite_loss(bench_dir, tmp_path, capsys):
    """A diverging run exits 4 naming epoch, step and task, and writes nothing."""
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("mode = none\nbeta = 1e200\nbatch_size = 4\nmax_epochs = 2\n")
    out = tmp_path / "r"
    with np.errstate(all="ignore"):
        code = run_cli(["train", "--manifest", str(bench_dir), "--config", str(cfg),
                        "--seed", "0", "--out", str(out)])
    assert code == 4
    assert re.search(r"error: epoch 1, step \d+, task raw: training loss is nan",
                     capsys.readouterr().err)
    assert not out.exists()


def test_train_prints_each_epoch_line_as_the_epoch_ends(bench_dir, tmp_path, capsys, monkeypatch):
    """A loss that turns nan in epoch 2 exits 4 after epoch 1's line, and writes nothing."""
    real_step, steps = meta._meta_step, []

    def nan_at_second_step(*args):
        result = real_step(*args)
        steps.append(result)
        if len(steps) == 2:
            result.task_losses = np.full_like(result.task_losses, np.nan)
        return result

    monkeypatch.setattr(meta, "_meta_step", nan_at_second_step)
    cfg = tmp_path / "one_step_per_epoch.cfg"
    cfg.write_text("mode = none\nbatch_size = 64\nmax_epochs = 3\n")
    out = tmp_path / "r"
    code = run_cli(["train", "--manifest", str(bench_dir), "--config", str(cfg),
                    "--seed", "0", "--out", str(out)])
    assert code == 4
    captured = capsys.readouterr()
    assert re.fullmatch(
        r"epoch 1: train_loss=\S+ val_loss_mean=\S+ val_acc_mean=\S+\n", captured.out
    ), captured.out
    assert "error: epoch 2, step 1, task raw: training loss is nan" in captured.err
    assert not out.exists()


def test_train_stops_on_non_finite_gradient(bench_dir, tmp_path, capsys, monkeypatch):
    """A nan outer gradient under finite losses exits 4 naming epoch, step and parameter."""
    real_step = meta._meta_step

    def nan_gradient(*args):
        result = real_step(*args)
        result.grads["b5"] = np.full_like(result.grads["b5"], np.nan)
        return result

    monkeypatch.setattr(meta, "_meta_step", nan_gradient)
    out = tmp_path / "r"
    code = run_cli(["train", "--manifest", str(bench_dir), "--seed", "0", "--out", str(out)])
    assert code == 4
    assert "error: epoch 1, step 1: outer gradient of b5 is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_eval_reports_accuracy(trained_dir, bench_dir, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = run_cli(
        ["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
         "--manifest", str(bench_dir), "--out", str(report)]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "overall" in captured.out
    loaded = json.loads(report.read_text())
    assert loaded["count"] == 21
    assert 0.0 <= loaded["accuracy"] <= 1.0
    assert set(loaded["per_class"]) == {"cone", "cube", "cylinder"}


def test_eval_rejects_mismatched_dataset(trained_dir, tmp_path):
    other = tmp_path / "other"
    assert run_cli(["generate", "--classes", "4", "--per-class", "2", "--points", "64",
                    "--seed", "1", "--out", str(other)]) == 0
    assert run_cli(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                    "--manifest", str(other)]) == 4
    assert run_cli(["eval", "--checkpoint", str(tmp_path / "no.ckpt"),
                    "--manifest", str(other)]) == 4


def test_eval_rejects_corrupt_checkpoint(bench_dir, tmp_path, capsys):
    """A cut checkpoint, or a header whose Adam beta1 or eps is not the optimizer's, exits 4."""
    bad = tmp_path / "cut.ckpt"
    bad.write_bytes(b"MCC\x01\x05")
    assert run_cli(["eval", "--checkpoint", str(bad), "--manifest", str(bench_dir)]) == 4
    assert f"error: {bad}: truncated checkpoint" in capsys.readouterr().err

    params = network.init_params(3, np.random.default_rng(0))
    path = tmp_path / "model.ckpt"
    network.save_checkpoint(path, params, network.init_adam(params), ["cone", "cube", "cylinder"])
    blob = path.read_bytes()
    (size,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8 : 8 + size])
    for key, value in (("beta1", "x"), ("eps", -1.0)):
        text = json.dumps(dict(header, adam=dict(header["adam"], **{key: value}))).encode()
        bad = tmp_path / f"{key}.ckpt"
        bad.write_bytes(blob[:4] + struct.pack("<I", len(text)) + text + blob[8 + size :])
        assert run_cli(["eval", "--checkpoint", str(bad), "--manifest", str(bench_dir)]) == 4
        assert f"error: {bad}: bad checkpoint header" in capsys.readouterr().err


def test_eval_rejects_checkpoint_of_wrong_shape(bench_dir, tmp_path, capsys):
    """A checkpoint whose arrays do not fit the architecture exits 4, naming the array."""
    rng = np.random.default_rng(0)
    params = network.init_params(3, rng)
    params["w1"] = params["w1"].T.copy()
    path = tmp_path / "w1.ckpt"
    network.save_checkpoint(path, params, network.init_adam(params), ["cone", "cube", "cylinder"])
    assert run_cli(["eval", "--checkpoint", str(path), "--manifest", str(bench_dir)]) == 4
    assert f"error: {path}: array param/w1 has shape [64, 3]" in capsys.readouterr().err


def test_eval_rejects_manifest_row_with_nul_byte(trained_dir, bench_dir, tmp_path, capsys):
    """A manifest row holding a NUL byte exits 3 naming manifest:line."""
    rows = (bench_dir / "manifest.txt").read_text().splitlines()
    rows[2] = rows[2].replace(".txt", "\0.txt")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(f"{bench_dir}/{row}" for row in rows) + "\n")
    assert run_cli(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                    "--manifest", str(manifest)]) == 3
    assert f"error: {manifest}:3: manifest row holds a NUL byte" in capsys.readouterr().err


# -------------------------------------------------------------- entry points


def test_module_entry_point(tmp_path, child_env):
    out = tmp_path / "m"
    proc = subprocess.run(
        [sys.executable, "-m", "metacloud", "generate", "--classes", "2",
         "--per-class", "1", "--points", "64", "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote 2 clouds" in proc.stdout
    assert (out / "manifest.txt").is_file()


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from metacloud import *", namespace)  # a stale __all__ entry raises AttributeError
    assert set(metacloud.__all__) <= namespace.keys()


def console_script_target(name):
    """The `module:function` that the `name` console script runs.

    Read from `[project.scripts]` in this checkout's pyproject.toml, so a
    missing key fails the test. Python 3.10 has no tomllib; there the target
    comes from an installed distribution's entry points, if there is one.
    """
    try:
        import tomllib
    except ModuleNotFoundError:
        found = importlib.metadata.entry_points(group="console_scripts", name=name)
        if not found:
            pytest.importorskip("tomllib")
        return next(iter(found)).value
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def test_console_script_usage_error(tmp_path, child_env):
    # Run the entry point the way the wrapper that `pip install` writes does,
    # so the test needs no install. The child imports the same metacloud as
    # this process, and writes any stray output into tmp_path.
    module, _, func = console_script_target("metacloud").partition(":")
    wrapper = (f"import sys\nfrom {module} import {func}\n"
               f"sys.argv[0] = 'metacloud'\nsys.exit({func}())")
    proc = subprocess.run(
        [sys.executable, "-c", wrapper,
         "transform", "--kind", "density", "--seed", "0", "--out", "x"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env, timeout=120,
    )
    assert proc.returncode == 2
    assert "FILE" in proc.stderr or "usage" in proc.stderr.lower()
