"""Command-line surface: artifacts, exit codes, resume flow, env overrides."""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taam
from taam import harness
from taam.checkpoint import frozen_path, load_checkpoint
from taam.cli import _epoch_lines, main
from taam.config import RunConfig
from taam.datasets import load_planetoid, resolve_dataset

from matrix_csv import read_matrix_csv

TINY = "sbm:classes=4,npc=25,dim=8,sep=10"


def run_cli(*argv):
    return main(list(argv))


def write_tiny_config(tmp_path, **extra):
    lines = {"dataset": TINY, "hidden_dim": 16, "epochs": 15, "seed": 0}
    lines.update(extra)
    path = tmp_path / "run.conf"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return path


def test_epoch_log_line_format():
    lines = _epoch_lines(np.array([[0.125, 87.5, 75.0], [0.0625, 100.0, np.nan]]))
    assert lines == [
        b"epoch=1 loss=0.125 train_acc=87.5000 val_acc=75.0000\n",
        b"epoch=2 loss=0.0625 train_acc=100.0000 val_acc=nan\n",
    ]


def test_run_writes_all_artifacts(tmp_path):
    conf = write_tiny_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(conf), "--out", str(out)) == 0

    summary = json.loads((out / "summary.json").read_text())
    assert summary["stages_completed"] == 2
    assert summary["method"] == "taam"
    matrix = read_matrix_csv(out / "matrix.csv")
    assert not np.isnan(matrix[np.tril_indices(2)]).any()
    assert summary["AA"] == pytest.approx(matrix[1, :2].mean())
    state = load_checkpoint(out / "checkpoint.bin")
    assert state.completed == 2
    for t in (1, 2):
        log_lines = (out / f"task_{t:02d}_train.log").read_text().splitlines()
        assert len(log_lines) == 15
        assert log_lines[0].startswith("epoch=1 loss=")


def test_repeat_run_is_bitwise_stable(tmp_path):
    conf = write_tiny_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(conf), "--out", str(out)) == 0
    first = {
        name: (out / name).read_bytes()
        for name in ("matrix.csv", "checkpoint.bin", "summary.json")
    }
    assert run_cli("run", "--config", str(conf), "--out", str(out)) == 0
    assert (out / "matrix.csv").read_bytes() == first["matrix.csv"]
    assert (out / "checkpoint.bin").read_bytes() == first["checkpoint.bin"]
    a = json.loads(first["summary.json"])
    b = json.loads((out / "summary.json").read_text())
    a.pop("wall_time_seconds"), b.pop("wall_time_seconds")
    assert a == b


def test_stop_after_then_resume_matches_full_run(tmp_path):
    conf = write_tiny_config(tmp_path, dataset="sbm:classes=6,npc=25,dim=8,sep=10")
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(conf), "--out", str(out)) == 0
    full_matrix = (out / "matrix.csv").read_bytes()
    full_ckpt = (out / "checkpoint.bin").read_bytes()
    full_frozen = (out / "checkpoint.bin.frozen").read_bytes()

    assert run_cli("run", "--config", str(conf), "--out", str(out), "--stop-after", "2") == 0
    interrupted = tmp_path / "interrupted.bin"
    shutil.copyfile(out / "checkpoint.bin", interrupted)
    shutil.copyfile(out / "checkpoint.bin.frozen", frozen_path(interrupted))

    assert run_cli("run", "--config", str(conf), "--out", str(out),
                   "--resume", str(interrupted)) == 0
    assert (out / "matrix.csv").read_bytes() == full_matrix
    assert (out / "checkpoint.bin").read_bytes() == full_ckpt
    assert (out / "checkpoint.bin.frozen").read_bytes() == full_frozen


def test_eval_reproduces_final_row(tmp_path):
    conf = write_tiny_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(conf), "--out", str(out)) == 0
    assert run_cli("eval", "--checkpoint", str(out / "checkpoint.bin")) == 0
    payload = json.loads((out / "eval_summary.json").read_text())
    matrix = read_matrix_csv(out / "matrix.csv")
    assert payload["accuracies"] == [float(v) for v in matrix[1, :2]]
    summary = json.loads((out / "summary.json").read_text())
    assert payload["AA"] == pytest.approx(summary["AA"])


def test_f32_eval_reproduces_final_row(tmp_path):
    conf = write_tiny_config(tmp_path, precision="f32")
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(conf), "--out", str(out)) == 0
    assert run_cli("eval", "--checkpoint", str(out / "checkpoint.bin")) == 0
    payload = json.loads((out / "eval_summary.json").read_text())
    assert payload["accuracies"] == [float(v) for v in read_matrix_csv(out / "matrix.csv")[1, :2]]


@pytest.mark.parametrize("classes", [4, 8])
def test_eval_on_another_stream_is_a_usage_error(tmp_path, capsys, classes):
    # the checkpoint is for 3 tasks; 4 classes make 2 tasks and 8 make 4
    conf = write_tiny_config(tmp_path, dataset="sbm:classes=6,npc=25,dim=8,sep=10", epochs=3)
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(conf), "--out", str(out)) == 0
    capsys.readouterr()
    code = run_cli("eval", "--checkpoint", str(out / "checkpoint.bin"),
                   "--dataset", f"sbm:classes={classes},npc=25,dim=8,sep=10")
    assert code == 2
    assert f"checkpoint is for 3 tasks, the stream has {classes // 2}" in capsys.readouterr().err
    assert not (out / "eval_summary.json").exists()


def test_eval_on_a_stream_of_another_width_is_a_usage_error(tmp_path, capsys):
    # same tasks and class groups, one more input feature
    conf = write_tiny_config(tmp_path, dataset="sbm:classes=6,npc=25,dim=8,sep=10", epochs=3)
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(conf), "--out", str(out)) == 0
    capsys.readouterr()
    code = run_cli("eval", "--checkpoint", str(out / "checkpoint.bin"),
                   "--dataset", "sbm:classes=6,npc=25,dim=9,sep=10")
    assert code == 2
    assert "checkpoint is for 8 input features, the stream has 9" in capsys.readouterr().err
    assert not (out / "eval_summary.json").exists()


def test_resume_on_a_dataset_file_of_another_width_is_a_usage_error(tmp_path, capsys):
    # the dataset file is rewritten between the stop and the resume
    prefix = tmp_path / "g"
    gen = ["gen-sbm", "--out", str(prefix), "--classes", "6", "--nodes-per-class", "25", "--separation", "10"]
    assert run_cli(*gen, "--dim", "8") == 0
    conf = write_tiny_config(tmp_path, dataset=str(prefix), epochs=3)
    run = ["run", "--config", str(conf), "--out"]
    assert run_cli(*run, str(tmp_path / "part"), "--stop-after", "1") == 0
    assert run_cli(*gen, "--dim", "9") == 0
    capsys.readouterr()
    resumed = tmp_path / "resumed"
    assert run_cli(*run, str(resumed), "--resume", str(tmp_path / "part" / "checkpoint.bin")) == 2
    assert "checkpoint is for 8 input features, the stream has 9" in capsys.readouterr().err
    assert list(resumed.iterdir()) == []


def test_ablate_writes_three_variants(tmp_path, capsys):
    out = tmp_path / "ablate"
    code = run_cli("ablate", "--dataset", "sbm:classes=4,npc=25,dim=8,sep=10",
                   "--epochs", "10", "--out", str(out))
    assert code == 0
    for variant in ("nsm_only", "retrieval_only", "full"):
        summary = json.loads((out / variant / "summary.json").read_text())
        assert summary["ablation"] == variant
    table = capsys.readouterr().out
    assert "nsm_only" in table and "full" in table


def test_gradcheck_command(capsys):
    assert run_cli("gradcheck", "--seeds", "2") == 0
    out = capsys.readouterr().out
    assert "seed=0" in out and "ok" in out and "worst over 2 seeds" in out


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_gradcheck_without_seeds_is_a_usage_error(capsys, seeds):
    assert run_cli("gradcheck", "--seeds", seeds) == 2
    captured = capsys.readouterr()
    assert "--seeds must be >= 1" in captured.err and "worst over" not in captured.out


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1e-4"])
def test_gradcheck_with_a_bad_tolerance_is_a_usage_error(capsys, tolerance):
    # "worst > nan" is false, so a NaN tolerance would pass every seed
    assert run_cli("gradcheck", "--seeds", "1", f"--tolerance={tolerance}") == 2
    captured = capsys.readouterr()
    assert "--tolerance must be finite and >= 0" in captured.err and "seed=0" not in captured.out


@pytest.mark.parametrize(
    "argv,name",
    [
        (["gen-sbm", "--noise", "nan"], "feature_noise"),
        (["gen-sbm", "--separation", "inf"], "separation"),
        (["run", "--dataset", "sbm:sep=nan"], "separation"),
        (["run", "--dataset", "sbm:noise=-inf"], "feature_noise"),
    ],
)
def test_non_finite_sbm_parameter_is_a_usage_error(tmp_path, capsys, argv, name):
    assert run_cli(*argv, "--out", str(tmp_path / "x")) == 2
    assert f"error: {name} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "x").exists() or list((tmp_path / "x").iterdir()) == []


def test_gen_sbm_round_trips_through_parser(tmp_path, capsys):
    prefix = tmp_path / "toy" / "toy"
    assert run_cli("gen-sbm", "--out", str(prefix), "--classes", "3",
                   "--nodes-per-class", "10", "--dim", "4", "--seed", "5") == 0
    graph = load_planetoid(f"{prefix}.content", f"{prefix}.cites")
    assert graph.num_nodes == 30
    assert np.array_equal(np.bincount(graph.labels), [10, 10, 10])
    assert "wrote" in capsys.readouterr().out

    out = tmp_path / "from-files"
    conf = write_tiny_config(tmp_path, dataset=str(prefix), hidden_dim=8, epochs=5,
                             protocol="equal:1")
    assert run_cli("run", "--config", str(conf), "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tasks_total"] == 3


def test_gen_sbm_writes_the_graph_of_the_same_sbm_spec(tmp_path):
    # every parameter off its default, each flag spelled out by hand
    prefix = tmp_path / "g"
    assert run_cli("gen-sbm", "--out", str(prefix), "--classes", "3", "--nodes-per-class", "12",
                   "--p-in", "0.3", "--p-out", "0.05", "--dim", "5", "--separation", "3.5",
                   "--noise", "0.5", "--seed", "9") == 0
    written = load_planetoid(f"{prefix}.content", f"{prefix}.cites")
    spec = resolve_dataset("sbm:classes=3,npc=12,p_in=0.3,p_out=0.05,dim=5,sep=3.5,noise=0.5,seed=9", seed=0)
    assert written.features.tobytes() == spec.features.tobytes()
    assert np.array_equal(written.labels, spec.labels)
    assert written.num_edges > 0 and (written.adj != spec.adj).nnz == 0


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    conf = write_tiny_config(tmp_path, epochs=5)
    target = tmp_path / "from-env"
    monkeypatch.setenv("TAAM_OUT_DIR", str(target))
    assert run_cli("run", "--config", str(conf)) == 0
    assert (target / "summary.json").exists()


def test_usage_errors_exit_2(tmp_path):
    bad_conf = tmp_path / "bad.conf"
    bad_conf.write_text("sedd = 3\n")
    assert run_cli("run", "--config", str(bad_conf), "--out", str(tmp_path / "x")) == 2
    for protocol in ("equal:x", "equal:0", "unequal:2,0"):
        assert run_cli("run", "--dataset", TINY, "--protocol", protocol,
                       "--out", str(tmp_path / "y")) == 2


def test_data_errors_exit_1(tmp_path):
    assert run_cli("run", "--dataset", str(tmp_path / "nowhere"),
                   "--out", str(tmp_path / "x")) == 1
    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"NOTACKPT" + b"\0" * 64)
    assert run_cli("eval", "--checkpoint", str(garbage)) == 1


def test_out_of_memory_is_one_error_line_and_exit_1(tmp_path, capsys, monkeypatch):
    # as numpy raises it for a config whose hidden_dim cannot be allocated;
    # the patched callee raises before allocating anything
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 298. GiB for an array with shape (200000, 200000)")

    monkeypatch.setattr(harness, "init_backbone", refuse)
    conf = write_tiny_config(tmp_path)
    assert run_cli("run", "--config", str(conf), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: out of memory: Unable to allocate 298. GiB for an array with shape (200000, 200000)"
    ]
    assert "Traceback" not in err


DEGENERATE = {
    "edgeless": "sbm:classes=4,npc=10,p_in=0,p_out=0,dim=4,sep=6",
    "two-nodes-per-class": "sbm:classes=4,npc=2,dim=4,sep=6",
    "three-classes": "sbm:classes=3,npc=10,dim=4,sep=6",
}


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_streams_run_to_a_finite_aa(tmp_path, name, precision):
    conf = write_tiny_config(tmp_path, dataset=DEGENERATE[name], hidden_dim=8, epochs=3,
                             precision=precision)
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(conf), "--out", str(out)) == 0
    assert np.isfinite(json.loads((out / "summary.json").read_text())["AA"])


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_one_node_per_class_is_a_usage_error(tmp_path, capsys, precision):
    conf = write_tiny_config(tmp_path, dataset="sbm:classes=4,npc=1,dim=4,sep=6",
                             precision=precision)
    assert run_cli("run", "--config", str(conf), "--out", str(tmp_path / "out")) == 2
    assert "class 0 too small to split" in capsys.readouterr().err


# Config-file values for the fuzzer: each key's default or a bad value.  Size
# fields draw only small or invalid values, so that no example allocates much.
BAD = ["0", "-1", "inf", "-inf", "nan", "1e400", "1.5", "x", "", "true"]
SIZES = st.sampled_from(BAD + ["1", "2"])
FUZZ_BASE = {"dataset": "sbm:classes=4,npc=4,dim=4,sep=6", "hidden_dim": 4, "embed_dim": 2,
             "heads": 1, "epochs": 1, "hops": 1}
FUZZ_VALUES = {
    **{key: SIZES for key in ("hidden_dim", "embed_dim", "heads", "epochs", "hops")},
    "dataset": st.sampled_from([FUZZ_BASE["dataset"], "no/such/prefix"]) | st.builds(
        "sbm:classes={},npc={},p_in={},p_out={},dim={},sep={}".format,
        st.sampled_from(BAD + ["2", "4"]),
        SIZES,
        st.sampled_from(BAD + ["0.5", "1"]),
        st.sampled_from(BAD + ["0.1"]),
        SIZES,
        st.sampled_from(BAD + ["4"]),
    ),
}
ANY_BAD = st.sampled_from(BAD) | st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)
# Raw bytes around \xff, which no UTF-8 text contains.
NOT_UTF8 = st.builds(lambda a, b: a + b"\xff" + b, st.binary(max_size=3), st.binary(max_size=3))
FIELDS = [f.name for f in dataclasses.fields(RunConfig)]


def fuzz_value(key):
    if key in FUZZ_VALUES:
        return FUZZ_VALUES[key]
    return st.just(str(getattr(RunConfig(), key))) | ANY_BAD


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.lists(st.sampled_from(FIELDS), min_size=1, max_size=3, unique=True), st.data())
def test_config_fuzz_exits_cleanly(keys, data):
    values = {key: str(v).encode() for key, v in FUZZ_BASE.items()}
    for key in keys:
        values[key] = data.draw(fuzz_value(key).map(str.encode) | NOT_UTF8, label=key)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as root:
        conf = f"{root}/run.conf"
        with open(conf, "wb") as fh:
            fh.write(b"".join(k.encode() + b" = " + v + b"\n" for k, v in values.items()))
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", conf, "--out", f"{root}/out"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_non_utf8_config_is_a_usage_error(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_bytes(b"epochs = 1\nseed = \xff\xfe\n")
    assert run_cli("run", "--config", str(conf), "--out", str(tmp_path / "out")) == 2
    assert "run.conf:2: not UTF-8" in capsys.readouterr().err


def test_console_script_is_installed(tmp_path):
    exe = shutil.which("taam")
    assert exe, "console script should be on PATH after pip install"
    proc = subprocess.run([exe, "gradcheck", "--seeds", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert "seed=0" in proc.stdout


def test_module_entry_point_runs(tmp_path):
    # `python -m taam.cli` is the way in where the console script is not installed
    src = str(Path(taam.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cli = [sys.executable, "-m", "taam.cli", "run"]
    out = tmp_path / "out"
    ok = subprocess.run([*cli, "--epochs", "1", "--out", str(out)], env=env, capture_output=True, timeout=300)
    assert ok.returncode == 0, ok.stderr.decode()
    assert (out / "matrix.csv").is_file()
    bad = subprocess.run([*cli, "--no-such-flag"], env=env, capture_output=True, timeout=300)
    assert bad.returncode == 2 and b"unrecognized arguments" in bad.stderr
