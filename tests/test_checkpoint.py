"""Checkpoint container: round trips, corruption detection, config guard,
crash safety."""

import dataclasses
import errno
import json
import math
import os
import shutil
import signal
import stat
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taam
from taam import checkpoint, fileio, harness
from taam.backbone import Backbone
from taam.checkpoint import MAGIC, VERSION, frozen_path, load_checkpoint, payload_layout, save_checkpoint
from taam.cli import main
from taam.config import make_config
from taam.errors import ContractError, IntegrityError, VersionError
from taam.graph import generate_sbm
from taam.harness import build_stream, run_continual
from taam.training import FinetuneModel


def small_run(tmp_path, classes=4, **overrides):
    base = {"dataset": f"sbm:classes={classes},npc=25,dim=8,sep=10",
            "hidden_dim": 16, "epochs": 20, "seed": 0}
    base.update(overrides)
    cfg = make_config(None, base)
    g = generate_sbm(classes, 25, 0.1, 0.02, 8, 10.0, seed=cfg.seed)
    stream = build_stream(g, classes_per_task=2, seed=cfg.seed, train_frac=cfg.train_frac, val_frac=cfg.val_frac)
    path = tmp_path / "run.bin"
    res = run_continual(stream, cfg, checkpoint_path=path)
    return cfg, stream, res, path


# variant -> config overrides; each stores and derives a different mix of facts
ROUND_TRIP_VARIANTS = {
    "taam-full-f64": {},
    "taam-retrieval_only-f64": {"ablation": "retrieval_only"},
    "taam-nsm_only-f64": {"ablation": "nsm_only"},
    "oracle-f64": {"method": "oracle"},
    "finetune-f64": {"method": "finetune"},
    "taam-full-f32": {"precision": "f32"},
}


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def frozen_arrays(state, t):
    """Task t's frozen modulator (inference form, then the generator where
    the variant stores one), then its prototype."""
    mod = state.bank.modulator(t)
    generator = mod.generator() if state.config.variant.warm_start else []
    return [p.data for site in mod.sites for p in site] + generator + [state.bank.prototype(t)]


def stored_arrays(state):
    arrays = [state.net.w1, state.net.w2, state.head.weight]
    for t in range(1, len(state.bank) + 1):
        arrays += frozen_arrays(state, t)
    return arrays


@pytest.mark.parametrize("overrides", ROUND_TRIP_VARIANTS.values(), ids=ROUND_TRIP_VARIANTS)
def test_round_trip_restores_everything(tmp_path, overrides):
    # three stages, so that each stage record holds a different number of decisions
    _, _, res, path = small_run(tmp_path, classes=6, **overrides)
    state, end = load_checkpoint(path), res

    assert (state.completed, state.tasks_total) == (end.completed, end.tasks_total) == (3, 3)
    assert state.config == end.config
    assert [s.accuracy for s in state.stages] == [s.accuracy for s in end.stages]
    assert state.retrieval_log == end.retrieval_log
    assert state.donors == end.donors
    assert all(same_bits(s.epochs, e.epochs) for s, e in zip(state.stages, end.stages))
    assert state.head.tasks == end.head.tasks
    assert same_bits(state.head.frozen, end.head.frozen)
    assert len(state.bank) == len(end.bank) == (0 if overrides.get("method") == "finetune" else 3)
    assert all(state.bank.modulator(t).frozen for t in range(1, len(state.bank) + 1))
    loaded, kept = stored_arrays(state), stored_arrays(end)
    assert len(loaded) == len(kept) and all(map(same_bits, loaded, kept))


def read_buffer(a):
    """The non-array object that `a`'s memory belongs to, or None if an
    ndarray in its chain of bases owns it."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.base


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_loaded_frozen_blocks_are_views_of_the_bytes_read(tmp_path, precision):
    # every block is stored in the dtype the run holds it in, so a load casts
    # nothing and copies no frozen block, a generator read included
    _, _, _, path = small_run(tmp_path, precision=precision)
    state = load_checkpoint(path)
    frozen = [state.net.w1, state.net.w2]
    for t in (1, 2):
        frozen += frozen_arrays(state, t)
    for a in frozen:
        assert not a.flags.writeable and read_buffer(a) is not None
        with pytest.raises(ValueError):
            a.flags.writeable = True
    assert state.head.weight.flags.writeable and read_buffer(state.head.weight) is None


def test_save_is_deterministic(tmp_path):
    _, _, res, path = small_run(tmp_path)
    twice = tmp_path / "again.bin"
    save_checkpoint(twice, res)
    assert path.read_bytes() == twice.read_bytes()
    assert Path(frozen_path(path)).read_bytes() == Path(frozen_path(twice)).read_bytes()


def test_save_refuses_arrays_its_config_does_not_imply(tmp_path):
    _, _, res, _ = small_run(tmp_path)
    res.config = dataclasses.replace(res.config, heads=2)
    target = tmp_path / "never.bin"
    with pytest.raises(ContractError, match="shapes"):
        save_checkpoint(target, res)
    assert not target.exists() and not Path(frozen_path(target)).exists()
    assert list(tmp_path.glob("never.bin*")) == []  # nor a temp file


def test_save_refuses_an_array_of_a_dtype_its_config_does_not_imply(tmp_path):
    _, _, res, _ = small_run(tmp_path, precision="f32")
    res.head.weight = res.head.weight.astype(np.float64)
    target = tmp_path / "never.bin"
    with pytest.raises(ContractError, match="dtypes"):
        save_checkpoint(target, res)
    assert list(tmp_path.glob("never.bin*")) == []  # no file, nor a temp file


def test_f32_round_trip_exact(tmp_path):
    cfg, stream, res, path = small_run(tmp_path, precision="f32")
    assert res.net.w1.dtype == np.float32
    state = load_checkpoint(path)
    assert state.net.w1.dtype == np.float32
    assert np.array_equal(state.net.w1, res.net.w1)
    assert state.head.weight.dtype == np.float32
    mod = state.bank.modulator(1)
    assert all(p.dtype == np.float32 for site in mod.sites for p in site)
    assert all(a.dtype == np.float32 for a in mod.generator())


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_loaded_bases_equal_the_bases_in_memory(tmp_path, precision):
    _, _, res, path = small_run(tmp_path, precision=precision)
    state = load_checkpoint(path)
    for t in (1, 2):
        kept, loaded = res.bank.modulator(t).sites, state.bank.modulator(t).sites
        assert len(kept) == len(loaded) == 2
        for (basis, _, _), (again, _, _) in zip(kept, loaded):
            assert same_bits(basis.data, again.data)


def test_loader_builds_the_net_by_method(tmp_path):
    _, _, res, path = small_run(tmp_path)
    net = load_checkpoint(path).net
    assert isinstance(net, Backbone)
    assert np.array_equal(net.w1, res.net.w1) and np.array_equal(net.w2, res.net.w2)

    _, _, res_ft, path_ft = small_run(tmp_path, method="finetune")
    net = load_checkpoint(path_ft).net
    assert isinstance(net, FinetuneModel)
    assert np.array_equal(net.w1, res_ft.net.w1) and np.array_equal(net.w2, res_ft.net.w2)


def test_bad_magic(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"NOTACKPT" + b"\0" * 40)
    with pytest.raises(IntegrityError, match="bad magic"):
        load_checkpoint(p)
    p.write_bytes(b"tiny")
    with pytest.raises(IntegrityError):
        load_checkpoint(p)


def test_unsupported_version(tmp_path):
    _, _, _, path = small_run(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", 99)
    bad = tmp_path / "v99.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(VersionError, match="99"):
        load_checkpoint(bad)


def test_format_1_file_is_a_version_error(tmp_path):
    _, _, _, path = small_run(tmp_path)
    for version in (1, 2, 3, 4, 5, 6):  # formats 2 to 6 are as unreadable as format 1
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", version)
        old = tmp_path / f"v{version}.bin"
        old.write_bytes(bytes(raw))
        with pytest.raises(VersionError, match=f"format {version} unsupported"):
            load_checkpoint(old)
        assert main(["eval", "--checkpoint", str(old)]) == 1


def test_truncation_detected(tmp_path):
    _, _, _, path = small_run(tmp_path)
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", raw, 12)
    cut = tmp_path / "cut.bin"
    # a cut inside the payload, then one inside the header
    for size, message in [(len(raw) // 2, "truncated"), (20 + hlen // 2, r"truncated \(header\)")]:
        cut.write_bytes(raw[:size])
        with pytest.raises(IntegrityError, match=message):
            load_checkpoint(cut)
        assert main(["eval", "--checkpoint", str(cut)]) == 1


def test_bit_flip_fails_checksum(tmp_path):
    _, _, _, path = small_run(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[-100] ^= 0xFF  # payload byte well before the trailing crc
    flipped = tmp_path / "flip.bin"
    flipped.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError, match="checksum"):
        load_checkpoint(flipped)


def cut_sidecar(path):
    sidecar = Path(frozen_path(path))
    sidecar.write_bytes(sidecar.read_bytes()[:-8])


def sidecar_table(path):
    """The `payload_layout` table of the sidecar segments of the checkpoint at `path`."""
    header, _ = read_header(path)
    stages, in_dim = header["stages"], header["in_dim"]
    classes = sum(len(s["classes"]) for s in stages)
    return payload_layout(make_config(header["config"]), in_dim, len(stages), classes)[1]


def nbytes(segment):
    _, _, blocks = segment
    return sum(math.prod(shape) * dtype.itemsize for shape, dtype in blocks)


def segment_index(path, task, part):
    """The index of task `task`'s `part` among the sidecar segments of the checkpoint at `path`."""
    return [s[:2] for s in sidecar_table(path)].index((task, part))


def flip_byte_of_segment(path, task, part):
    """Flip a byte in the middle of task `task`'s `part`; return its segment index."""
    k = segment_index(path, task, part)
    ends = np.cumsum([0] + [nbytes(s) for s in sidecar_table(path)])
    sidecar = Path(frozen_path(path))
    raw = bytearray(sidecar.read_bytes())
    raw[(ends[k] + ends[k + 1]) // 2] ^= 0xFF
    sidecar.write_bytes(bytes(raw))
    return k


def flip_sidecar_byte(path):
    flip_byte_of_segment(path, 2, "inference form")  # which every load reads


def swap_task_segments(path):
    # the inference segments of tasks 1 and 2 have equal lengths, so only
    # their checksums tell them apart
    i, j = (segment_index(path, t, "inference form") for t in (1, 2))

    def swap(h):
        crcs = list(h["crcs"])
        crcs[i], crcs[j] = crcs[j], crcs[i]
        return {**h, "crcs": crcs}

    os.replace(with_header(path, path.with_name("swapped.bin"), swap), path)


def store_other_heads(path):
    # heads is stored once, in the config, and implies every segment length:
    # the sidecar cut by other lengths fails its checksum
    other = lambda h: {**h, "config": {**h["config"], "heads": 2}}
    os.replace(with_header(path, path.with_name("other.bin"), other), path)


@pytest.mark.parametrize(
    "damage,message",
    [
        (lambda path: os.remove(frozen_path(path)), "missing"),
        (cut_sidecar, "truncated"),
        (flip_sidecar_byte, "checksum"),
        (swap_task_segments, "checksum"),
        (store_other_heads, "checksum"),
    ],
    ids=["missing", "truncated", "bit_flip", "swapped_segments", "config_implies_other_segments"],
)
def test_sidecar_damage_is_integrity_error(tmp_path, damage, message):
    _, _, _, path = small_run(tmp_path)
    damage(path)
    with pytest.raises(IntegrityError, match=message):
        load_checkpoint(path)
    assert main(["eval", "--checkpoint", str(path)]) == 1


@pytest.mark.parametrize("task", [1, 2, 3])
def test_a_damaged_generator_stops_a_resume_but_not_an_eval(tmp_path, capsys, task):
    # only a warm start reads a generator, so evaluating never does; a
    # resume reads them all before it trains or writes anything
    conf = tmp_path / "run.conf"
    conf.write_text("dataset = sbm:classes=6,npc=25,dim=8,sep=10\nhidden_dim = 16\nepochs = 5\n")
    out = tmp_path / "out"
    ckpt = out / "checkpoint.bin"
    run = ["run", "--config", str(conf), "--out", str(out)]
    assert main(run) == 0
    assert main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "intact")]) == 0
    k = flip_byte_of_segment(ckpt, task, "generator")

    assert main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "flipped")]) == 0
    summary = lambda d: json.loads((tmp_path / d / "eval_summary.json").read_text())
    assert summary("flipped") == summary("intact")

    capsys.readouterr()
    resumed = tmp_path / "resumed"
    assert main([*run[:-1], str(resumed), "--resume", str(ckpt)]) == 1
    assert f"failed its checksum (segment {k}, task {task}'s generator)" in capsys.readouterr().err
    assert list(resumed.iterdir()) == []


def test_a_resume_reads_every_generator_before_it_trains(tmp_path, monkeypatch):
    # training is stubbed out, so no warm start reads task 1's generator:
    # only the save that rewrites the sidecar, before stage 2 trains, does
    conf = tmp_path / "run.conf"
    conf.write_text("dataset = sbm:classes=6,npc=25,dim=8,sep=10\nhidden_dim = 16\nepochs = 5\n")
    run = ["run", "--config", str(conf), "--ablation", "full"]
    assert main([*run, "--out", str(tmp_path / "out"), "--stop-after", "1"]) == 0
    ckpt = tmp_path / "out" / "checkpoint.bin"
    flip_byte_of_segment(ckpt, 1, "generator")
    trained = []
    monkeypatch.setattr(harness, "train_task", lambda *args: trained.append(args))
    assert main([*run, "--out", str(tmp_path / "resumed"), "--resume", str(ckpt)]) == 1
    assert trained == [] and list((tmp_path / "resumed").iterdir()) == []


def test_a_first_save_holds_at_most_one_generator(tmp_path):
    # A resumed run's first save rewrites the whole sidecar, every stored
    # generator included, reading each back from the old sidecar.  It builds,
    # checks and writes one segment at a time, so it never holds two: at the
    # default widths with 32 input features, one generator is 898,560 bytes.
    cfg = make_config(None, {"dataset": "sbm:classes=12,npc=10,dim=32,sep=10", "epochs": 1})
    run_continual(harness.stream_from_config(cfg), cfg, checkpoint_path=tmp_path / "part.bin", stop_after=5)
    state = load_checkpoint(tmp_path / "part.bin")
    assert (state.completed, state.tasks_total, state.net.w1.shape) == (5, 6, (32, 256))
    generator_bytes = sum(a.nbytes for a in state.bank.modulator(1).generator())
    assert generator_bytes == 898_560
    tracemalloc.start()
    try:
        save_checkpoint(tmp_path / "resumed.bin", state)
        growth = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert growth <= generator_bytes + 128 * 1024
    sidecar = lambda name: Path(frozen_path(tmp_path / name)).read_bytes()
    assert sidecar("resumed.bin") == sidecar("part.bin")


def resume_events(tmp_path, monkeypatch, ablation):
    """Resume a 6-task `ablation` run stopped after stage 5, with a
    checkpoint; return, in order, its saves, its training calls and its
    reads of a stored generator, and the bytes of each generator read."""
    cfg = make_config(None, {"dataset": "sbm:classes=12,npc=10,dim=32,sep=10", "epochs": 2, "ablation": ablation})
    stream = harness.stream_from_config(cfg)
    run_continual(stream, cfg, checkpoint_path=tmp_path / "part.bin", stop_after=5)
    events, generator_bytes = [], []
    read, save, train = checkpoint._read_segments, harness.save_checkpoint, harness.train_task

    def counted_read(path, crcs, segments, picks):
        out = read(path, crcs, segments, picks)
        for k, arrays in zip(picks, out):
            if segments[k][1] == "generator":
                events.append("generator")
                generator_bytes.append(sum(a.nbytes for a in arrays))
        return out

    def counted(name, fn):
        def call(*args):
            events.append(name)
            return fn(*args)

        return call

    monkeypatch.setattr(checkpoint, "_read_segments", counted_read)
    monkeypatch.setattr(harness, "save_checkpoint", counted("save", save))
    monkeypatch.setattr(harness, "train_task", counted("train", train))
    state = run_continual(stream, cfg, resume=load_checkpoint(tmp_path / "part.bin"),
                          checkpoint_path=tmp_path / "resumed.bin")
    assert state.completed == 6
    return events, generator_bytes


def test_a_resume_reads_each_stored_generator_once(tmp_path, monkeypatch):
    # the resume's first save, which rewrites the sidecar before stage 6
    # trains, reads each of tasks 1..5's generators once; stage 6's warm
    # start then reads its donor's
    events, generator_bytes = resume_events(tmp_path, monkeypatch, "full")
    assert events == ["save", *["generator"] * 5, "train", "generator", "save"]
    assert sum(generator_bytes) == 6 * 898_560


@pytest.mark.parametrize("ablation", ["retrieval_only", "nsm_only"])
def test_a_resume_that_never_warm_starts_reads_no_generator(tmp_path, monkeypatch, ablation):
    events, generator_bytes = resume_events(tmp_path, monkeypatch, ablation)
    assert events == ["save", "train", "save"]
    assert generator_bytes == []


@pytest.mark.parametrize("ablation", ["retrieval_only", "nsm_only"])
def test_a_variant_that_never_warm_starts_stores_no_generator(tmp_path, ablation):
    cfg, _, _, path = small_run(tmp_path, classes=6, ablation=ablation)
    segments = sidecar_table(path)
    assert [s[:2] for s in segments] == [(0, "backbone")] + [(t, "inference form") for t in (1, 2, 3)]
    assert segments == payload_layout(cfg, 8, 3, 6)[1]
    assert os.path.getsize(frozen_path(path)) == sum(map(nbytes, segments))
    assert len(read_header(path)[0]["crcs"]) == 4


def test_a_run_that_never_warm_starts_keeps_no_generator(tmp_path):
    cfg, stream, checkpointed, path = small_run(tmp_path, classes=6, ablation="retrieval_only")
    for state in (checkpointed, run_continual(stream, cfg), load_checkpoint(path)):
        assert len(state.bank) == 3
        for t in (1, 2, 3):
            with pytest.raises(ContractError, match="no frozen generator"):
                state.bank.modulator(t).generator()


@pytest.mark.parametrize(
    "error",
    [OSError(errno.ENOSPC, "No space left on device"), ContractError("no such segment")],
    ids=["disk_full", "chunk_not_built"],
)
def test_an_atomic_write_that_raises_leaves_the_target_and_no_temp_file(tmp_path, error):
    target = tmp_path / "x.bin"
    target.write_bytes(b"intact")

    def chunks():
        yield b"12345678"
        raise error

    with pytest.raises(type(error)):
        fileio.write_atomic(target, chunks())
    assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]
    assert target.read_bytes() == b"intact"


def test_sidecar_bytes_past_the_listed_segments_are_ignored(tmp_path):
    _, _, res, path = small_run(tmp_path)
    with open(frozen_path(path), "ab") as fh:
        fh.write(b"torn append")
    state = load_checkpoint(path)
    assert np.array_equal(state.bank.prototype(2), res.bank.prototype(2))


def snapshot_each_save(monkeypatch):
    """Record both files' bytes after every save_checkpoint call."""
    save, seen = harness.save_checkpoint, []

    def saving(path, state, crcs=None):
        crcs = save(path, state, crcs)
        seen.append((Path(path).read_bytes(), Path(frozen_path(path)).read_bytes()))
        return crcs

    monkeypatch.setattr(harness, "save_checkpoint", saving)
    return seen


def test_sidecar_only_grows(tmp_path, monkeypatch):
    seen = snapshot_each_save(monkeypatch)
    small_run(tmp_path, classes=8)
    sidecars = [frozen for _, frozen in seen]
    assert len(sidecars) == 4
    for before, after in zip(sidecars, sidecars[1:]):
        assert len(after) > len(before) and after.startswith(before)


def test_a_generator_damaged_after_its_save_stops_the_next_warm_start(tmp_path, monkeypatch):
    # once saved, task 1's generator is not in memory: stage 2's warm start
    # reads it from the sidecar and finds the damage
    save, saved, damaged = harness.save_checkpoint, [], []

    def saving_then_damaging(path, state, crcs=None):
        crcs = save(path, state, crcs)
        saved.append(state.completed)
        if state.completed == 1:
            damaged.append(flip_byte_of_segment(path, 1, "generator"))
        return crcs

    monkeypatch.setattr(harness, "save_checkpoint", saving_then_damaging)
    with pytest.raises(IntegrityError, match="task 1's generator") as error:
        small_run(tmp_path)
    assert saved == [1]
    assert f"segment {damaged[0]}, task 1's generator" in str(error.value)
    assert load_checkpoint(tmp_path / "run.bin").completed == 1


def test_a_run_writes_at_most_twice_its_final_checkpoint(tmp_path, monkeypatch):
    written = [0]

    class Counted:
        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            written[0] += memoryview(data).nbytes
            return self.fh.write(data)

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

    monkeypatch.setattr(fileio, "open", lambda *a, **k: Counted(open(*a, **k)), raising=False)
    _, _, res, path = small_run(tmp_path, classes=8)
    assert res.completed == 4
    final = os.path.getsize(path) + os.path.getsize(frozen_path(path))
    assert final < written[0] <= 2 * final


def test_each_rename_is_followed_by_a_directory_fsync(tmp_path, monkeypatch):
    # without the directory fsync a rename may not survive a power loss
    events, replace, fsync = [], os.replace, os.fsync
    inode = lambda st: (st.st_dev, st.st_ino)

    def recording_replace(src, dst):
        replace(src, dst)
        events.append(("replace", inode(os.stat(os.path.dirname(os.path.abspath(dst))))))

    def recording_fsync(fd):
        fsync(fd)
        st = os.fstat(fd)
        events.append(("fsync dir" if stat.S_ISDIR(st.st_mode) else "fsync file", inode(st)))

    monkeypatch.setattr(os, "replace", recording_replace)
    monkeypatch.setattr(os, "fsync", recording_fsync)
    conf = tmp_path / "run.conf"
    conf.write_text("dataset = sbm:classes=4,npc=25,dim=8,sep=10\nhidden_dim = 16\nepochs = 5\n")
    assert main(["run", "--config", str(conf), "--out", str(tmp_path / "out")]) == 0
    renames = [i for i, (kind, _) in enumerate(events) if kind == "replace"]
    assert len(renames) == 7  # sidecar, checkpoint twice, matrix, summary, two logs
    for i in renames:
        assert events[i + 1] == ("fsync dir", events[i][1])


# Runs `taam run` with its argv after two leading arguments, and SIGKILLs
# itself at stage 2's save: at the rename that would replace the checkpoint
# ("replace"), or after cutting the sidecar's last 8 bytes just before the
# fsync of the segment that stage 2 appends to it ("append").
KILL_AT_STAGE_2_SAVE = """
import os, signal, sys
from taam.cli import main

target, where, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
sidecar = target + ".frozen"
replace, fsync, renames = os.replace, os.fsync, []

def dying_replace(src, dst):
    if where == "replace" and os.fspath(dst) == target:
        renames.append(dst)
        if len(renames) == 2:
            os.kill(os.getpid(), signal.SIGKILL)
    replace(src, dst)

def dying_fsync(fd):
    if where == "append" and os.path.exists(sidecar) and os.fstat(fd).st_ino == os.stat(sidecar).st_ino:
        os.ftruncate(fd, os.fstat(fd).st_size - 8)
        os.kill(os.getpid(), signal.SIGKILL)
    fsync(fd)

os.replace, os.fsync = dying_replace, dying_fsync
sys.exit(main(argv))
"""


@pytest.mark.parametrize(
    "where,ablation",
    [("replace", "full"), ("append", "full"), ("replace", "retrieval_only"), ("append", "nsm_only")],
    ids=["replace", "append", "replace-retrieval_only", "append-nsm_only"],
)
def test_run_killed_in_a_save_resumes_bitwise(tmp_path, where, ablation):
    conf = tmp_path / "run.conf"
    conf.write_text("dataset = sbm:classes=6,npc=25,dim=8,sep=10\nhidden_dim = 16\nepochs = 5\n")
    out = tmp_path / "out"
    ckpt = out / "checkpoint.bin"
    run = ["run", "--config", str(conf), "--out", str(out), "--ablation", ablation]
    assert main(run) == 0
    full = {p.name: p.read_bytes() for p in out.iterdir()}
    shutil.rmtree(out)

    src = str(Path(taam.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-c", KILL_AT_STAGE_2_SAVE, str(ckpt), where, *run],
        env=env, capture_output=True, timeout=300,
    )
    assert child.returncode == -signal.SIGKILL, child.stderr.decode()
    assert load_checkpoint(ckpt).completed == 1

    assert main([*run, "--resume", str(ckpt)]) == 0
    resumed = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(resumed) == set(full)
    summary = lambda data: {k: v for k, v in json.loads(data).items() if k != "wall_time_seconds"}
    assert summary(resumed.pop("summary.json")) == summary(full["summary.json"])
    for name in sorted(resumed):
        assert resumed[name] == full[name], name


def count_fileio_calls(monkeypatch, die_at=0) -> list[str]:
    """Count every write, truncate, fsync (the directory's included) and
    rename that `taam.fileio` makes; the process kills itself just before
    call number `die_at`.  Returns the names of the calls made so far."""
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            if len(calls) == die_at:
                os.kill(os.getpid(), signal.SIGKILL)
            return fn(*args, **kwargs)

        return call

    class File:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __getattr__(self, name):
            attr = getattr(self.fh, name)
            return counted(name, attr) if name in ("write", "truncate") else attr

    class Os:
        fsync = staticmethod(counted("fsync", os.fsync))
        replace = staticmethod(counted("rename", os.replace))

        def __getattr__(self, name):
            return getattr(os, name)

    monkeypatch.setattr(fileio, "open", lambda *a, **k: File(open(*a, **k)), raising=False)
    monkeypatch.setattr(fileio, "os", Os())
    return calls


KILLED_RUN_CONF = "dataset = sbm:classes=6,npc=15,dim=8,sep=10\nhidden_dim = 16\nembed_dim = 8\nepochs = 2\n"


def killed_at_each_file_operation(monkeypatch, run, out, start=None) -> list[int]:
    """For each k, run argv `run` into `out`, which starts as a copy of
    `start` (or absent), resuming from out's checkpoint when there is one;
    kill it just before its k-th file operation, then run the same command
    again.  Returns each k whose artifacts differ from a run never killed."""
    ckpt = out / "checkpoint.bin"

    def reset():
        shutil.rmtree(out, ignore_errors=True)
        if start is not None:
            shutil.copytree(start, out)

    def resumed():
        return [*run, "--resume", str(ckpt)] if ckpt.exists() else run

    def artifacts():
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        summary = json.loads(files.pop("summary.json"))
        return files, {k: v for k, v in summary.items() if k != "wall_time_seconds"}

    reset()
    with monkeypatch.context() as counting:
        calls = count_fileio_calls(counting)
        assert main(resumed()) == 0
    full = artifacts()
    assert {"write", "truncate", "fsync", "rename"} <= set(calls)

    failed = []
    for k in range(1, len(calls) + 1):
        reset()
        pid = os.fork()
        if pid == 0:  # the child dies at call k; it never returns to pytest
            try:
                count_fileio_calls(pytest.MonkeyPatch(), die_at=k)
                main(resumed())
            finally:
                os._exit(1)
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL, k
        if main(resumed()) != 0 or artifacts() != full:
            failed.append(k)
    return failed


def test_run_killed_at_any_file_operation_resumes_bitwise(tmp_path, monkeypatch):
    # A run killed just before its k-th file operation, for every k, then
    # resumed into the same directory (or rerun, if it left no checkpoint),
    # writes the artifacts of the uninterrupted run.
    conf = tmp_path / "run.conf"
    conf.write_text(KILLED_RUN_CONF)
    run = ["run", "--config", str(conf), "--out", str(tmp_path / "out")]
    assert killed_at_each_file_operation(monkeypatch, run, tmp_path / "out") == []


def test_resume_killed_at_any_file_operation_resumes_bitwise(tmp_path, monkeypatch):
    # The same for a resume of a stage-1 run in place: its first save, before
    # stage 2 trains, rewrites the sidecar and the checkpoint.  Its artifacts
    # are those of the run never stopped.
    conf = tmp_path / "run.conf"
    conf.write_text(KILLED_RUN_CONF)
    out, stage_1 = tmp_path / "out", tmp_path / "stage-1"
    run = ["run", "--config", str(conf), "--out", str(out)]
    files = lambda: {p.name: p.read_bytes() for p in out.iterdir() if p.name != "summary.json"}
    assert main(run) == 0
    full = files()
    assert main([*run[:-1], str(stage_1), "--stop-after", "1"]) == 0
    assert killed_at_each_file_operation(monkeypatch, run, out, start=stage_1) == []
    assert files() == full


def test_garbage_header_is_integrity_error(tmp_path):
    junk = b"notjson"
    body = MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", len(junk)) + junk
    body += struct.pack("<I", zlib.crc32(junk) & 0xFFFFFFFF)
    p = tmp_path / "junk.bin"
    p.write_bytes(body)
    with pytest.raises(IntegrityError, match="corrupt"):
        load_checkpoint(p)


def test_check_config_guards_resume(tmp_path):
    cfg, stream, res, path = small_run(tmp_path)
    state = load_checkpoint(path)
    state.check_config(cfg)  # identical: fine

    moved = make_config(None, {**cfg.echo(), "out_dir": "elsewhere"})
    state.check_config(moved)  # out_dir may differ

    other = make_config(None, {**cfg.echo(), "seed": 1, "lr": 0.001})
    with pytest.raises(ContractError) as e:
        state.check_config(other)
    assert "lr" in str(e.value) and "seed" in str(e.value)


def read_header(path):
    """A checkpoint's parsed header and its payload bytes."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[12:20])
    return json.loads(raw[20 : 20 + hlen]), raw[20 + hlen : -4]


def with_header(path, out, edit, edit_payload=lambda payload: payload):
    """Copy a checkpoint (both files) with `edit` applied to its header,
    `edit_payload` to its payload bytes, and a recomputed CRC."""
    header, payload = read_header(path)
    payload = edit_payload(payload)
    hb = json.dumps(edit(header)).encode("utf-8")
    crc = zlib.crc32(payload, zlib.crc32(hb))
    out.write_bytes(MAGIC + struct.pack("<IQ", VERSION, len(hb)) + hb + payload + struct.pack("<I", crc))
    shutil.copyfile(frozen_path(path), frozen_path(out))
    return out


def test_header_with_only_a_version_is_integrity_error(tmp_path):
    hb = json.dumps({"version": VERSION}).encode()
    p = tmp_path / "bare.bin"
    p.write_bytes(MAGIC + struct.pack("<IQ", VERSION, len(hb)) + hb + struct.pack("<I", zlib.crc32(hb)))
    with pytest.raises(IntegrityError, match="missing"):
        load_checkpoint(p)
    assert main(["eval", "--checkpoint", str(p)]) == 1


@pytest.mark.parametrize("key", ["config", "tasks_total", "in_dim", "stages", "crcs"])
def test_header_missing_key_is_integrity_error(tmp_path, key):
    _, _, _, path = small_run(tmp_path)
    bad = with_header(path, tmp_path / "bad.bin", lambda h: {k: h[k] for k in h if k != key})
    with pytest.raises(IntegrityError, match=f"missing '{key}'"):
        load_checkpoint(bad)
    assert main(["eval", "--checkpoint", str(bad)]) == 1


def config_with(**values):
    return lambda h: {**h["config"], **values}


def extra_segment(h):
    return h["crcs"] + [0]


@pytest.mark.parametrize(
    "field,value",
    [
        # Keys of formats 1 and 2 ("blocks", "dtype" and "modulators" are
        # format 1's).  Format 3 derives what they held or no longer has it,
        # so a header that holds one, right or wrong, is not a format 3 header.
        # A callable value is applied to the header.
        ("blocks", {"backbone.w1": [8, 16]}),
        ("stage", "2"),
        ("stage", True),
        ("dtype", "int8"),
        ("config", []),  # a format 3 key of another type
        ("modulators", [{"site_widths": 3}]),
        ("prototypes", [{"node_count": 1.5}, {"node_count": 3}]),
        ("classifier", {"hidden_dim": 16, "tasks": [["0"]], "frozen": []}),
        ("segments", lambda h: [{"length": 8, "crc": c} for c in h["crcs"]]),
        ("segments", lambda h: h["crcs"]),
        ("classifier", lambda h: {"tasks": [s["classes"] for s in h["stages"]]}),
        ("classifier", lambda h: {"frozen": [True for s in h["stages"] for _ in s["classes"]]}),
        ("stage", 5),
        ("stage", 0),
        # the stored config must be valid, in the form a run stores, and
        # describe the arrays stored (payload size)
        ("config", config_with(bogus=1)),
        ("config", config_with(method="svm")),
        ("config", config_with(precision="f32")),
        ("config", config_with(hidden_dim=17)),
        ("config", config_with(precision="f16")),
        ("config", config_with(seed=float("inf"))),
        ("config", config_with(train_frac=1.5)),
        ("config", config_with(heads=0)),
        ("segments", extra_segment),
        ("segments", {"backbone": 1}),
        ("segments", [{"length": 8, "crc": -1}]),
        ("version", 1),
        # a format 3 key holding a value of another type
        ("config", "taam"),
        ("tasks_total", "2"),
        ("tasks_total", True),
        ("tasks_total", 2.0),
        ("in_dim", None),
        ("in_dim", 8.0),
        ("in_dim", 0),
        ("stages", {"1": {}}),
        ("stages", [[]]),
        ("stages", lambda h: [{**s, "donor": "1"} for s in h["stages"]]),
        ("stages", lambda h: [{**s, "classes": [str(c) for c in s["classes"]]} for s in h["stages"]]),
        ("stages", lambda h: [{**s, "classes": []} for s in h["stages"]]),
        ("stages", lambda h: [{k: v for k, v in s.items() if k != "donor"} for s in h["stages"]]),
        ("stages", lambda h: [{**s, "stage": t} for t, s in enumerate(h["stages"], 1)]),
        ("crcs", {"0": 1}),
        ("crcs", lambda h: [str(c) for c in h["crcs"]]),
        ("crcs", lambda h: [float(c) for c in h["crcs"]]),
    ],
)
def test_header_wrong_type_is_integrity_error(tmp_path, field, value):
    _, _, _, path = small_run(tmp_path)
    edit = lambda h: {**h, field: value(h) if callable(value) else value}
    bad = with_header(path, tmp_path / "bad.bin", edit)
    with pytest.raises(IntegrityError, match="malformed"):
        load_checkpoint(bad)
    assert main(["eval", "--checkpoint", str(bad)]) == 1


@pytest.mark.parametrize("value", [250.0, -1.0, float("inf")])
@pytest.mark.parametrize("column", ["train_acc", "val_acc"])
def test_epoch_log_accuracy_out_of_range_is_integrity_error(tmp_path, column, value):
    _, _, _, path = small_run(tmp_path)

    def edit_payload(payload):
        floats = np.frombuffer(payload, dtype="<f8").copy()
        # the payload ends with the last stage's last (loss, train_acc, val_acc) row
        floats[{"train_acc": -2, "val_acc": -1}[column]] = value
        return floats.tobytes()

    bad = with_header(path, tmp_path / "bad.bin", lambda h: h, edit_payload)
    with pytest.raises(IntegrityError, match="outside \\[0, 100\\]"):
        load_checkpoint(bad)
    assert main(["eval", "--checkpoint", str(bad)]) == 1


def test_header_naming_a_missing_block_is_integrity_error(tmp_path):
    _, _, _, path = small_run(tmp_path)
    without_task2 = lambda h: {**h, "crcs": h["crcs"][:-2]}
    with pytest.raises(IntegrityError, match="3 CRCs where the stored config implies 5 segments"):
        load_checkpoint(with_header(path, tmp_path / "bad.bin", without_task2))


def in_stage(t, **edits):
    """A header edit that applies `edits` (key -> function of the old value)
    to stage record t."""
    return lambda h: {
        **h,
        "stages": [
            {**s, **{k: f(s[k]) for k, f in edits.items()}} if i == t else s
            for i, s in enumerate(h["stages"], 1)
        ],
    }


@pytest.mark.parametrize(
    "edit,message",
    [
        (in_stage(2, accuracy=lambda a: a[:-1]), "stage 2 must hold"),
        (in_stage(2, accuracy=lambda a: a + [50.0]), "stage 2 must hold"),
        (in_stage(2, inferred=lambda i: i[:-1]), "stage 2 must hold"),
        (in_stage(1, inferred=lambda i: i + [1]), "stage 1 must hold"),
        (in_stage(1, accuracy=lambda a: [-0.5]), "stage 1 must hold"),
        (in_stage(2, accuracy=lambda a: [a[0], 100.5]), "stage 2 must hold"),
        (in_stage(2, classes=lambda c: [c[0], 0]), "a class is in two groups"),
        (in_stage(1, classes=lambda c: [c[0], c[0]]), "a class is in two groups"),
        (lambda h: {**h, "stages": []}, "0 stages, outside 1..2"),
        (lambda h: {**h, "tasks_total": 1}, "2 stages, outside 1..1"),
        (lambda h: {**h, "crcs": [-1] + h["crcs"][1:]}, "a CRC is not a u32"),
        (lambda h: {**h, "crcs": [2**32] + h["crcs"][1:]}, "a CRC is not a u32"),
        (lambda h: {**h, "crcs": h["crcs"] + [0]}, "6 CRCs where the stored config implies 5 segments"),
        (lambda h: {**h, "crcs": h["crcs"][:-1]}, "4 CRCs where the stored config implies 5 segments"),
        (in_stage(1, inferred=lambda i: [99]), "stage 1 must hold"),
        (in_stage(2, inferred=lambda i: [0, i[1]]), "stage 2 must hold"),
        (in_stage(2, inferred=lambda i: [i[0], 3]), "stage 2 must hold"),
        (in_stage(1, donor=lambda d: 1), "stage 1 must hold"),
        (in_stage(2, donor=lambda d: 7), "stage 2 must hold"),
        (in_stage(2, donor=lambda d: 2), "stage 2 must hold"),
        (in_stage(2, donor=lambda d: 0), "stage 2 must hold"),
    ],
    ids=[
        "too_few_accuracies", "too_many_accuracies", "too_few_inferred", "too_many_inferred",
        "accuracy_below_0", "accuracy_above_100", "class_in_two_groups", "class_twice_in_a_group",
        "no_stage", "more_stages_than_tasks", "negative_crc", "crc_of_33_bits",
        "crc_too_many", "crc_too_few", "inferred_99", "inferred_0", "inferred_later_task",
        "stage_1_donor", "donor_7", "donor_is_its_own_task", "donor_0",
    ],
)
def test_inconsistent_header_is_integrity_error(tmp_path, edit, message):
    _, _, _, path = small_run(tmp_path)
    bad = with_header(path, tmp_path / "bad.bin", edit)
    with pytest.raises(IntegrityError, match=f"malformed: {message}"):
        load_checkpoint(bad)
    assert main(["eval", "--checkpoint", str(bad)]) == 1


@pytest.fixture(scope="module")
def stage_one(tmp_path_factory):
    """A config file and the checkpoint of its run stopped after stage 1 of 2."""
    root = tmp_path_factory.mktemp("stage-one")
    conf = root / "run.conf"
    conf.write_text("dataset = sbm:classes=4,npc=25,dim=8,sep=10\nhidden_dim = 16\nepochs = 5\n")
    assert main(["run", "--config", str(conf), "--out", str(root), "--stop-after", "1"]) == 0
    return conf, root / "checkpoint.bin"


# Each resumed fact, and the key of the stage record that stores it.
RECORD_KEY = {"matrix_rows": "accuracy", "retrieval_log": "inferred", "donors": "donor"}


@pytest.mark.parametrize(
    "field,value",
    [
        # stored in stage 1's record: its matrix row, its decisions, its donor
        ("matrix_rows", ["a"]),
        ("matrix_rows", [None]),
        ("matrix_rows", [True]),
        ("matrix_rows", [float("nan")]),
        ("retrieval_log", [1, 1]),
        ("retrieval_log", []),
        ("retrieval_log", [{"stage": 1, "task": 1, "true": 1, "inferred": 1}]),
        ("donors", ["x"]),
        ("donors", []),
        # a valid config in a form no run stores: it would load, and then
        # fail the resume check against the very config it spells
        ("config", config_with(seed="0")),
        ("config", lambda h: {k: v for k, v in h["config"].items() if k != "row_normalize"}),
    ],
)
def test_bad_resume_fields_are_integrity_errors(tmp_path, stage_one, field, value):
    conf, path = stage_one
    if field == "config":
        edit = lambda h: {**h, "config": value(h)}
    else:
        edit = lambda h: {**h, "stages": [{**h["stages"][0], RECORD_KEY[field]: value}]}
    bad = with_header(path, tmp_path / "bad.bin", edit)
    with pytest.raises(IntegrityError, match="malformed"):
        load_checkpoint(bad)
    out = tmp_path / "out"
    assert main(["run", "--config", str(conf), "--out", str(out), "--resume", str(bad)]) == 1
    assert not (out / "summary.json").exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_header_fuzz_is_loaded_or_integrity_error(tmp_path_factory, stage_one, data):
    _, path = stage_one
    header, _ = read_header(path)
    record = sorted(header["stages"][0])
    field = data.draw(st.sampled_from(sorted(header) + [f"stages/{k}" for k in record]), label="field")
    value = data.draw(JSON_VALUES, label="value")
    root = tmp_path_factory.mktemp("fuzz")
    if field.startswith("stages/"):  # one key of stage 1's record
        edit = lambda h: {**h, "stages": [{**h["stages"][0], field[len("stages/") :]: value}]}
    else:
        edit = lambda h: {**h, field: value}
    bad = with_header(path, root / "bad.bin", edit)
    try:
        load_checkpoint(bad)
    except IntegrityError:
        pass
    assert main(["eval", "--checkpoint", str(bad), "--out", str(root)]) in (0, 1)
