"""Binary run checkpoints, format 2: a small file rewritten at every stage
plus an append-only sidecar of frozen blocks.

`path` holds what changes from stage to stage (integers little-endian):

    bytes 0..7    magic "TAAMCKPT"
    bytes 8..11   u32 format version (currently 2)
    bytes 12..19  u64 header length H
    next H bytes  header, UTF-8 JSON (sorted keys)
    payload       the classifier weight matrix, then for method finetune its
                  trained w1 and w2; raw float64 little-endian, C order
    last 4 bytes  u32 CRC-32 of header bytes + payload bytes

`frozen_path(path)` (`path` + ".frozen") holds the blocks that never change
once written, as consecutive segments of raw float64 little-endian, C order.
Segment 0 is the backbone's w1 and w2; segment t is task t's modulator
parameters in `modulator.param_layout` order, then its prototype.  Method
finetune trains its net and stores no modulators, so its sidecar is empty.
The header's "segments" list holds each segment's byte length and CRC-32, so
the CRC of `path` pins the sidecar's content too.  Move a run by copying
both files.

A run's first save writes a fresh sidecar; each later save appends only the
newly frozen segment.  The sidecar is written and fsynced before `path` is
replaced (temp file, fsync, rename; see `fileio`), and the loader reads only
the segments that `path` lists.  A crash at any point thus leaves the last
completed stage loadable, whatever torn tail the sidecar has.

Block shapes are not stored: `payload_layout` derives them from the stored
config, the input width, the stage and the class count.  The loader requires
the header to have exactly the keys it reads, each well typed; the stored
config to validate and to equal its own `RunConfig.echo()`; the resume
fields (matrix rows, retrieval log, donors) to be consistent; and every
length and checksum to match.  Every violation is an IntegrityError, and a
file of another format version is a VersionError.

Float32 runs upcast to float64 on save and cast back on load (exact).  A
float64 run's frozen blocks load as read-only views of the sidecar bytes
read, without a copy; the classifier weight, which a resumed run writes,
is always copied.
Checkpoints are written at stage boundaries, so no optimizer state is
stored; resuming re-derives all randomness from the seed and purpose tags.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .backbone import Backbone
from .classifier import ClassifierHead
from .config import RunConfig, make_config
from .errors import ContractError, IntegrityError, VersionError
from .fileio import write_at, write_atomic
from .modulator import Modulator, param_layout
from .prototypes import Prototype, PrototypeBank
from .training import FinetuneModel

MAGIC = b"TAAMCKPT"
VERSION = 2

# Resuming in a different place is fine; resuming different run semantics is not.
_CONFIG_KEYS_IGNORED_ON_RESUME = ("out_dir",)


@dataclass
class RunState:
    """A run at a stage boundary: everything needed to continue or re-evaluate it.

    `run_continual` advances one of these in place, stage by stage.  `net` is
    the frozen Backbone, or for method finetune the trainable FinetuneModel;
    either way `net.w1` and `net.w2` are ndarrays in the run's dtype.
    """

    config: RunConfig
    stage: int
    tasks_total: int
    net: Backbone | FinetuneModel
    bank: PrototypeBank
    head: ClassifierHead
    matrix_rows: list[list[float]]
    retrieval_log: list[dict]
    donors: list[int | None]

    def check_config(self, cfg) -> None:
        stored = {k: v for k, v in self.config.echo().items() if k not in _CONFIG_KEYS_IGNORED_ON_RESUME}
        current = {k: v for k, v in cfg.echo().items() if k not in _CONFIG_KEYS_IGNORED_ON_RESUME}
        if stored != current:
            diff = sorted(
                k for k in set(stored) | set(current) if stored.get(k) != current.get(k)
            )
            raise ContractError(f"checkpoint config does not match current config; differs in {diff}")


def decision(stage: int, task: int, inferred: int | None) -> dict:
    """The retrieval-log record for `task` at `stage`; `inferred` is None if no task id is picked."""
    correct = None if inferred is None else inferred == task
    return {"stage": stage, "task": task, "true": task, "inferred": inferred, "correct": correct}


def frozen_path(path) -> str:
    """The sidecar file that holds the frozen segments of the checkpoint at `path`."""
    return f"{os.fspath(path)}.frozen"


def payload_layout(cfg: RunConfig, in_dim: int, stage: int, classes: int):
    """Shapes of every stored array, in storage order: those of the payload
    of `path`, and those of each frozen segment of the sidecar."""
    d_h = cfg.hidden_dim
    head, backbone = [(d_h, classes)], [(in_dim, d_h), (d_h, d_h)]
    if cfg.method == "finetune":
        return head + backbone, []
    params = param_layout([in_dim, d_h], cfg.heads, cfg.embed_dim)
    task = [shape for _, shape in params] + [(in_dim,)]
    return head, [backbone] + [task] * stage


def _f8(arrays) -> list[np.ndarray]:
    return [np.ascontiguousarray(a, dtype="<f8") for a in arrays]


def _crc(chunks, crc: int = 0) -> int:
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    return crc


def save_checkpoint(path, state: RunState, segments: list[dict] | None = None) -> list[dict]:
    """Write `state` to `path` and its sidecar; return the segment table.

    `segments` is the table that this run's previous save to `path` returned.
    Its segments are in the sidecar already, so only newer ones are appended.
    None, for a run's first save, writes a fresh sidecar.
    """
    bank, head, net, cfg = state.bank, state.head, state.net, state.config
    tasks = range(1, len(bank) + 1)
    mutable = [head.weight]
    frozen = [[p.data for p in bank.modulator(t).parameters()] + [bank.prototype(t).vector] for t in tasks]
    if cfg.method == "finetune":
        mutable += [net.w1, net.w2]
    else:
        frozen.insert(0, [net.w1, net.w2])
    shapes = ([a.shape for a in mutable], [[a.shape for a in seg] for seg in frozen])
    wanted = payload_layout(cfg, int(net.w1.shape[0]), state.stage, head.num_classes)
    if shapes != wanted:
        raise ContractError(f"run state arrays have shapes {shapes}; its config implies {wanted}")

    table = list(segments or [])
    fresh = [_f8(seg) for seg in frozen[len(table) :]]
    table += [{"length": sum(a.nbytes for a in seg), "crc": _crc(seg)} for seg in fresh]
    chunks = [a for seg in fresh for a in seg]
    if segments is None:
        write_atomic(frozen_path(path), chunks)
    else:
        write_at(frozen_path(path), sum(s["length"] for s in segments), chunks)

    header = {
        "version": VERSION,
        "config": cfg.echo(),
        "stage": int(state.stage),
        "tasks_total": int(state.tasks_total),
        "backbone": {"in_dim": int(net.w1.shape[0])},
        "prototypes": [{"node_count": bank.prototype(t).node_count} for t in tasks],
        "classifier": {"tasks": head.tasks, "frozen": [bool(b) for b in head.frozen]},
        "matrix_rows": state.matrix_rows,
        "retrieval_log": state.retrieval_log,
        "donors": state.donors,
        "segments": table,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = _f8(mutable)
    crc = _crc(payload, zlib.crc32(header_bytes))
    prefix = MAGIC + struct.pack("<IQ", VERSION, len(header_bytes))
    write_atomic(path, [prefix, header_bytes, *payload, struct.pack("<I", crc)])
    return table


# Every header key, with the JSON type it must have.
_HEADER_TYPES = {
    "backbone": dict,
    "classifier": dict,
    "config": dict,
    "donors": list,
    "matrix_rows": list,
    "prototypes": list,
    "retrieval_log": list,
    "segments": list,
    "stage": int,
    "tasks_total": int,
    "version": int,
}


def _is(value, kind) -> bool:
    """isinstance, except that a JSON true/false is not a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _fields(value, **kinds) -> bool:
    """`value` is a JSON object with exactly these keys, each of its kind."""
    return (
        isinstance(value, dict)
        and set(value) == set(kinds)
        and all(_is(value[k], kind) for k, kind in kinds.items())
    )


def _check_header(header, path):
    """Raise IntegrityError unless the header has exactly the fields the
    loader reads, well typed and consistent, and holds a valid config.
    Returns the config and the `payload_layout` it implies."""

    def need(ok, what):
        if not ok:
            raise IntegrityError(f"{path} header is malformed: {what}")

    need(isinstance(header, dict), "not a JSON object")
    for key, kind in _HEADER_TYPES.items():
        need(key in header, f"missing {key!r}")
        need(_is(header[key], kind), f"{key!r} is not a {kind.__name__}")
    need(set(header) == set(_HEADER_TYPES), f"unexpected keys {sorted(set(header) - set(_HEADER_TYPES))}")
    need(header["version"] == VERSION, f"version {header['version']} in a format {VERSION} file")
    try:
        cfg = make_config(header["config"])
    except ContractError as e:
        raise IntegrityError(f"{path} header is malformed: stored config is invalid: {e}") from None
    # A run stores cfg.echo(); any other spelling of a valid config (a key
    # left out, "3" for 3) would load but fail the resume check.
    need(header["config"] == cfg.echo(), "stored config is not the form a run stores")
    need(_fields(header["backbone"], in_dim=int) and header["backbone"]["in_dim"] >= 1, "bad backbone entry")
    in_dim = header["backbone"]["in_dim"]
    need(all(_fields(p, node_count=int) for p in header["prototypes"]), "bad prototype entry")
    c = header["classifier"]
    need(
        _fields(c, tasks=list, frozen=list)
        and all(isinstance(b, bool) for b in c["frozen"])
        and all(isinstance(g, list) and g and all(_is(x, int) for x in g) for g in c["tasks"]),
        "bad classifier entry",
    )
    classes = [x for g in c["tasks"] for x in g]
    need(len(set(classes)) == len(classes) == len(c["frozen"]), "classifier classes and frozen flags disagree")

    stage, total = header["stage"], header["tasks_total"]
    need(1 <= stage <= total, f"stage {stage} is outside 1..{total}")
    rows, decisions, donors = header["matrix_rows"], header["retrieval_log"], header["donors"]
    need(
        len(rows) == len(c["tasks"]) == len(donors) == stage,
        f"{len(rows)} matrix rows, {len(c['tasks'])} class groups, {len(donors)} donors at stage {stage}",
    )
    is_accuracy = lambda v: _is(v, (int, float)) and 0 <= v <= 100
    need(
        all(isinstance(r, list) and len(r) == t and all(map(is_accuracy, r)) for t, r in enumerate(rows, 1)),
        "matrix row t must hold t accuracies in [0, 100]",
    )
    need(all(d is None or _is(d, int) for d in donors), "a donor is neither null nor a task id")
    asked = [(s, j) for s in range(1, stage + 1) for j in range(1, s + 1)]
    inferred = [e.get("inferred") if isinstance(e, dict) else None for e in decisions]
    logged = [decision(s, j, i) for (s, j), i in zip(asked, inferred)]
    need(
        len(decisions) == len(asked)
        and all(i is None or _is(i, int) for i in inferred)
        and decisions == logged,
        "retrieval log is not one decision per (stage, task) up to this stage",
    )
    blocks, segments = payload_layout(cfg, in_dim, stage, len(classes))
    stored = 0 if cfg.method == "finetune" else stage
    need(len(header["prototypes"]) == stored, f"{len(header['prototypes'])} prototypes, {stored} stored tasks")
    table = header["segments"]
    need(all(_fields(s, length=int, crc=int) and 0 <= s["crc"] < 2**32 for s in table), "bad segment entry")
    need(len(table) == len(segments), f"{len(table)} segments where the stored config implies {len(segments)}")
    for i, (entry, shapes) in enumerate(zip(table, segments)):
        want, got = 8 * sum(math.prod(s) for s in shapes), entry["length"]
        need(got == want, f"segment {i} has {got} bytes where the stored config implies {want}")
    return cfg, blocks, segments


def _views(buf, shapes) -> list[np.ndarray]:
    """Read-only float64 views of consecutive arrays of these shapes in `buf`."""
    flat = np.frombuffer(buf, dtype="<f8")
    counts = [math.prod(s) for s in shapes]
    return [flat[end - n : end].reshape(s) for s, n, end in zip(shapes, counts, accumulate(counts))]


def _read_segments(path, table, segments) -> list[list[np.ndarray]]:
    """The frozen segments listed in `table`, read from the sidecar of `path`."""
    sidecar = frozen_path(path)
    total = sum(entry["length"] for entry in table)
    try:
        with open(sidecar, "rb") as fh:
            raw = memoryview(fh.read(total))
    except FileNotFoundError:
        raise IntegrityError(f"{sidecar} is missing; copy it along with {path}") from None
    if len(raw) < total:
        raise IntegrityError(f"{sidecar} is truncated")
    out, at = [], 0
    for t, (entry, shapes) in enumerate(zip(table, segments)):
        seg = raw[at : at + entry["length"]]
        if zlib.crc32(seg) != entry["crc"]:
            raise IntegrityError(f"{sidecar} failed its checksum (segment {t})")
        out.append(_views(seg, shapes))
        at += entry["length"]
    return out


def load_checkpoint(path) -> RunState:
    with open(path, "rb") as fh:
        raw = memoryview(fh.read())
    if len(raw) < 24 or raw[:8] != MAGIC:
        raise IntegrityError(f"{path} is not a checkpoint (bad magic)")
    (version,) = struct.unpack_from("<I", raw, 8)
    if version != VERSION:
        raise VersionError(f"checkpoint format {version} unsupported (expected {VERSION})")
    (hlen,) = struct.unpack_from("<Q", raw, 12)
    header_end = 20 + hlen
    if header_end + 4 > len(raw):
        raise IntegrityError(f"{path} is truncated (header)")
    header_bytes = raw[20:header_end]
    try:
        header = json.loads(str(header_bytes, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise IntegrityError(f"{path} header is corrupt: {e}") from None
    cfg, blocks, segments = _check_header(header, path)

    payload_len = 8 * sum(math.prod(s) for s in blocks)
    if header_end + payload_len + 4 != len(raw):
        raise IntegrityError(f"{path} is truncated (payload)")
    payload = raw[header_end : header_end + payload_len]
    (crc_stored,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if zlib.crc32(payload, zlib.crc32(header_bytes)) != crc_stored:
        raise IntegrityError(f"{path} failed its checksum")
    head_weight, *finetune_net = _views(payload, blocks)
    frozen = _read_segments(path, header["segments"], segments)

    def cast(view, copy=True):
        """The stored values in the run's dtype, which must hold them exactly
        (compared bit for bit, so that a NaN equals itself)."""
        out = view.astype(cfg.np_dtype, copy=copy)
        bits = lambda a: a.astype(view.dtype, copy=False).view(np.uint64)
        if out.dtype != view.dtype and not np.array_equal(bits(out), bits(view)):
            raise IntegrityError(f"{path} header is malformed: {cfg.precision} cannot hold the stored values")
        return out

    bank = PrototypeBank()
    if cfg.method == "finetune":
        net = FinetuneModel(*map(cast, finetune_net))
    else:
        # Frozen blocks are never written again, so a float64 run keeps them
        # as views of the sidecar bytes.  A float32 run's casts copy, so it
        # copies the prototypes too, rather than keep those bytes alive.
        (w1, w2), *tasks = frozen
        views = cfg.np_dtype == np.float64
        net = Backbone(cast(w1, copy=False), cast(w2, copy=False))
        for (*params, vector), pmeta in zip(tasks, header["prototypes"]):
            mod = Modulator.from_arrays([cast(p, copy=False) for p in params])
            vector = vector if views else vector.copy()
            bank.commit(Prototype(vector, node_count=pmeta["node_count"]), mod)

    cmeta = header["classifier"]
    return RunState(
        config=cfg,
        stage=header["stage"],
        tasks_total=header["tasks_total"],
        net=net,
        bank=bank,
        head=ClassifierHead.restore(cast(head_weight), cmeta["tasks"], cmeta["frozen"]),
        matrix_rows=header["matrix_rows"],
        retrieval_log=header["retrieval_log"],
        donors=header["donors"],
    )
