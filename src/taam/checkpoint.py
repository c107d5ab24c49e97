"""Binary run checkpoints, format 7: a small file rewritten at every stage
plus an append-only sidecar of frozen blocks.

`path` holds what changes from stage to stage (integers little-endian):

    bytes 0..7    magic "TAAMCKPT"
    bytes 8..11   u32 format version (currently 7)
    bytes 12..19  u64 header length H
    next H bytes  header, UTF-8 JSON (sorted keys)
    payload       the classifier weight matrix, then for method finetune its
                  trained w1 and w2, then the epoch logs: for each completed
                  stage, one (loss, train_acc, val_acc) row per epoch; raw
                  little-endian, C order, each in its `payload_layout` dtype
    last 4 bytes  u32 CRC-32 of header bytes + payload bytes

The header has five keys: "config" (the run's `RunConfig.echo()`),
"tasks_total", "in_dim" (the input feature width), "stages" (one record per
completed stage t: "classes", task t's class ids in column order;
"accuracy", matrix row t; "inferred", the task id picked for each of tasks
1..t or null; "donor", task t's warm-start donor or null) and "crcs".  A
stage record and its epoch log load as one `Stage`, and `RunState` derives
the accuracy matrix, AA and AF (defined here, next to it), the retrieval log
and the donors from its stages.

`frozen_path(path)` (`path` + ".frozen") holds the blocks that never change
once written, as consecutive segments of arrays stored the same way.  The
one table of them, `payload_layout`'s, names each segment's task and part:
the backbone's w1 and w2; then per task, in the parts of
`modulator.frozen_layout`, its inference form (per site its basis, w_attn
and b_attn) and its prototype, then, only where the variant warm-starts, its
generator (per site w_base and b_base), which only a later task's warm
start reads.  Method finetune stores no modulators: its sidecar is empty.
"crcs" holds one CRC-32 per segment, so the CRC of `path` pins the sidecar's
content too.  Move a run by copying both files.

A run's first save writes a fresh sidecar; each later save appends only the
newly frozen segments, in one write, building, checking and writing one
segment at a time.  The sidecar is fsynced before `path` is replaced (temp
file, fsync, rename; see `fileio`), and the loader reads only the segments
that `path` has CRCs for, so a crash at any point leaves the last completed
stage loadable, whatever torn tail the sidecar has.

A load reads and checks the backbone and the inference segments alone: all
that `taam eval` needs, at the default widths about 2% of a task's floats.
A generator is read and checked, opening the sidecar anew, each time a warm
start needs it, and is not kept: a save drops each generator it writes from
memory (`Modulator.spill`).  A resumed run's first save, before it trains,
rewrites the sidecar and so reads each stored generator once: a damaged one
stops it there.  A run that never warm-starts stores, reads and holds none.

Each fact is stored once: `payload_layout` derives every block's shape and
dtype from the config, the input width, the stage count (the number of
records) and the class count.  A finished task's classifier columns are
frozen, except under method finetune, which freezes none.  The loader
requires exactly the five keys, each well typed; the stored config to
validate and to equal its own `RunConfig.echo()`; 1..tasks_total stages
with disjoint class groups, inferred task ids in 1..t and donors before t;
epoch-log accuracies in [0, 100] or NaN; and every listed segment in the
sidecar, its CRC matching when it is read.  Every violation is an
IntegrityError, and a file of another format version is a VersionError.

Each array is stored in the dtype the run holds it in (the run's precision,
except the epoch logs and the prototypes: float64), so a load casts nothing,
and the frozen blocks load as read-only views of the sidecar bytes read; the
classifier weight, which a resumed run writes, is copied.  No optimizer
state is stored: checkpoints are written at stage boundaries, and resuming
re-derives all randomness from the seed and purpose tags.
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
from .modulator import Modulator, frozen_layout
from .prototypes import PrototypeBank
from .training import FinetuneModel, accuracy_percent

MAGIC = b"TAAMCKPT"
VERSION = 7

# Resuming in a different place is fine; resuming different run semantics is not.
_CONFIG_KEYS_IGNORED_ON_RESUME = ("out_dir",)


@dataclass
class Stage:
    """Completed stage t as its checkpoint record stores it (see above), with
    task t's (epochs, 3) float64 log of loss, train and validation accuracy."""

    accuracy: list[float]
    inferred: list[int | None]
    donor: int | None
    epochs: np.ndarray


def average_accuracy(matrix: np.ndarray) -> float:
    """Mean of the final row (accuracy on every task after the last stage)."""
    if not len(matrix) or np.isnan(matrix[-1]).any():
        raise ContractError("final matrix row is missing or incomplete")
    return float(matrix[-1].mean())


def average_forgetting(matrix: np.ndarray) -> float:
    """Mean over earlier tasks of (accuracy right after training it) minus
    (accuracy after the final stage).  Positive means performance was lost."""
    t = matrix.shape[0]
    if t < 2:
        raise ContractError("forgetting needs at least two stages")
    diag = np.diagonal(matrix)[: t - 1]
    final = matrix[-1, : t - 1]
    if np.isnan(diag).any() or np.isnan(final).any():
        raise ContractError("matrix entries needed for forgetting are missing")
    return float((diag - final).mean())


def decisions(inferred: list[int | None]) -> list[dict]:
    """The retrieval-log records of stage t, which picked `inferred[j - 1]` for task j in 1..t."""
    t = len(inferred)
    return [
        {"stage": t, "task": j, "true": j, "inferred": i, "correct": None if i is None else i == j}
        for j, i in enumerate(inferred, 1)
    ]


@dataclass
class RunState:
    """A run at a stage boundary: everything needed to continue or re-evaluate it.

    `run_continual` advances one of these in place, stage by stage, and
    returns it.  `net` is the frozen Backbone, or for method finetune the
    trainable FinetuneModel; either way `net.w1` and `net.w2` are ndarrays in
    the run's dtype.  `stages` holds one record per completed stage; the
    properties below derive the run's results from it.
    """

    config: RunConfig
    tasks_total: int
    net: Backbone | FinetuneModel
    bank: PrototypeBank
    head: ClassifierHead
    stages: list[Stage]

    @property
    def completed(self) -> int:
        """The last completed stage."""
        return len(self.stages)

    @property
    def matrix(self) -> np.ndarray:
        """The square accuracy matrix, NaN where no stage has filled it."""
        out = np.full((self.tasks_total, self.tasks_total), np.nan)
        for t, s in enumerate(self.stages, 1):
            out[t - 1, :t] = s.accuracy
        return out

    @property
    def aa(self) -> float:
        t = self.completed
        return average_accuracy(self.matrix[:t, :t])

    @property
    def af(self) -> float | None:
        """Average forgetting, or None before a second stage."""
        t = self.completed
        return average_forgetting(self.matrix[:t, :t]) if t >= 2 else None

    @property
    def retrieval_log(self) -> list[dict]:
        return [d for s in self.stages for d in decisions(s.inferred)]

    @property
    def per_stage_retrieval(self) -> list[float] | None:
        """Share of correct task ids per stage, for variants that pick one per task."""
        if self.config.variant.task_id not in ("retrieved", "true"):
            return None
        return [accuracy_percent(np.array(s.inferred), np.arange(1, t + 1)) for t, s in enumerate(self.stages, 1)]

    @property
    def donors(self) -> list[int | None]:
        """The warm-start donor of each completed stage's task."""
        return [s.donor for s in self.stages]

    def check_config(self, cfg) -> None:
        stored, current = self.config.echo(), cfg.echo()  # both have every RunConfig field
        diff = sorted(k for k in stored if stored[k] != current[k] and k not in _CONFIG_KEYS_IGNORED_ON_RESUME)
        if diff:
            raise ContractError(f"checkpoint config does not match current config; differs in {diff}")


def frozen_path(path) -> str:
    """The sidecar file that holds the frozen segments of the checkpoint at `path`."""
    return f"{os.fspath(path)}.frozen"


def payload_layout(cfg: RunConfig, in_dim: int, stage: int, classes: int):
    """The (shape, dtype) of every array of the payload of `path`, and the
    table of sidecar segments, each in storage order.  A segment is (task,
    part, the (shape, dtype) of each of its arrays); task 0 is the backbone."""
    d_h, run, f8 = cfg.hidden_dim, np.dtype(cfg.np_dtype), np.dtype(np.float64)
    head, logs = [((d_h, classes), run)], [((stage, cfg.epochs, 3), f8)]
    backbone = [((in_dim, d_h), run), ((d_h, d_h), run)]
    if cfg.method == "finetune":
        return head + backbone + logs, []
    inference, generator = ([(s, run) for s in part] for part in frozen_layout([in_dim, d_h], cfg.heads, cfg.embed_dim))
    parts = [("inference form", inference + [((in_dim,), f8)])]
    if cfg.variant.warm_start:
        parts.append(("generator", generator))
    return head + logs, [(0, "backbone", backbone)] + [(t, *part) for t in range(1, stage + 1) for part in parts]


def _nbytes(blocks) -> int:
    return sum(math.prod(shape) * dtype.itemsize for shape, dtype in blocks)


def _le(arrays) -> list[np.ndarray]:
    return [np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")) for a in arrays]


def _crc(chunks, crc: int = 0) -> int:
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    return crc


def _segment(state: RunState, t: int, part: str) -> list[np.ndarray]:
    """The arrays of task t's `part` (task 0: the backbone) in `state`."""
    if not t:
        return [state.net.w1, state.net.w2]
    mod = state.bank.modulator(t)
    if part == "generator":
        return mod.generator()
    return [p.data for site in mod.sites for p in site] + [state.bank.prototype(t)]


def _check_layout(arrays, wanted) -> None:
    got = [(a.shape, a.dtype) for a in arrays]
    if got != wanted:
        raise ContractError(f"run state arrays have shapes and dtypes {got}; its config implies {wanted}")


def save_checkpoint(path, state: RunState, crcs: list[int] | None = None) -> list[int]:
    """Write `state` to `path` and its sidecar; return the segment CRCs.

    `crcs` is what this run's previous save to `path` returned.  Its segments
    are in the sidecar already, so only newer ones are built, checked and
    appended, one at a time.  None, for a run's first save, writes a fresh
    sidecar.  Each generator written is then spilled: its modulator reads it
    from the sidecar when needed, as a loaded one does.  Each array is stored
    as it is held, and one whose shape or dtype differs from its
    `payload_layout` entry is a ContractError, raised before `path` is written.
    """
    bank, head, net, cfg = state.bank, state.head, state.net, state.config
    mutable = [head.weight] + ([net.w1, net.w2] if cfg.method == "finetune" else [])
    mutable.append(np.array([s.epochs for s in state.stages], dtype=np.float64))
    blocks, segments = payload_layout(cfg, int(net.w1.shape[0]), len(state.stages), head.num_classes)
    _check_layout(mutable, blocks)
    tasks = segments[-1][0] if segments else 0
    if len(bank) != tasks:
        raise ContractError(f"run state has {len(bank)} frozen modulators; its config implies {tasks}")
    done, fresh = crcs or [], []

    def chunks():
        for t, part, wanted in segments[len(done) :]:
            arrays = _segment(state, t, part)
            _check_layout(arrays, wanted)
            arrays = _le(arrays)
            fresh.append(_crc(arrays))
            yield from arrays

    if crcs is None:
        write_atomic(frozen_path(path), chunks())
    else:
        write_at(frozen_path(path), sum(_nbytes(blocks) for *_, blocks in segments[: len(done)]), chunks())
    crcs = done + fresh

    header = {
        "config": cfg.echo(),
        "tasks_total": int(state.tasks_total),
        "in_dim": int(net.w1.shape[0]),
        "stages": [
            {"classes": classes, "accuracy": s.accuracy, "inferred": s.inferred, "donor": s.donor}
            for classes, s in zip(head.tasks, state.stages)
        ],
        "crcs": crcs,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = _le(mutable)
    crc = _crc(payload, zlib.crc32(header_bytes))
    prefix = MAGIC + struct.pack("<IQ", VERSION, len(header_bytes))
    write_atomic(path, [prefix, header_bytes, *payload, struct.pack("<I", crc)])
    for k, (t, part, _) in enumerate(segments[len(done) :], len(done)):
        if part == "generator":
            bank.modulator(t).spill(_generator_reader(path, crcs, segments, k))
    return crcs


# Every header key, with the JSON type it must have.
_HEADER_TYPES = {"config": dict, "crcs": list, "in_dim": int, "stages": list, "tasks_total": int}


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
    try:
        cfg = make_config(header["config"])
    except ContractError as e:
        raise IntegrityError(f"{path} header is malformed: stored config is invalid: {e}") from None
    # A run stores cfg.echo(); any other spelling of a valid config (a key
    # left out, "3" for 3) would load but fail the resume check.
    need(header["config"] == cfg.echo(), "stored config is not the form a run stores")
    need(header["in_dim"] >= 1, f"in_dim {header['in_dim']} is below 1")
    stages, total = header["stages"], header["tasks_total"]
    task_id = (int, type(None))
    for t, s in enumerate(stages, 1):
        need(
            _fields(s, classes=list, accuracy=list, inferred=list, donor=task_id)
            and s["classes"] and all(_is(c, int) for c in s["classes"])
            and len(s["accuracy"]) == len(s["inferred"]) == t
            and all(_is(v, (int, float)) and 0 <= v <= 100 for v in s["accuracy"])
            and all(i is None or _is(i, int) and 1 <= i <= t for i in s["inferred"])
            and (s["donor"] is None or 1 <= s["donor"] < t),
            f"stage {t} must hold its classes, {t} accuracies in [0, 100], {t} inferred task ids"
            f" in 1..{t} and a donor that is an earlier task or null",
        )
    need(1 <= len(stages) <= total, f"{len(stages)} stages, outside 1..{total}")
    classes = [c for s in stages for c in s["classes"]]
    need(len(set(classes)) == len(classes), "a class is in two groups")
    crcs = header["crcs"]
    need(all(_is(c, int) and 0 <= c < 2**32 for c in crcs), "a CRC is not a u32")
    blocks, segments = payload_layout(cfg, header["in_dim"], len(stages), len(classes))
    need(len(crcs) == len(segments), f"{len(crcs)} CRCs where the stored config implies {len(segments)} segments")
    return cfg, blocks, segments


def _views(buf, blocks) -> list[np.ndarray]:
    """Read-only views of consecutive arrays of these (shape, dtype) in `buf`."""
    starts = accumulate((_nbytes([b]) for b in blocks), initial=0)
    return [np.frombuffer(buf, d.newbyteorder("<"), math.prod(s), at).reshape(s) for (s, d), at in zip(blocks, starts)]


def _read_segments(path, crcs, segments, picks) -> list[list[np.ndarray]]:
    """Segments `picks` of the sidecar of `path`, which must hold all of
    `segments` (`payload_layout`), each read at its offset and checked against its CRC."""
    sidecar = frozen_path(path)
    ends = list(accumulate((_nbytes(blocks) for *_, blocks in segments), initial=0))
    try:
        with open(sidecar, "rb") as fh:
            if os.fstat(fh.fileno()).st_size < ends[-1]:
                raise IntegrityError(f"{sidecar} is truncated")
            out = []
            for k in picks:
                t, part, blocks = segments[k]
                fh.seek(ends[k])
                raw = fh.read(ends[k + 1] - ends[k])
                if zlib.crc32(raw) != crcs[k]:
                    what = f"task {t}'s {part}" if t else "the backbone"
                    raise IntegrityError(f"{sidecar} failed its checksum (segment {k}, {what})")
                out.append(_views(raw, blocks))
            return out
    except FileNotFoundError:
        raise IntegrityError(f"{sidecar} is missing; copy it along with {path}") from None


def _generator_reader(path, crcs, segments, k):
    """A function that reads segment k, a task's generator, from the sidecar
    of `path` and checks it, anew at each call; None if k is None."""
    return None if k is None else lambda: _read_segments(path, crcs, segments, [k])[0]


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

    payload_len, stored = _nbytes(blocks), len(raw) - header_end - 4
    if stored != payload_len:
        raise IntegrityError(f"{path} is truncated or its header malformed: {stored} payload bytes, not {payload_len}")
    payload = raw[header_end : header_end + payload_len]
    (crc_stored,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if zlib.crc32(payload, zlib.crc32(header_bytes)) != crc_stored:
        raise IntegrityError(f"{path} failed its checksum")
    head_weight, *finetune_net, logs = _views(payload, blocks)
    accuracy = logs[..., 1:]  # validation accuracy is NaN for a task without validation nodes
    if not (np.isnan(accuracy) | (0 <= accuracy) & (accuracy <= 100)).all():
        raise IntegrityError(f"{path} is malformed: an epoch log holds an accuracy outside [0, 100]")
    crcs = header["crcs"]
    # the backbone and each task's inference form; a generator is read when needed
    frozen = _read_segments(path, crcs, segments, [k for k, (_, part, _) in enumerate(segments) if part != "generator"])

    bank = PrototypeBank()
    if cfg.method == "finetune":
        net = FinetuneModel(*finetune_net)  # which copies them, to train
    else:
        # Frozen blocks are never written again, so they stay views of the sidecar bytes.
        (w1, w2), *tasks = frozen
        net = Backbone(w1, w2)
        generators = {t: k for k, (t, part, _) in enumerate(segments) if part == "generator"}
        bank = PrototypeBank.restore(
            (vector, Modulator.from_frozen(arrays, _generator_reader(path, crcs, segments, generators.get(t))))
            for t, (*arrays, vector) in enumerate(tasks, 1)
        )

    stages = header["stages"]
    # Every trained task's columns are frozen, except under finetune, which freezes none.
    head = ClassifierHead.restore(head_weight.copy(), [s["classes"] for s in stages], cfg.method != "finetune")
    return RunState(
        config=cfg,
        tasks_total=header["tasks_total"],
        net=net,
        bank=bank,
        head=head,
        stages=[Stage(s["accuracy"], s["inferred"], s["donor"], epochs) for s, epochs in zip(stages, logs)],
    )
