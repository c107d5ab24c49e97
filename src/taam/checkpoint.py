"""Binary run checkpoints.

Layout (all integers little-endian):

    bytes 0..7    magic "TAAMCKPT"
    bytes 8..11   u32 format version (currently 1)
    bytes 12..19  u64 header length H
    next H bytes  header, UTF-8 JSON (sorted keys)
    payload       parameter blocks, raw float64 little-endian, C order
    last 4 bytes  u32 CRC-32 of header bytes + payload bytes

Block order: backbone w1, w2; then per stored task its modulator's
parameters in `modulator.param_layout` order; then the classifier weight
matrix; then the prototype vectors in task order.  The header's metadata
(dtype, backbone and modulator dims) and its "blocks" list of every block's
name and shape are derived from the stored config, the input width, the
stage and the class count (`derived_metadata`).  The loader requires the
stored config to validate, the resume fields (matrix rows, retrieval log,
donors) to be well typed, and each derived key to equal what that config
implies.  Every violation is an IntegrityError.

Float32 runs upcast to float64 on save and cast back on load (exact).
Checkpoints are written at stage boundaries, so no optimizer state is
stored; resuming re-derives all randomness from the seed and purpose tags.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass
from itertools import accumulate, zip_longest

import numpy as np

from .backbone import Backbone
from .classifier import ClassifierHead
from .config import RunConfig, make_config
from .errors import ContractError, IntegrityError, VersionError
from .modulator import Modulator, param_layout
from .prototypes import Prototype, PrototypeBank
from .training import FinetuneModel

MAGIC = b"TAAMCKPT"
VERSION = 1

# Resuming in a different place is fine; resuming different run semantics is not.
_CONFIG_KEYS_IGNORED_ON_RESUME = ("out_dir",)


@dataclass
class RunState:
    """A run at a stage boundary: everything needed to continue or re-evaluate it.

    `run_continual` advances one of these in place, stage by stage.  `net` is
    the frozen Backbone, or for method finetune the trainable FinetuneModel;
    either way `net.w1` and `net.w2` are ndarrays in the run's dtype.
    """

    config: dict
    stage: int
    tasks_total: int
    net: Backbone | FinetuneModel
    bank: PrototypeBank
    head: ClassifierHead
    matrix_rows: list[list[float]]
    retrieval_log: list[dict]
    donors: list[int | None]

    def check_config(self, cfg) -> None:
        stored = {k: v for k, v in self.config.items() if k not in _CONFIG_KEYS_IGNORED_ON_RESUME}
        current = {k: v for k, v in cfg.echo().items() if k not in _CONFIG_KEYS_IGNORED_ON_RESUME}
        if stored != current:
            diff = sorted(
                k for k in set(stored) | set(current) if stored.get(k) != current.get(k)
            )
            raise ContractError(f"checkpoint config does not match current config; differs in {diff}")


def derived_metadata(cfg: RunConfig, in_dim: int, stage: int, classes: int) -> dict:
    """The header keys that the config, the input width, the stage and the
    class count fix: dtype, backbone and modulator dims, and the block list
    (every payload block's name and shape, in payload order)."""
    d_h = cfg.hidden_dim
    stored = [] if cfg.method == "finetune" else range(1, stage + 1)
    widths = [in_dim, d_h]
    blocks = [("backbone.w1", (in_dim, d_h)), ("backbone.w2", (d_h, d_h))]
    params = param_layout(widths, cfg.heads, cfg.embed_dim)
    blocks += [(f"task{t}.{name}", shape) for t in stored for name, shape in params]
    blocks.append(("classifier.weight", (d_h, classes)))
    blocks += [(f"task{t}.prototype", (in_dim,)) for t in stored]
    return {
        "dtype": np.dtype(cfg.np_dtype).name,
        "backbone": {"in_dim": in_dim, "hidden_dim": d_h},
        "modulators": [
            {"site_widths": widths, "embed_dim": cfg.embed_dim, "heads": cfg.heads} for _ in stored
        ],
        "blocks": [{"name": name, "shape": list(shape)} for name, shape in blocks],
    }


def _canonical(value) -> str:
    """JSON text with sorted keys, so that equal text means equal JSON (true != 1)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def save_checkpoint(path, state: RunState) -> None:
    bank, head, net = state.bank, state.head, state.net
    tasks = range(1, len(bank) + 1)
    meta = derived_metadata(
        make_config(state.config), int(net.w1.shape[0]), state.stage, head.num_classes
    )
    arrays = [net.w1, net.w2]
    arrays += [p.data for t in tasks for p in bank.modulator(t).parameters()]
    arrays.append(head.weight)
    arrays += [bank.prototype(t).vector for t in tasks]
    shapes = [list(a.shape) for a in arrays]
    wanted = [b["shape"] for b in meta["blocks"]]
    if shapes != wanted:
        raise ContractError(f"run state arrays have shapes {shapes}; its config implies {wanted}")
    header = {
        **meta,
        "version": VERSION,
        "config": state.config,
        "stage": int(state.stage),
        "tasks_total": int(state.tasks_total),
        "prototypes": [{"node_count": bank.prototype(t).node_count} for t in tasks],
        "classifier": {
            "hidden_dim": head.hidden_dim,
            "tasks": head.tasks,
            "frozen": [bool(b) for b in head.frozen],
        },
        "matrix_rows": state.matrix_rows,
        "retrieval_log": state.retrieval_log,
        "donors": state.donors,
    }
    header_bytes = _canonical(header).encode("utf-8")
    crc = zlib.crc32(header_bytes)
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<IQ", VERSION, len(header_bytes)) + header_bytes)
        for a in arrays:
            a = np.ascontiguousarray(a, dtype="<f8")
            crc = zlib.crc32(a, crc)
            fh.write(a)
        fh.write(struct.pack("<I", crc & 0xFFFFFFFF))


# Keys the loader reads in the header, with the JSON type each must have.  The
# keys of `derived_metadata` are checked against its output instead.
_HEADER_TYPES = {
    "backbone": dict,
    "classifier": dict,
    "config": dict,
    "donors": list,
    "matrix_rows": list,
    "prototypes": list,
    "retrieval_log": list,
    "stage": int,
    "tasks_total": int,
}


def _is(value, kind) -> bool:
    """isinstance, except that a JSON true/false is not a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_header(header, path) -> tuple[RunConfig, list[dict]]:
    """Raise IntegrityError unless the header has every field the loader reads,
    well typed, holds a valid config, and its derived keys are exactly the
    `derived_metadata` of that config.  Returns the config and the block list."""

    def need(ok, what):
        if not ok:
            raise IntegrityError(f"{path} header is malformed: {what}")

    need(isinstance(header, dict), "not a JSON object")
    for key, kind in _HEADER_TYPES.items():
        need(key in header, f"missing {key!r}")
        need(_is(header[key], kind), f"{key!r} is not a {kind.__name__}")
    try:
        cfg = make_config(header["config"])
    except ContractError as e:
        raise IntegrityError(f"{path} header is malformed: stored config is invalid: {e}") from None
    in_dim = header["backbone"].get("in_dim")
    need(_is(in_dim, int) and in_dim >= 1, "bad backbone entry")
    for p in header["prototypes"]:
        need(isinstance(p, dict) and _is(p.get("node_count"), int), "bad prototype entry")
    c = header["classifier"]
    need(
        _canonical(c.get("hidden_dim")) == _canonical(cfg.hidden_dim)
        and isinstance(c.get("frozen"), list)
        and all(isinstance(b, bool) for b in c["frozen"])
        and isinstance(c.get("tasks"), list)
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
    logged = [
        {"stage": s, "task": j, "true": j, "inferred": i, "correct": None if i is None else i == j}
        for (s, j), i in zip(asked, inferred)
    ]
    need(
        len(decisions) == len(asked)
        and all(i is None or _is(i, int) for i in inferred)
        and decisions == logged,
        "retrieval log is not one decision per (stage, task) up to this stage",
    )
    derived = derived_metadata(cfg, in_dim, stage, len(classes))
    for key, want in derived.items():
        need(key in header, f"missing {key!r}")
        got = header[key]
        same = _canonical(got) == _canonical(want)
        if not same and isinstance(got, list):  # name the first entry that differs
            got, want = next((g, w) for g, w in zip_longest(got, want) if _canonical(g) != _canonical(w))
        need(same, f"{key!r} has {got} where the stored config implies {want}")
    need(len(header["prototypes"]) == len(header["modulators"]), "modulator/prototype count differ")
    return cfg, derived["blocks"]


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
    cfg, layout = _check_header(header, path)

    counts = [math.prod(b["shape"]) for b in layout]
    payload_len = 8 * sum(counts)
    if header_end + payload_len + 4 != len(raw):
        raise IntegrityError(f"{path} is truncated (payload)")
    payload = raw[header_end : header_end + payload_len]
    (crc_stored,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if zlib.crc32(payload, zlib.crc32(header_bytes)) & 0xFFFFFFFF != crc_stored:
        raise IntegrityError(f"{path} failed its checksum")

    # Read-only views into the file bytes; each is copied once, by astype, where used.
    flat = np.frombuffer(payload, dtype="<f8")
    ends = accumulate(counts)
    views = {b["name"]: flat[end - n : end].reshape(b["shape"]) for b, n, end in zip(layout, counts, ends)}

    def block(name, as_dtype=cfg.np_dtype):
        return views[name].astype(as_dtype)

    bank = PrototypeBank()
    for t, (mmeta, pmeta) in enumerate(zip(header["modulators"], header["prototypes"]), start=1):
        mod = Modulator.from_arrays([block(f"task{t}.{name}") for name, _ in param_layout(**mmeta)])
        proto = Prototype(block(f"task{t}.prototype", np.float64), node_count=pmeta["node_count"])
        bank.commit(proto, mod)

    cmeta = header["classifier"]
    net = FinetuneModel if cfg.method == "finetune" else Backbone
    return RunState(
        config=header["config"],
        stage=header["stage"],
        tasks_total=header["tasks_total"],
        net=net(block("backbone.w1"), block("backbone.w2")),
        bank=bank,
        head=ClassifierHead.restore(block("classifier.weight"), cmeta["tasks"], cmeta["frozen"]),
        matrix_rows=header["matrix_rows"],
        retrieval_log=header["retrieval_log"],
        donors=header["donors"],
    )
