"""Binary run checkpoints.

Layout (all integers little-endian):

    bytes 0..7    magic "TAAMCKPT"
    bytes 8..11   u32 format version (currently 1)
    bytes 12..19  u64 header length H
    next H bytes  header, UTF-8 JSON (sorted keys)
    payload       parameter blocks, raw float64 little-endian, C order
    last 4 bytes  u32 CRC-32 of header bytes + payload bytes

Block order (`block_layout`): backbone w1, w2; then per stored task, per
site, w_base, b_base, w_attn, b_attn, then the task embedding; then the
classifier weight matrix; then the prototype vectors in task order.  The
header's "blocks" list records every block's name and shape, and the loader
requires it to equal the layout derived from the header's backbone,
modulator and classifier metadata.  The stored config must also validate
and agree with that metadata (dtype, hidden width, heads, embedding size).
Every violation is an IntegrityError.

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
from itertools import zip_longest

import numpy as np

from .backbone import Backbone
from .classifier import ClassifierHead
from .config import RunConfig, make_config
from .errors import ContractError, IntegrityError, VersionError
from .modulator import Modulator, SiteParams
from .prototypes import Prototype, PrototypeBank
from .tensor import Tensor
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


def block_layout(backbone: dict, modulators: list[dict], classes: int) -> list[dict]:
    """Every payload block's name and shape, in payload order, from the
    backbone dims, each stored task's modulator dims and the class count."""
    d_in, d_h = backbone["in_dim"], backbone["hidden_dim"]
    blocks = [("backbone.w1", [d_in, d_h]), ("backbone.w2", [d_h, d_h])]
    for t, m in enumerate(modulators, start=1):
        heads, e = m["heads"], m["embed_dim"]
        for s, width in enumerate(m["site_widths"]):
            blocks += [
                (f"task{t}.site{s}.w_base", [heads * 2 * width, e]),
                (f"task{t}.site{s}.b_base", [heads * 2 * width, 1]),
                (f"task{t}.site{s}.w_attn", [heads, width]),
                (f"task{t}.site{s}.b_attn", [1, heads]),
            ]
        blocks.append((f"task{t}.embedding", [e, 1]))
    blocks.append(("classifier.weight", [d_h, classes]))
    blocks += [(f"task{t}.prototype", [d_in]) for t in range(1, len(modulators) + 1)]
    return [{"name": name, "shape": shape} for name, shape in blocks]


def save_checkpoint(path, state: RunState) -> None:
    bank, head, w1 = state.bank, state.head, state.net.w1
    tasks = range(1, len(bank) + 1)
    backbone = {"in_dim": int(w1.shape[0]), "hidden_dim": int(w1.shape[1])}
    modulators = [
        {
            "site_widths": list(bank.modulator(t).site_widths),
            "embed_dim": bank.modulator(t).embed_dim,
            "heads": bank.modulator(t).sites[0].heads,
        }
        for t in tasks
    ]
    layout = block_layout(backbone, modulators, head.num_classes)
    arrays = [w1, state.net.w2]
    arrays += [p.data for t in tasks for p in bank.modulator(t).parameters()]
    arrays.append(head.weight)
    arrays += [bank.prototype(t).vector for t in tasks]
    header = {
        "version": VERSION,
        "config": state.config,
        "stage": int(state.stage),
        "tasks_total": int(state.tasks_total),
        "dtype": str(w1.dtype),
        "backbone": backbone,
        "modulators": modulators,
        "prototypes": [{"node_count": bank.prototype(t).node_count} for t in tasks],
        "classifier": {
            "hidden_dim": head.hidden_dim,
            "tasks": head.tasks,
            "frozen": [bool(b) for b in head.frozen],
        },
        "matrix_rows": state.matrix_rows,
        "retrieval_log": state.retrieval_log,
        "donors": state.donors,
        "blocks": layout,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(header_bytes)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for a in arrays:
            a = np.ascontiguousarray(a, dtype="<f8")
            crc = zlib.crc32(a, crc)
            fh.write(a)
        fh.write(struct.pack("<I", crc & 0xFFFFFFFF))


# Keys the loader reads or checks in the header, with the JSON type each must have.
_HEADER_TYPES = {
    "backbone": dict,
    "blocks": list,
    "classifier": dict,
    "config": dict,
    "donors": list,
    "dtype": str,
    "matrix_rows": list,
    "modulators": list,
    "prototypes": list,
    "retrieval_log": list,
    "stage": int,
    "tasks_total": int,
}


def _is(value, kind) -> bool:
    """isinstance, except that a JSON true/false is not an int."""
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def _check_header(header, path) -> tuple[RunConfig, list[dict]]:
    """Raise IntegrityError unless the header has every field the loader reads,
    well typed, holds a valid config that its metadata agrees with, and lists
    exactly the blocks that its metadata implies.  Returns the config and the
    block layout."""

    def need(ok, what):
        if not ok:
            raise IntegrityError(f"{path} header is malformed: {what}")

    need(isinstance(header, dict), "not a JSON object")
    for key, kind in _HEADER_TYPES.items():
        need(key in header, f"missing {key!r}")
        need(_is(header[key], kind), f"{key!r} is not a {kind.__name__}")
    need(header["dtype"] in ("float32", "float64"), f"unknown dtype {header['dtype']!r}")
    try:
        cfg = make_config(header["config"])
    except ContractError as e:
        raise IntegrityError(f"{path} header is malformed: stored config is invalid: {e}") from None
    bb = header["backbone"]
    need(_is(bb.get("in_dim"), int) and _is(bb.get("hidden_dim"), int), "bad backbone entry")
    need(len(header["modulators"]) == len(header["prototypes"]), "modulator/prototype count differ")
    for m in header["modulators"]:
        need(
            isinstance(m, dict)
            and isinstance(m.get("site_widths"), list)
            and all(_is(w, int) for w in m["site_widths"])
            and _is(m.get("embed_dim"), int)
            and _is(m.get("heads"), int),
            "bad modulator entry",
        )
    for p in header["prototypes"]:
        need(isinstance(p, dict) and _is(p.get("node_count"), int), "bad prototype entry")
    c = header["classifier"]
    need(
        _is(c.get("hidden_dim"), int)
        and isinstance(c.get("frozen"), list)
        and isinstance(c.get("tasks"), list)
        and all(isinstance(g, list) and all(_is(x, int) for x in g) for g in c["tasks"]),
        "bad classifier entry",
    )

    stage, total = header["stage"], header["tasks_total"]
    need(1 <= stage <= total, f"stage {stage} is outside 1..{total}")
    need(
        len(header["matrix_rows"]) == len(c["tasks"]) == stage,
        f"{len(header['matrix_rows'])} matrix rows and {len(c['tasks'])} classifier tasks at stage {stage}",
    )
    need(
        all(isinstance(r, list) and len(r) == t for t, r in enumerate(header["matrix_rows"], start=1)),
        "matrix row t must hold t entries",
    )
    stored = 0 if cfg.method == "finetune" else stage
    need(len(header["modulators"]) == stored, f"{len(header['modulators'])} modulators at stage {stage}")
    classes = [x for g in c["tasks"] for x in g]
    need(len(set(classes)) == len(classes) == len(c["frozen"]), "classifier classes and frozen flags disagree")
    d_in, d_h = bb["in_dim"], bb["hidden_dim"]
    need(c["hidden_dim"] == d_h, f"classifier hidden_dim {c['hidden_dim']} != backbone {d_h}")

    need(
        header["dtype"] == np.dtype(cfg.np_dtype).name,
        f"dtype {header['dtype']} does not match precision {cfg.precision!r}",
    )
    need(d_h == cfg.hidden_dim, f"backbone hidden_dim {d_h} != config hidden_dim {cfg.hidden_dim}")
    for t, m in enumerate(header["modulators"], start=1):
        need(m["site_widths"] == [d_in, d_h], f"task {t} site widths {m['site_widths']} != {[d_in, d_h]}")
        need(
            (m["heads"], m["embed_dim"]) == (cfg.heads, cfg.embed_dim),
            f"task {t} has heads {m['heads']} and embed_dim {m['embed_dim']}, "
            f"config {cfg.heads} and {cfg.embed_dim}",
        )
    layout = block_layout(bb, header["modulators"], len(classes))
    need(all(d >= 0 for b in layout for d in b["shape"]), "negative block dimension")
    for got, want in zip_longest(header["blocks"], layout):
        need(got == want, f"block entry {got} where the metadata implies {want}")
    return cfg, layout


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
    views: dict[str, np.ndarray] = {}
    at = 0
    for meta, count in zip(layout, counts):
        views[meta["name"]] = np.frombuffer(
            payload, dtype="<f8", count=count, offset=8 * at
        ).reshape(meta["shape"])
        at += count
    dtype = np.dtype(header["dtype"])

    def block(name, as_dtype=dtype):
        return views[name].astype(as_dtype)

    bank = PrototypeBank()
    for t, (mmeta, pmeta) in enumerate(zip(header["modulators"], header["prototypes"]), start=1):
        sites = []
        for s in range(len(mmeta["site_widths"])):
            sites.append(
                SiteParams(
                    Tensor(block(f"task{t}.site{s}.w_base"), requires_grad=True),
                    Tensor(block(f"task{t}.site{s}.b_base"), requires_grad=True),
                    Tensor(block(f"task{t}.site{s}.w_attn"), requires_grad=True),
                    Tensor(block(f"task{t}.site{s}.b_attn"), requires_grad=True),
                )
            )
        mod = Modulator(Tensor(block(f"task{t}.embedding"), requires_grad=True), sites)
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
