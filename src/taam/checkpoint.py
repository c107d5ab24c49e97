"""Binary run checkpoints.

Layout (all integers little-endian):

    bytes 0..7    magic "TAAMCKPT"
    bytes 8..11   u32 format version (currently 1)
    bytes 12..19  u64 header length H
    next H bytes  header, UTF-8 JSON (sorted keys)
    payload       parameter blocks, raw float64 little-endian, C order
    last 4 bytes  u32 CRC-32 of header bytes + payload bytes

Block order: backbone w1, w2; then per stored task, per site, w_base,
b_base, w_attn, b_attn, then the task embedding; then the classifier weight
matrix; then the prototype vectors in task order.  The header's "blocks"
list records every block's shape, so the payload is self-describing.

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

import numpy as np

from .backbone import Backbone
from .classifier import ClassifierHead, ClassSlot
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
    """Everything needed to continue or re-evaluate a run at a stage boundary."""

    config: dict
    stage: int
    tasks_total: int
    backbone_w1: np.ndarray
    backbone_w2: np.ndarray
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

    def rebuild(self, cfg):
        """Materialize (backbone, finetune_model, bank, head) in cfg's dtype."""
        dtype = cfg.np_dtype
        if cfg.method == "finetune":
            backbone = None
            model = FinetuneModel(
                self.backbone_w1.astype(dtype), self.backbone_w2.astype(dtype)
            )
        else:
            backbone = Backbone(w1=self.backbone_w1.astype(dtype), w2=self.backbone_w2.astype(dtype))
            model = None
        return backbone, model, self.bank, self.head


def _state_blocks(state: RunState) -> list[tuple[str, np.ndarray]]:
    blocks = [("backbone.w1", state.backbone_w1), ("backbone.w2", state.backbone_w2)]
    for t in range(1, len(state.bank) + 1):
        mod = state.bank.modulator(t)
        for s, site in enumerate(mod.sites):
            blocks.append((f"task{t}.site{s}.w_base", site.w_base.data))
            blocks.append((f"task{t}.site{s}.b_base", site.b_base.data))
            blocks.append((f"task{t}.site{s}.w_attn", site.w_attn.data))
            blocks.append((f"task{t}.site{s}.b_attn", site.b_attn.data))
        blocks.append((f"task{t}.embedding", mod.embedding.data))
    blocks.append(("classifier.weight", state.head.weight))
    for t in range(1, len(state.bank) + 1):
        blocks.append((f"task{t}.prototype", state.bank.prototype(t).vector))
    return blocks


def save_checkpoint(path, state: RunState) -> None:
    blocks = _state_blocks(state)
    header = {
        "version": VERSION,
        "config": state.config,
        "stage": int(state.stage),
        "tasks_total": int(state.tasks_total),
        "dtype": str(state.backbone_w1.dtype),
        "backbone": {
            "in_dim": int(state.backbone_w1.shape[0]),
            "hidden_dim": int(state.backbone_w1.shape[1]),
        },
        "modulators": [
            {
                "site_widths": list(state.bank.modulator(t).site_widths),
                "embed_dim": state.bank.modulator(t).embed_dim,
                "heads": state.bank.modulator(t).sites[0].heads,
            }
            for t in range(1, len(state.bank) + 1)
        ],
        "prototypes": [
            {"node_count": state.bank.prototype(t).node_count}
            for t in range(1, len(state.bank) + 1)
        ],
        "classifier": {
            "hidden_dim": state.head.hidden_dim,
            "tasks": state.head.tasks,
            "frozen": [bool(b) for b in state.head.frozen],
        },
        "matrix_rows": state.matrix_rows,
        "retrieval_log": state.retrieval_log,
        "donors": state.donors,
        "blocks": [{"name": n, "shape": list(a.shape)} for n, a in blocks],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(header_bytes)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for _, a in blocks:
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


def _check_header(header, path) -> None:
    """Raise IntegrityError unless the header has every field the loader reads,
    well typed, and its block shapes agree with the metadata and each other."""

    def need(ok, what):
        if not ok:
            raise IntegrityError(f"{path} header is malformed: {what}")

    need(isinstance(header, dict), "not a JSON object")
    for key, kind in _HEADER_TYPES.items():
        need(key in header, f"missing {key!r}")
        need(_is(header[key], kind), f"{key!r} is not a {kind.__name__}")
    need(header["dtype"] in ("float32", "float64"), f"unknown dtype {header['dtype']!r}")
    for b in header["blocks"]:
        need(
            isinstance(b, dict)
            and isinstance(b.get("name"), str)
            and isinstance(b.get("shape"), list)
            and all(_is(d, int) and d >= 0 for d in b["shape"]),
            f"bad block entry {b!r}",
        )
    bb = header["backbone"]
    need(_is(bb.get("in_dim"), int) and _is(bb.get("hidden_dim"), int), "bad backbone entry")
    need(len(header["modulators"]) == len(header["prototypes"]), "modulator/prototype count differ")
    for m in header["modulators"]:
        need(
            isinstance(m, dict)
            and isinstance(m.get("site_widths"), list)
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
    stored = 0 if header["config"].get("method") == "finetune" else stage
    need(len(header["modulators"]) == stored, f"{len(header['modulators'])} modulators at stage {stage}")
    classes = [x for g in c["tasks"] for x in g]
    need(len(set(classes)) == len(classes) == len(c["frozen"]), "classifier classes and frozen flags disagree")
    d_in, d_h = bb["in_dim"], bb["hidden_dim"]
    need(c["hidden_dim"] == d_h, f"classifier hidden_dim {c['hidden_dim']} != backbone {d_h}")

    want = {"backbone.w1": [d_in, d_h], "backbone.w2": [d_h, d_h], "classifier.weight": [d_h, len(classes)]}
    for t, m in enumerate(header["modulators"], start=1):
        need(m["site_widths"] == [d_in, d_h], f"task {t} site widths {m['site_widths']} != {[d_in, d_h]}")
        heads, e = m["heads"], m["embed_dim"]
        for s, width in enumerate(m["site_widths"]):
            want[f"task{t}.site{s}.w_base"] = [heads * 2 * width, e]
            want[f"task{t}.site{s}.b_base"] = [heads * 2 * width, 1]
            want[f"task{t}.site{s}.w_attn"] = [heads, width]
            want[f"task{t}.site{s}.b_attn"] = [1, heads]
        want[f"task{t}.embedding"] = [e, 1]
        want[f"task{t}.prototype"] = [d_in]
    shapes = {b["name"]: b["shape"] for b in header["blocks"]}
    for name, shape in want.items():
        need(shapes.get(name) == shape, f"block {name!r} has shape {shapes.get(name)}, expected {shape}")


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
    _check_header(header, path)

    counts = [math.prod(b["shape"]) for b in header["blocks"]]
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
    for meta, count in zip(header["blocks"], counts):
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
    head = ClassifierHead(cmeta["hidden_dim"], dtype=dtype)
    head.weight = block("classifier.weight")
    head.frozen = np.array(cmeta["frozen"], dtype=bool)
    head.tasks = [[int(c) for c in group] for group in cmeta["tasks"]]
    col = 0
    for task_no, group in enumerate(head.tasks, start=1):
        for local, c in enumerate(group):
            head.slots[c] = ClassSlot(task=task_no, local=local, column=col)
            col += 1

    return RunState(
        config=header["config"],
        stage=int(header["stage"]),
        tasks_total=int(header["tasks_total"]),
        backbone_w1=block("backbone.w1"),
        backbone_w2=block("backbone.w2"),
        bank=bank,
        head=head,
        matrix_rows=header["matrix_rows"],
        retrieval_log=header["retrieval_log"],
        donors=header["donors"],
    )
