"""Run configuration: defaults, flat key=value files, and overrides.

A config file is plain text, one `key = value` per line, `#` comments and
blank lines ignored.  Every key is a RunConfig field; unknown keys are
rejected with the list of valid ones.  Command-line flags override file
values, which override the defaults.

VARIANTS is the one table of method variants: for each valid (method,
ablation) pair, whether a new task warm-starts, where evaluation gets the
task id, and which label space it predicts over.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, text_lines


@dataclass(frozen=True)
class Variant:
    """The three choices that tell the method variants apart.

    warm_start   a new task's modulator is cloned from the nearest stored one
    task_id      where evaluation gets the task id: "retrieved" (nearest
                 prototype), "true" (handed in), "latest" (newest modulator),
                 or None (no modulators: one shared trainable model)
    label_space  "task" predicts over the chosen task's classes, "seen" over
                 every class registered so far
    """

    warm_start: bool
    task_id: str | None
    label_space: str


VARIANTS = {
    ("taam", "full"): Variant(True, "retrieved", "task"),
    ("taam", "retrieval_only"): Variant(False, "retrieved", "task"),
    ("taam", "nsm_only"): Variant(False, "latest", "seen"),
    ("oracle", "full"): Variant(True, "true", "task"),
    ("finetune", "full"): Variant(False, None, "seen"),
}
METHODS = tuple(dict.fromkeys(m for m, _ in VARIANTS))
ABLATIONS = tuple(dict.fromkeys(a for _, a in VARIANTS))
REDUCTIONS = ("sum", "mean")
PRECISIONS = ("f64", "f32")


@dataclass
class RunConfig:
    dataset: str = "sbm:classes=6,npc=60,p_in=0.1,p_out=0.02,dim=32,sep=8"
    method: str = "taam"
    ablation: str = "full"
    protocol: str = "equal:2"
    seed: int = 0
    hops: int = 2
    hidden_dim: int = 256
    embed_dim: int = 64
    heads: int = 3
    lr: float = 0.005
    weight_decay: float = 5e-4
    epochs: int = 200
    reduction: str = "sum"
    precision: str = "f64"
    train_frac: float = 0.6
    val_frac: float = 0.2
    row_normalize: bool = False
    shuffle_classes: bool = False
    predict_over_all: bool = False
    out_dir: str = "runs"

    def validate(self) -> "RunConfig":
        if self.method not in METHODS:
            raise ContractError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.ablation not in ABLATIONS:
            raise ContractError(f"unknown ablation {self.ablation!r}; choose from {ABLATIONS}")
        if (self.method, self.ablation) not in VARIANTS:
            raise ContractError("ablations apply to method=taam only")
        if self.reduction not in REDUCTIONS:
            raise ContractError(f"reduction must be one of {REDUCTIONS}, got {self.reduction!r}")
        if self.precision not in PRECISIONS:
            raise ContractError(f"precision must be one of {PRECISIONS}, got {self.precision!r}")
        if min(self.epochs, self.hidden_dim, self.embed_dim, self.heads) < 1 or self.hops < 0:
            raise ContractError("epochs, hidden_dim, embed_dim and heads >= 1, hops >= 0 required")
        if not (0 < self.lr < math.inf and 0 <= self.weight_decay < math.inf):
            raise ContractError(
                f"lr must be finite and > 0 and weight_decay finite and >= 0, "
                f"got lr={self.lr} weight_decay={self.weight_decay}"
            )
        check_split_fractions(self.train_frac, self.val_frac)
        classes_per_task, sizes = self.protocol_spec()
        if min(sizes or [classes_per_task]) < 1:
            raise ContractError(f"protocol {self.protocol!r} gives a task fewer than 1 class")
        return self

    @property
    def np_dtype(self):
        return np.float64 if self.precision == "f64" else np.float32

    @property
    def variant(self) -> Variant:
        return VARIANTS[self.method, self.ablation]

    def protocol_spec(self) -> tuple[int | None, list[int] | None]:
        """Parse the protocol string: "equal:K" or "unequal:a,b,c"."""
        kind, _, rest = self.protocol.partition(":")
        try:
            if kind == "equal":
                return int(rest), None
            if kind == "unequal":
                sizes = [int(x) for x in rest.split(",") if x != ""]
                if not sizes:
                    raise ValueError
                return None, sizes
        except ValueError:
            pass
        raise ContractError(f"bad protocol {self.protocol!r}; use equal:K or unequal:a,b,...")

    def echo(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


def check_split_fractions(train_frac: float, val_frac: float) -> None:
    """Train and validation shares must leave a non-empty share for test."""
    if not 0 < train_frac < 1 or not 0 <= val_frac < 1 or train_frac + val_frac >= 1:
        raise ContractError(f"bad split fractions train={train_frac} val={val_frac}")


def parse_bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ContractError(f"not a boolean: {text!r}")


def read_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in text_lines(path, ContractError):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ContractError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def make_config(file_values: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults <- config file <- overrides, with type coercion and validation."""
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    cfg = RunConfig()
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if value is None:
                continue
            f = fields.get(key)
            if f is None:
                raise ContractError(
                    f"unknown config key {key!r}; valid keys: {', '.join(sorted(fields))}"
                )
            try:
                if isinstance(getattr(cfg, key), bool):
                    coerced = value if isinstance(value, bool) else parse_bool(value)
                elif isinstance(getattr(cfg, key), int):
                    coerced = int(value)
                elif isinstance(getattr(cfg, key), float):
                    coerced = float(value)
                else:
                    coerced = str(value)
            except (TypeError, ValueError, OverflowError) as e:
                raise ContractError(f"bad value for {key}: {value!r}") from e
            setattr(cfg, key, coerced)
    return cfg.validate()
