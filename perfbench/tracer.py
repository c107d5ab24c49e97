"""Outside-in tracing of the taam modules.

`Tracer.installed()` wraps the public functions listed in TARGETS without
touching the program's files.  A module that did `from .tensor import matmul`
holds its own binding, so every module-level name in the `taam` package that
refers to a target is rebound, and so is every default argument that holds
one (`layer_norm` reaches `modulate` and `Backbone.forward` only as the
default `norm_fn`).  Each call records a span (name id, start, end, parent
span index) in memory; `take()` hands the spans over and `reduce_spans`
turns them into calls, inclusive time and self time per name.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time

from workloads import TENSOR_OPS

# (module under taam, qualified name); the metric prefix is "<module>.<qualname>".
TARGETS = (
    ("graph", "generate_sbm"),
    ("graph", "propagate"),
    ("harness", "build_stream"),
    ("harness", "run_continual"),
    ("harness", "evaluate_final_row"),
    *(("tensor", op) for op in TENSOR_OPS),
    ("tensor", "Tape.backward"),
    ("training", "Adam.step"),
    ("training", "train_task"),
    ("modulator", "modulate"),
    ("backbone", "Backbone.forward"),
    ("prototypes", "PrototypeBank.retrieve"),
    ("prototypes", "compute_prototype"),
    ("prototypes", "task_aware_init"),
    ("classifier", "ClassifierHead.predict"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
)


def _checkpoint_bytes(counters: dict, args, kwargs) -> None:
    path = kwargs.get("path", args[0] if args else None)
    key = "checkpoint.save_checkpoint.bytes"
    counters[key] = counters.get(key, 0) + os.path.getsize(path)


# Extra counts taken after a call returns, outside its span.
_AFTER = {"checkpoint.save_checkpoint": _checkpoint_bytes}


def _taam_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "taam" or n.startswith("taam.")]


def _functions_of(modules) -> list:
    """Every plain function defined in the given modules, methods included."""
    out = []
    for m in modules:
        for val in vars(m).values():
            if getattr(val, "__module__", None) != m.__name__:
                continue
            if inspect.isfunction(val):
                out.append(val)
            elif inspect.isclass(val):
                out.extend(v for v in vars(val).values() if inspect.isfunction(v))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, start, end, parent index or -1)
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for mod_name, qual in TARGETS:
            self._prepare(mod_name, qual)

    def _owner(self, mod_name: str, qual: str):
        owner = sys.modules.get("taam." + mod_name)
        if owner is None:
            raise RuntimeError(f"taam.{mod_name} is not imported")
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr

    def _prepare(self, mod_name: str, qual: str) -> None:
        owner, attr = self._owner(mod_name, qual)
        fn = vars(owner)[attr]
        name = f"{mod_name}.{qual}"
        self._wrapped[id(fn)] = (fn, self._wrap(len(self.names), fn, _AFTER.get(name)))
        self.names.append(name)

    def _wrap(self, nid: int, fn, after):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if after is not None:
                after(counters, args, kwargs)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every binding of every target for the duration of the block."""
        undo: list[tuple] = []

        def swap(obj, attr, new):
            undo.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, new)

        try:
            modules = _taam_modules()
            functions = _functions_of(modules)
            for mod_name, qual in TARGETS:
                owner, attr = self._owner(mod_name, qual)
                if inspect.isclass(owner):
                    swap(owner, attr, self._wrapped[id(vars(owner)[attr])][1])
            for m in modules:
                for attr, val in list(vars(m).items()):
                    hit = self._wrapped.get(id(val))
                    if hit is not None and hit[0] is val:
                        swap(m, attr, hit[1])
            for fn in functions:
                if fn.__defaults__ and any(id(d) in self._wrapped for d in fn.__defaults__):
                    swap(fn, "__defaults__", tuple(self._rebound(d) for d in fn.__defaults__))
                if fn.__kwdefaults__ and any(id(d) in self._wrapped for d in fn.__kwdefaults__.values()):
                    new = {k: self._rebound(d) for k, d in fn.__kwdefaults__.items()}
                    swap(fn, "__kwdefaults__", new)
            yield self
        finally:
            for obj, attr, old in reversed(undo):
                setattr(obj, attr, old)

    def _rebound(self, value):
        hit = self._wrapped.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else value

    def take(self) -> tuple[list, dict]:
        """Hand over the spans and counters recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        spans, counters = list(self.spans), dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def reduce_spans(names: list[str], spans: list, within: str | None = None) -> dict:
    """Per name: {"calls", "s" (inclusive), "self_s" (minus wrapped children)}.

    With `within`, only spans nested inside a span of that name count, and
    the result also holds "total_s", the summed duration of those spans.
    """
    child = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    root_of = [-1] * len(spans)
    within_id = names.index(within) if within is not None else None
    out: dict = {}
    total = 0.0
    for i, (nid, start, end, parent) in enumerate(spans):
        if within_id is not None:
            root = root_of[parent] if parent >= 0 else -1
            if nid == within_id and root < 0:
                root = i
                total += end - start
            root_of[i] = root
            if root < 0:
                continue
        rec = out.setdefault(names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["s"] += end - start
        rec["self_s"] += end - start - child[i]
    if within_id is not None:
        out["total_s"] = total
    return out
