"""Class-incremental linear head.

One weight matrix that grows a block of columns per task, one column per
class, so task t's columns are one slice (`span`).  Columns of finished tasks
are frozen: they can be read for scores but never written again.  Training
code pulls a copy of a block, optimizes it, and writes it back once; this
module only does bookkeeping and inference math.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError


class ClassifierHead:
    def __init__(self, hidden_dim: int, dtype=np.float64):
        self.hidden_dim = int(hidden_dim)
        self.weight = np.zeros((self.hidden_dim, 0), dtype=dtype)
        self.frozen = np.zeros(0, dtype=bool)
        self.tasks: list[list[int]] = []  # global class ids of each task, in column order

    @classmethod
    def restore(cls, weight: np.ndarray, tasks, frozen: bool) -> "ClassifierHead":
        """A head holding `weight`, whose columns belong to the class groups
        `tasks` in order, with all columns frozen or none."""
        head = cls(weight.shape[0], dtype=weight.dtype)
        head.weight = weight
        head.frozen = np.full(weight.shape[1], frozen)
        head.tasks = [[int(c) for c in group] for group in tasks]
        return head

    @property
    def num_classes(self) -> int:
        return self.weight.shape[1]

    def extend(self, new_classes, rng: np.random.Generator) -> int:
        """Append the next task's block: one column per class, uniform
        +-1/sqrt(hidden_dim), unfrozen.  Class ids are global and must be new.
        Returns the new task's number (1-based)."""
        new_classes = [int(c) for c in new_classes]
        if len(set(new_classes)) != len(new_classes):
            raise ContractError(f"duplicate class in {new_classes}")
        taken = set(new_classes).intersection(c for group in self.tasks for c in group)
        if taken:
            raise ContractError(f"classes {sorted(taken)} already registered")
        bound = 1.0 / np.sqrt(self.hidden_dim)
        block = rng.uniform(-bound, bound, size=(self.hidden_dim, len(new_classes)))
        self.tasks.append(new_classes)
        self.weight = np.concatenate([self.weight, block.astype(self.weight.dtype)], axis=1)
        self.frozen = np.concatenate([self.frozen, np.zeros(len(new_classes), dtype=bool)])
        return len(self.tasks)

    def span(self, task: int | None = None) -> slice:
        """The columns of task `task` (1-based), or of every task when None."""
        if task is None:
            return slice(0, self.num_classes)
        if not 1 <= task <= len(self.tasks):
            raise ContractError(f"unknown task {task} (head holds {len(self.tasks)})")
        start = sum(len(group) for group in self.tasks[: task - 1])
        return slice(start, start + len(self.tasks[task - 1]))

    def block(self, task: int | None = None) -> np.ndarray:
        """Copy of the columns of `span(task)`."""
        return self.weight[:, self.span(task)].copy()

    def set_block(self, values: np.ndarray, task: int | None = None) -> None:
        """Write the columns of `span(task)`; refuses frozen columns."""
        cols = self.span(task)
        if self.frozen[cols].any():
            raise ContractError(f"columns {cols.start}..{cols.stop - 1} hold frozen classes")
        if values.shape != (self.hidden_dim, cols.stop - cols.start):
            raise ShapeError(f"block shape {values.shape} != ({self.hidden_dim}, {cols.stop - cols.start})")
        self.weight[:, cols] = values

    def freeze(self, task: int) -> None:
        self.frozen[self.span(task)] = True

    def predict(self, h: np.ndarray, w2: np.ndarray, task: int | None = None) -> np.ndarray:
        """Argmax of h·(w2·W) over the columns W of `span(task)`, as global
        class ids, for site-2 activations h (n, hidden_dim) and the net's w2;
        exact score ties resolve to the numerically lowest global class id.
        """
        h = np.asarray(h)
        if h.ndim != 2 or h.shape[1] != self.hidden_dim:
            raise ShapeError(f"activations shape {h.shape} does not match hidden dim {self.hidden_dim}")
        cols = self.span(task)
        ids = np.concatenate(self.tasks).astype(np.int64)[cols]
        z = h @ (w2 @ self.weight[:, cols])
        top = z.max(axis=1, keepdims=True)
        candidates = np.where(z == top, ids[None, :], np.iinfo(np.int64).max)
        return candidates.min(axis=1)
