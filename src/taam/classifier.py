"""Class-incremental linear head.

One weight matrix that grows a column per class.  Columns of finished tasks
are frozen: they can be read for logits but never written again.  Training
code pulls a copy of the new columns, optimizes it, and writes it back once;
this module only does bookkeeping and inference math.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError


class ClassifierHead:
    def __init__(self, hidden_dim: int, dtype=np.float64):
        self.hidden_dim = int(hidden_dim)
        self.weight = np.zeros((self.hidden_dim, 0), dtype=dtype)
        self.frozen = np.zeros(0, dtype=bool)
        self.columns: dict[int, int] = {}  # class id -> column, in column order
        self.tasks: list[list[int]] = []

    @classmethod
    def restore(cls, weight: np.ndarray, tasks, frozen) -> "ClassifierHead":
        """A head holding `weight`, whose columns belong to the class groups
        `tasks` in order, with the given per-column frozen flags."""
        head = cls(weight.shape[0], dtype=weight.dtype)
        head.weight = weight
        head.frozen = np.array(frozen, dtype=bool)
        head.tasks = [[int(c) for c in group] for group in tasks]
        head.columns = {c: col for col, c in enumerate(c for group in head.tasks for c in group)}
        return head

    @property
    def num_classes(self) -> int:
        return self.weight.shape[1]

    @property
    def registered(self) -> list[int]:
        return sorted(self.columns)

    def extend(self, new_classes, rng: np.random.Generator) -> None:
        """Append one column per class, uniform +-1/sqrt(hidden_dim), unfrozen.

        Class ids are global and must be new; they form the next task group.
        """
        new_classes = [int(c) for c in new_classes]
        if len(set(new_classes)) != len(new_classes):
            raise ContractError(f"duplicate class in {new_classes}")
        for c in new_classes:
            if c in self.columns:
                raise ContractError(f"class {c} already registered")
        bound = 1.0 / np.sqrt(self.hidden_dim)
        block = rng.uniform(-bound, bound, size=(self.hidden_dim, len(new_classes)))
        base = self.num_classes
        for local, c in enumerate(new_classes):
            self.columns[c] = base + local
        self.tasks.append(new_classes)
        self.weight = np.concatenate([self.weight, block.astype(self.weight.dtype)], axis=1)
        self.frozen = np.concatenate([self.frozen, np.zeros(len(new_classes), dtype=bool)])

    def _columns(self, classes) -> np.ndarray:
        cols = []
        for c in classes:
            col = self.columns.get(int(c))
            if col is None:
                raise ContractError(f"class {c} is not registered")
            cols.append(col)
        return np.asarray(cols, dtype=np.int64)

    def class_order(self, classes) -> list[int]:
        """The subset in logit column order, i.e. in registration order."""
        uniq = sorted(set(int(c) for c in classes))
        self._columns(uniq)
        return sorted(uniq, key=self.columns.__getitem__)

    def column_block(self, classes) -> np.ndarray:
        """Copy of the columns for `classes`, in the order given."""
        return self.weight[:, self._columns(classes)].copy()

    def set_columns(self, classes, values: np.ndarray) -> None:
        """Write columns back (order given); refuses frozen columns."""
        cols = self._columns(classes)
        if self.frozen[cols].any():
            bad = [int(c) for c, col in zip(classes, cols) if self.frozen[col]]
            raise ContractError(f"classes {bad} are frozen")
        if values.shape != (self.hidden_dim, len(cols)):
            raise ShapeError(f"column block shape {values.shape} != ({self.hidden_dim}, {len(cols)})")
        self.weight[:, cols] = values

    def freeze_classes(self, classes) -> None:
        self.frozen[self._columns(classes)] = True

    def logits(self, embeddings: np.ndarray, classes) -> np.ndarray:
        """Scores over the subset, columns ordered per class_order()."""
        emb = np.asarray(embeddings)
        if emb.ndim != 2 or emb.shape[1] != self.hidden_dim:
            raise ShapeError(f"embeddings shape {emb.shape} does not match hidden dim {self.hidden_dim}")
        order = self.class_order(classes)
        return emb @ self.weight[:, self._columns(order)]

    def predict(self, embeddings: np.ndarray, classes) -> np.ndarray:
        """Argmax over the subset, returned as global class ids.

        Exact score ties resolve to the numerically lowest global class id.
        """
        order = np.asarray(self.class_order(classes), dtype=np.int64)
        z = self.logits(embeddings, order)
        top = z.max(axis=1, keepdims=True)
        candidates = np.where(z == top, order[None, :], np.iinfo(np.int64).max)
        return candidates.min(axis=1)
