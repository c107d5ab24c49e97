"""Task prototypes and nearest-prototype retrieval.

A task's prototype is a float64 vector: the mean of its nodes' propagated
raw features, the exact matrix the backbone consumes, so no learned
parameters are involved and the prototype of a finished task never drifts.
At inference the test node set of an unidentified batch is summarized the
same way and matched to the closest stored prototype in plain L2; the
matched task's frozen modulator is used.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError
from .modulator import Modulator, clone_structural, init_modulator


def compute_prototype(x_prop: np.ndarray, node_set) -> np.ndarray:
    """Mean of the propagated feature rows `x_prop[node_set]`, taken in
    ascending node order."""
    idx = np.sort(np.asarray(node_set, dtype=np.int64).reshape(-1))
    if idx.size and (idx[0] < 0 or idx[-1] >= x_prop.shape[0]):
        raise ContractError(f"node id out of range for {x_prop.shape[0]} propagated rows")
    return _prototype_of_rows(x_prop[idx])


def _prototype_of_rows(x_rows: np.ndarray) -> np.ndarray:
    """Mean of the float64 propagated feature rows `x_rows`, summed in their order."""
    if x_rows.shape[0] == 0:
        raise ContractError("prototype needs a non-empty node set")
    return x_rows.mean(axis=0)


class PrototypeBank:
    """Stored (prototype, frozen modulator) pairs, task ids 1-based.

    The prototypes are also kept as the rows of one (T, d) float64 matrix,
    task 1 first, stacked again when a task is added, which `nearest_task`
    compares each query with.
    """

    def __init__(self):
        self._entries: list[tuple[np.ndarray, Modulator]] = []
        self._matrix = np.empty((0, 0))

    @classmethod
    def restore(cls, entries) -> "PrototypeBank":
        """A bank of stored (prototype, frozen modulator) pairs, task 1 first."""
        bank = cls()
        for proto, mod in entries:
            if not mod.frozen:
                raise ContractError("a restored modulator must be frozen")
            proto.setflags(write=False)
            bank._entries.append((proto, mod))
        if bank._entries:
            bank._matrix = np.stack([p for p, _ in bank._entries])
        return bank

    def __len__(self) -> int:
        return len(self._entries)

    def prototype(self, task_id: int) -> np.ndarray:
        self._check_id(task_id)
        return self._entries[task_id - 1][0]

    def modulator(self, task_id: int) -> Modulator:
        self._check_id(task_id)
        return self._entries[task_id - 1][1]

    def latest_task(self) -> int:
        if not self._entries:
            raise ContractError("prototype bank is empty")
        return len(self._entries)

    def _check_id(self, task_id: int) -> None:
        if not 1 <= task_id <= len(self._entries):
            raise ContractError(f"unknown task id {task_id} (bank holds {len(self._entries)})")

    def nearest_task(self, query: np.ndarray) -> int:
        """Task id of the closest stored prototype in L2; ties to the lowest id."""
        if not self._entries:
            raise ContractError("prototype bank is empty")
        dim = self._matrix.shape[1]
        if query.shape != (dim,):
            raise ShapeError(f"query shape {query.shape} != stored prototype shape ({dim},)")
        d2 = ((self._matrix - query[None, :]) ** 2).sum(axis=1)
        return int(np.argmin(d2)) + 1

    def commit(self, proto: np.ndarray, mod: Modulator) -> int:
        """Freeze the modulator and the prototype vector, and store the pair
        under the next task id."""
        if mod.frozen or any(m is mod for _, m in self._entries):
            raise ContractError("modulator is already frozen or already stored")
        if self._entries and proto.shape != self._entries[0][0].shape:
            raise ShapeError(f"prototype shape {proto.shape} != stored {self._entries[0][0].shape}")
        mod.freeze()
        proto.setflags(write=False)
        self._entries.append((proto, mod))
        self._matrix = np.stack([p for p, _ in self._entries])
        return len(self._entries)

    def retrieve(self, x_rows: np.ndarray) -> int:
        """Infer the task id of a test batch from its propagated feature rows."""
        return self.nearest_task(_prototype_of_rows(x_rows))


def task_aware_init(
    bank: PrototypeBank,
    proto: np.ndarray,
    site_widths,
    rng: np.random.Generator,
    embed_dim: int,
    heads: int,
    dtype=np.float64,
) -> tuple[Modulator, int | None]:
    """Warm-start a new task's modulator from the nearest stored task.

    Returns (modulator, donor task id).  With an empty bank there is nothing
    to borrow, so the modulator is freshly initialized and the donor is None.
    """
    if len(bank) == 0:
        return init_modulator(site_widths, rng, embed_dim=embed_dim, heads=heads, dtype=dtype), None
    donor = bank.nearest_task(proto)
    src = bank.modulator(donor)
    if src.site_widths != tuple(site_widths):
        raise ContractError(
            f"stored modulator widths {src.site_widths} do not match requested {tuple(site_widths)}"
        )
    return clone_structural(src, rng), donor
