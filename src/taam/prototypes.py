"""Task prototypes and nearest-prototype retrieval.

A task's prototype is the mean of its nodes' propagated raw features, the
exact matrix the backbone consumes, so no learned parameters are involved
and the prototype of a finished task never drifts.  At inference the test
node set of an unidentified batch is summarized the same way and matched to
the closest stored prototype in plain L2; the matched task's frozen
modulator is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .modulator import Modulator, clone_structural, init_modulator


@dataclass
class Prototype:
    vector: np.ndarray
    node_count: int

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64).reshape(-1)


def compute_prototype(x_prop: np.ndarray, node_set) -> Prototype:
    """Mean of the propagated feature rows `x_prop[node_set]`, taken in
    ascending node order."""
    idx = np.sort(np.asarray(node_set, dtype=np.int64).reshape(-1))
    if idx.size and (idx[0] < 0 or idx[-1] >= x_prop.shape[0]):
        raise ContractError(f"node id out of range for {x_prop.shape[0]} propagated rows")
    return _prototype_of_rows(x_prop[idx])


def _prototype_of_rows(x_rows: np.ndarray) -> Prototype:
    """Mean of the propagated feature rows `x_rows`, summed in their order."""
    if x_rows.shape[0] == 0:
        raise ContractError("prototype needs a non-empty node set")
    return Prototype(vector=x_rows.mean(axis=0), node_count=int(x_rows.shape[0]))


class PrototypeBank:
    """Stored (prototype, frozen modulator) pairs, task ids 1-based."""

    def __init__(self):
        self._entries: list[tuple[Prototype, Modulator]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def prototype(self, task_id: int) -> Prototype:
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

    def nearest_task(self, query: Prototype) -> int:
        """Task id of the closest stored prototype in L2; ties to the lowest id."""
        if not self._entries:
            raise ContractError("prototype bank is empty")
        q = query.vector
        dim = self._entries[0][0].vector.shape[0]
        if q.shape[0] != dim:
            raise ShapeError(f"query dim {q.shape[0]} != stored prototype dim {dim}")
        stacked = np.stack([p.vector for p, _ in self._entries])
        d2 = ((stacked - q[None, :]) ** 2).sum(axis=1)
        return int(np.argmin(d2)) + 1

    def commit(self, proto: Prototype, mod: Modulator) -> int:
        """Freeze the modulator and store the pair under the next task id."""
        if mod.frozen or any(m is mod for _, m in self._entries):
            raise ContractError("modulator is already frozen or already stored")
        if self._entries and proto.vector.shape != self._entries[0][0].vector.shape:
            raise ShapeError(
                f"prototype dim {proto.vector.shape} != stored {self._entries[0][0].vector.shape}"
            )
        mod.freeze()
        proto.vector.setflags(write=False)
        self._entries.append((proto, mod))
        return len(self._entries)

    def retrieve(self, x_rows: np.ndarray) -> int:
        """Infer the task id of a test batch from its propagated feature rows."""
        return self.nearest_task(_prototype_of_rows(x_rows))


def task_aware_init(
    bank: PrototypeBank,
    proto: Prototype,
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
