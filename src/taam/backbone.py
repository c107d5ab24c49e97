"""Frozen random two-layer graph backbone.

Features are propagated over the normalized adjacency ahead of time (see
graph.propagate); the backbone then applies two weight matrices with a
modulator inserted before each one.  The weights are drawn once, never
trained, and kept byte-identical for the whole run: task-specific capacity
lives entirely in the modulators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .modulator import Modulator, modulate
from .tensor import Tensor, matmul


@dataclass
class Backbone:
    w1: np.ndarray
    w2: np.ndarray
    _t1: Tensor = field(init=False, repr=False)
    _t2: Tensor = field(init=False, repr=False)

    def __post_init__(self):
        self.w1.setflags(write=False)
        self.w2.setflags(write=False)
        self._t1 = Tensor(self.w1)
        self._t2 = Tensor(self.w2)

    @property
    def in_dim(self) -> int:
        return int(self.w1.shape[0])

    @property
    def hidden_dim(self) -> int:
        return int(self.w1.shape[1])

    @property
    def site_widths(self) -> tuple[int, int]:
        """Activation widths at the two insertion sites."""
        return (self.in_dim, self.hidden_dim)

    def forward(self, x_prop: Tensor, mod: Modulator, x_norm: Tensor | None = None) -> Tensor:
        """Embed propagated features through both modulated layers.

        x_prop is the already-propagated feature matrix (n, in_dim).  x_norm,
        if given, is `layer_norm(x_prop)`, which site 1 then does not
        recompute.  Returns the (n, hidden_dim) embedding.
        """
        if mod.site_widths != self.site_widths:
            raise ContractError(
                f"modulator widths {mod.site_widths} do not match backbone {self.site_widths}"
            )
        site1, site2 = mod.sites
        h = matmul(modulate(site1, mod.embedding, x_prop, x_norm), self._t1)
        return matmul(modulate(site2, mod.embedding, h), self._t2)


def init_backbone(
    in_dim: int,
    hidden_dim: int,
    rng: np.random.Generator,
    dtype=np.float64,
) -> Backbone:
    """Random frozen backbone; entries uniform +-1/sqrt(fan_in), w1 then w2."""
    if in_dim < 1 or hidden_dim < 1:
        raise ContractError(f"bad dims ({in_dim}, {hidden_dim})")
    b1 = 1.0 / np.sqrt(in_dim)
    b2 = 1.0 / np.sqrt(hidden_dim)
    w1 = rng.uniform(-b1, b1, size=(in_dim, hidden_dim)).astype(dtype)
    w2 = rng.uniform(-b2, b2, size=(hidden_dim, hidden_dim)).astype(dtype)
    return Backbone(w1=w1, w2=w2)
