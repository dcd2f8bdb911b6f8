"""The box's uniform tensor grid, shared by the labelling, the quasimode
and the discretized generator.

This module needs NumPy alone, so the stages that only label wells never
load SciPy's sparse package; ``discretize`` re-exports both names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DiscretizationError(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on [-halfwidth, halfwidth]^2, row-major nodes."""

    halfwidth: float
    n: int

    def __post_init__(self):
        if self.n < 16:
            raise DiscretizationError("grid needs at least 16 nodes per axis")
        if not self.halfwidth > 0:
            raise DiscretizationError("halfwidth must be positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.halfwidth / (self.n - 1)

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.halfwidth, self.halfwidth, self.n)

    @property
    def size(self) -> int:
        return self.n * self.n

    def points(self) -> np.ndarray:
        X, Y = np.meshgrid(self.axis, self.axis, indexing="ij")
        return np.stack([X.ravel(), Y.ravel()], axis=-1)

    def index(self, i: int, j: int) -> int:
        return i * self.n + j

    def ij_of(self, point) -> tuple[int, int]:
        """(i, j) of the node nearest to ``point``, clipped to the box."""
        p = np.asarray(point, dtype=float)
        ij = np.clip(np.rint((p + self.halfwidth) / self.spacing).astype(int),
                     0, self.n - 1)
        return int(ij[0]), int(ij[1])

    def node_of(self, point) -> int:
        return self.index(*self.ij_of(point))

    def boundary_mask(self) -> np.ndarray:
        m = np.zeros((self.n, self.n), dtype=bool)
        m[0, :] = m[-1, :] = m[:, 0] = m[:, -1] = True
        return m.ravel()
