"""Implicit conics ``psi(y) = y^T A y + a^T y + a0`` in the plane.

:attr:`hckit.quadmap.LineImage.conic` reports a parabola image in this
form.  The witness never solves with it: the two parabola facts it rests on,
that a chord's interior lies inside the curve and that a backward cone ray
from an interior point meets it, are used on the image's two polynomials in
the line parameter (:meth:`hckit.quadmap.LineImage.side` and the crossings
in :mod:`hckit.witness`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .smallmat import symmetrize


@dataclass(frozen=True)
class Conic2:
    """Quadratic curve data: symmetric 2x2 ``A``, linear ``a``, constant ``a0``.

    A conic with both ``A`` and ``a`` zero is rejected (the zero set would be
    empty or the whole plane regardless of geometry).
    """

    A: np.ndarray
    a: np.ndarray
    a0: float

    def __post_init__(self):
        A = symmetrize(self.A)
        if A.shape != (2, 2):
            raise ValueError(f"A must be 2x2, got {A.shape}")
        a = np.asarray(self.a, dtype=float).reshape(2).copy()
        if not np.any(A) and not np.any(a):
            raise ValueError("A and a cannot both be zero")
        A.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "a0", float(self.a0))

    def evaluate(self, point) -> float:
        y = np.asarray(point, dtype=float).reshape(2)
        return float(y @ self.A @ y + self.a @ y + self.a0)

    def coefficient_scale(self) -> float:
        return 1.0 + max(float(np.max(np.abs(self.A))),
                         float(np.max(np.abs(self.a))), abs(self.a0))
