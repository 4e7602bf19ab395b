"""Preimage search on a classified line image, a test-only cross-check.

Recovers a point ``x`` on the line ``x(t) = xbar + t*(ybar - xbar)`` whose
image meets a given plane target, from the image polynomials alone.  The
witness no longer needs it (its flat-image point is the root on [0, 1] that
the intermediate value theorem guarantees), so it checks the classifier's
payload from outside the library.
"""

from __future__ import annotations

import math

import numpy as np

from hckit.errors import HckError
from hckit.quadmap import LineCoeffs, LineImage, LineImageKind
from hckit.smallmat import quadratic_roots

ON_TOL = 1e-7      # "point lies on the curve", relative


class NotOnImage(HckError):
    """Target point does not lie on the classified image set."""


def _polish_parameter(co: LineCoeffs, t: float, target: np.ndarray,
                      steps: int = 2) -> float:
    """Gauss-Newton refinement of the line parameter against a 2-d target."""
    for _ in range(steps):
        p0, p1 = co.at(t)
        j0 = 2.0 * co.alpha * t + co.beta
        j1 = 2.0 * co.alpha_p * t + co.beta_p
        denom = j0 * j0 + j1 * j1
        if denom == 0.0:
            break
        t -= (j0 * (p0 - target[0]) + j1 * (p1 - target[1])) / denom
    return t


def preimage_on_line(img: LineImage, xbar, ybar, target) -> np.ndarray:
    """Point on the line through ``xbar`` and ``ybar`` that ``F`` maps (near) the target.

    ``img`` is the classified image of that line.  Guesses for the line
    parameter come from the image polynomials: the affine inverse map of a
    parabola (unique), the roots of the pivot polynomial set to the target's
    coordinate for a ray or a line (smaller magnitude first, then a ray's
    vertex, so that its apex keeps a parameter when rounding leaves no real
    root), and ``t = 0`` for a point.  Each guess is polished by Gauss-Newton
    unless that raises its miss, and the first whose image meets every
    coordinate to ``ON_TOL`` relative to that polynomial's own size,
    ``|P_k(t) - u_k| <= ON_TOL * (1 + max|coeffs_k| + |u_k|)``, is returned;
    if none does, :class:`NotOnImage` is raised.
    """
    xb = np.asarray(xbar, dtype=float).reshape(-1)
    yb = np.asarray(ybar, dtype=float).reshape(-1)
    u = np.asarray(target, dtype=float).reshape(2)
    co = img.coeffs
    if img.kind is LineImageKind.PARABOLA:
        guesses = [img.parameter_of(u)]
    elif img.kind is LineImageKind.POINT:
        guesses = [0.0]
    else:
        a, b, c = co.row(img.pivot)
        guesses = sorted(quadratic_roots(a, b, c - u[img.pivot]), key=abs)
        if img.kind is LineImageKind.RAY:
            guesses.append(-b / (2.0 * a))
    bounds = [ON_TOL * (1.0 + max(map(abs, co.row(k))) + abs(u[k]))
              for k in (0, 1)]

    def miss(t: float) -> float:   # worst coordinate miss, in its bounds
        return max(abs(p - u[k]) / bounds[k] for k, p in enumerate(co.at(t)))

    nearest = math.inf
    for guess in guesses:
        # at a vertex or on a point image the derivative is rounding noise,
        # and a Gauss-Newton step there can throw a good guess away
        t = min(guess, _polish_parameter(co, guess, u), key=miss)
        nearest = min(nearest, miss(t))
        if nearest <= 1.0:
            return xb + t * (yb - xb)
    raise NotOnImage(f"target is off the {img.kind.value.lower()} image "
                     f"({nearest:.3e} times the on-curve tolerance)")
