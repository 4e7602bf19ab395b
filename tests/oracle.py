"""Grid oracle for the two-quadratic alternative, a test-only cross-check.

An exact feasibility scan of ``{f < -f_margin, g <= 0}`` over a uniform grid
on ``[-box_radius, box_radius]^n`` for ``n <= 3``, evaluated in closed form
one axis at a time.  It shares no code with :func:`hckit.slemma.decide`, so
a multiplier that the scan contradicts is a wrong verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hckit.errors import HckError
from hckit.quadmap import QuadraticForm


class DimensionTooLarge(HckError):
    """Brute-force oracle only supports very small dimensions."""


@dataclass(frozen=True)
class OracleVerdict:
    found: bool
    point: np.ndarray | None = None


def _below_intervals(a_coef: float, b: np.ndarray, c: np.ndarray):
    """Interval sets ``{y : a y^2 + b y + c < 0}``, vectorized over (b, c).

    Returns four arrays ``l1, u1, l2, u2``; absent intervals are NaN.  The
    closed variant is handled by the caller nudging ``c``.
    """
    m = b.shape[0]
    l1 = np.full(m, np.nan)
    u1 = np.full(m, np.nan)
    l2 = np.full(m, np.nan)
    u2 = np.full(m, np.nan)
    mag = max(1.0, float(np.max(np.abs(b))), float(np.max(np.abs(c))))
    if abs(a_coef) > 1e-13 * mag:
        disc = b * b - 4.0 * a_coef * c
        has = disc > 0.0
        sq = np.sqrt(np.where(has, disc, 0.0))
        r_lo = (-b - sq) / (2.0 * a_coef)
        r_hi = (-b + sq) / (2.0 * a_coef)
        r_small = np.minimum(r_lo, r_hi)
        r_big = np.maximum(r_lo, r_hi)
        if a_coef > 0.0:
            l1[has] = r_small[has]
            u1[has] = r_big[has]
        else:
            l1[:] = -np.inf
            u1[:] = np.inf
            l1[has] = -np.inf
            u1[has] = r_small[has]
            l2[has] = r_big[has]
            u2[has] = np.inf
    else:
        pos = b > 0.0
        neg = b < 0.0
        flat = ~(pos | neg)
        with np.errstate(divide="ignore", invalid="ignore"):
            crossing = -c / b
        l1[pos] = -np.inf
        u1[pos] = crossing[pos]
        l1[neg] = crossing[neg]
        u1[neg] = np.inf
        full = flat & (c < 0.0)
        l1[full] = -np.inf
        u1[full] = np.inf
    return l1, u1, l2, u2


def _axis_coefficients(q: QuadraticForm, outer: list[np.ndarray]):
    """Coefficients of ``q`` as a quadratic in the last coordinate.

    ``outer`` holds the fixed leading coordinates as equal-length arrays
    (empty list for n = 1).  Returns ``(a, b, c)`` with ``a`` scalar.
    """
    n = q.n
    mat, lin, const = q.matrix, q.linear, q.constant
    last = n - 1
    a = float(mat[last, last])
    if not outer:
        return a, np.array([lin[last]]), np.array([const])
    size = outer[0].shape[0]
    b = np.full(size, lin[last])
    c = np.full(size, const)
    for i, xi in enumerate(outer):
        b += 2.0 * mat[i, last] * xi
        c += lin[i] * xi + mat[i, i] * xi * xi
        for j in range(i + 1, len(outer)):
            c += 2.0 * mat[i, j] * xi * outer[j]
    return a, b, c


def brute_force_oracle(f: QuadraticForm, g: QuadraticForm, box_radius: float,
                       grid_step: float, f_margin: float = 0.0) -> OracleVerdict:
    """Exhaustive feasibility scan of ``{f < -f_margin, g <= 0}`` on a grid.

    The grid is uniform with the given step on ``[-box_radius, box_radius]^n``
    for ``n <= 3``.  The scan is exact: along the last axis the two
    quadratics are solved in closed form, the resulting candidate index
    ranges are enumerated, and every reported point is confirmed by direct
    evaluation, so the verdict matches a pointwise sweep of the full grid.
    """
    if f.n != g.n:
        raise ValueError("f and g act on different spaces")
    n = f.n
    if n > 3:
        raise DimensionTooLarge(f"oracle supports n <= 3, got {n}")
    if grid_step <= 0.0:
        raise ValueError("grid_step must be positive")
    count = int(round(2.0 * box_radius / grid_step))
    axis = -box_radius + grid_step * np.arange(count + 1)

    def confirm(prefix: tuple[float, ...], lo_idx: int, hi_idx: int):
        ys = axis[lo_idx:hi_idx + 1]
        pts = np.empty((ys.shape[0], n))
        for i, val in enumerate(prefix):
            pts[:, i] = val
        pts[:, n - 1] = ys
        fv = np.einsum("ij,jk,ik->i", pts, f.matrix, pts) + pts @ f.linear + f.constant
        gv = np.einsum("ij,jk,ik->i", pts, g.matrix, pts) + pts @ g.linear + g.constant
        ok = (fv < -f_margin) & (gv <= 0.0)
        hits = np.nonzero(ok)[0]
        if hits.size:
            return pts[hits[0]].copy()
        return None

    if n == 1:
        blocks = [[]]
    elif n == 2:
        blocks = [[axis]]
    else:
        blocks = []
        block_rows = 200
        for start in range(0, axis.shape[0], block_rows):
            x1 = axis[start:start + block_rows]
            x1g, x2g = np.meshgrid(x1, axis, indexing="ij")
            blocks.append([x1g.ravel(), x2g.ravel()])

    nudge = 1e-9
    for outer in blocks:
        af, bf, cf = _axis_coefficients(f, outer)
        ag, bg, cg = _axis_coefficients(g, outer)
        f_ints = _below_intervals(af, bf, cf + f_margin)
        # g <= 0 is g < tiny positive; boundary points get confirmed anyway
        g_ints = _below_intervals(ag, bg, cg - 1e-12)
        fl = (f_ints[0], f_ints[2])
        fu = (f_ints[1], f_ints[3])
        gl = (g_ints[0], g_ints[2])
        gu = (g_ints[1], g_ints[3])
        combos = []
        any_good = None
        for i_f in range(2):
            for i_g in range(2):
                lo = np.maximum(np.maximum(fl[i_f], gl[i_g]), -box_radius)
                hi = np.minimum(np.minimum(fu[i_f], gu[i_g]), box_radius)
                with np.errstate(invalid="ignore"):
                    lo_idx = np.ceil((lo + box_radius) / grid_step - nudge)
                    hi_idx = np.floor((hi + box_radius) / grid_step + nudge)
                    good = ~np.isnan(lo_idx) & ~np.isnan(hi_idx) & (hi_idx >= lo_idx)
                combos.append((good, lo_idx, hi_idx))
                any_good = good if any_good is None else (any_good | good)
        # confirm candidates in grid scan order, bailing at the first hit
        for pair in np.nonzero(any_good)[0]:
            prefix = tuple(float(arr[pair]) for arr in outer)
            windows = sorted(
                (max(int(lo_idx[pair]), 0), min(int(hi_idx[pair]), count))
                for good, lo_idx, hi_idx in combos if good[pair])
            for lo_i, hi_i in windows:
                hit = confirm(prefix, lo_i, hi_i)
                if hit is not None:
                    return OracleVerdict(found=True, point=hit)
    return OracleVerdict(found=False)
