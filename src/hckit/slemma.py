"""Decision procedure for the two-quadratic alternative.

Under a strict feasibility point ``g(x*) < 0``, exactly one of the following
holds: the system ``{f < 0, g <= 0}`` has no solution, or it has one; the
first case is equivalent to the existence of a multiplier ``lambda >= 0``
with ``f + lambda g >= 0`` everywhere.  ``decide`` bisects the argmax of
the concave dual ``d = inf_x (f + lambda g)`` by the sign of its slope,
keeping one point on each side of ``g = 0``: each gives a supporting line
``f(x) + lambda g(x) >= d``, and the lines meet at the ``f``-value where the
segment between the two image points crosses ``g = 0``, an upper bound on
``sup d``.  Below ``-slack`` that bound yields the counterexample, the
witness on the segment with the cone ``R^2_+`` (``F(R^n) + R^2_+`` is
convex).  The collapsed bracket gives the multiplier, or, where
``d = -inf``, a closed-form walk from ``x*``.  ``Undecided`` is an honest
third verdict; a wrong verdict is never returned.

A grid oracle (exact feasibility scan over a uniform grid, evaluated in
closed form one axis at a time) provides an independent cross-check at desk
scale for n <= 3.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .cone2d import positive_quadrant
from .config import (DEFAULT_SEARCH, DEFAULT_TOLERANCES, SearchConfig,
                     ToleranceConfig)
from .errors import DimensionTooLarge, NumericalBreakdown, SlaterViolated
from .quadmap import QuadraticForm, QuadraticMap
from .smallmat import MinResult, min_of_quadratic, quadratic_roots
from .witness import cone_point, witness_convex_combination


class Outcome(enum.Enum):
    MULTIPLIER_FOUND = "MultiplierFound"
    COUNTEREXAMPLE_FOUND = "CounterexampleFound"
    UNDECIDED = "Undecided"


@dataclass
class SLemmaVerdict:
    outcome: Outcome
    lam: float | None = None
    x_witness: np.ndarray | None = None
    diagnostics: list[tuple[float, float]] = field(default_factory=list)


def slater_check(g: QuadraticForm, x_star,
                 search: SearchConfig = DEFAULT_SEARCH) -> bool:
    """True iff ``g`` is strictly negative at the point (beyond the margin)."""
    return g(x_star) < -search.strict_margin


def combine(f: QuadraticForm, g: QuadraticForm, lam: float) -> QuadraticForm:
    """The form ``f + lam * g``."""
    return QuadraticForm(f.matrix + lam * g.matrix,
                         f.linear + lam * g.linear,
                         f.constant + lam * g.constant)


def dual_value(f: QuadraticForm, g: QuadraticForm, lam: float,
               cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """``inf_x (f + lam g)(x)``, finite or ``-inf``."""
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    res = min_of_quadratic(*_parts(combine(f, g, lam)), cfg)
    return res.value if res.bounded else -math.inf


def _parts(q: QuadraticForm):
    return q.matrix, q.linear, q.constant


def _first_reach(q: QuadraticForm, x: np.ndarray, v: np.ndarray, target: float,
                 downhill: QuadraticForm) -> np.ndarray | None:
    """First point of the ray ``x + s v``, ``s > 0``, where ``q`` equals
    ``target``; ``v`` is first flipped if ``downhill`` rises along it."""
    if downhill.along(x, v)[1] > 0.0:
        v = -v
    a, b, c = q.along(x, v)
    steps = [s for s in quadratic_roots(a, b, c - target) if s > 0.0]
    return x + min(steps) * v if steps else None


@dataclass
class _Point:
    x: np.ndarray
    f: float
    g: float


@dataclass
class _DualSearch:
    f: QuadraticForm
    g: QuadraticForm
    lo: float
    hi: float
    above: _Point | None = None    # g > 0: its line increases in lambda
    below: _Point | None = None    # g <= 0
    best_lambda: float | None = None
    best_value: float = -math.inf
    samples: list[tuple[float, float]] = field(default_factory=list)
    final: tuple[float, MinResult] | None = None  # probe at the collapsed bracket

    def keep(self, x: np.ndarray) -> None:
        point = _Point(x, self.f(x), self.g(x))
        if point.g > 0.0:
            self.above = point
        else:
            self.below = point

    def crossing(self) -> tuple[float, float]:
        """``(lambda, value)`` where the two kept lines meet."""
        a, b = self.above, self.below
        lam = (b.f - a.f) / (a.g - b.g)
        return lam, b.f + lam * b.g

    def upper(self) -> float:
        """Upper bound on ``sup d(lambda)`` over all ``lambda >= 0``."""
        if self.below is None:
            return math.inf
        if self.above is None:
            return self.below.f
        return min(self.below.f, self.crossing()[1])

    def probe(self, lam: float, search: SearchConfig,
              cfg: ToleranceConfig) -> MinResult:
        """Evaluate the dual at ``lam``; move the bracket and keep a point."""
        h = combine(self.f, self.g, lam)
        res = min_of_quadratic(*_parts(h), cfg)
        self.samples.append((lam, res.value if res.bounded else -math.inf))
        if res.bounded:
            if res.value > self.best_value:
                self.best_lambda, self.best_value = lam, res.value
            self.keep(res.minimizer)
            side = self.g(res.minimizer)  # the dual's slope
        else:
            # h -> -inf along v and f + l g = h - (lam - l) g, so if g grows
            # along v (by curvature, else slope) d = -inf for every l < lam
            v = res.direction
            curvature, slope, _ = self.g.along((self.below or self.above).x, v)
            side = curvature or slope
            # from the kept point on the side g leaves, the ray on which h
            # falls crosses g = 0 with f under that point's line at lam
            start = self.below if side > 0.0 else self.above
            x = None if start is None else _first_reach(self.g, start.x, v, 0.0, h)
            if x is not None and abs(self.g(x)) <= search.feas_tol:
                self.keep(x)
        if side > 0.0:
            self.lo = lam
        elif side < 0.0:
            self.hi = lam
        else:
            self.lo = self.hi = lam
        return res


def _search(f: QuadraticForm, g: QuadraticForm, x0, search: SearchConfig,
            cfg: ToleranceConfig, stop_below: float) -> _DualSearch:
    """Bisect the dual's argmax in ``[0, lambda_max]`` to 1e-12 relative,
    then probe the midpoint into ``final``; stop early once the upper bound
    is below ``stop_below``."""
    state = _DualSearch(f, g, 0.0, search.lambda_max)
    state.keep(np.asarray(x0, dtype=float).reshape(-1))
    while state.hi - state.lo > 1e-12 * (1.0 + state.hi):
        if state.upper() < stop_below:
            return state
        state.probe(0.5 * (state.lo + state.hi), search, cfg)
    lam = 0.5 * (state.lo + state.hi)
    state.final = (lam, state.probe(lam, search, cfg))
    return state


def dual_lower_bound(f: QuadraticForm, g: QuadraticForm,
                     search: SearchConfig = DEFAULT_SEARCH,
                     cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Best dual value found; by weak duality a lower bound on
    ``inf {f(x) : g(x) <= 0}`` whenever that set is nonempty (``-inf`` if the
    dual is nowhere finite on the searched range)."""
    return _search(f, g, np.zeros(f.n), search, cfg, -math.inf).best_value


def _segment_counterexample(state: _DualSearch,
                            cfg: ToleranceConfig) -> np.ndarray | None:
    """A point with ``f`` at most the kept segment's value at ``g = 0`` and
    ``g <= 0``: the ``g <= 0`` end when no lower, else the witness for that
    mix with the cone ``R^2_+``."""
    a, b = state.above, state.below
    alpha = 0.0 if a is None else b.g / (b.g - a.g)  # a's weight at g = 0
    if alpha <= 0.0 or b.f <= state.crossing()[1]:
        return b.x
    if alpha >= 1.0:   # a's g is at rounding level against b's
        return a.x
    fmap, cone, zero = QuadraticMap(state.f, state.g), positive_quadrant(), np.zeros(2)
    try:
        return witness_convex_combination(
            fmap, cone, cone_point(fmap, cone, a.x, zero, cfg),
            cone_point(fmap, cone, b.x, zero, cfg), alpha, cfg).x_star
    except NumericalBreakdown:
        return None


def decide(f: QuadraticForm, g: QuadraticForm, x_star,
           search: SearchConfig = DEFAULT_SEARCH,
           cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> SLemmaVerdict:
    """Produce a multiplier, a counterexample, or an honest ``Undecided``.

    The verdict is always self-checking: ``MultiplierFound`` re-evaluates the
    dual value at the returned multiplier, and ``CounterexampleFound`` only
    returns points satisfying both inequalities by direct evaluation.  A
    multiplier takes precedence: a counterexample is sought only once the
    dual's upper bound, or its best value at the end, is below ``-slack``.
    """
    if not slater_check(g, x_star, search):
        raise SlaterViolated("g(x*) is not strictly negative")
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    state = _search(f, g, x_star, search, cfg, -search.slack)
    lam, final = state.final or (None, None)
    if final is not None:
        if not (final.bounded and final.value >= -search.slack):
            # the midpoint can fall just past the psd_tol band that
            # min_of_quadratic counts as bounded, next to a probe inside it
            lam = state.best_lambda if state.best_value >= -search.slack else None
        if lam is not None:
            return SLemmaVerdict(Outcome.MULTIPLIER_FOUND, lam=lam,
                                 diagnostics=state.samples)
    if final is None or final.bounded or state.upper() < -search.slack:
        x = _segment_counterexample(state, cfg)
    else:
        # d = -inf at the collapsed bracket: walk from x* along its descent
        # direction, turned so that g does not rise, until f is below zero
        f0 = f(x_star)
        x = _first_reach(f, x_star, final.direction, f0 - (1.0 + abs(f0)), g)
    if x is not None and g(x) <= search.feas_tol and f(x) < -search.strict_margin:
        return SLemmaVerdict(Outcome.COUNTEREXAMPLE_FOUND, x_witness=x,
                             diagnostics=state.samples)
    return SLemmaVerdict(Outcome.UNDECIDED, diagnostics=state.samples)


# ---------------------------------------------------------------------------
# grid oracle


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
                       grid_step: float, f_margin: float = 0.0,
                       cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> OracleVerdict:
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
