"""Decision procedure for the two-quadratic alternative.

Under a strict feasibility point ``g(x*) < 0``, exactly one of the following
holds: the system ``{f < 0, g <= 0}`` has no solution, or it has one; the
first case is equivalent to the existence of a multiplier ``lambda >= 0``
with ``f + lambda g >= 0`` everywhere.  ``decide`` searches for either
certificate: it maximizes the concave dual value
``lambda -> inf_x (f + lambda g)(x)`` by bracketing plus golden-section
search (with a derivative-sign bisection polish, since value-only search
cannot localize a smooth maximum past ~sqrt(eps)), and otherwise hunts for a
feasible point by penalized multistart descent.  ``Undecided`` is an honest
third verdict when the budget runs out; a wrong verdict is never returned.

A grid oracle (exact feasibility scan over a uniform grid, evaluated in
closed form one axis at a time) provides an independent cross-check at desk
scale for n <= 3.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .config import (DEFAULT_SEARCH, DEFAULT_TOLERANCES, SearchConfig,
                     ToleranceConfig)
from .errors import DimensionTooLarge, SlaterViolated
from .quadmap import QuadraticForm
from .smallmat import MinResult, min_of_quadratic, quadratic_roots


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


@dataclass
class _DualSearch:
    best_lambda: float | None
    best_value: float
    samples: list[tuple[float, float]]
    minimizers: list[tuple[float, np.ndarray]]


def _maximize_dual(f: QuadraticForm, g: QuadraticForm,
                   search: SearchConfig, cfg: ToleranceConfig) -> _DualSearch:
    samples: list[tuple[float, float]] = []
    minimizers: list[tuple[float, np.ndarray]] = []

    def probe(lam: float) -> float:
        res: MinResult = min_of_quadratic(*_parts(combine(f, g, lam)), cfg)
        val = res.value if res.bounded else -math.inf
        samples.append((lam, val))
        if res.bounded and res.minimizer is not None:
            minimizers.append((lam, res.minimizer))
        return val

    # geometric ladder to locate the finite region of the concave dual
    ladder = [0.0]
    step = 2.0 ** -10
    while step < search.lambda_max:
        ladder.append(step)
        step *= 2.0
    ladder.append(search.lambda_max)
    values = [probe(lam) for lam in ladder]
    best_idx = int(np.argmax(values))
    best_lam, best_val = ladder[best_idx], values[best_idx]
    if not math.isfinite(best_val):
        return _DualSearch(None, -math.inf, samples, minimizers)

    lo = ladder[best_idx - 1] if best_idx > 0 else 0.0
    hi = ladder[best_idx + 1] if best_idx + 1 < len(ladder) else search.lambda_max

    # golden-section shrink; a -inf tie keeps the side holding the best point
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = probe(x1), probe(x2)
    for _ in range(search.golden_iters):
        if hi - lo <= 1e-12 * (1.0 + hi):
            break
        for x, v in ((x1, f1), (x2, f2)):
            if v > best_val:
                best_lam, best_val = x, v
        if f1 < f2 or (f1 == f2 and best_lam >= x1):
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = probe(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = probe(x1)

    # derivative polish: the slope of the dual value is g at the inner
    # minimizer, so a sign bisection pins the argmax to machine precision
    def slope(lam: float) -> float | None:
        res: MinResult = min_of_quadratic(*_parts(combine(f, g, lam)), cfg)
        if not res.bounded or res.minimizer is None:
            return None
        return g(res.minimizer)

    span = max(hi - lo, 1e-9 * (1.0 + best_lam))
    a = max(0.0, best_lam - span)
    b = min(search.lambda_max, best_lam + span)
    da, db = slope(a), slope(b)
    if da is not None and db is not None and da > 0.0 > db:
        for _ in range(100):
            mid = 0.5 * (a + b)
            dm = slope(mid)
            if dm is None:
                break
            if dm > 0.0:
                a = mid
            else:
                b = mid
        lam_polished = 0.5 * (a + b)
        val_polished = probe(lam_polished)
        if val_polished >= best_val:
            best_lam, best_val = lam_polished, val_polished
    return _DualSearch(best_lam, best_val, samples, minimizers)


def dual_lower_bound(f: QuadraticForm, g: QuadraticForm,
                     search: SearchConfig = DEFAULT_SEARCH,
                     cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Best dual value found; by weak duality a lower bound on
    ``inf {f(x) : g(x) <= 0}`` whenever that set is nonempty (``-inf`` if the
    dual is nowhere finite on the searched range)."""
    return _maximize_dual(f, g, search, cfg).best_value


def _constraint_descent_point(g: QuadraticForm, x: np.ndarray,
                              target: float) -> np.ndarray | None:
    """Nearest point along ``-grad g`` where ``g`` drops to ``target``.

    ``g`` restricted to the ray is an exact quadratic, so the step is a
    closed-form root.
    """
    grad = 2.0 * (g.matrix @ x) + g.linear
    norm = float(np.linalg.norm(grad))
    if norm <= 1e-14 * (1.0 + float(np.max(np.abs(x), initial=0.0))):
        return None
    d = -grad / norm
    a = float(d @ g.matrix @ d)
    b = float(grad @ d)  # = -norm
    c = g(x) - target
    etas = [e for e in quadratic_roots(a, b, c) if e >= 0.0]
    if not etas:
        return None
    return x + min(etas) * d


def _search_counterexample(f: QuadraticForm, g: QuadraticForm, x_star,
                           warm_starts: list[np.ndarray],
                           search: SearchConfig,
                           cfg: ToleranceConfig) -> np.ndarray | None:
    n = f.n
    x_star = np.asarray(x_star, dtype=float).reshape(-1)

    def feasible(x: np.ndarray) -> bool:
        return g(x) <= search.feas_tol and f(x) < -search.strict_margin

    def accept(x: np.ndarray) -> np.ndarray | None:
        if feasible(x):
            return x
        if g(x) > 0.0:
            # pull back inside the constraint along its steepest descent;
            # g is quadratic on the ray so each target is one closed form
            for target in (-1e-9, -1e-6, -1e-3):
                cand = _constraint_descent_point(g, x, target)
                if cand is not None and feasible(cand):
                    return cand
        # last resort: slide toward the strictly feasible point
        for th in np.linspace(0.0, 1.0, 65)[1:]:
            cand = x + th * (x_star - x)
            if feasible(cand):
                return cand
        return None

    rng = np.random.default_rng(search.seed)
    randoms = rng.uniform(-search.descent_box, search.descent_box,
                          size=(search.restarts, n))
    starts = list(warm_starts) + [randoms[i] for i in range(search.restarts)]

    for x0 in starts:
        x = np.asarray(x0, dtype=float).reshape(-1)
        for penalty in (1e1, 1e3, 1e6):
            def objective(xv, _p=penalty):
                viol = max(g(xv), 0.0)
                return f(xv) + _p * viol * viol

            def gradient(xv, _p=penalty):
                viol = max(g(xv), 0.0)
                grad = 2.0 * (f.matrix @ xv) + f.linear
                if viol > 0.0:
                    grad = grad + _p * 2.0 * viol * (2.0 * (g.matrix @ xv) + g.linear)
                return grad

            res = _scipy_minimize(objective, x, jac=gradient, method="BFGS",
                                  options={"maxiter": 200})
            x = res.x
            found = accept(x)
            if found is not None:
                return found
    return None


def decide(f: QuadraticForm, g: QuadraticForm, x_star,
           search: SearchConfig = DEFAULT_SEARCH,
           cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> SLemmaVerdict:
    """Produce a multiplier, a counterexample, or an honest ``Undecided``.

    The verdict is always self-checking: ``MultiplierFound`` re-evaluates the
    dual value at the returned multiplier, and ``CounterexampleFound`` only
    returns points satisfying both inequalities by direct evaluation.
    """
    if not slater_check(g, x_star, search):
        raise SlaterViolated("g(x*) is not strictly negative")
    dual = _maximize_dual(f, g, search, cfg)
    if dual.best_lambda is not None and dual.best_value >= -search.slack:
        return SLemmaVerdict(Outcome.MULTIPLIER_FOUND, lam=dual.best_lambda,
                             diagnostics=dual.samples)
    warm = [x for _, x in dual.minimizers[-8:]]
    x = _search_counterexample(f, g, x_star, warm, search, cfg)
    if x is not None:
        return SLemmaVerdict(Outcome.COUNTEREXAMPLE_FOUND, x_witness=x,
                             diagnostics=dual.samples)
    return SLemmaVerdict(Outcome.UNDECIDED, diagnostics=dual.samples)


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
