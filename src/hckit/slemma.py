"""Decision procedure for the two-quadratic alternative.

Under a strict feasibility point ``g(x*) < 0``, exactly one of the following
holds: the system ``{f < 0, g <= 0}`` has no solution, or it has one; the
first case is equivalent to the existence of a multiplier ``lambda >= 0``
with ``f + lambda g >= 0`` everywhere.  ``decide`` bisects the argmax of
the concave dual ``d = inf_x (f + lambda g)`` by the sign of its slope,
keeping one point on each side of ``g = 0``: each gives a supporting line
``f(x) + lambda g(x) >= d``, and the lines meet at the ``f``-value where the
segment between the two image points crosses ``g = 0``, an upper bound on
``sup d``.  Below ``-SLACK`` that bound yields the counterexample, the
witness on the segment with the cone ``R^2_+`` (``F(R^n) + R^2_+`` is
convex).  The collapsed bracket gives the multiplier, or, where
``d = -inf``, a closed-form walk from ``x*``.  ``Undecided`` is an honest
third verdict; a wrong verdict is never returned.

The bracket's right end and the margins are fixed module constants, not
knobs.  The independent cross-check, a grid oracle (an exact feasibility
scan over a uniform grid for n <= 3), lives with the tests in
``tests/oracle.py``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .cone2d import positive_quadrant
from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import NumericalBreakdown, PreconditionViolated, SlaterViolated
from .quadmap import QuadraticForm, QuadraticMap
from .smallmat import MinResult, min_of_quadratic, quadratic_roots
from .witness import cone_point, witness_convex_combination

LAMBDA_MAX = 1e6        # right end of the multiplier bracket
SLACK = 1e-7            # dual value >= -SLACK counts as a multiplier
STRICT_MARGIN = 1e-10   # g(x*) < -margin (Slater); f(x) < -margin
FEAS_TOL = 1e-9         # g(x) <= FEAS_TOL for a counterexample


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


def slater_check(g: QuadraticForm, x_star) -> bool:
    """True iff ``g`` is strictly negative at the point (beyond the margin)."""
    return g(x_star) < -STRICT_MARGIN


def combine(f: QuadraticForm, g: QuadraticForm, lam: float) -> QuadraticForm:
    """The form ``f + lam * g``."""
    return QuadraticForm(f.matrix + lam * g.matrix,
                         f.linear + lam * g.linear,
                         f.constant + lam * g.constant)


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

    def probe(self, lam: float) -> MinResult:
        """Evaluate the dual at ``lam``; move the bracket and keep a point."""
        h = combine(self.f, self.g, lam)
        res = min_of_quadratic(h.matrix, h.linear, h.constant)
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
            if x is not None and abs(self.g(x)) <= FEAS_TOL:
                self.keep(x)
        if side > 0.0:
            self.lo = lam
        elif side < 0.0:
            self.hi = lam
        else:
            self.lo = self.hi = lam
        return res


def _search(f: QuadraticForm, g: QuadraticForm, x0, stop_below: float) -> _DualSearch:
    """Bisect the dual's argmax in ``[0, LAMBDA_MAX]`` to 1e-12 relative,
    then probe the midpoint into ``final``; stop early once the upper bound
    is below ``stop_below``."""
    state = _DualSearch(f, g, 0.0, LAMBDA_MAX)
    state.keep(np.asarray(x0, dtype=float).reshape(-1))
    while state.hi - state.lo > 1e-12 * (1.0 + state.hi):
        if state.upper() < stop_below:
            return state
        state.probe(0.5 * (state.lo + state.hi))
    lam = 0.5 * (state.lo + state.hi)
    state.final = (lam, state.probe(lam))
    return state


def dual_lower_bound(f: QuadraticForm, g: QuadraticForm) -> float:
    """Best dual value found; by weak duality a lower bound on
    ``inf {f(x) : g(x) <= 0}`` whenever that set is nonempty (``-inf`` if the
    dual is nowhere finite on the searched range)."""
    return _search(f, g, np.zeros(f.n), -math.inf).best_value


def _segment_counterexample(state: _DualSearch,
                            cfg: ToleranceConfig) -> np.ndarray | None:
    """A point with ``f`` at most the kept segment's value at ``g = 0`` and
    ``g <= 0``: the ``g <= 0`` end when no lower, else the witness for that
    mix with the cone ``R^2_+`` (None if that breaks down or overflows)."""
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
    except (NumericalBreakdown, PreconditionViolated):
        return None


def decide(f: QuadraticForm, g: QuadraticForm, x_star,
           cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> SLemmaVerdict:
    """Produce a multiplier, a counterexample, or an honest ``Undecided``.

    The verdict is always self-checking: ``MultiplierFound`` re-evaluates the
    dual value at the returned multiplier, and ``CounterexampleFound`` only
    returns points satisfying both inequalities by direct evaluation.  A
    multiplier takes precedence: a counterexample is sought only once the
    dual's upper bound, or its best value at the end, is below ``-SLACK``.
    """
    if not slater_check(g, x_star):
        raise SlaterViolated("g(x*) is not strictly negative")
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    state = _search(f, g, x_star, -SLACK)
    lam, final = state.final or (None, None)
    if final is not None:
        if not (final.bounded and final.value >= -SLACK):
            # the midpoint can fall just past the PSD_TOL band that
            # min_of_quadratic counts as bounded, next to a probe inside it
            lam = state.best_lambda if state.best_value >= -SLACK else None
        if lam is not None:
            return SLemmaVerdict(Outcome.MULTIPLIER_FOUND, lam=lam,
                                 diagnostics=state.samples)
    if final is None or final.bounded or state.upper() < -SLACK:
        x = _segment_counterexample(state, cfg)
    else:
        # d = -inf at the collapsed bracket: walk from x* along its descent
        # direction, turned so that g does not rise, until f is below zero
        f0 = f(x_star)
        x = _first_reach(f, x_star, final.direction, f0 - (1.0 + abs(f0)), g)
    if x is not None and g(x) <= FEAS_TOL and f(x) < -STRICT_MARGIN:
        return SLemmaVerdict(Outcome.COUNTEREXAMPLE_FOUND, x_witness=x,
                             diagnostics=state.samples)
    return SLemmaVerdict(Outcome.UNDECIDED, diagnostics=state.samples)

