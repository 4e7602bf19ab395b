"""Constructive convexity certificates for ``F(R^n) + cone``.

Given two known members ``u = F(x_u) + e1`` and ``v = F(x_v) + e2`` of the
set and a strict convex combination ``w = alpha u + beta v``, this module
produces an explicit pair ``(x*, e*)`` with ``F(x*) + e* = w`` and ``e*`` in
the cone, together with a trace of the quantities that decided it.  The
construction works on the image of the line ``x(t) = x_u + t (x_v - x_u)``,
the pair of quadratic polynomials ``P(t) = F(x(t))``:

* if ``w`` coincides with ``F(x_u)`` or ``F(x_v)``, that endpoint certifies
  it directly, ``e*`` from the clamped cone coordinates of the difference;
* otherwise the gap ``w - \bar w`` to ``\bar w = alpha F(x_u) + beta F(x_v)``
  is ``lam b + gam c`` with ``(lam, gam) = alpha coords(e1) + beta coords(e2)``;
* a point image is ``\bar w`` itself, and on a ray or line image the pivot
  polynomial ``s`` takes the value ``alpha s(0) + beta s(1)`` of ``\bar w`` at
  some ``t`` in [0, 1] (intermediate value theorem), so
  ``x* = x_u + t (x_v - x_u)``; both give ``e* = lam b + gam c``;
* on a parabola image with ``w`` strictly inside (``psi(w) < 0``), the
  nearest crossing of the backward rays ``w - tau b`` and ``w - tau c``
  gives ``e* = tau b`` or ``tau c``;
* on a parabola image with ``psi(w) >= 0``, the staircase
  ``w -> w - lam b -> \bar w`` ends inside the curve (``\bar w`` lies on a
  chord), so its first crossing gives ``e* = tau b`` or ``lam b + tau c``.

Each crossing is a root of a scalar quadratic in ``t``, and ``e*`` is
assembled from nonnegative cone coordinates, never by subtraction.  A
certificate is returned only if it passes the predicate of
:func:`verify_certificate` at ``cfg.cert_tol``, run once, and the residual
that predicate measured is kept on its trace; otherwise
:class:`NumericalBreakdown` is raised with the trace attached.  The
construction's own thresholds are the module constants ``EQ_TOL`` (endpoint
coincidence) and ``ROOT_TOL`` (crossing slack), both times the data scale.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import cone2d, quadmap
from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import DegenerateLine, NumericalBreakdown, PreconditionViolated
from .quadmap import LineImageKind, QuadraticMap, eval_map
from .smallmat import quadratic_roots

EQ_TOL = 1e-9       # "w coincides with an endpoint" trigger, times the data scale
ROOT_TOL = 1e-9     # crossing slack along a leg, times the data scale


class Branch(enum.Enum):
    CASE1_U = "Case1_u"
    CASE1_V = "Case1_v"
    RAY_OR_LINE = "RayOrLine"
    PARABOLA_IVT = "ParabolaIVT"
    PARABOLA_RAY_HIT = "ParabolaRayHit"


@dataclass(frozen=True)
class ConePoint:
    """A certified member ``value = F(x) + e`` of the set."""

    x: np.ndarray
    e: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        for name in ("x", "e", "value"):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(-1).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def cone_point(fmap: QuadraticMap, cone: cone2d.Cone2, x, e,
               cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> ConePoint:
    """Validated constructor: checks ``e`` is in the cone and ``F(x) + e``
    is finite (an overflowing member raises :class:`PreconditionViolated`)."""
    ev = np.asarray(e, dtype=float).reshape(2)
    if not cone2d.contains(cone, ev, cfg):
        raise PreconditionViolated("e is not a cone element")
    value = eval_map(fmap, x) + ev
    if not all(map(math.isfinite, value.tolist())):
        raise PreconditionViolated("F(x) + e is not finite")
    return ConePoint(x=np.asarray(x, dtype=float), e=ev, value=value)


@dataclass
class WitnessTrace:
    """The quantities that decided the construction, for auditability."""

    alpha: float = 0.0
    beta: float = 0.0
    lam: float = 0.0            # cone coordinates of the gap w - w_bar
    gam: float = 0.0
    image_kind: str = ""
    psi_w: float = 0.0          # side of w against the parabola, < 0 inside
    ray_direction: str = ""     # "b" or "c": the ray or staircase leg crossed
    ray_t: float = 0.0          # tau >= 0 of the crossing along it
    residual: float | None = None   # max|F(x*) + e* - w| once a certificate is returned

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class WitnessCertificate:
    x_star: np.ndarray
    e_star: np.ndarray
    branch: Branch
    trace: WitnessTrace


def _value_scale(*points) -> float:
    """``1 +`` the largest coordinate magnitude of the given plane points.

    The points are float pairs.  A NaN may be skipped by ``max``, so a
    caller that must fail on non-finite data checks finiteness itself.
    """
    return 1.0 + max(max(abs(p0), abs(p1)) for p0, p1 in points)


def _eliminant_crossings(co, base, direction):
    """Curve points of the parametrized image on the line ``base + tau*dir``.

    Eliminating the line parameter against the polynomial parametrization
    gives a scalar quadratic in the curve parameter whose coefficients stay
    at the size of the image polynomials, so this remains well conditioned
    even when the implicit conic form does not (very flat parabolas).
    Returns ``(t, tau)`` pairs.
    """
    d0, d1 = float(direction[0]), float(direction[1])
    a, b, c = (d1 * pf - d0 * pg for pf, pg in zip(co.row(0), co.row(1)))
    c = c - d1 * float(base[0]) + d0 * float(base[1])
    dd = d0 * d0 + d1 * d1
    out = []
    for t in quadratic_roots(a, b, c):
        p0, p1 = co.at(t)
        tau = ((p0 - base[0]) * d0 + (p1 - base[1]) * d1) / dd
        out.append((t, float(tau)))
    return out


def _first_crossing(co, base, direction, reach: float, tol: float):
    """Curve crossing of ``base - tau*direction`` with the least ``tau``.

    Only ``tau`` in ``[0, reach]`` is eligible, widened for rounding by a
    step of length ``tol``; the returned ``tau`` is clamped into
    ``[0, reach]``, which moves ``e*`` by at most ``tol``.  Returns
    ``(t, tau)`` or None.
    """
    slack = tol / float(np.hypot(direction[0], direction[1]))
    eligible = [(tau, t) for t, tau in _eliminant_crossings(co, base, -direction)
                if -slack <= tau <= reach + slack]
    if not eligible:
        return None
    tau, t = min(eligible)
    return t, min(max(tau, 0.0), reach)


def witness_convex_combination(fmap: QuadraticMap, cone: cone2d.Cone2,
                               point_u: ConePoint, point_v: ConePoint,
                               alpha: float,
                               cfg: ToleranceConfig = DEFAULT_TOLERANCES
                               ) -> WitnessCertificate:
    """Certify ``w = alpha*u + (1-alpha)*v`` as a member of ``F(R^n) + cone``.

    Requires ``0 < alpha < 1`` and valid cone points.  Never returns an
    unverified certificate: one that fails the :func:`verify_certificate`
    predicate at ``cfg.cert_tol``, or a construction with no crossing,
    raises :class:`NumericalBreakdown` with the trace attached.
    """
    if not 0.0 < alpha < 1.0:
        raise PreconditionViolated("alpha must lie strictly inside (0, 1)")
    beta = 1.0 - alpha
    u = point_u.value
    v = point_v.value
    w = alpha * u + beta * v
    u_bar = eval_map(fmap, point_u.x)
    v_bar = eval_map(fmap, point_v.x)
    scale = _value_scale(u.tolist(), v.tolist(), u_bar.tolist(), v_bar.tolist())
    trace = WitnessTrace(alpha=alpha, beta=beta)

    def finish(x_star, e_star, branch: Branch) -> WitnessCertificate:
        x_star = np.asarray(x_star, dtype=float).reshape(-1)
        e_star = np.asarray(e_star, dtype=float).reshape(2)
        residual = _holds(fmap, cone, w.tolist(), x_star, e_star, cfg)
        if residual is None:
            raise NumericalBreakdown(
                f"{branch.value} certificate fails verification", trace)
        trace.residual = residual
        return WitnessCertificate(x_star, e_star, branch, trace)

    def clamped(gap) -> np.ndarray:     # lam b + gam c, coordinates clamped at 0
        co = cone2d.coords(cone, gap)
        return max(co.lam, 0.0) * cone.b + max(co.bet, 0.0) * cone.c

    # endpoint coincidence: w equals one of the mapped points
    if float(np.max(np.abs(w - u_bar))) <= EQ_TOL * scale:
        return finish(point_u.x, clamped(w - u_bar), Branch.CASE1_U)
    if float(np.max(np.abs(w - v_bar))) <= EQ_TOL * scale:
        return finish(point_v.x, clamped(w - v_bar), Branch.CASE1_V)

    # w - w_bar = alpha*e1 + beta*e2 = lam*b + gam*c
    c1 = cone2d.coords(cone, point_u.e)
    c2 = cone2d.coords(cone, point_v.e)
    lam = max(alpha * c1.lam + beta * c2.lam, 0.0)
    gam = max(alpha * c1.bet + beta * c2.bet, 0.0)
    trace.lam, trace.gam = lam, gam
    gap = lam * cone.b + gam * cone.c

    try:
        img = quadmap.classify_line_image(fmap, point_u.x, point_v.x)
    except DegenerateLine:
        # x_u and x_v coincide, so F(x_u) is w_bar
        return finish(point_u.x, gap, Branch.CASE1_U)
    trace.image_kind = img.kind.value
    if img.kind is LineImageKind.POINT:
        return finish(point_u.x, gap, Branch.CASE1_U)
    if img.kind is not LineImageKind.PARABOLA:
        # s(t) - alpha s(0) - beta s(1) = a t^2 + b t - beta (a + b) has a root
        # in [0, 1]; the root nearest 1/2 is the one nearest [0, 1], clamped
        # onto it against rounding
        a, b, _ = img.coeffs.row(img.pivot)
        roots = quadratic_roots(a, b, -beta * (a + b))
        if not roots:
            raise NumericalBreakdown("no root for the flat image's pivot polynomial", trace)
        t_star = min(max(min(roots, key=lambda t: abs(t - 0.5)), 0.0), 1.0)
        return finish(point_u.x + t_star * (point_v.x - point_u.x), gap,
                      Branch.RAY_OR_LINE)

    co = img.coeffs
    trace.psi_w = img.side(w)
    zero = np.zeros(2)
    if trace.psi_w < 0.0:
        # backward-ray lemma: the nearest crossing wins, ties to b
        branch = Branch.PARABOLA_RAY_HIT
        legs = (("b", w, cone.b, math.inf, zero), ("c", w, cone.c, math.inf, zero))
    else:
        # w - lam*b - gam*c = w_bar lies on a chord, inside the curve, so
        # the staircase w -> w - lam*b -> w_bar crosses it: the first wins
        branch = Branch.PARABOLA_IVT
        legs = (("b", w, cone.b, lam, zero),
                ("c", w - lam * cone.b, cone.c, gam, lam * cone.b))
    hits = []
    for label, base, d, reach, offset in legs:
        found = _first_crossing(co, base, d, reach, ROOT_TOL * scale)
        if found is not None:
            hits.append((found[1], label, found[0], offset + found[1] * d))
    if not hits:
        raise NumericalBreakdown(f"no crossing found for {branch.value}", trace)
    first = min(hits, key=lambda h: h[0]) if branch is Branch.PARABOLA_RAY_HIT else hits[0]
    trace.ray_t, trace.ray_direction, t_star, e_star = first
    x_star = point_u.x + t_star * (point_v.x - point_u.x)
    return finish(x_star, e_star, branch)


def _holds(fmap: QuadraticMap, cone: cone2d.Cone2, w, x_star, e_star,
           cfg: ToleranceConfig) -> float | None:
    """The residual ``max|F(x*) + e* - w|`` if the certificate holds, else None.

    It holds when ``F(x*) + e* = w`` to relative ``tol = cfg.cert_tol`` and
    ``e*`` is in the cone by the membership rule of :func:`cone2d.contains`
    at ``tol``; see :func:`verify_certificate`.  Non-finite data fails:
    ``x*``, ``w`` and ``F(x*) + e*`` are checked up front, each coordinate
    on its own, and an overflowing slack or coordinate fails too.
    """
    if not np.isfinite(x_star).all():
        return None
    tol = cfg.cert_tol
    e = np.asarray(e_star, dtype=float).reshape(2)
    e0, e1 = e.tolist()
    v0, v1 = eval_map(fmap, x_star).tolist()
    v0 += e0
    v1 += e1
    w0, w1 = w
    if not all(map(math.isfinite, (w0, w1, v0, v1))):
        return None
    residual = max(abs(v0 - w0), abs(v1 - w1))
    if not residual <= tol * _value_scale((w0, w1), (v0, v1), (e0, e1)):
        return None
    return residual if cone2d._within(cone, e, tol) else None


def verify_certificate(fmap: QuadraticMap, cone: cone2d.Cone2, w,
                       cert: WitnessCertificate,
                       cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """Recheck ``F(x*) + e* = w`` and cone membership from scratch.

    Shares no intermediate state with the constructor: everything is
    recomputed from the certificate fields.  With ``tol = cfg.cert_tol``,
    the residual is relative to the largest of ``|w|``, ``|F(x*) + e*|``
    and ``|e*|`` (plus one).  The cone coordinate of ``e*`` on ``b`` may be negative down to
    ``-tol * (1 + |e*| |c| / |det|)``, and the one on ``c`` down to
    ``-tol * (1 + |e*| |b| / |det|)`` (Euclidean norms, ``det = b x c``),
    the rounding of each coordinate's Cramer numerator.  So a large ``e*``
    may leave the cone by an angle of at most about ``tol``, the relative
    units of the residual, whatever the generator lengths, and the slack
    stays ``tol`` absolute for ``|e*|`` small against the generators.  A
    non-finite entry in ``x*``, ``e*`` or ``w``, or a slack or coordinate
    that overflows, never verifies.
    """
    return _holds(fmap, cone, np.asarray(w, dtype=float).reshape(2).tolist(),
                  cert.x_star, cert.e_star, cfg) is not None


def check_box(fmap: QuadraticMap, cone: cone2d.Cone2, radius: float) -> None:
    """Refuse a box radius whose draws can overflow.

    A draw is ``x`` with ``|x_i| <= radius`` and ``e = lam b + bet c`` with
    ``lam, bet`` in ``[0, radius]``.  ``F(x) + e`` and every coefficient of
    the image polynomials on the line between two draws are then at most
    ``q.bound(2 radius) + radius (|b| + |c|)`` in size, for ``q`` each of
    ``f`` and ``g``; a radius that makes this a-priori bound infinite or
    NaN raises :class:`PreconditionViolated`.
    """
    reach = radius * (cone.b_norm + cone.c_norm)
    if not all(math.isfinite(q.bound(2.0 * radius) + reach) for q in (fmap.f, fmap.g)):
        raise PreconditionViolated(
            f"box radius {radius!r} is too large: draws from the box can overflow")


@dataclass
class TrialFailure:
    trial: int
    u: np.ndarray
    v: np.ndarray
    alpha: float
    diagnostic: str


@dataclass
class ConvexityReport:
    """Outcome of repeated random convex-combination certification."""

    summary: str
    trials: int
    failures: list[TrialFailure]
    max_residual: float
    branch_counts: dict[str, int]

    @property
    def consistent(self) -> bool:
        return not self.failures


def convexity_probe(fmap: QuadraticMap, cone: cone2d.Cone2, trials: int,
                    rng_seed: int, box_radius: float,
                    cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> ConvexityReport:
    """Randomized corroboration that ``F(R^n) + cone`` is convex.

    Each trial draws two box points, two cone elements, and a strict mixing
    weight, then runs the witness construction, whose one verification also
    measures the residual read into ``max_residual``.  Breakdowns are
    collected as data, never raised.  Per-trial randomness is derived from
    ``(rng_seed, trial)``, so reports are reproducible and trials are
    independent.  A radius refused by :func:`check_box` raises
    :class:`PreconditionViolated`.
    """
    if trials < 1:
        raise PreconditionViolated("trials must be at least 1")
    if box_radius <= 0.0:
        raise PreconditionViolated("box_radius must be positive")
    check_box(fmap, cone, box_radius)
    failures: list[TrialFailure] = []
    max_residual = 0.0
    branch_counts: dict[str, int] = {b.value: 0 for b in Branch}
    n = fmap.n
    for trial in range(trials):
        rng = np.random.default_rng([rng_seed, trial])
        x_u = rng.uniform(-box_radius, box_radius, size=n)
        x_v = rng.uniform(-box_radius, box_radius, size=n)
        e1 = cone2d.sample(cone, box_radius, rng)
        e2 = cone2d.sample(cone, box_radius, rng)
        alpha = rng.uniform()
        while not 0.0 < alpha < 1.0:
            alpha = rng.uniform()
        pu = cone_point(fmap, cone, x_u, e1, cfg)
        pv = cone_point(fmap, cone, x_v, e2, cfg)
        try:
            cert = witness_convex_combination(fmap, cone, pu, pv, alpha, cfg)
        except NumericalBreakdown as exc:
            failures.append(TrialFailure(trial, pu.value, pv.value, alpha,
                                         f"breakdown: {exc}"))
            continue
        branch_counts[cert.branch.value] += 1
        max_residual = max(max_residual, cert.trace.residual)
    summary = (f"n={n}, trials={trials}, failures={len(failures)}, "
               f"max_residual={max_residual:.3e}")
    return ConvexityReport(summary=summary, trials=trials, failures=failures,
                           max_residual=max_residual, branch_counts=branch_counts)
