"""Shared random-instance generators for the test suite."""

from __future__ import annotations

import numpy as np

import hckit as hk
from hckit import cone2d

EXACT = hk.DEFAULT_TOLERANCES.with_overrides(cone_tol=0.0)   # no membership slack


def random_cone(rng, min_angle_deg: float = 5.0,
                angle_deg: float | None = None) -> hk.Cone2:
    """Cone with generator angle ``angle_deg``, by default uniform in
    [min_angle_deg, 180 - min_angle_deg]."""
    if angle_deg is None:
        angle_deg = rng.uniform(min_angle_deg, 180.0 - min_angle_deg)
    ang = np.deg2rad(angle_deg)
    th = rng.uniform(0.0, 2.0 * np.pi)
    b = rng.uniform(0.5, 2.0) * np.array([np.cos(th), np.sin(th)])
    c = rng.uniform(0.5, 2.0) * np.array([np.cos(th + ang), np.sin(th + ang)])
    return hk.Cone2(b, c)


def random_form(rng, n: int, coeff: float = 2.0) -> hk.QuadraticForm:
    mat = rng.uniform(-coeff, coeff, size=(n, n))
    return hk.QuadraticForm(0.5 * (mat + mat.T),
                            rng.uniform(-coeff, coeff, size=n),
                            rng.uniform(-coeff, coeff))


def random_map(rng, n: int, coeff: float = 2.0) -> hk.QuadraticMap:
    return hk.QuadraticMap(random_form(rng, n, coeff), random_form(rng, n, coeff))


def rank_deficient_map(rng, n: int) -> hk.QuadraticMap:
    """Maps whose line images are flat (rays, lines, or points).

    Either the second component is an affine multiple of the first, or both
    components are affine.
    """
    if rng.uniform() < 0.5:
        f = random_form(rng, n)
        k = rng.uniform(-2.0, 2.0)
        g = hk.QuadraticForm(k * f.matrix, k * f.linear,
                             k * f.constant + rng.uniform(-2.0, 2.0))
        return hk.QuadraticMap(f, g)
    zero = np.zeros((n, n))
    f = hk.QuadraticForm(zero, rng.uniform(-2, 2, n), rng.uniform(-2, 2))
    g = hk.QuadraticForm(zero, rng.uniform(-2, 2, n), rng.uniform(-2, 2))
    return hk.QuadraticMap(f, g)


def parabola_map(rng):
    """A parabola in a random frame, as a curve and as a line image.

    Returns ``(conic, point_at, fmap)``: the PSD-normalized implicit
    equation, a parametrization ``point_at(tau)`` of the curve, and the map
    on R^1 with ``F(tau) = point_at(tau)``, so that the image of the line
    from ``[0]`` to ``[1]`` is the parabola with line parameter ``tau``.
    """
    phi = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array([[np.cos(phi), np.sin(phi)],
                    [-np.sin(phi), np.cos(phi)]])
    r1, r2 = rot[0], rot[1]
    shift = rng.uniform(-3.0, 3.0, size=2)
    c = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
    conic = hk.Conic2(np.outer(r2, r2),
                      -2.0 * float(r2 @ shift) * r2 - c * r1,
                      float(r2 @ shift) ** 2 + c * float(r1 @ shift))

    def point_at(tau: float) -> np.ndarray:
        local = np.array([tau * tau / c, tau])
        return shift + rot.T @ local

    # point_at(tau) = shift + (tau^2 / c) r1 + tau r2, one coordinate each
    fmap = hk.QuadraticMap(*(hk.QuadraticForm([[r1[k] / c]], [r2[k]], shift[k])
                             for k in (0, 1)))
    return conic, point_at, fmap


def interior_point(conic: hk.Conic2, point_at, rng) -> np.ndarray:
    """A point with psi < 0, found by stepping off the curve against psi."""
    tau = rng.uniform(-3.0, 3.0)
    y = point_at(tau)
    grad = 2.0 * (conic.A @ y) + conic.a
    step = rng.uniform(0.05, 1.5)
    for _ in range(60):
        z = y - step * grad / max(np.linalg.norm(grad), 1e-12)
        if conic.evaluate(z) < 0.0:
            return z
        step *= 0.5
    raise AssertionError("could not find an interior point")


def random_cone_point(rng, fmap: hk.QuadraticMap, cone: hk.Cone2,
                      box: float, e_radius: float) -> hk.ConePoint:
    x = rng.uniform(-box, box, size=fmap.n)
    e = cone2d.sample(cone, e_radius, rng) if e_radius > 0 else np.zeros(2)
    return hk.cone_point(fmap, cone, x, e)


def witness_instance(rng, n: int, box: float = 5.0):
    """One random witness problem: (map, cone, point_u, point_v, alpha).

    The mix includes flat-image maps (to reach the ray/line branch) and
    endpoint-equality constructions (to reach both direct-membership
    branches).
    """
    draw = rng.uniform()
    cone = random_cone(rng)
    if draw < 0.08:
        fmap = rank_deficient_map(rng, n)
        pu = random_cone_point(rng, fmap, cone, box, box)
        pv = random_cone_point(rng, fmap, cone, box, box)
    elif draw < 0.10:
        # identical endpoints with no cone offset: w coincides with u
        fmap = random_map(rng, n)
        pu = random_cone_point(rng, fmap, cone, box, 0.0)
        pv = pu
    elif draw < 0.12:
        # w lands exactly on the second endpoint's map value
        fmap = random_map(rng, n)
        for _ in range(200):
            xu = rng.uniform(-box, box, size=n)
            xv = rng.uniform(-box, box, size=n)
            gap = hk.eval_map(fmap, xv) - hk.eval_map(fmap, xu)
            if hk.contains(cone, gap, EXACT):
                break
        else:
            xu = xv = rng.uniform(-box, box, size=n)
            gap = np.zeros(2)
        pu = hk.cone_point(fmap, cone, xu, gap)
        pv = hk.cone_point(fmap, cone, xv, np.zeros(2))
    else:
        fmap = random_map(rng, n)
        pu = random_cone_point(rng, fmap, cone, box, box)
        pv = random_cone_point(rng, fmap, cone, box, box)
    alpha = rng.uniform(0.05, 0.95)
    return fmap, cone, pu, pv, alpha


def scaled_form(q: hk.QuadraticForm, factor: float) -> hk.QuadraticForm:
    """The form times ``factor``."""
    return hk.QuadraticForm(factor * q.matrix, factor * q.linear, factor * q.constant)


def _stress_points(rng, fmap: hk.QuadraticMap, angle_deg: float, k_lo: int, k_hi: int):
    """Box, cone, cone points and weight of a stress instance on ``fmap``.

    The box radius is log-uniform on ``[1, 1e3]``, the cone's generators are
    ``angle_deg`` apart, and the cone elements are drawn at a log-uniform
    size between ``10^k_lo`` and ``10^k_hi`` times the squared box radius.
    """
    box = 10.0 ** rng.uniform(0.0, 3.0)
    cone = random_cone(rng, angle_deg=angle_deg)
    radius = 10.0 ** rng.uniform(k_lo, k_hi) * box * box
    pu = random_cone_point(rng, fmap, cone, box, radius)
    pv = random_cone_point(rng, fmap, cone, box, radius)
    alpha = rng.uniform(0.05, 0.95)
    return fmap, cone, pu, pv, alpha


def scale_stress_instance(rng, n: int, angle_deg: float):
    """A witness problem at an adversarial scale: (map, cone, point_u, point_v, alpha).

    ``f`` and ``g`` are scaled by independent powers ``10^k``, ``k`` in
    ``-6..6``; the box radius is log-uniform on ``[1, 1e3]``; the cone's
    generators are ``angle_deg`` apart.  One map in ten has flat line images.
    The cone elements are drawn at a log-uniform size between the scales of
    the two components, so the gap ``w - w_bar`` is large against one of
    them and small against the other.
    """
    kf, kg = (int(k) for k in rng.integers(-6, 7, size=2))
    base = rank_deficient_map(rng, n) if rng.uniform() < 0.1 else random_map(rng, n)
    fmap = hk.QuadraticMap(scaled_form(base.f, 10.0 ** kf), scaled_form(base.g, 10.0 ** kg))
    return _stress_points(rng, fmap, angle_deg, min(kf, kg), max(kf, kg))


def flat_stress_instance(rng, n: int, angle_deg: float):
    """A witness problem with flat line images: (map, cone, point_u, point_v, alpha).

    The map comes from :func:`rank_deficient_map` with ``f`` scaled by
    ``10^k``, ``k`` in ``-6..6``; the rest is drawn as in
    :func:`scale_stress_instance`.
    """
    base = rank_deficient_map(rng, n)
    k = int(rng.integers(-6, 7))
    fmap = hk.QuadraticMap(scaled_form(base.f, 10.0 ** k), base.g)
    return _stress_points(rng, fmap, angle_deg, min(k, 0), max(k, 0))


def slater_instance(rng, n: int):
    """Random (f, g, x_star) with a verified strictly feasible point."""
    f = random_form(rng, n)
    g = random_form(rng, n)
    x_star = rng.uniform(-3.0, 3.0, size=n)
    g = hk.QuadraticForm(g.matrix, g.linear,
                         g.constant - g(x_star) - rng.uniform(0.1, 2.0))
    assert g(x_star) < 0.0
    return f, g, x_star
