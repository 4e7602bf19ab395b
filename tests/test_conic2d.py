import numpy as np
import pytest

import hckit as hk
from hckit import witness
from hckit.conic2d import Conic2
from hckit.errors import NumericalBreakdown
from hckit.quadmap import LineImageKind
from hckit.witness import _eliminant_crossings, _first_crossing
from gen import interior_point, parabola_map, random_cone


def std_parabola() -> Conic2:
    # y2^2 - y1 = 0
    return Conic2([[0.0, 0.0], [0.0, 1.0]], [-1.0, 0.0], 0.0)


def unit_circle() -> Conic2:
    return Conic2(np.eye(2), [0.0, 0.0], -1.0)


class TestEval:
    def test_on_curve(self):
        assert std_parabola().evaluate((1.0, 1.0)) == 0.0

    def test_inside(self):
        assert std_parabola().evaluate((1.0, 0.0)) == -1.0

    def test_circle_outside(self):
        assert unit_circle().evaluate((2.0, 0.0)) == 3.0

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            Conic2(np.zeros((2, 2)), [0.0, 0.0], 1.0)


# F(x) = (x^2, x) on R^1
STD_MAP = hk.QuadraticMap(hk.QuadraticForm([[1.0]], [0.0], 0.0),
                          hk.QuadraticForm([[0.0]], [1.0], 0.0))


def std_image() -> hk.LineImage:
    """The image ``t -> (t^2, t)`` of the line from [0] to [1]: the parabola
    ``y2^2 - y1 = 0`` of :func:`std_parabola`, with line parameter ``y2``."""
    img = hk.classify_line_image(STD_MAP, [0.0], [1.0])
    assert img.kind is LineImageKind.PARABOLA
    return img


def std_witness(x_u: float, x_v: float, alpha: float) -> hk.WitnessCertificate:
    """Witness for ``alpha*F(x_u) + (1-alpha)*F(x_v)`` under ``F(x) = (x^2, x)``
    and the positive quadrant, with no cone offsets."""
    cone = hk.positive_quadrant()
    pu = hk.cone_point(STD_MAP, cone, [x_u], [0.0, 0.0])
    pv = hk.cone_point(STD_MAP, cone, [x_v], [0.0, 0.0])
    return hk.witness_convex_combination(STD_MAP, cone, pu, pv, alpha)


class TestChordInteriorSign:
    """The chord lemma on the witness's side test, ``LineImage.side``:
    a strict convex combination of two curve points lies strictly inside."""

    def test_midpoint(self):
        assert std_image().side((1.0, 0.0)) == -1.0

    def test_asymmetric_chord(self):
        # midpoint of the chord from (0, 0) to (4, 2)
        assert std_image().side((2.0, 1.0)) == -1.0

    def test_continuity_at_endpoint(self):
        z = np.array([1.0, 1.0]) + 1e-8 * (np.array([4.0, 2.0]) - np.array([1.0, 1.0]))
        val = std_image().side(z)
        assert -1e-6 < val < 0.0

    def test_interior_always_negative(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            _, point_at, fmap = parabola_map(rng)
            img = hk.classify_line_image(fmap, [0.0], [1.0])
            assert img.kind is LineImageKind.PARABOLA
            t1, t2 = rng.uniform(-4, 4, 2)
            while abs(t1 - t2) < 1e-3:
                t2 = rng.uniform(-4, 4)
            z = rng.uniform(0.01, 0.99)
            mid = point_at(t1) + z * (point_at(t2) - point_at(t1))
            assert img.side(mid) < 0.0


class TestRayIntersections:
    """Crossings of a line with a parabola image, as the witness finds them
    (``witness._eliminant_crossings``: ``(t, tau)`` with ``P(t) = z + tau*d``)."""

    def test_horizontal_ray(self):
        hits = _eliminant_crossings(std_image().coeffs, (1.0, 0.0), (1.0, 0.0))
        assert [tau for _, tau in hits] == pytest.approx([-1.0])

    def test_vertical_keeps_negative_root(self):
        # (1, tau) meets y2^2 = y1 at tau = +-1; the backward search
        # z - tau*d keeps only the crossing behind z, at (1, -1)
        found = _first_crossing(std_image().coeffs, (1.0, 0.0),
                                np.array([0.0, 1.0]), np.inf, 1e-12)
        assert found == pytest.approx((-1.0, 1.0))

    def test_no_roots(self):
        # the vertical line y1 = -1 lies outside y2^2 = y1
        assert _eliminant_crossings(std_image().coeffs, (-1.0, 0.0), (0.0, 1.0)) == []

    def test_root_residuals(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 500:
            conic, _, fmap = parabola_map(rng)
            co = hk.classify_line_image(fmap, [0.0], [1.0]).coeffs
            z = rng.uniform(-4, 4, 2)
            d = rng.uniform(-1, 1, 2)
            if np.max(np.abs(d)) < 1e-3:
                continue
            for t, tau in _eliminant_crossings(co, z, d):
                hit = z + tau * d
                scale = conic.coefficient_scale() * (1 + np.max(np.abs(hit))) ** 2
                assert abs(conic.evaluate(hit)) <= 1e-8 * scale
                assert np.max(np.abs(hit - co.at(t))) <= 1e-8 * (1 + np.max(np.abs(hit)))
            checked += 1


class TestFirstNegativeRayHit:
    """The backward-ray lemma on the witness: from a point inside the
    parabola, the nearer of ``z - tau*b`` and ``z - tau*c`` meets it."""

    def test_axis_hit(self):
        # w = (1, 0): both legs hit at tau = 1, and ties go to b
        cert = std_witness(1.0, -1.0, 0.5)
        assert cert.branch is hk.Branch.PARABOLA_RAY_HIT
        assert cert.trace.ray_direction == "b"
        assert cert.trace.ray_t == pytest.approx(1.0)
        np.testing.assert_allclose(hk.eval_map(STD_MAP, cert.x_star), [0.0, 0.0],
                                   atol=1e-12)
        np.testing.assert_allclose(cert.e_star, [1.0, 0.0], atol=1e-12)

    def test_shifted_start(self):
        # w = (4, 1): b hits (1, 1) and c hits (4, -2), both at tau = 3
        cert = std_witness(2.0, -2.0, 0.75)
        assert cert.branch is hk.Branch.PARABOLA_RAY_HIT
        assert cert.trace.ray_direction == "b"
        assert cert.trace.ray_t == pytest.approx(3.0)
        np.testing.assert_allclose(hk.eval_map(STD_MAP, cert.x_star), [1.0, 1.0],
                                   atol=1e-12)

    def test_hit_always_exists(self):
        rng = np.random.default_rng(23)
        step = hk.DEFAULT_TOLERANCES.root_tol
        for _ in range(300):
            conic, point_at, fmap = parabola_map(rng)
            cone = random_cone(rng)
            z = interior_point(conic, point_at, rng)
            co = hk.classify_line_image(fmap, [0.0], [1.0]).coeffs
            hits = [(found[1], d) for d in (cone.b, cone.c)
                    if (found := _first_crossing(co, z, d, np.inf,
                                                 step * (1 + np.max(np.abs(z)))))
                    is not None]
            assert hits
            tau, d = min(hits, key=lambda hit: hit[0])
            assert tau >= 0.0
            point = z - tau * d
            scale = conic.coefficient_scale() * (1 + np.max(np.abs(point))) ** 2
            assert abs(conic.evaluate(point)) <= 1e-8 * scale

    def test_breakdown_is_loud(self, monkeypatch):
        # with psi(w) < 0 the geometry guarantees a crossing; if the
        # crossing search comes back empty the witness must raise
        monkeypatch.setattr(witness, "_eliminant_crossings", lambda *a, **kw: [])
        with pytest.raises(NumericalBreakdown):
            std_witness(1.0, -1.0, 0.5)
