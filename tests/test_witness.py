import numpy as np
import pytest

import hckit as hk
from hckit.errors import NumericalBreakdown, PreconditionViolated
from hckit.witness import Branch, WitnessCertificate, WitnessTrace
from gen import flat_stress_instance, witness_instance

VERIFY_CFG = hk.DEFAULT_TOLERANCES.with_overrides(cert_tol=1e-6)
LOOSE = hk.DEFAULT_TOLERANCES.with_overrides(cone_tol=1e-7)


def parabola_map() -> hk.QuadraticMap:
    return hk.QuadraticMap(hk.QuadraticForm([[1.0]], [0.0], 0.0),
                           hk.QuadraticForm([[0.0]], [1.0], 0.0))


class TestWorkedExamples:
    def test_parabola_ray_hit(self):
        fmap = parabola_map()
        cone = hk.positive_quadrant()
        pu = hk.cone_point(fmap, cone, [1.0], [0.0, 0.0])
        pv = hk.cone_point(fmap, cone, [-1.0], [0.0, 0.0])
        cert = hk.witness_convex_combination(fmap, cone, pu, pv, 0.5)
        assert cert.branch is Branch.PARABOLA_RAY_HIT
        np.testing.assert_allclose(cert.x_star, [0.0], atol=1e-9)
        np.testing.assert_allclose(cert.e_star, [1.0, 0.0], atol=1e-9)
        w = 0.5 * pu.value + 0.5 * pv.value
        np.testing.assert_allclose(hk.eval_map(fmap, cert.x_star) + cert.e_star,
                                   w, atol=1e-12)
        assert hk.verify_certificate(fmap, cone, w, cert)

    def test_identical_endpoints(self):
        fmap = parabola_map()
        cone = hk.positive_quadrant()
        pu = hk.cone_point(fmap, cone, [1.0], [0.0, 0.0])
        cert = hk.witness_convex_combination(fmap, cone, pu, pu, 0.5)
        assert cert.branch is Branch.CASE1_U
        np.testing.assert_allclose(cert.e_star, [0.0, 0.0], atol=1e-12)

    def test_ray_image(self):
        fmap = hk.QuadraticMap(hk.QuadraticForm([[1.0]], [0.0], 0.0),
                               hk.QuadraticForm([[2.0]], [0.0], 0.0))
        cone = hk.positive_quadrant()
        pu = hk.cone_point(fmap, cone, [1.0], [0.0, 0.0])
        pv = hk.cone_point(fmap, cone, [2.0], [0.0, 0.0])
        cert = hk.witness_convex_combination(fmap, cone, pu, pv, 0.5)
        assert cert.branch is Branch.RAY_OR_LINE
        np.testing.assert_allclose(cert.x_star, [np.sqrt(2.5)], atol=1e-9)
        np.testing.assert_allclose(cert.e_star, [0.0, 0.0], atol=1e-9)


class TestVerifyCertificate:
    def test_valid(self):
        fmap = parabola_map()
        cone = hk.positive_quadrant()
        cert = WitnessCertificate(np.array([0.0]), np.array([1.0, 0.0]),
                                  Branch.PARABOLA_RAY_HIT, WitnessTrace())
        assert hk.verify_certificate(fmap, cone, [1.0, 0.0], cert)

    def test_cone_violation(self):
        fmap = parabola_map()
        cone = hk.positive_quadrant()
        cert = WitnessCertificate(np.array([1.0]), np.array([-1.0, 0.0]),
                                  Branch.CASE1_U, WitnessTrace())
        assert not hk.verify_certificate(fmap, cone, [0.0, 1.0], cert)

    def test_residual_violation(self):
        fmap = parabola_map()
        cone = hk.positive_quadrant()
        cert = WitnessCertificate(np.array([1.0]), np.array([1.0, 0.0]),
                                  Branch.PARABOLA_RAY_HIT, WitnessTrace())
        assert not hk.verify_certificate(fmap, cone, [1.0, 0.0], cert)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["x_star", "e_star", "w"])
    def test_non_finite_never_verifies(self, where, bad):
        # every coordinate: a max over the two that skips a NaN would let
        # w = (1, NaN) through
        fmap = parabola_map()
        cone = hk.positive_quadrant()
        for index in range(1 if where == "x_star" else 2):
            parts = {"x_star": [0.0], "e_star": [1.0, 0.0], "w": [1.0, 0.0]}
            parts[where][index] = bad
            cert = WitnessCertificate(np.array(parts["x_star"]), np.array(parts["e_star"]),
                                      Branch.PARABOLA_RAY_HIT, WitnessTrace())
            assert not hk.verify_certificate(fmap, cone, parts["w"], cert), index

    @pytest.mark.parametrize("scale", np.geomspace(1e-6, 1e10, 9))
    def test_cone_slack_refuses_forged_angle(self, scale):
        # e* leaves the cone past b or c by 100 cert_tol or more; map, w,
        # generators and e* all carry the scale, the two generators' lengths
        # differ by up to 1e6 either way, and |e*| ranges from the longer
        # generator's length to 1e8 times it, where a ray-hit e* lives
        tol = hk.DEFAULT_TOLERANCES.cert_tol
        fmap = hk.QuadraticMap(hk.QuadraticForm([[scale]], [0.0], 0.0),
                               hk.QuadraticForm([[0.0]], [scale], 0.0))
        rng = np.random.default_rng(60)     # the same cones at every scale
        for angle in np.geomspace(1e-2, 179.0, 7):
            for ratio in (1e-6, 1e-3, 1.0, 1e3, 1e6):
                th = rng.uniform(0.0, 2.0 * np.pi)
                ang = np.deg2rad(angle)
                b = scale * rng.uniform(0.5, 2.0) * np.array([np.cos(th), np.sin(th)])
                c = ratio * scale * rng.uniform(0.5, 2.0) * np.array(
                    [np.cos(th + ang), np.sin(th + ang)])
                cone = hk.make_cone(b, c)
                longest = max(cone.b_norm, cone.c_norm)
                for out in (100.0 * tol, 1e-3, 0.5):
                    for edge, turn in ((b, -out), (c, out)):
                        rot = np.array([[np.cos(turn), -np.sin(turn)],
                                        [np.sin(turn), np.cos(turn)]])
                        away = rot @ edge / np.linalg.norm(edge)
                        for reach in (1.0, 1e4, 1e8):
                            e = reach * longest * away
                            cert = WitnessCertificate(np.array([0.0]), e, Branch.CASE1_U,
                                                      WitnessTrace())
                            assert not hk.verify_certificate(fmap, cone, e, cert), (
                                angle, ratio, out, reach)

    @pytest.mark.parametrize("b, c, e", [
        ((1e9, 0.0), (0.0, 1e9), (-1e300, 0.0)),     # Cramer numerator overflows
        ((1e-20, 0.0), (0.0, 1.0), (-1e300, 0.0)),   # slack overflows too
        ((1e-20, 0.0), (0.0, 1.0), (1e300, -1e300)),
    ])
    def test_overflowing_cone_test_never_verifies(self, b, c, e):
        # finite x*, w and F(x*) + e* = w, with e* outside the cone: an
        # infinite slack or coordinate must not compare as in the cone
        fmap = parabola_map()
        cert = WitnessCertificate(np.array([0.0]), np.array(e), Branch.CASE1_U,
                                  WitnessTrace())
        assert not hk.verify_certificate(fmap, hk.make_cone(b, c), e, cert)

    def test_cone_slack_accepts_ray_hit_rounding(self):
        # e* = tau*b with tau up to 1e10 in cones down to 0.02 degrees:
        # Cramer's rule puts the other coordinate at about -eps*tau/angle,
        # which an absolute slack of cert_tol refuses
        fmap = parabola_map()
        rng = np.random.default_rng(9)
        refused_absolute = 0
        for _ in range(400):
            th = rng.uniform(0.0, 2.0 * np.pi)
            ang = np.deg2rad(10.0 ** rng.uniform(np.log10(0.02), np.log10(2.3)))
            cone = hk.make_cone(rng.uniform(0.5, 2.0) * np.array([np.cos(th), np.sin(th)]),
                                rng.uniform(0.5, 2.0) * np.array([np.cos(th + ang),
                                                                  np.sin(th + ang)]))
            edge = cone.b if rng.uniform() < 0.5 else cone.c
            e = 10.0 ** rng.uniform(6.0, 10.0) * edge
            co = hk.coords(cone, e)
            refused_absolute += min(co.lam, co.bet) < -hk.DEFAULT_TOLERANCES.cert_tol
            cert = WitnessCertificate(np.array([0.0]), e, Branch.PARABOLA_RAY_HIT,
                                      WitnessTrace())
            assert hk.verify_certificate(fmap, cone, e, cert)
        assert refused_absolute > 0


class TestPreconditions:
    def test_alpha_bounds(self):
        fmap = parabola_map()
        cone = hk.positive_quadrant()
        pu = hk.cone_point(fmap, cone, [1.0], [0.0, 0.0])
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(PreconditionViolated):
                hk.witness_convex_combination(fmap, cone, pu, pu, alpha)

    def test_cone_point_validation(self):
        fmap = parabola_map()
        cone = hk.positive_quadrant()
        with pytest.raises(PreconditionViolated):
            hk.cone_point(fmap, cone, [1.0], [-1.0, 0.0])


class TestSoundness:
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_random_instances(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(150):
            fmap, cone, pu, pv, alpha = witness_instance(rng, n)
            w = alpha * pu.value + (1 - alpha) * pv.value
            cert = hk.witness_convex_combination(fmap, cone, pu, pv, alpha)
            assert hk.verify_certificate(fmap, cone, w, cert, VERIFY_CFG)

    def test_flat_image_stress(self):
        # on a ray or line image the point is a root on [0, 1] of the pivot
        # polynomial (IVT), so x* = x_u + t (x_v - x_u) with t in [0, 1]
        rng = np.random.default_rng(1010)
        off_segment = []
        for i, angle in enumerate(np.geomspace(0.01, 179.99, 1000)):
            fmap, cone, pu, pv, alpha = flat_stress_instance(rng, (1, 2, 3, 6)[i % 4], angle)
            w = alpha * pu.value + (1 - alpha) * pv.value
            cert = hk.witness_convex_combination(fmap, cone, pu, pv, alpha)
            assert hk.verify_certificate(fmap, cone, w, cert), (i, cert.branch)
            d = pv.x - pu.x
            t = float((cert.x_star - pu.x) @ d) / float(d @ d)
            size = np.max(np.abs(pu.x)) + np.max(np.abs(d))
            if not (-1e-12 <= t <= 1.0 + 1e-12
                    and np.max(np.abs(cert.x_star - pu.x - t * d)) <= 1e-12 * size):
                off_segment.append(i)
        assert off_segment == [], f"{len(off_segment)} x* off the segment"

    def test_idempotent_membership(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            fmap, cone, pu, _, _ = witness_instance(rng, n)
            cert = hk.witness_convex_combination(fmap, cone, pu, pu, 0.5)
            value = hk.eval_map(fmap, cert.x_star) + cert.e_star
            scale = 1 + np.max(np.abs(pu.value))
            assert np.max(np.abs(value - pu.value)) <= 1e-9 * scale

    def test_trace_contracts_under_case2_hypothesis(self):
        # when neither mapped endpoint already lies in w - cone, a crossing
        # (or the flat image) decides, and e* is assembled from the recorded
        # nonnegative cone coordinates rather than recovered by subtraction
        rng = np.random.default_rng(77)
        seen = 0
        while seen < 400:
            n = int(rng.integers(1, 5))
            fmap, cone, pu, pv, alpha = witness_instance(rng, n)
            w = alpha * pu.value + (1 - alpha) * pv.value
            u_bar = hk.eval_map(fmap, pu.x)
            v_bar = hk.eval_map(fmap, pv.x)
            if hk.contains(cone, w - u_bar, LOOSE) or hk.contains(cone, w - v_bar, LOOSE):
                continue
            cert = hk.witness_convex_combination(fmap, cone, pu, pv, alpha)
            tr = cert.trace
            assert cert.branch not in (Branch.CASE1_U, Branch.CASE1_V)
            assert tr.lam >= 0.0 and tr.gam >= 0.0
            if cert.branch is Branch.RAY_OR_LINE:
                expected = tr.lam * cone.b + tr.gam * cone.c
            else:
                assert tr.ray_direction in ("b", "c")
                assert tr.ray_t >= 0.0
                if cert.branch is Branch.PARABOLA_RAY_HIT:
                    assert tr.psi_w < 0.0
                    expected = tr.ray_t * (cone.b if tr.ray_direction == "b" else cone.c)
                else:
                    assert tr.psi_w >= 0.0
                    assert tr.ray_t <= tr.lam + tr.gam
                    if tr.ray_direction == "b":
                        assert tr.ray_t <= tr.lam
                        expected = tr.ray_t * cone.b
                    else:
                        assert tr.ray_t <= tr.gam
                        expected = tr.lam * cone.b + tr.ray_t * cone.c
            np.testing.assert_array_equal(cert.e_star, expected)
            seen += 1

    def test_breakdown_carries_trace(self, monkeypatch):
        # neither endpoint is cone-reachable from w here, so with the one
        # crossing routine finding nothing the construction must fail
        # loudly, trace attached
        fmap = parabola_map()
        cone = hk.positive_quadrant()
        pu = hk.cone_point(fmap, cone, [-2.0], [0.0, 0.0])
        pv = hk.cone_point(fmap, cone, [1.0], [0.0, 0.0])
        from hckit import witness

        monkeypatch.setattr(witness, "_eliminant_crossings", lambda *a, **kw: [])
        with pytest.raises(NumericalBreakdown) as err:
            hk.witness_convex_combination(fmap, cone, pu, pv, 0.5)
        trace = err.value.trace
        assert trace is not None
        assert trace.image_kind == "Parabola"
        assert trace.psi_w < 0.0
        assert trace.ray_direction == ""


class TestConvexityProbe:
    def test_parabola_map_clean(self):
        report = hk.convexity_probe(parabola_map(), hk.positive_quadrant(),
                                    trials=300, rng_seed=5, box_radius=3.0)
        assert report.consistent
        assert report.failures == []
        assert report.max_residual <= 1e-9

    def test_deterministic(self):
        fmap = parabola_map()
        cone = hk.positive_quadrant()
        rep1 = hk.convexity_probe(fmap, cone, 50, rng_seed=9, box_radius=2.0)
        rep2 = hk.convexity_probe(fmap, cone, 50, rng_seed=9, box_radius=2.0)
        assert rep1.summary == rep2.summary
        assert rep1.max_residual == rep2.max_residual
        assert rep1.branch_counts == rep2.branch_counts

    def test_trials_validation(self):
        with pytest.raises(PreconditionViolated):
            hk.convexity_probe(parabola_map(), hk.positive_quadrant(), 0, 1, 1.0)

    def test_box_validation(self):
        with pytest.raises(PreconditionViolated):
            hk.convexity_probe(parabola_map(), hk.positive_quadrant(), 1, 1, 0.0)
