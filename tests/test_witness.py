import numpy as np
import pytest

import hckit as hk
from hckit.errors import NumericalBreakdown, PreconditionViolated
from hckit.witness import Branch, WitnessCertificate, WitnessTrace
from gen import witness_instance


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
            assert hk.verify_certificate(fmap, cone, w, cert, 1e-6)

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
            if hk.contains(cone, w - u_bar, 1e-7) or hk.contains(cone, w - v_bar, 1e-7):
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
