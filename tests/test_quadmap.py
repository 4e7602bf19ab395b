import numpy as np
import pytest

import hckit as hk
from hckit.errors import DegenerateLine, DimensionMismatch, InconsistentSystem
from hckit.quadmap import LineImageKind
from gen import random_form, random_map, rank_deficient_map
from preimage import NotOnImage, preimage_on_line


def paraboloid_line_map() -> hk.QuadraticMap:
    """F = (x^2, x) on the reals."""
    return hk.QuadraticMap(hk.QuadraticForm([[1.0]], [0.0], 0.0),
                           hk.QuadraticForm([[0.0]], [1.0], 0.0))


def double_square_map() -> hk.QuadraticMap:
    """F = (x^2, 2 x^2) on the reals."""
    return hk.QuadraticMap(hk.QuadraticForm([[1.0]], [0.0], 0.0),
                           hk.QuadraticForm([[2.0]], [0.0], 0.0))


def _scaled(q: hk.QuadraticForm, factor: float) -> hk.QuadraticForm:
    return hk.QuadraticForm(factor * q.matrix, factor * q.linear,
                            factor * q.constant)


class TestEvalMap:
    def test_basic(self):
        np.testing.assert_allclose(hk.eval_map(paraboloid_line_map(), [2.0]), [4.0, 2.0])

    def test_origin(self):
        np.testing.assert_allclose(hk.eval_map(paraboloid_line_map(), [0.0]), [0.0, 0.0])

    def test_two_dim(self):
        f = hk.QuadraticForm(np.eye(2), [0.0, 0.0], 0.0)
        g = hk.QuadraticForm(np.zeros((2, 2)), [1.0, 1.0], 1.0)
        np.testing.assert_allclose(hk.eval_map(hk.QuadraticMap(f, g), [1.0, -1.0]),
                                   [2.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hk.eval_map(paraboloid_line_map(), [1.0, 2.0])


class TestLineCoeffs:
    def test_parabola_map(self):
        co = hk.classify_line_image(paraboloid_line_map(), [0.0], [1.0]).coeffs
        assert co.as_array() == pytest.approx([1, 0, 0, 0, 1, 0])

    def test_proportional_map(self):
        co = hk.classify_line_image(double_square_map(), [0.0], [1.0]).coeffs
        assert co.as_array() == pytest.approx([1, 0, 0, 2, 0, 0])

    def test_constant_map(self):
        zero = hk.QuadraticForm(np.zeros((2, 2)), [0.0, 0.0], 3.0)
        zero2 = hk.QuadraticForm(np.zeros((2, 2)), [0.0, 0.0], -1.0)
        co = hk.classify_line_image(hk.QuadraticMap(zero, zero2), [0.0, 0.0],
                                    [1.0, 0.0]).coeffs
        assert co.as_array() == pytest.approx([0, 0, 3, 0, 0, -1])

    def test_degenerate_line(self):
        with pytest.raises(DegenerateLine):
            hk.classify_line_image(paraboloid_line_map(), [1.0], [1.0])

    def test_polynomial_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            fmap = random_map(rng, n)
            xb = rng.uniform(-3, 3, n)
            yb = rng.uniform(-3, 3, n)
            if np.max(np.abs(yb - xb)) < 1e-6:
                continue
            co = hk.classify_line_image(fmap, xb, yb).coeffs
            scale = co.scale()
            d = yb - xb
            for t in rng.uniform(-3, 3, 50):
                via_poly = np.array([
                    (co.alpha * t + co.beta) * t + co.gamma,
                    (co.alpha_p * t + co.beta_p) * t + co.gamma_p])
                direct = hk.eval_map(fmap, xb + t * d)
                assert np.max(np.abs(direct - via_poly)) <= 1e-9 * scale


class TestClassifyLineImage:
    def test_parabola(self):
        img = hk.classify_line_image(paraboloid_line_map(), [0.0], [1.0])
        assert img.kind is LineImageKind.PARABOLA
        # psi proportional (positive factor) to y2^2 - y1
        kappa = img.conic.A[1, 1]
        assert kappa > 0
        np.testing.assert_allclose(img.conic.A, kappa * np.diag([0.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(img.conic.a, kappa * np.array([-1.0, 0.0]), atol=1e-12)
        assert img.conic.a0 == pytest.approx(0.0, abs=1e-12)

    def test_parabola_conic_on_demand(self, monkeypatch):
        # classification never builds the conic; the first read expands it
        # from the payload exactly as classification once did
        from hckit import quadmap
        rng = np.random.default_rng(21)
        fmap = random_map(rng, 3)
        xb, yb = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
        with monkeypatch.context() as patched:
            def refuse(*args):
                raise AssertionError("Conic2 built during classification")
            patched.setattr(quadmap, "Conic2", refuse)
            img = hk.classify_line_image(fmap, xb, yb)
        assert img.kind is LineImageKind.PARABOLA
        co = img.coeffs
        swap = abs(co.alpha) < abs(co.alpha_p)
        qa, qb, qc = co.row(int(swap))
        la, lb, lc = co.row(int(not swap))
        k = la / qa
        slope = lb - k * qb
        offset = lc - k * qc
        sigma = np.copysign(1.0, qa)
        row = np.array([1.0, -k]) if swap else np.array([-k, 1.0])
        first = np.array([0.0, 1.0]) if swap else np.array([1.0, 0.0])
        s2 = slope * slope
        np.testing.assert_array_equal(img.conic.A, sigma * (qa / s2) * np.outer(row, row))
        np.testing.assert_array_equal(
            img.conic.a, sigma * ((qb / slope - 2.0 * qa * offset / s2) * row - first))
        assert img.conic.a0 == sigma * (qa * offset * offset / s2 - qb * offset / slope + qc)

    def test_flat_images_have_no_conic(self):
        assert hk.classify_line_image(double_square_map(), [0.0], [1.0]).conic is None

    def test_ray(self):
        img = hk.classify_line_image(double_square_map(), [0.0], [1.0])
        assert img.kind is LineImageKind.RAY
        np.testing.assert_allclose(img.apex, [0.0, 0.0], atol=1e-12)
        dir_unit = img.ray_direction / np.linalg.norm(img.ray_direction)
        np.testing.assert_allclose(dir_unit, np.array([1.0, 2.0]) / np.sqrt(5.0),
                                   atol=1e-12)

    def test_line(self):
        fmap = hk.QuadraticMap(hk.QuadraticForm([[0.0]], [1.0], 0.0),
                               hk.QuadraticForm([[0.0]], [2.0], 1.0))
        img = hk.classify_line_image(fmap, [0.0], [1.0])
        assert img.kind is LineImageKind.LINE
        np.testing.assert_allclose(img.line_point, [0.0, 1.0])
        cross = img.line_direction[0] * 2.0 - img.line_direction[1] * 1.0
        assert cross == pytest.approx(0.0, abs=1e-12)

    def test_point(self):
        zero = hk.QuadraticForm(np.zeros((1, 1)), [0.0], 2.0)
        zero2 = hk.QuadraticForm(np.zeros((1, 1)), [0.0], -1.0)
        img = hk.classify_line_image(hk.QuadraticMap(zero, zero2), [0.0], [1.0])
        assert img.kind is LineImageKind.POINT
        np.testing.assert_allclose(img.point, [2.0, -1.0])

    def test_parabola_payload_soundness(self):
        rng = np.random.default_rng(29)
        seen = set()
        for _ in range(200):
            n = int(rng.integers(1, 7))
            fmap = random_map(rng, n) if rng.uniform() < 0.8 else rank_deficient_map(rng, n)
            xb, yb = rng.uniform(-3, 3, n), rng.uniform(-3, 3, n)
            if np.max(np.abs(yb - xb)) < 1e-6:
                continue
            img = hk.classify_line_image(fmap, xb, yb)
            seen.add(img.kind)
            d = yb - xb
            if img.kind is LineImageKind.PARABOLA:
                lam = hk.eigh(img.conic.A).eigenvalues
                assert lam[0] >= -1e-9 * (1 + lam[1]) and lam[1] > 0
                for t in rng.uniform(-3, 3, 100):
                    pt = hk.eval_map(fmap, xb + t * d)
                    scale = (img.conic.coefficient_scale()
                             * (1 + np.max(np.abs(pt))) ** 2)
                    assert abs(img.conic.evaluate(pt)) <= 1e-7 * scale
            elif img.kind is LineImageKind.RAY:
                dn = img.ray_direction / np.linalg.norm(img.ray_direction)
                for t in rng.uniform(-3, 3, 50):
                    pt = hk.eval_map(fmap, xb + t * d)
                    along = (pt - img.apex) @ dn
                    scale = 1 + np.max(np.abs(pt))
                    assert along >= -1e-7 * scale
        assert LineImageKind.PARABOLA in seen


class TestPreimage:
    def test_parabola_unique(self):
        fmap = paraboloid_line_map()
        img = hk.classify_line_image(fmap, [0.0], [1.0])
        x = preimage_on_line(img, [0.0], [1.0], (4.0, -2.0))
        np.testing.assert_allclose(x, [-2.0], atol=1e-12)

    def test_ray_either_root(self):
        fmap = double_square_map()
        img = hk.classify_line_image(fmap, [0.0], [1.0])
        x = preimage_on_line(img, [0.0], [1.0], (9.0, 18.0))
        assert abs(x[0]) == pytest.approx(3.0, abs=1e-9)
        np.testing.assert_allclose(hk.eval_map(fmap, x), [9.0, 18.0], atol=1e-9)

    def test_point_returns_base(self):
        zero = hk.QuadraticForm(np.zeros((1, 1)), [0.0], 2.0)
        zero2 = hk.QuadraticForm(np.zeros((1, 1)), [0.0], -1.0)
        fmap = hk.QuadraticMap(zero, zero2)
        img = hk.classify_line_image(fmap, [0.5], [1.0])
        np.testing.assert_allclose(preimage_on_line(img, [0.5], [1.0], (2.0, -1.0)),
                                   [0.5])

    def test_near_constant_point_image(self):
        # nonconstant terms at 1e-12 still make a point image; a target 1e-8
        # off it is on it to tolerance, while Gauss-Newton from t = 0
        # (derivative 1e-12) runs to t in the thousands and misses it by 2e-5
        f = hk.QuadraticForm([[1e-12]], [1e-12], 1.0)
        g = hk.QuadraticForm([[0.0]], [0.0], -1.0)
        img = hk.classify_line_image(hk.QuadraticMap(f, g), [0.0], [1.0])
        assert img.kind is LineImageKind.POINT
        x = preimage_on_line(img, [0.0], [1.0], (1.0 + 1e-8, -1.0))
        np.testing.assert_array_equal(x, [0.0])

    def test_off_image_rejected(self):
        fmap = paraboloid_line_map()
        img = hk.classify_line_image(fmap, [0.0], [1.0])
        with pytest.raises(NotOnImage):
            preimage_on_line(img, [0.0], [1.0], (0.0, 5.0))

    def test_beyond_apex_rejected(self):
        fmap = double_square_map()
        img = hk.classify_line_image(fmap, [0.0], [1.0])
        with pytest.raises(NotOnImage):
            preimage_on_line(img, [0.0], [1.0], (-1.0, -2.0))

    def test_round_trip(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            fmap = random_map(rng, n) if rng.uniform() < 0.8 else rank_deficient_map(rng, n)
            xb, yb = rng.uniform(-3, 3, n), rng.uniform(-3, 3, n)
            if np.max(np.abs(yb - xb)) < 1e-6:
                continue
            img = hk.classify_line_image(fmap, xb, yb)
            t0 = rng.uniform(-2, 2)
            target = hk.eval_map(fmap, xb + t0 * (yb - xb))
            x = preimage_on_line(img, xb, yb, target)
            scale = img.coeffs.scale()
            assert np.max(np.abs(hk.eval_map(fmap, x) - target)) <= 1e-6 * scale

    def test_parabola_at_separated_scales(self):
        # f at 1e8 and g at 0.1: the flat/parabola split weighs each image
        # polynomial at its own size, and the preimage recovers both
        rng = np.random.default_rng(41)
        for _ in range(50):
            base = random_map(rng, 2)
            fmap = hk.QuadraticMap(
                hk.QuadraticForm(1e8 * base.f.matrix, 1e8 * base.f.linear,
                                 1e8 * base.f.constant),
                hk.QuadraticForm(0.1 * base.g.matrix, 0.1 * base.g.linear,
                                 0.1 * base.g.constant))
            xb, yb = rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2)
            img = hk.classify_line_image(fmap, xb, yb)
            assert img.kind is LineImageKind.PARABOLA
            t0 = rng.uniform(-2, 2)
            target = hk.eval_map(fmap, xb + t0 * (yb - xb))
            x = preimage_on_line(img, xb, yb, target)
            np.testing.assert_allclose(x, xb + t0 * (yb - xb), rtol=0, atol=1e-9)
            co = img.coeffs
            g_scale = 1 + max(abs(co.alpha_p), abs(co.beta_p), abs(co.gamma_p))
            assert abs(hk.eval_map(fmap, x)[1] - target[1]) <= 1e-9 * g_scale

    def test_off_scale_target_refused(self):
        # f at 1e8 and g at 0.1: a target ten g-sizes off in g is within
        # 1e-7 of f's size, yet off the image; each ray's apex, where
        # rounding can leave the pivot solve without a real root, maps back
        rng = np.random.default_rng(43)
        kinds = [LineImageKind.PARABOLA, LineImageKind.RAY, LineImageKind.LINE]
        for i in range(90):
            kind = kinds[i % 3]
            f = random_form(rng, 2)
            if kind is LineImageKind.PARABOLA:
                g = random_form(rng, 2)
            elif kind is LineImageKind.RAY:
                k = rng.uniform(-2, 2)
                g = hk.QuadraticForm(k * f.matrix, k * f.linear,
                                     k * f.constant + rng.uniform(-2, 2))
            else:
                f = hk.QuadraticForm(np.zeros((2, 2)), f.linear, f.constant)
                g = hk.QuadraticForm(np.zeros((2, 2)), rng.uniform(-2, 2, 2),
                                     rng.uniform(-2, 2))
            fmap = hk.QuadraticMap(_scaled(f, 1e8), _scaled(g, 0.1))
            xb, yb = rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2)
            img = hk.classify_line_image(fmap, xb, yb)
            assert img.kind is kind
            co = img.coeffs
            g_scale = 1 + max(map(abs, co.row(1)))
            target = np.array(co.at(rng.uniform(-2, 2))) + [0.0, 10 * g_scale]
            with pytest.raises(NotOnImage):
                preimage_on_line(img, xb, yb, target)
            if kind is LineImageKind.RAY:
                a, b, _ = co.row(img.pivot)
                apex = np.array(co.at(-b / (2 * a)))
                x = preimage_on_line(img, xb, yb, apex)
                miss = np.abs(hk.eval_map(fmap, x) - apex)
                sizes = [1 + max(map(abs, co.row(k))) for k in (0, 1)]
                assert np.all(miss <= 1e-9 * np.array(sizes))


class TestManifolds:
    def test_identity_restriction(self):
        fmap = random_map(np.random.default_rng(4), 3)
        manifold = hk.AffineManifold(np.zeros(3), np.eye(3))
        reduced = hk.restrict_to_manifold(fmap, manifold)
        z = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(hk.eval_map(reduced, z), hk.eval_map(fmap, z),
                                   atol=1e-12)

    def test_substitution(self):
        # x1^2 + x2^2 restricted to {(1, z)} is z^2 + 1
        f = hk.QuadraticForm(np.eye(2), [0.0, 0.0], 0.0)
        fmap = hk.QuadraticMap(f, hk.QuadraticForm(np.zeros((2, 2)), [0, 0], 0.0))
        manifold = hk.AffineManifold([1.0, 0.0], [[0.0], [1.0]])
        reduced = hk.restrict_to_manifold(fmap, manifold)
        assert reduced.f([2.0]) == pytest.approx(5.0)
        assert reduced.f([0.0]) == pytest.approx(1.0)

    def test_zero_dimensional(self):
        fmap = random_map(np.random.default_rng(8), 2)
        manifold = hk.AffineManifold([0.5, -0.5], np.zeros((2, 0)))
        reduced = hk.restrict_to_manifold(fmap, manifold)
        np.testing.assert_allclose(hk.eval_map(reduced, []),
                                   hk.eval_map(fmap, [0.5, -0.5]))

    def test_restriction_consistency(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, n))
            fmap = random_map(rng, n)
            h = rng.uniform(-2, 2, (m, n))
            d = h @ rng.uniform(-2, 2, n)
            manifold = hk.manifold_from_linear_system(h, d)
            reduced = hk.restrict_to_manifold(fmap, manifold)
            for _ in range(100):
                z = rng.uniform(-3, 3, manifold.dim)
                lhs = hk.eval_map(reduced, z)
                rhs = hk.eval_map(fmap, manifold.embed(z))
                scale = 1 + np.max(np.abs(rhs))
                assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    def test_linear_system_examples(self):
        manifold = hk.manifold_from_linear_system([[1.0, 0.0]], [1.0])
        np.testing.assert_allclose(manifold.x0, [1.0, 0.0], atol=1e-10)
        assert manifold.dim == 1
        assert abs(manifold.basis[0, 0]) <= 1e-10

        empty = hk.manifold_from_linear_system(np.zeros((0, 2)), [])
        np.testing.assert_array_equal(empty.x0, [0.0, 0.0])
        np.testing.assert_allclose(empty.basis, np.eye(2))

        sym = hk.manifold_from_linear_system([[1.0, 1.0]], [2.0])
        np.testing.assert_allclose(sym.x0, [1.0, 1.0], atol=1e-9)
        assert abs(sym.basis[0, 0] + sym.basis[1, 0]) <= 1e-9

    @pytest.mark.parametrize("ratio", [1e-7, 1e-8, 1e-9])
    def test_consistent_along_small_singular_value(self, ratio):
        # d has an O(1) part along the small singular direction, so x0 is
        # about 1/ratio long and the residual scales with |H| |x0|, not |d|
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        v, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        h = u @ np.diag([1.0, ratio]) @ v[:, :2].T
        d = u[:, 0] + u[:, 1]
        manifold = hk.manifold_from_linear_system(h, d)
        assert manifold.dim == 1
        assert np.linalg.norm(h @ manifold.x0 - d) <= 1e-6
        assert np.max(np.abs(h @ manifold.basis)) <= 1e-12

    def test_inconsistent_system(self):
        with pytest.raises(InconsistentSystem):
            hk.manifold_from_linear_system([[1.0, 1.0], [1.0, 1.0]], [0.0, 1.0])

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(ValueError):
            hk.AffineManifold([0.0, 0.0], [[1.0], [1.0]])
