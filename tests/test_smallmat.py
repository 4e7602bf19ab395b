import warnings

import numpy as np
import pytest

import hckit as hk
from hckit.errors import InternalNumerics
from hckit.smallmat import quadratic_roots


class TestEigh:
    def test_identity(self):
        dec = hk.eigh(np.eye(2))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0])

    def test_already_diagonal(self):
        dec = hk.eigh([[0.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(dec.eigenvalues, [0.0, 1.0])

    def test_two_by_two(self):
        # characteristic polynomial x^2 - 4x + 3 has roots 1 and 3
        dec = hk.eigh([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_symmetrizes_input(self):
        dec = hk.eigh([[1.0, 2.0], [0.0, 1.0]])
        np.testing.assert_allclose(dec.eigenvalues, [0.0, 2.0], atol=1e-12)

    def test_deterministic(self):
        m = np.random.default_rng(1).uniform(-1, 1, (5, 5))
        a = hk.eigh(m)
        b = hk.eigh(m)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)

    def test_reconstruction_and_orthogonality_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            m = rng.uniform(-5, 5, (n, n))
            m = 0.5 * (m + m.T)
            dec = hk.eigh(m)
            rebuilt = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
            bound = 1e-9 * (1.0 + np.max(np.abs(m)))
            assert np.max(np.abs(rebuilt - m)) <= bound
            orth = dec.eigenvectors.T @ dec.eigenvectors - np.eye(n)
            assert np.max(np.abs(orth)) <= 1e-10
            assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_linalg_error_raises_internal_numerics(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(InternalNumerics, match="did not converge"):
            hk.eigh([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(InternalNumerics, match="did not converge"):
            hk.manifold_from_linear_system([[2.0, 1.0], [1.0, 2.0]], [0.0, 0.0])

    def test_non_finite_input_raises_internal_numerics(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(InternalNumerics):
                hk.eigh([[bad, 0.0], [0.0, 1.0]])
            with pytest.raises(InternalNumerics):
                hk.manifold_from_linear_system([[bad, 0.0]], [0.0])


def kernel(h) -> np.ndarray:
    """Orthonormal basis of ``ker H``: the manifold of ``H x = 0``."""
    h = np.asarray(h, dtype=float)
    return hk.manifold_from_linear_system(h, np.zeros(h.shape[0])).basis


def rank(h) -> int:
    h = np.asarray(h, dtype=float)
    return h.shape[1] - kernel(h).shape[1]


class TestNullSpace:
    def test_axis_aligned(self):
        k = kernel(np.array([[1.0, 0.0]]))
        assert k.shape == (2, 1)
        assert min(np.max(np.abs(k[:, 0] - [0, 1])),
                   np.max(np.abs(k[:, 0] + [0, 1]))) <= 1e-10

    def test_no_constraints(self):
        k = kernel(np.zeros((0, 3)))
        np.testing.assert_allclose(k.T @ k, np.eye(3), atol=1e-12)
        assert k.shape == (3, 3)

    def test_rank_one(self):
        k = kernel(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert k.shape == (2, 1)
        expect = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert min(np.max(np.abs(k[:, 0] - expect)),
                   np.max(np.abs(k[:, 0] + expect))) <= 1e-9

    def test_random_ranks(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            r = int(rng.integers(0, min(m, n) + 1))
            h = (rng.uniform(-2, 2, (m, r)) @ rng.uniform(-2, 2, (r, n))
                 if r else np.zeros((m, n)))
            k = kernel(h)
            if k.shape[1]:
                assert np.max(np.abs(h @ k)) <= 1e-9 * (1 + np.max(np.abs(h)))
                assert np.max(np.abs(k.T @ k - np.eye(k.shape[1]))) <= 1e-9

    def test_rank_counts(self):
        assert rank(np.array([[1.0, 1.0], [1.0, 1.0]])) == 1
        assert rank(np.eye(3)) == 3
        assert rank(np.zeros((2, 2))) == 0

    @pytest.mark.parametrize("ratio", [1e-7, 1e-8])
    def test_small_singular_value_kept(self, ratio):
        # the documented cut is s > rank_tol * s[0]; squaring the spectrum
        # through H^T H would cut near sqrt(eps) instead and lose sigma_2
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        v, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        h = u @ np.diag([1.0, ratio]) @ v[:, :2].T
        d = h @ rng.uniform(-1, 1, 3)
        cut = hk.DEFAULT_TOLERANCES.rank_tol * np.linalg.svd(h, compute_uv=False)[0]
        expected = np.linalg.matrix_rank(h, tol=cut)
        assert expected == 2
        manifold = hk.manifold_from_linear_system(h, d)
        assert manifold.dim == 3 - expected
        assert np.linalg.norm(h @ manifold.x0 - d) <= 1e-12
        assert np.max(np.abs(h @ manifold.basis)) <= 1e-12


class TestMinNormSolution:
    def test_underdetermined(self):
        x = hk.manifold_from_linear_system(np.array([[1.0, 1.0]]), [2.0]).x0
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-10)

    def test_empty(self):
        np.testing.assert_array_equal(
            hk.manifold_from_linear_system(np.zeros((0, 2)), []).x0, np.zeros(2))


class TestQuadraticRoots:
    def test_two_roots_without_cancellation(self):
        # t^2 - 1e8 t + 1: the small root 1e-8 is lost to the textbook formula
        roots = sorted(quadratic_roots(1.0, -1e8, 1.0))
        assert roots[0] == pytest.approx(1e-8, rel=1e-15)
        assert roots[1] == pytest.approx(1e8, rel=1e-15)

    def test_degenerate_forms(self):
        assert quadratic_roots(1.0, 0.0, 1.0) == []
        assert quadratic_roots(1.0, -2.0, 1.0) == [1.0]
        assert quadratic_roots(1.0, 0.0, 0.0) == [0.0]
        assert quadratic_roots(1e-20, 2.0, -4.0) == [2.0]
        assert quadratic_roots(1e-20, 1e-20, 1.0) == []
        assert quadratic_roots(0.0, 0.0, 0.0) == []


def _grid_min(matrix, linear, constant, radius=10.0, step=1e-3):
    """Exact minimum over the uniform grid for n in {1, 2}.

    The quadratic restricted to the last axis is convex or affine here, so
    the grid minimum sits at a neighbor of the clamped vertex or at a box
    end; those candidates reproduce a full scan exactly.
    """
    m = np.asarray(matrix, float)
    lin = np.asarray(linear, float)
    count = int(round(2 * radius / step))
    axis = -radius + step * np.arange(count + 1)
    if m.shape[0] == 1:
        vals = m[0, 0] * axis * axis + lin[0] * axis + constant
        return float(vals.min())
    a = m[1, 1]
    b = 2.0 * m[0, 1] * axis + lin[1]
    c = m[0, 0] * axis * axis + lin[0] * axis + constant
    if a > 0:
        vertex = np.clip(-b / (2 * a), -radius, radius)
        idx = (vertex + radius) / step
        cand_idx = np.stack([np.floor(idx), np.ceil(idx),
                             np.zeros_like(idx), np.full_like(idx, count)])
        cand_idx = np.clip(cand_idx, 0, count).astype(int)
    else:
        cand_idx = np.stack([np.zeros(axis.shape, int),
                             np.full(axis.shape, count, int)])
    ys = axis[cand_idx]
    vals = a * ys * ys + b * ys + c
    return float(vals.min())


class TestMinOfQuadratic:
    @pytest.mark.parametrize("c", [5e-9, 1e-3])
    def test_small_positive_eigenvalue_keeps_its_term(self, c):
        # 1e-12 lies inside the psd_tol band but is positive: the quadratic
        # is bounded, and dropping the term would overstate its infimum
        lam = 1e-12
        res = hk.min_of_quadratic(np.diag([1.0, lam]), [0.0, c], 0.0)
        assert res.bounded
        assert res.value == pytest.approx(-c * c / (4.0 * lam), rel=1e-9)
        np.testing.assert_allclose(res.minimizer, [0.0, -c / (2.0 * lam)], rtol=1e-9)

    def test_rounding_level_eigenvalue_counts_as_zero(self):
        # H = [[1, 1], [1, 1]] is singular; its kernel direction with a
        # linear term along it is a descent direction whatever sign eigh
        # gives the zero eigenvalue
        res = hk.min_of_quadratic([[1.0, 1.0], [1.0, 1.0]], [1.0, -1.0], 0.0)
        assert not res.bounded
        np.testing.assert_allclose(abs(res.direction @ [1.0, -1.0]), np.sqrt(2.0))
        assert res.direction @ [1.0, -1.0] < 0

    def test_shifted_parabola(self):
        res = hk.min_of_quadratic(np.eye(1), [-2.0], 0.0)
        assert res.bounded
        assert res.value == pytest.approx(-1.0, abs=1e-12)
        np.testing.assert_allclose(res.minimizer, [1.0], atol=1e-12)

    def test_negative_definite(self):
        res = hk.min_of_quadratic([[-1.0]], [0.0], 0.0)
        assert not res.bounded
        d = res.direction
        assert d @ np.array([[-1.0]]) @ d < 0

    def test_affine_nonconstant(self):
        res = hk.min_of_quadratic([[0.0]], [1.0], 5.0)
        assert not res.bounded
        np.testing.assert_allclose(res.direction, [-1.0])

    def test_matches_grid_search(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            n = int(rng.integers(1, 3))
            g = rng.uniform(-1.5, 1.5, (n, n))
            m = g.T @ g + 0.2 * np.eye(n)
            lin = rng.uniform(-1.0, 1.0, n)
            const = rng.uniform(-2.0, 2.0)
            res = hk.min_of_quadratic(m, lin, const)
            assert res.bounded
            assert abs(res.value - _grid_min(m, lin, const)) <= 1e-4

    def test_minimizer_stationarity(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            g = rng.uniform(-2, 2, (n, n))
            m = g.T @ g
            x_true = rng.uniform(-2, 2, n)
            lin = -2.0 * m @ x_true      # minimizer exactly x_true
            res = hk.min_of_quadratic(m, lin, 0.0)
            assert res.bounded
            resid = m @ res.minimizer + lin / 2.0
            assert np.max(np.abs(resid)) <= 1e-8 * (1 + np.max(np.abs(lin)))


class TestWarningFree:
    def test_singular_matrix_raises_no_warning(self):
        # the pseudoinverse skips zero eigenvalues without reading
        # uninitialized memory (numpy warns about where= without out=)
        singular = [[1.0, 0.0], [0.0, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = hk.min_of_quadratic(singular, [0.0, 0.0], 0.0)
            x = hk.manifold_from_linear_system(singular, [2.0, 0.0]).x0
        assert res.bounded and res.value == 0.0
        np.testing.assert_allclose(res.minimizer, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(x, [2.0, 0.0], atol=1e-12)
