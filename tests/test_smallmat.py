import warnings

import numpy as np
import pytest

import hckit as hk
from hckit.errors import InternalNumerics
from hckit.smallmat import min_norm_solution, singular_values


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

    def test_sweep_cap_raises(self):
        cfg = hk.DEFAULT_TOLERANCES.with_overrides(jacobi_max_sweeps=0)
        with pytest.raises(InternalNumerics):
            hk.eigh([[2.0, 1.0], [1.0, 2.0]], cfg)


class TestNullSpace:
    def test_axis_aligned(self):
        k = hk.null_space_basis(np.array([[1.0, 0.0]]), 1e-10)
        assert k.shape == (2, 1)
        assert min(np.max(np.abs(k[:, 0] - [0, 1])),
                   np.max(np.abs(k[:, 0] + [0, 1]))) <= 1e-10

    def test_no_constraints(self):
        k = hk.null_space_basis(np.zeros((0, 3)), 1e-10)
        np.testing.assert_allclose(k.T @ k, np.eye(3), atol=1e-12)
        assert k.shape == (3, 3)

    def test_rank_one(self):
        k = hk.null_space_basis(np.array([[1.0, 1.0], [1.0, 1.0]]), 1e-10)
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
            k = hk.null_space_basis(h, 1e-10)
            if k.shape[1]:
                assert np.max(np.abs(h @ k)) <= 1e-9 * (1 + np.max(np.abs(h)))
                assert np.max(np.abs(k.T @ k - np.eye(k.shape[1]))) <= 1e-9

    def test_rank_counts(self):
        assert hk.numerical_rank(np.array([[1.0, 1.0], [1.0, 1.0]])) == 1
        assert hk.numerical_rank(np.eye(3)) == 3
        assert hk.numerical_rank(np.zeros((2, 2))) == 0

    def test_singular_values_match_numpy(self):
        rng = np.random.default_rng(11)
        h = rng.uniform(-1, 1, (4, 6))
        np.testing.assert_allclose(singular_values(h)[:4],
                                   np.linalg.svd(h, compute_uv=False),
                                   atol=1e-10)


class TestMinNormSolution:
    def test_underdetermined(self):
        x = min_norm_solution(np.array([[1.0, 1.0]]), [2.0])
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-10)

    def test_empty(self):
        np.testing.assert_array_equal(min_norm_solution(np.zeros((0, 2)), []),
                                      np.zeros(2))


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
            x = min_norm_solution(singular, [2.0, 0.0])
        assert res.bounded and res.value == 0.0
        np.testing.assert_allclose(res.minimizer, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(x, [2.0, 0.0], atol=1e-12)
