import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hckit as hk
from hckit import cone2d
from hckit.errors import DegenerateCone
from gen import EXACT


class TestCoords:
    def test_standard_basis(self):
        k = hk.positive_quadrant()
        co = hk.coords(k, (2.0, 3.0))
        assert (co.lam, co.bet) == (2.0, 3.0)

    def test_rotated_basis(self):
        k = hk.Cone2((1.0, 1.0), (-1.0, 1.0))
        co = hk.coords(k, (0.0, 2.0))
        assert co.lam == pytest.approx(1.0, abs=1e-12)
        assert co.bet == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector(self):
        k = hk.Cone2((0.3, 1.7), (-2.0, 0.4))
        co = hk.coords(k, (0.0, 0.0))
        assert (co.lam, co.bet) == (0.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_round_trip(self, lam, bet, seed):
        rng = np.random.default_rng(seed)
        ang = rng.uniform(np.deg2rad(5), np.pi - np.deg2rad(5))
        th = rng.uniform(0, 2 * np.pi)
        k = hk.Cone2((np.cos(th), np.sin(th)), (np.cos(th + ang), np.sin(th + ang)))
        co = hk.coords(k, lam * k.b + bet * k.c)
        scale = 1.0 + max(abs(lam), abs(bet))
        assert abs(co.lam - lam) <= 1e-10 * scale
        assert abs(co.bet - bet) <= 1e-10 * scale


class TestContains:
    def test_positive_quadrant(self):
        k = hk.positive_quadrant()
        assert hk.contains(k, (1.0, 1.0))
        assert not hk.contains(k, (-1.0, 0.0), EXACT)

    def test_rotated(self):
        k = hk.Cone2((1.0, 1.0), (-1.0, 1.0))
        assert not hk.contains(k, (0.0, -1.0))

    def test_additivity(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            ang = rng.uniform(np.deg2rad(5), np.pi - np.deg2rad(5))
            th = rng.uniform(0, 2 * np.pi)
            k = hk.Cone2((np.cos(th), np.sin(th)),
                         (np.cos(th + ang), np.sin(th + ang)))
            p = cone2d.sample(k, 3.0, rng)
            q = cone2d.sample(k, 3.0, rng)
            assert hk.contains(k, p) and hk.contains(k, q)
            assert hk.contains(k, p + q)


class TestSample:
    def test_membership_by_construction(self):
        k = hk.Cone2((2.0, 0.5), (-0.5, 1.0))
        for seed in range(20):
            assert hk.contains(k, cone2d.sample(k, 4.0, seed), EXACT)

    def test_deterministic(self):
        k = hk.positive_quadrant()
        np.testing.assert_array_equal(cone2d.sample(k, 2.0, 99),
                                      cone2d.sample(k, 2.0, 99))

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            cone2d.sample(hk.positive_quadrant(), 0.0, 1)


class TestDegenerate:
    """A dependent cone is refused when it is built, so none is ever queried."""

    def test_parallel_generators(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateCone):
                hk.Cone2((1.0, 2.0), (2.0, 4.0))

    def test_coords_guard(self):
        # the guard that coords once ran is now Cone2's: no query on a
        # parallel pair gets past construction
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateCone):
                hk.coords(cone2d.Cone2(np.array([1.0, 2.0]), np.array([2.0, 4.0])), (1.0, 0.0))

    @pytest.mark.parametrize("query", [hk.coords, hk.contains])
    def test_unvalidated_near_parallel_guard(self, query):
        # det is about 1e-12, nonzero, but below INDEP_TOL * |b| |c| = 1e-9,
        # so building the cone raises before the query runs
        b, c = np.array([1.0, 2.0]), np.array([2.0, 4.0 + 1e-12])
        assert b[0] * c[1] - b[1] * c[0] != 0.0
        assert np.linalg.norm(b) * np.linalg.norm(c) == pytest.approx(10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateCone):
                query(cone2d.Cone2(b, c), (1.0, 0.0))

    @pytest.mark.parametrize("big", [1e308, 1.5e308])
    def test_overflowing_norm_rejected(self, big):
        # |b| overflows to inf at 1.5e308, and inf * |c| = inf * 0 is NaN:
        # a NaN bound still counts as dependent, and no warning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateCone):
                hk.Cone2((big, big), (0.0, 0.0))

    @pytest.mark.parametrize("query", [hk.coords, hk.contains])
    def test_point_length_checked(self, query):
        with pytest.raises(ValueError):
            query(hk.positive_quadrant(), (1.0, 2.0, 3.0))
