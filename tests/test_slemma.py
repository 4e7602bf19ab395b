import math

import numpy as np
import pytest

import hckit as hk
from hckit.errors import SlaterViolated
from hckit.slemma import FEAS_TOL, SLACK, STRICT_MARGIN, Outcome, combine
from gen import slater_instance
from oracle import DimensionTooLarge, brute_force_oracle


def form1(mat, lin, const):
    return hk.QuadraticForm([[mat]], [lin], const)


def dual_value(f, g, lam):
    """The dual ``inf_x (f + lam g)(x)``, finite or ``-inf``."""
    h = combine(f, g, lam)
    res = hk.min_of_quadratic(h.matrix, h.linear, h.constant)
    return res.value if res.bounded else -math.inf


def thin_margin_instance(rng, n: int):
    """``f = S - lam0 g`` with ``S = r^T r`` of rank ``n - 1`` and ``min S >= 0``.

    ``lam0`` is a multiplier, and ``f + lam0 g = S`` is singular: the PSD
    cone is touched with no eigenvalue margin.
    """
    _, g, x_star = slater_instance(rng, n)
    lam0 = rng.uniform(0.1, 3.0)
    r = rng.uniform(-1.5, 1.5, size=(n - 1, n))
    s = r.T @ r
    z = rng.uniform(-2.0, 2.0, n)
    f = hk.QuadraticForm(s - lam0 * g.matrix, -2.0 * s @ z - lam0 * g.linear,
                         z @ s @ z + rng.uniform(0.0, 1.0) - lam0 * g.constant)
    return f, g, x_star


class TestSlaterCheck:
    def test_linear(self):
        assert hk.slater_check(form1(0, 1, 0), [-1.0])

    def test_nonnegative_form(self):
        assert not hk.slater_check(form1(1, 0, 0), [0.7])

    def test_shifted_square(self):
        assert hk.slater_check(form1(1, 0, -1), [0.0])


class TestDualValue:
    def test_zero_multiplier(self):
        assert dual_value(form1(1, 0, 0), form1(0, 1, 0), 0.0) == 0.0

    def test_completed_square(self):
        # inf (x^2 + 2x) = -1 at x = -1
        assert dual_value(form1(1, 0, 0), form1(0, 1, 0), 2.0) == pytest.approx(-1.0)

    def test_unbounded(self):
        assert dual_value(form1(-1, 0, 0), form1(1, 0, 0), 0.5) == -math.inf

    def test_concavity(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            f, g, _ = slater_instance(rng, n)
            lams = np.sort(rng.uniform(0.0, 5.0, 3))
            if lams[2] - lams[0] < 1e-3:
                continue
            vals = [dual_value(f, g, lam) for lam in lams]
            if not all(math.isfinite(v) for v in vals):
                continue
            weight = (lams[1] - lams[0]) / (lams[2] - lams[0])
            chord = (1 - weight) * vals[0] + weight * vals[2]
            assert vals[1] >= chord - 1e-8


class TestDecide:
    def test_trivial_multiplier(self):
        verdict = hk.decide(form1(1, 0, 0), form1(0, 1, -1), [0.0])
        assert verdict.outcome is Outcome.MULTIPLIER_FOUND
        assert verdict.lam == pytest.approx(0.0, abs=1e-9)

    def test_exact_multiplier(self):
        # f + g = x^2 - 2x + 1 = (x - 1)^2, so the multiplier is exactly 1
        verdict = hk.decide(form1(0, -2, 2), form1(1, 0, -1), [0.0])
        assert verdict.outcome is Outcome.MULTIPLIER_FOUND
        assert verdict.lam == pytest.approx(1.0, abs=1e-9)
        assert dual_value(form1(0, -2, 2), form1(1, 0, -1), verdict.lam) >= -SLACK

    def test_counterexample(self):
        f, g = form1(1, 0, -1), form1(0, 1, 0.5)
        verdict = hk.decide(f, g, [-1.0])
        assert verdict.outcome is Outcome.COUNTEREXAMPLE_FOUND
        assert f(verdict.x_witness) < -STRICT_MARGIN
        assert g(verdict.x_witness) <= FEAS_TOL

    def test_slater_violated(self):
        with pytest.raises(SlaterViolated):
            hk.decide(form1(1, 0, 0), form1(1, 0, 0), [0.3])

    def test_diagnostics_present(self):
        verdict = hk.decide(form1(1, 0, 0), form1(0, 1, -1), [0.0])
        assert len(verdict.diagnostics) > 3
        assert all(lam >= 0 for lam, _ in verdict.diagnostics)

    def test_thin_margin_multiplier(self):
        # the dual is finite only on a narrow interval next to lam0; a search
        # that steps over it ends Undecided
        rng = np.random.default_rng(5)
        for i in range(40):
            f, g, xs = thin_margin_instance(rng, 1 + i % 3)
            verdict = hk.decide(f, g, xs)
            assert verdict.outcome is Outcome.MULTIPLIER_FOUND, i
            assert dual_value(f, g, verdict.lam) >= -SLACK

    def test_multiplier_self_check(self):
        rng = np.random.default_rng(71)
        found = 0
        while found < 25:
            n = int(rng.integers(1, 4))
            f, g, xs = slater_instance(rng, n)
            verdict = hk.decide(f, g, xs)
            if verdict.outcome is Outcome.MULTIPLIER_FOUND:
                assert dual_value(f, g, verdict.lam) >= -SLACK
                found += 1


class TestOracle:
    def test_nonnegative_objective(self):
        verdict = brute_force_oracle(form1(1, 0, 0), form1(0, 1, 0), 10.0, 0.01)
        assert not verdict.found

    def test_feasible_found(self):
        verdict = brute_force_oracle(form1(1, 0, -1), form1(0, 1, 0), 10.0, 0.01)
        assert verdict.found
        x = verdict.point
        assert form1(1, 0, -1)(x) < 0 and form1(0, 1, 0)(x) <= 0

    def test_disjoint_regions(self):
        # f < 0 needs x > 1, but then g = x^2 - 1 > 0
        verdict = brute_force_oracle(form1(0, -2, 2), form1(1, 0, -1), 10.0, 0.01)
        assert not verdict.found

    def test_point_is_on_grid(self):
        verdict = brute_force_oracle(form1(1, 0, -1), form1(0, 1, 0), 10.0, 0.01)
        offset = (verdict.point[0] + 10.0) / 0.01
        assert abs(offset - round(offset)) <= 1e-6

    def test_dimension_cap(self):
        f = hk.QuadraticForm(np.eye(4), np.zeros(4), 0.0)
        with pytest.raises(DimensionTooLarge):
            brute_force_oracle(f, f, 1.0, 0.1)

    def test_margin_excludes_shallow_points(self):
        # f dips to exactly -1e-3: a margin above that hides the dip
        f = form1(1, 0, -1e-3)
        g = form1(0, 1, 0)
        assert brute_force_oracle(f, g, 10.0, 0.01).found
        assert not brute_force_oracle(f, g, 10.0, 0.01, f_margin=2e-3).found

    def test_matches_dense_scan_2d(self):
        rng = np.random.default_rng(83)
        axis = -2.0 + 0.05 * np.arange(81)
        xg, yg = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([xg.ravel(), yg.ravel()], axis=1)
        for _ in range(20):
            f, g, _ = slater_instance(rng, 2)
            fv = np.einsum("ij,jk,ik->i", pts, f.matrix, pts) + pts @ f.linear + f.constant
            gv = np.einsum("ij,jk,ik->i", pts, g.matrix, pts) + pts @ g.linear + g.constant
            dense_found = bool(np.any((fv < 0) & (gv <= 0)))
            verdict = brute_force_oracle(f, g, 2.0, 0.05)
            assert verdict.found == dense_found


class TestMutualExclusion:
    def test_decide_never_contradicts_oracle(self):
        rng = np.random.default_rng(91)
        undecided = 0
        for _ in range(150):
            n = int(rng.integers(1, 4))
            f, g, xs = slater_instance(rng, n)
            verdict = hk.decide(f, g, xs)
            if verdict.outcome is Outcome.MULTIPLIER_FOUND:
                oracle = brute_force_oracle(f, g, 10.0, 0.01, f_margin=2 * SLACK)
                assert not oracle.found
            elif verdict.outcome is Outcome.COUNTEREXAMPLE_FOUND:
                assert f(verdict.x_witness) < -STRICT_MARGIN
                assert g(verdict.x_witness) <= FEAS_TOL
            else:
                undecided += 1
        assert undecided <= 8

    def test_combined_form(self):
        f, g = form1(1, 2, 3), form1(4, 5, 6)
        h = combine(f, g, 0.5)
        assert h([1.0]) == pytest.approx(f([1.0]) + 0.5 * g([1.0]))
