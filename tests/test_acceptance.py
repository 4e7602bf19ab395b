"""Acceptance suite.

Every test here implements one acceptance criterion at its stated tolerance
and prints one PASS line on success (run with ``pytest -s`` to see them).
The random generators are seeded, so the suite is reproducible.
"""

import time

import numpy as np
import pytest

import hckit as hk
from hckit.errors import NumericalBreakdown
from hckit.quadmap import LineImageKind
from hckit.slemma import FEAS_TOL, SLACK, STRICT_MARGIN, Outcome
from hckit.witness import Branch, _first_crossing
from gen import (interior_point, parabola_map, random_cone, random_form,
                 random_map, rank_deficient_map, scale_stress_instance,
                 slater_instance, witness_instance)
from oracle import brute_force_oracle
from preimage import preimage_on_line

# criterion 1 verifies at 1e-6, whatever the default cert_tol
VERIFY_CFG = hk.DEFAULT_TOLERANCES.with_overrides(cert_tol=1e-6)

DIMS = (1, 2, 3, 6)
TRIALS_PER_DIM = 1000


@pytest.fixture(scope="module")
def witness_runs():
    """Criteria 1 and 2 share these runs: 1000 instances per dimension."""
    certs = []
    elapsed = 0.0
    for n in DIMS:
        rng = np.random.default_rng(1000 + n)
        for _ in range(TRIALS_PER_DIM):
            fmap, cone, pu, pv, alpha = witness_instance(rng, n)
            w = alpha * pu.value + (1 - alpha) * pv.value
            start = time.perf_counter()
            cert = hk.witness_convex_combination(fmap, cone, pu, pv, alpha)
            ok = hk.verify_certificate(fmap, cone, w, cert, VERIFY_CFG)
            elapsed += time.perf_counter() - start
            certs.append((n, cert, ok))
    return certs, elapsed


def test_criterion_1_witness_soundness(witness_runs):
    certs, elapsed = witness_runs
    assert len(certs) == len(DIMS) * TRIALS_PER_DIM
    bad = [(n, c.branch) for n, c, ok in certs if not ok]
    assert bad == [], f"verification failures: {bad[:5]}"
    assert elapsed < 60.0, f"witness+verify took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 witness soundness: PASS "
          f"({len(certs)} trials across n={DIMS}, 100% verified, "
          f"{elapsed:.1f}s < 60s)")


def test_criterion_2_branch_coverage(witness_runs):
    certs, _ = witness_runs
    counts = {b: 0 for b in Branch}
    for _, cert, _ in certs:
        counts[cert.branch] += 1
    for branch, count in counts.items():
        assert count >= 10, f"branch {branch.value} hit only {count} times"
    pretty = {b.value: c for b, c in counts.items()}
    print(f"ACCEPTANCE 2 branch coverage: PASS ({pretty})")


def test_criterion_3_chord_interior_negative():
    # the chord lemma on the witness's own side test: a strict convex
    # combination of two points of a parabola image lies strictly inside
    rng = np.random.default_rng(33)
    worst = -np.inf
    for _ in range(1000):
        _, point_at, fmap = parabola_map(rng)
        img = hk.classify_line_image(fmap, [0.0], [1.0])
        assert img.kind is LineImageKind.PARABOLA
        t1 = rng.uniform(-4.0, 4.0)
        t2 = rng.uniform(-4.0, 4.0)
        while abs(t1 - t2) < 1e-3:
            t2 = rng.uniform(-4.0, 4.0)
        mix = rng.uniform(0.01, 0.99)
        z = point_at(t1) + mix * (point_at(t2) - point_at(t1))
        value = img.side(z)
        assert value < 0.0
        worst = max(worst, value / (1.0 + np.max(np.abs(z))))
    print(f"ACCEPTANCE 3 chord interior sign: PASS "
          f"(1000 chords, worst relative side {worst:.3e} < 0)")


def test_criterion_4_backward_ray_hit():
    # the ray lemma on the witness's own crossing search: from a point
    # inside, the nearer of the backward rays z - tau*b, z - tau*c meets
    # the parabola image
    rng = np.random.default_rng(44)
    root_tol = hk.DEFAULT_TOLERANCES.root_tol
    worst = 0.0
    for _ in range(1000):
        conic, point_at, fmap = parabola_map(rng)
        cone = random_cone(rng)
        z = interior_point(conic, point_at, rng)
        co = hk.classify_line_image(fmap, [0.0], [1.0]).coeffs
        step = root_tol * (1.0 + np.max(np.abs(z)))
        hits = [(found[1], found[0], d) for d in (cone.b, cone.c)
                if (found := _first_crossing(co, z, d, np.inf, step)) is not None]
        assert hits, "neither backward ray meets the parabola"
        tau, t, d = min(hits, key=lambda hit: hit[0])
        point = z - tau * d
        resid = np.max(np.abs(point - co.at(t))) / (1.0 + np.max(np.abs(point)))
        assert resid <= 1e-8
        worst = max(worst, resid)
    print(f"ACCEPTANCE 4 backward ray hit: PASS "
          f"(1000 instances, worst relative residual {worst:.3e} <= 1e-8)")


def test_criterion_5_line_image_soundness():
    rng = np.random.default_rng(55)
    kinds = {k: 0 for k in LineImageKind}
    done = 0
    while done < 1000:
        n = int(rng.integers(1, 7))
        flat = rng.uniform() < 0.15
        fmap = rank_deficient_map(rng, n) if flat else random_map(rng, n)
        xb = rng.uniform(-3, 3, n)
        yb = rng.uniform(-3, 3, n)
        if np.max(np.abs(yb - xb)) < 1e-6:
            continue
        img = hk.classify_line_image(fmap, xb, yb)
        kinds[img.kind] += 1
        d = yb - xb
        if img.kind is LineImageKind.PARABOLA:
            lam = hk.eigh(img.conic.A).eigenvalues
            assert lam[0] >= -1e-9 * (1.0 + abs(lam[1]))
            assert lam[1] > 1e-9 * (1.0 + abs(lam[1]))
            for t in rng.uniform(-3, 3, 100):
                pt = hk.eval_map(fmap, xb + t * d)
                scale = (img.conic.coefficient_scale()
                         * (1.0 + np.max(np.abs(pt))) ** 2)
                assert abs(img.conic.evaluate(pt)) <= 1e-7 * scale
        elif img.kind is LineImageKind.RAY:
            dn = img.ray_direction / np.linalg.norm(img.ray_direction)
            for t in rng.uniform(-3, 3, 25):
                pt = hk.eval_map(fmap, xb + t * d)
                assert (pt - img.apex) @ dn >= -1e-7 * (1.0 + np.max(np.abs(pt)))
        t0 = rng.uniform(-2, 2)
        target = hk.eval_map(fmap, xb + t0 * d)
        x = preimage_on_line(img, xb, yb, target)
        scale = img.coeffs.scale()
        assert np.max(np.abs(hk.eval_map(fmap, x) - target)) <= 1e-6 * scale
        done += 1
    pretty = {k.value: v for k, v in kinds.items()}
    print(f"ACCEPTANCE 5 line image soundness: PASS (1000 lines, kinds {pretty})")


def test_criterion_6_slemma_cross_validation():
    rng = np.random.default_rng(66)
    margin = 2.0 * SLACK
    undecided = 0
    outcomes = {o: 0 for o in Outcome}
    for _ in range(300):
        n = int(rng.integers(1, 4))
        f, g, x_star = slater_instance(rng, n)
        verdict = hk.decide(f, g, x_star)
        outcomes[verdict.outcome] += 1
        if verdict.outcome is Outcome.MULTIPLIER_FOUND:
            oracle = brute_force_oracle(f, g, 10.0, 0.01, f_margin=margin)
            assert not oracle.found, (
                f"multiplier contradicted by grid point {oracle.point}")
        elif verdict.outcome is Outcome.COUNTEREXAMPLE_FOUND:
            assert f(verdict.x_witness) < -STRICT_MARGIN
            assert g(verdict.x_witness) <= FEAS_TOL
        else:
            undecided += 1
    assert undecided <= 15, f"undecided rate {undecided / 3:.1f}% > 5%"
    pretty = {o.value: c for o, c in outcomes.items()}
    print(f"ACCEPTANCE 6 alternative cross-validation: PASS "
          f"(300 instances, {pretty}, undecided {undecided / 3:.1f}% <= 5%)")


def test_criterion_7_manifold_reduction():
    rng = np.random.default_rng(77)
    for instance in range(200):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, n))
        h = rng.uniform(-2, 2, (m, n))
        d = h @ rng.uniform(-2, 2, n)
        manifold = hk.manifold_from_linear_system(h, d)
        assert manifold.dim >= 1
        grow = rng.uniform(-1.5, 1.5, (n, n))
        f = hk.QuadraticForm(grow.T @ grow + 0.1 * np.eye(n),
                             rng.uniform(-2, 2, n), rng.uniform(-2, 2))
        g = random_form(rng, n)
        fmap = hk.restrict_to_manifold(hk.QuadraticMap(f, g), manifold)
        z0 = rng.uniform(-2, 2, manifold.dim)
        g_low = hk.QuadraticForm(fmap.g.matrix, fmap.g.linear,
                                 fmap.g.constant - fmap.g(z0) - 0.5)
        fmap = hk.QuadraticMap(fmap.f, g_low)
        bound = hk.dual_lower_bound(fmap.f, fmap.g)
        assert np.isfinite(bound)
        rho = bound - 1.0
        shifted = hk.QuadraticMap(fmap.f.shifted(-rho), fmap.g)
        report = hk.convexity_probe(shifted, hk.positive_quadrant(),
                                    trials=500, rng_seed=7000 + instance,
                                    box_radius=5.0)
        assert report.consistent, (
            f"instance {instance}: {report.failures[0].diagnostic}")
    print("ACCEPTANCE 7 manifold reduction: PASS "
          "(200 restricted shifted maps x 500 trials, zero failures)")


def test_criterion_8_hand_worked_regressions():
    # fixed witness: F = (x^2, x), w = (1, 0) certified by x* = 0, e* = (1, 0)
    fmap = hk.QuadraticMap(hk.QuadraticForm([[1.0]], [0.0], 0.0),
                           hk.QuadraticForm([[0.0]], [1.0], 0.0))
    cone = hk.positive_quadrant()
    pu = hk.cone_point(fmap, cone, [1.0], [0.0, 0.0])
    pv = hk.cone_point(fmap, cone, [-1.0], [0.0, 0.0])
    cert = hk.witness_convex_combination(fmap, cone, pu, pv, 0.5)
    assert cert.branch is Branch.PARABOLA_RAY_HIT
    np.testing.assert_allclose(cert.x_star, [0.0], atol=1e-9)
    np.testing.assert_allclose(cert.e_star, [1.0, 0.0], atol=1e-9)

    # fixed multiplier: f = -2x + 2, g = x^2 - 1 combine to (x - 1)^2 at 1
    f = hk.QuadraticForm([[0.0]], [-2.0], 2.0)
    g = hk.QuadraticForm([[1.0]], [0.0], -1.0)
    verdict = hk.decide(f, g, [0.0])
    assert verdict.outcome is Outcome.MULTIPLIER_FOUND
    assert abs(verdict.lam - 1.0) <= 1e-9
    print("ACCEPTANCE 8 hand-worked regressions: PASS "
          f"(witness x*=0, e*=(1,0); multiplier lambda={verdict.lam:.12f})")


def test_criterion_9_adversarial_scale():
    # 2000 instances: f and g scaled by 10^k (k = -6..6), boxes 1 to 1e3,
    # cone angles log-spaced from 0.01 to 179.99 degrees
    instances = 2000
    rng = np.random.default_rng(99)
    counts = {b: 0 for b in Branch}
    breakdowns = 0
    for i, angle in enumerate(np.geomspace(0.01, 179.99, instances)):
        fmap, cone, pu, pv, alpha = scale_stress_instance(rng, DIMS[i % 4], angle)
        w = alpha * pu.value + (1 - alpha) * pv.value
        try:
            cert = hk.witness_convex_combination(fmap, cone, pu, pv, alpha)
        except NumericalBreakdown:
            breakdowns += 1
            continue
        counts[cert.branch] += 1
        assert hk.verify_certificate(fmap, cone, w, cert), (
            f"instance {i}: returned {cert.branch.value} certificate fails verification")
    assert breakdowns == 0, f"{breakdowns} breakdowns"
    pretty = {b.value: c for b, c in counts.items()}
    print(f"ACCEPTANCE 9 adversarial scale: PASS ({instances} instances, "
          f"{sum(counts.values())} verified {pretty}, no breakdowns)")
