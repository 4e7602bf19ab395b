"""Independent output checker for the benchmark.

Uses numpy only and imports nothing from hckit: every check recomputes the
claim from the raw instance data, so a defect in the library cannot hide
itself by agreeing with its own verifier.

Raw data formats (shared with ``gen.py``):

* a quadratic form is a tuple ``(M, m, m0)`` meaning ``x'Mx + m'x + m0``;
* a map is a pair of forms ``(f, g)``;
* a cone is a pair of generators ``(b, c)``.

The tolerances mirror the library's documented defaults (``cert_tol``, the
search slack and margins); they are restated here rather than imported.

``python3 perfbench/checker.py`` runs :func:`self_test`.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

CERT_TOL = 1e-6        # certificate residual and cone slack, relative
PSD_TOL = 1e-9         # eigenvalue slack, relative to 1 + max |eigenvalue|
RANGE_TOL = 1e-8       # linear term in range(M), relative to 1 + |m|
SLACK = 1e-7           # dual value accepted as nonnegative
STRICT_MARGIN = 1e-10  # f(x) < -STRICT_MARGIN for a counterexample
FEAS_TOL = 1e-9        # g(x) <= FEAS_TOL for a counterexample
ON_TOL = 1e-7          # image point lies on the reported conic, relative


def qeval(q, x) -> float:
    """Value of the form at ``x``, in the library's evaluation order."""
    mat, lin, const = q
    xv = np.asarray(x, dtype=float).reshape(-1)
    return float(xv @ mat @ xv + lin @ xv + const)


def feval(fmap, x) -> np.ndarray:
    return np.array([qeval(fmap[0], x), qeval(fmap[1], x)])


def cone_coords(cone, point) -> np.ndarray:
    """Coordinates of ``point`` in the generator basis, by a 2x2 solve."""
    basis = np.column_stack([np.asarray(cone[0], float), np.asarray(cone[1], float)])
    return np.linalg.solve(basis, np.asarray(point, dtype=float).reshape(2))


def check_certificate(fmap, cone, w, x_star, e_star, tol: float = CERT_TOL) -> bool:
    """``F(x*) + e* = w`` and ``e*`` in the cone, both relative to the data."""
    w = np.asarray(w, dtype=float).reshape(2)
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    e_star = np.asarray(e_star, dtype=float).reshape(2)
    if x_star.shape[0] != fmap[0][0].shape[0]:
        return False
    value = feval(fmap, x_star) + e_star
    if not (np.all(np.isfinite(value)) and np.all(np.isfinite(w))):
        return False
    scale = 1.0 + max(float(np.max(np.abs(w))), float(np.max(np.abs(value))),
                      float(np.max(np.abs(e_star))))
    if float(np.max(np.abs(value - w))) > tol * scale:
        return False
    co = cone_coords(cone, e_star)
    return bool(np.all(co >= -tol * (1.0 + float(np.max(np.abs(co))))))


def _combine(f, g, lam):
    return (f[0] + lam * g[0], f[1] + lam * g[1], f[2] + lam * g[2])


def check_multiplier(f, g, lam) -> bool:
    """``f + lam g`` is PSD and its minimum, found by lstsq, is >= -SLACK."""
    if lam is None or not math.isfinite(lam) or lam < 0.0:
        return False
    mat, lin, const = _combine(f, g, lam)
    eig = np.linalg.eigvalsh(mat)
    if eig[0] < -PSD_TOL * (1.0 + float(np.max(np.abs(eig)))):
        return False
    # the minimizer solves 2 M x = -m; a residual means m leaves range(M)
    x, *_ = np.linalg.lstsq(2.0 * mat, -lin, rcond=None)
    resid = float(np.linalg.norm(2.0 * mat @ x + lin))
    if resid > RANGE_TOL * (1.0 + float(np.linalg.norm(lin))) * (1.0 + float(np.max(np.abs(eig)))):
        return False
    return qeval((mat, lin, const), x) >= -SLACK


def check_counterexample(f, g, x) -> bool:
    """``f(x) < 0`` and ``g(x) <= 0`` by direct evaluation."""
    if x is None:
        return False
    x = np.asarray(x, dtype=float).reshape(-1)
    return qeval(f, x) < -STRICT_MARGIN and qeval(g, x) <= FEAS_TOL


def check_verdict(f, g, outcome: str, lam=None, x=None,
                  known_multiplier: bool = False) -> str:
    """Classify a decision verdict as ``ok``, ``refused`` or ``wrong``.

    ``Undecided`` is an honest refusal, not a wrong answer.  On an instance
    built with a known multiplier a counterexample cannot exist, so one is
    wrong whatever its point evaluates to.
    """
    if outcome == "MultiplierFound":
        return "ok" if check_multiplier(f, g, lam) else "wrong"
    if outcome == "CounterexampleFound":
        if known_multiplier:
            return "wrong"
        return "ok" if check_counterexample(f, g, x) else "wrong"
    if outcome == "Undecided":
        return "refused"
    return "wrong"


def check_dual_bound(f, g, bound: float, points: np.ndarray) -> bool:
    """Weak duality: ``f >= bound`` at every sampled point with ``g <= 0``."""
    if not math.isfinite(bound):
        return False
    fv = np.einsum("ij,jk,ik->i", points, f[0], points) + points @ f[1] + f[2]
    gv = np.einsum("ij,jk,ik->i", points, g[0], points) + points @ g[1] + g[2]
    feasible = gv <= 0.0
    slack = 1e-9 * (1.0 + np.abs(fv))
    return bool(np.all(fv[feasible] >= bound - slack[feasible]))


def manifold_basis(h, d) -> tuple[np.ndarray, np.ndarray]:
    """A point ``x0`` of ``{H x = d}`` and an orthonormal basis ``K`` of ``ker H``."""
    h = np.asarray(h, dtype=float)
    x0, *_ = np.linalg.lstsq(h, np.asarray(d, dtype=float), rcond=None)
    _, sv, vt = np.linalg.svd(h)
    return x0, vt[int(np.sum(sv > 1e-10 * sv[0])):].T


def manifold_points(h, d, rng, count: int, box: float) -> np.ndarray:
    """Points ``x0 + K z`` of ``{H x = d}``, ``z`` uniform in the box."""
    x0, basis = manifold_basis(h, d)
    z = rng.uniform(-box, box, size=(count, basis.shape[1]))
    return x0 + z @ basis.T


def line_coefficients(fmap, xbar, ybar) -> np.ndarray:
    """``(alpha, beta, gamma, alpha', beta', gamma')`` of F on the line."""
    xb = np.asarray(xbar, dtype=float)
    d = np.asarray(ybar, dtype=float) - xb
    out = []
    for mat, lin, const in fmap:
        out += [float(d @ mat @ d), float(2.0 * (xb @ mat @ d) + lin @ d),
                qeval((mat, lin, const), xb)]
    return np.array(out)


def check_line_image(fmap, xbar, ybar, payload: dict) -> bool:
    """Reported coefficients match, and a parabola passes through the image."""
    co = line_coefficients(fmap, xbar, ybar)
    got = np.asarray(payload["coefficients"], dtype=float)
    scale = 1.0 + float(np.max(np.abs(co)))
    if got.shape != (6,) or float(np.max(np.abs(got - co))) > 1e-9 * scale:
        return False
    if payload["kind"] != "Parabola":
        return payload["kind"] in ("Point", "Ray", "Line")
    conic = payload["conic"]
    A = np.asarray(conic["A"], dtype=float)
    a = np.asarray(conic["a"], dtype=float)
    a0 = float(conic["a0"])
    cscale = 1.0 + max(float(np.max(np.abs(A))), float(np.max(np.abs(a))), abs(a0))
    for t in (-1.0, 0.0, 0.5, 1.0, 2.0):
        y = np.array([(co[0] * t + co[1]) * t + co[2], (co[3] * t + co[4]) * t + co[5]])
        psi = float(y @ A @ y + a @ y + a0)
        if abs(psi) > ON_TOL * cscale * (1.0 + float(np.max(np.abs(y)))) ** 2:
            return False
    return True


def check_envelope(case: dict, code: int, stdout: str) -> str:
    """Check one ``hck`` run against its generated case.

    ``case`` holds the command name, the raw problem, the arguments and the
    expected exit code.  Returns ``ok``, ``failed`` (unexpected exit code,
    honest refusal) or ``wrong`` (an output that does not hold up).
    """
    if code != case["expect_code"]:
        return "failed"
    command = case["command"]
    try:
        if command == "sample":
            pts = np.array([[float(v) for v in ln.split()]
                            for ln in stdout.strip().splitlines()])
            good = pts.shape == (case["count"], 2) and bool(np.all(np.isfinite(pts)))
            return "ok" if good else "wrong"
        outcome = json.loads(stdout)["outcome"]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return "wrong"
    fmap = case["map"]
    try:
        if command == "classify-line":
            good = check_line_image(fmap, case["xbar"], case["ybar"], outcome)
        elif command == "witness":
            w = case["alpha"] * (feval(fmap, case["xu"]) + case["e1"]) \
                + (1.0 - case["alpha"]) * (feval(fmap, case["xv"]) + case["e2"])
            wenv = np.asarray(outcome["w"], dtype=float)
            good = (float(np.max(np.abs(wenv - w))) <= 1e-12 * (1.0 + float(np.max(np.abs(w))))
                    and outcome["verified"] is True
                    and check_certificate(fmap, case["cone"], w,
                                          outcome["x_star"], outcome["e_star"]))
        elif command == "slemma":
            verdict = check_verdict(fmap[0], fmap[1], outcome["outcome"],
                                    outcome.get("lambda"), outcome.get("x_witness"),
                                    case["known_multiplier"])
            return verdict
        elif command == "verify-convexity":
            good = (outcome["trials"] == case["trials"] and not outcome["failures"]
                    and sum(outcome["branch_counts"].values()) == case["trials"]
                    and math.isfinite(outcome["max_residual"])
                    and outcome.get("rho") == case.get("rho"))
        else:
            return "wrong"
    except (KeyError, TypeError, ValueError):
        return "wrong"
    return "ok" if good else "wrong"


def _expect(condition: bool, what: str = "") -> None:
    if not condition:
        raise AssertionError(f"checker self-test failed {what}".strip())


def self_test() -> None:
    """The checker accepts a true answer and rejects perturbed ones.

    Raises ``AssertionError`` when a check lets a wrong answer through or
    refuses a right one.
    """
    # F = (x^2, x), w = (1, 0): x* = 0, e* = (1, 0) is a valid certificate
    fmap = ((np.array([[1.0]]), np.array([0.0]), 0.0),
            (np.array([[0.0]]), np.array([1.0]), 0.0))
    cone = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    w = np.array([1.0, 0.0])
    _expect(check_certificate(fmap, cone, w, [0.0], [1.0, 0.0]))
    _expect(not check_certificate(fmap, cone, w, [1e-3], [1.0, 0.0]), "perturbed x*")
    _expect(not check_certificate(fmap, cone, w, [1.0], [0.0, -1.0]), "e* outside cone")

    # f = x^2 - 1, g = x^2 - 4: f + lam g >= 0 needs lam with min >= 0, none
    # exists; x = 0 is a counterexample (f = -1, g = -4)
    f = (np.array([[1.0]]), np.array([0.0]), -1.0)
    g = (np.array([[1.0]]), np.array([0.0]), -4.0)
    _expect(check_verdict(f, g, "CounterexampleFound", x=[0.0]) == "ok")
    _expect(check_verdict(f, g, "MultiplierFound", lam=1.0) == "wrong", "wrong verdict")
    _expect(check_verdict(f, g, "CounterexampleFound", x=[3.0]) == "wrong")
    # f = x^2 + 1, g = x - 1: lam = 0 is a valid multiplier
    f2 = (np.array([[1.0]]), np.array([0.0]), 1.0)
    g2 = (np.array([[0.0]]), np.array([1.0]), -1.0)
    _expect(check_verdict(f2, g2, "MultiplierFound", lam=0.0) == "ok")
    _expect(check_verdict(f2, g2, "CounterexampleFound", x=[0.0]) == "wrong")
    _expect(check_verdict(f2, g2, "CounterexampleFound", x=[0.0],
                          known_multiplier=True) == "wrong")
    # unbounded below along the kernel: f = x_2, no multiplier at lam = 0
    f3 = (np.zeros((2, 2)), np.array([0.0, 1.0]), 0.0)
    g3 = (np.eye(2), np.zeros(2), -1.0)
    _expect(check_verdict(f3, g3, "MultiplierFound", lam=0.0) == "wrong")

    pts = np.array([[0.0], [0.5]])
    _expect(check_dual_bound(f, g, -1.0, pts))
    _expect(not check_dual_bound(f, g, 0.0, pts), "bound above a feasible value")


if __name__ == "__main__":
    self_test()
    print("checker self-test: ok")
    sys.exit(0)
