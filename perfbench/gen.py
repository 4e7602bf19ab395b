"""Seeded instance generator for the benchmark.

Imports nothing from hckit or from the test suite, so edits to either cannot
change what the benchmark runs.  Instances are plain numpy data in the
formats described in ``checker.py``; the workloads turn them into library
objects outside the timed region, so the library receives only the inputs.

Each generator takes the op index ``i`` and draws from its own
``default_rng([seed, i])``: the same seed gives the same op sequence, and
the share of each slice is fixed by ``i`` rather than drawn, so the mix in a
run of a given length does not depend on luck.
"""

from __future__ import annotations

import json

import numpy as np

from checker import feval, manifold_basis, qeval


def rng_for(seed: int, i: int, salt: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, salt, i])


def form(rng, n: int, coeff: float = 2.0):
    a = rng.uniform(-coeff, coeff, size=(n, n))
    return 0.5 * (a + a.T), rng.uniform(-coeff, coeff, size=n), float(rng.uniform(-coeff, coeff))


def random_map(rng, n: int):
    return form(rng, n), form(rng, n)


def flat_map(rng, n: int):
    """A map whose line images are rays, lines or points."""
    if rng.uniform() < 0.5:
        f = form(rng, n)
        k = rng.uniform(-2.0, 2.0)
        return f, (k * f[0], k * f[1], k * f[2] + float(rng.uniform(-2.0, 2.0)))
    zero = np.zeros((n, n))
    return ((zero, rng.uniform(-2, 2, n), float(rng.uniform(-2, 2))),
            (zero.copy(), rng.uniform(-2, 2, n), float(rng.uniform(-2, 2))))


def cone(rng, angle_deg: float | None = None):
    """Generators ``(b, c)`` at the given angle, or at a random one in [5, 175]."""
    if angle_deg is None:
        angle_deg = rng.uniform(5.0, 175.0)
    ang = np.deg2rad(angle_deg)
    th = rng.uniform(0.0, 2.0 * np.pi)
    b = rng.uniform(0.5, 2.0) * np.array([np.cos(th), np.sin(th)])
    c = rng.uniform(0.5, 2.0) * np.array([np.cos(th + ang), np.sin(th + ang)])
    return b, c


def cone_element(rng, cone_, radius: float) -> np.ndarray:
    lam, bet = rng.uniform(0.0, radius, size=2)
    return lam * cone_[0] + bet * cone_[1]


def in_cone(cone_, point) -> bool:
    basis = np.column_stack(cone_)
    return bool(np.all(np.linalg.solve(basis, point) >= 0.0))


# ---------------------------------------------------------------- certify

CERTIFY_DIMS = (1, 2, 3, 6)


def certify_case(seed: int, i: int) -> dict:
    """One witness problem ``(map, cone, x_u, e1, x_v, e2, alpha)``.

    Ops cycle through n = 1, 2, 3, 6.  One op in four is the scale-stress
    slice: f scaled by 10^k for k in -6..6, boxes up to 10^3 and, half the
    time, a cone narrower than 5 degrees.  The rest follow the acceptance
    mix: 8 % flat images, 2 % w equal to u, 2 % w equal to F(x_v), and
    parabola images otherwise.
    """
    rng = rng_for(seed, i, 1)
    n = CERTIFY_DIMS[i % 4]
    stress = (i // 4) % 4 == 3
    if stress:
        fmap = random_map(rng, n)
        k = int(rng.integers(-6, 7))
        f = tuple(10.0 ** k * part for part in fmap[0])
        fmap = (f, fmap[1])
        box = 10.0 ** int(rng.integers(0, 4))
        narrow = rng.uniform() < 0.5
        cone_ = cone(rng, 10.0 ** rng.uniform(-2.0, np.log10(5.0)) if narrow else None)
        xu, xv = rng.uniform(-box, box, n), rng.uniform(-box, box, n)
        e1, e2 = cone_element(rng, cone_, box), cone_element(rng, cone_, box)
        return dict(map=fmap, cone=cone_, xu=xu, e1=e1, xv=xv, e2=e2,
                    alpha=float(rng.uniform(0.05, 0.95)), slice="stress")
    box = 5.0
    draw = rng.uniform()
    cone_ = cone(rng)
    zero = np.zeros(2)
    if draw < 0.08:
        fmap = flat_map(rng, n)
        kind = "flat"
    else:
        fmap = random_map(rng, n)
        kind = "parabola"
    xu, xv = rng.uniform(-box, box, n), rng.uniform(-box, box, n)
    e1, e2 = cone_element(rng, cone_, box), cone_element(rng, cone_, box)
    if 0.08 <= draw < 0.10:
        # identical endpoints with no cone offset: w coincides with u
        xv, e1, e2, kind = xu, zero, zero, "endpoint"
    elif 0.10 <= draw < 0.12:
        # u carries the gap F(x_v) - F(x_u), so w lands on F(x_v)
        for _ in range(200):
            gap = feval(fmap, xv) - feval(fmap, xu)
            if in_cone(cone_, gap):
                break
            xu, xv = rng.uniform(-box, box, n), rng.uniform(-box, box, n)
        else:
            xv, gap = xu, zero
        e1, e2, kind = gap, zero, "endpoint"
    return dict(map=fmap, cone=cone_, xu=xu, e1=e1, xv=xv, e2=e2,
                alpha=float(rng.uniform(0.05, 0.95)), slice=kind)


# ---------------------------------------------------------------- decide

# one slot per op, cycled: (n, built with a known multiplier).  Slots are
# grouped by cost so that the p50 falls inside the n = 2 group and the p90
# inside the n = 6 group; a percentile that falls in the gap between two
# groups jumps with every instance drawn near it.  A known multiplier at
# n = 6 or 12 costs 0.2 to 1.7 s per op, so those slots are random only.
DECIDE_SLOTS = ((1, False), (2, False), (2, True), (3, False), (6, False),
                (1, True), (2, False), (2, False), (3, True), (6, False),
                (1, False), (2, False), (2, True), (3, True), (6, False),
                (1, True), (2, False), (2, False), (12, False), (6, False))


def slater_case(rng, n: int):
    """Random ``(f, g, x_star)`` with ``g(x_star) < 0``, as in criterion 6."""
    f, g = form(rng, n), form(rng, n)
    x_star = rng.uniform(-3.0, 3.0, size=n)
    g = (g[0], g[1], g[2] - qeval(g, x_star) - float(rng.uniform(0.1, 2.0)))
    return f, g, x_star


def known_multiplier_case(rng, n: int):
    """``f = S - lam0 g`` with ``S`` PSD and ``min S >= 0``: a multiplier exists.

    ``S`` keeps an eigenvalue margin of ``lam0 * |M_g| / 2``, so the dual is
    finite on an interval around ``lam0`` at least a factor 3 wide.  With a
    thinner margin the dual search's ladder can step over the interval and
    the verdict ends ``Undecided`` after seconds of descent; a few such ops
    would set the time of a whole run.
    """
    _, g, x_star = slater_case(rng, n)
    lam0 = float(rng.uniform(0.1, 3.0))
    r = rng.uniform(-1.5, 1.5, size=(n, n))
    margin = 0.5 * lam0 * float(np.linalg.norm(g[0], 2))
    a = r.T @ r + margin * np.eye(n)
    z = rng.uniform(-2.0, 2.0, size=n)
    s = (a, -2.0 * a @ z, float(z @ a @ z) + float(rng.uniform(0.0, 1.0)))
    f = (s[0] - lam0 * g[0], s[1] - lam0 * g[1], s[2] - lam0 * g[2])
    return f, g, x_star


def decide_case(seed: int, i: int) -> dict:
    rng = rng_for(seed, i, 2)
    n, known = DECIDE_SLOTS[i % len(DECIDE_SLOTS)]
    f, g, x_star = (known_multiplier_case if known else slater_case)(rng, n)
    return dict(f=f, g=g, x_star=x_star, known_multiplier=known)


# ---------------------------------------------------------------- probe

PROBE_TRIALS = 100
PROBE_BOX = 5.0


def manifold_case(rng, n: int, m: int):
    """Criterion-7 map on ``{H x = d}``: f convex, g < 0 at a manifold point.

    Returns ``(map, H, d)``.  ``g`` is lowered so that it is -0.5 at a point
    of the manifold, which is the strict feasibility point of the shift.
    """
    h = rng.uniform(-2.0, 2.0, size=(m, n))
    x_on = rng.uniform(-2.0, 2.0, size=n)
    d = h @ x_on
    grow = rng.uniform(-1.5, 1.5, size=(n, n))
    f = (grow.T @ grow + 0.1 * np.eye(n), rng.uniform(-2, 2, n), float(rng.uniform(-2, 2)))
    g = form(rng, n)
    g = (g[0], g[1], g[2] - qeval(g, x_on) - 0.5)
    return (f, g), h, d


PROBE_MAPS_PER_KIND = 8


def probe_maps(seed: int) -> list[dict]:
    """The fixed maps a probe run cycles through, eight of each kind.

    The kinds are plain maps at n = 3 and n = 6 and criterion-7 maps on a
    manifold in R^3 and R^6.  The dual bound of a manifold map costs 10 to
    180 ms depending on the instance, so with one map per kind the p90 of
    a run would be set by a single draw.
    """
    rng = rng_for(seed, 0, 3)
    maps = []
    for _ in range(PROBE_MAPS_PER_KIND):
        maps += [dict(map=random_map(rng, 3), cone=cone(rng), manifold=None),
                 dict(map=random_map(rng, 6), cone=cone(rng), manifold=None),
                 dict(zip(("map", "H", "d"), manifold_case(rng, 3, 1)), cone=None,
                      manifold="Hd"),
                 dict(zip(("map", "H", "d"), manifold_case(rng, 6, 2)), cone=None,
                      manifold="Hd")]
    return maps


def probe_case(seed: int, i: int, maps: list[dict]) -> dict:
    spec = maps[i % len(maps)]
    return dict(spec, trials=PROBE_TRIALS, box=PROBE_BOX, trial_seed=seed * 100003 + i)


# ---------------------------------------------------------------- cli

CLI_COMMANDS = ("classify-line", "witness", "slemma", "verify-convexity", "sample")
CLI_VARIANTS = 4


def _matrix_list(mat) -> list:
    return [float(v) for v in np.asarray(mat).reshape(-1)]


def problem_document(fmap, cone_=None, h=None, d=None) -> str:
    n = fmap[0][0].shape[0]
    doc = {"schema_version": "1", "dimension": n,
           "P": _matrix_list(fmap[0][0]), "p": _matrix_list(fmap[0][1]), "p0": fmap[0][2],
           "Q": _matrix_list(fmap[1][0]), "q": _matrix_list(fmap[1][1]), "q0": fmap[1][2]}
    if cone_ is not None:
        doc["cone"] = {"b": _matrix_list(cone_[0]), "c": _matrix_list(cone_[1])}
    if h is not None:
        doc["manifold"] = {"H": [_matrix_list(row) for row in h], "d": _matrix_list(d)}
    return json.dumps(doc)


def _vec(x) -> str:
    return json.dumps([float(v) for v in np.asarray(x).reshape(-1)])


def manifold_min(f, h, d) -> float:
    """Minimum of a convex ``f`` on ``{H x = d}`` by an own null-space solve."""
    x0, k = manifold_basis(h, d)
    mat = k.T @ f[0] @ k
    lin = k.T @ (2.0 * f[0] @ x0 + f[1])
    z, *_ = np.linalg.lstsq(2.0 * mat, -lin, rcond=None)
    return qeval(f, x0 + k @ z)


def cli_case(seed: int, i: int) -> dict:
    """One ``hck`` invocation: command, problem document, arguments, checks.

    Commands run in a fixed cycle; each uses one of a few problem variants.
    """
    command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
    variant = (i // len(CLI_COMMANDS)) % CLI_VARIANTS
    rng = rng_for(seed, variant * len(CLI_COMMANDS) + i % len(CLI_COMMANDS), 4)
    case = dict(command=command, expect_code=0, key=f"{command}-{variant}")
    if command == "classify-line":
        fmap, cone_ = random_map(rng, 3), cone(rng)
        xbar, ybar = rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3)
        case.update(map=fmap, doc=problem_document(fmap, cone_), xbar=xbar, ybar=ybar,
                    args=["--xbar", _vec(xbar), "--ybar", _vec(ybar)])
    elif command == "witness":
        fmap, cone_ = random_map(rng, 3), cone(rng)
        xu, xv = rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3)
        e1, e2 = cone_element(rng, cone_, 3.0), cone_element(rng, cone_, 3.0)
        alpha = float(rng.uniform(0.05, 0.95))
        case.update(map=fmap, cone=cone_, doc=problem_document(fmap, cone_), xu=xu, xv=xv,
                    e1=e1, e2=e2, alpha=alpha,
                    args=["--xu", _vec(xu), "--xv", _vec(xv), "--e1", _vec(e1),
                          "--e2", _vec(e2), "--alpha", repr(alpha)])
    elif command == "slemma":
        known = variant % 2 == 1
        f, g, x_star = (known_multiplier_case if known else slater_case)(rng, 3)
        case.update(map=(f, g), doc=problem_document((f, g)), known_multiplier=known,
                    args=["--x-star", _vec(x_star)])
    elif command == "verify-convexity":
        fmap, h, d = manifold_case(rng, 4, 2)
        rho = manifold_min(fmap[0], h, d) - 1.0
        case.update(map=fmap, doc=problem_document(fmap, None, h, d), trials=20, rho=rho,
                    args=["--trials", "20", "--seed", str(seed), "--box", "5",
                          "--rho", repr(rho)])
    else:
        fmap = random_map(rng, 3)
        case.update(map=fmap, doc=problem_document(fmap), count=200,
                    args=["--count", "200", "--seed", str(seed), "--box", "3"])
    return case
