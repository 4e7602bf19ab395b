"""Command-line interface.

Subcommands wrap the library's core capabilities and speak JSON result
envelopes so scripts can consume outcomes directly.  The exit-code map is
part of the public contract:

====  =========================================================
code  meaning
====  =========================================================
0     success
2     validation failure (files, vectors, preconditions, --out)
3     degenerate line (classify-line endpoints coincide)
4     numerical breakdown while building/verifying a witness
5     Slater point rejected (or off the problem's manifold)
6     decision procedure ran out of budget (Undecided)
7     convexity probe recorded failures (report still emitted)
====  =========================================================

``main`` maps the library errors in ``ERROR_EXITS`` to codes 3 and 5, and
any other library error to 2.  ``HCK_LOG`` (quiet, info, trace) controls
diagnostic verbosity on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import quadmap, slemma, witness
from .errors import (DegenerateLine, HckError, InternalNumerics,
                     NumericalBreakdown, PreconditionViolated, ProblemFileError,
                     SlaterViolated)
from .problemio import (Problem, dump_envelope, load_problem, result_envelope,
                        _parse_tolerances)
from .quadmap import LineImageKind

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_BREAKDOWN = 4
EXIT_SLATER = 5
EXIT_UNDECIDED = 6
EXIT_CONVEXITY = 7

# library errors with an exit code of their own; any other HckError exits 2
ERROR_EXITS = {DegenerateLine: EXIT_DEGENERATE, SlaterViolated: EXIT_SLATER}

_log = logging.getLogger("hckit")


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _setup_logging():
    level = {"quiet": logging.ERROR, "info": logging.INFO,
             "trace": logging.DEBUG}.get(os.environ.get("HCK_LOG", "quiet"),
                                         logging.ERROR)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _parse_vector(text: str, length: int, name: str) -> np.ndarray:
    raw = text.strip()
    if raw.startswith("["):
        try:
            values = json.loads(raw)
        except json.JSONDecodeError:
            raise _CliError(EXIT_VALIDATION, f"{name}: not a valid JSON array")
    else:
        values = raw.replace(",", " ").split()
    try:
        vec = np.array([float(v) for v in values], dtype=float)
    except (TypeError, ValueError):
        raise _CliError(EXIT_VALIDATION, f"{name}: contains a non-number")
    if not np.isfinite(vec).all():
        raise _CliError(EXIT_VALIDATION, f"{name}: entries must be finite")
    if vec.shape[0] != length:
        raise _CliError(EXIT_VALIDATION,
                        f"{name}: expected {length} entries, got {vec.shape[0]}")
    return vec


def _finite_float(text: str) -> float:
    """argparse type for a float flag: NaN and infinities are refused."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _mixing_weight(text: str) -> float:
    """argparse type for ``--alpha``: a float strictly inside (0, 1)."""
    value = _finite_float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not strictly inside (0, 1)")
    return value


def _load(args) -> Problem:
    try:
        problem = load_problem(args.problem)
    except OSError as exc:
        raise _CliError(EXIT_VALIDATION, f"cannot read problem file: {exc}")
    except ProblemFileError as exc:
        field = f" (field: {exc.field})" if exc.field else ""
        raise _CliError(EXIT_VALIDATION, f"invalid problem file: {exc}{field}")
    if args.tol_config:
        try:
            with open(args.tol_config, "rb") as fh:
                overrides = json.load(fh)
            tol = _parse_tolerances(overrides, "tol-config")
        except (OSError, json.JSONDecodeError, ProblemFileError) as exc:
            raise _CliError(EXIT_VALIDATION, f"invalid --tol-config: {exc}")
        problem = dataclasses.replace(problem, tolerances=tol)
    _log.info("loaded problem (n=%d, digest=%s%s)", problem.map.n,
              problem.digest[:12],
              ", manifold" if problem.manifold is not None else "")
    return problem


def _emit(args, text: str):
    text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# Each handler returns (exit code, outcome, trace or None); main writes the
# outcome as an envelope, or as text lines when it is a list (sample).
def _cmd_classify_line(args, problem: Problem):
    n = problem.map.n
    xbar = _parse_vector(args.xbar, n, "--xbar")
    ybar = _parse_vector(args.ybar, n, "--ybar")
    img = quadmap.classify_line_image(problem.map, xbar, ybar)
    entries = (img.point, img.apex, img.ray_direction, img.line_point,
               img.line_direction, img.t_slope, img.t_offset)
    if not all(np.isfinite(v).all() for v in entries if v is not None):
        raise InternalNumerics(f"the {img.kind.value} image has a non-finite payload entry")
    payload: dict = {"kind": img.kind.value,
                     "coefficients": img.coeffs.as_array()}
    if img.kind is LineImageKind.POINT:
        payload["point"] = img.point
    elif img.kind is LineImageKind.RAY:
        payload["apex"] = img.apex
        payload["direction"] = img.ray_direction
    elif img.kind is LineImageKind.LINE:
        payload["point"] = img.line_point
        payload["direction"] = img.line_direction
    else:
        payload["conic"] = {"A": img.conic.A, "a": img.conic.a,
                            "a0": img.conic.a0}
        payload["parameter_map"] = {"row": img.t_row, "slope": img.t_slope,
                                    "offset": img.t_offset}
    return EXIT_OK, payload, None


def _cmd_witness(args, problem: Problem):
    cfg = problem.tolerances
    fmap = problem.map
    cone = problem.cone

    if args.verify_envelope:
        try:
            with open(args.verify_envelope, "rb") as fh:
                prior = json.load(fh)
            outcome = prior["outcome"]
            x_star = np.array(outcome["x_star"], dtype=float)
            e_star = np.array(outcome["e_star"], dtype=float)
            w = np.array(outcome["w"], dtype=float)
            branch = witness.Branch(outcome["branch"])
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            raise _CliError(EXIT_VALIDATION, f"invalid --verify-envelope: {exc}")
        cert = witness.WitnessCertificate(x_star, e_star, branch,
                                          witness.WitnessTrace())
        ok = witness.verify_certificate(fmap, cone, w, cert, cfg)
        return (EXIT_OK if ok else EXIT_BREAKDOWN,
                {"verification": "pass" if ok else "fail",
                 "w": w, "x_star": x_star, "e_star": e_star}, None)

    missing = [flag for flag, val in (("--xu", args.xu), ("--xv", args.xv),
                                      ("--alpha", args.alpha)) if val is None]
    if missing:
        raise _CliError(EXIT_VALIDATION, f"witness requires {', '.join(missing)}")
    n = fmap.n
    xu = _parse_vector(args.xu, n, "--xu")
    xv = _parse_vector(args.xv, n, "--xv")
    e1 = _parse_vector(args.e1, 2, "--e1")
    e2 = _parse_vector(args.e2, 2, "--e2")
    pu = witness.cone_point(fmap, cone, xu, e1, cfg)
    pv = witness.cone_point(fmap, cone, xv, e2, cfg)
    w = args.alpha * pu.value + (1.0 - args.alpha) * pv.value
    try:
        cert = witness.witness_convex_combination(fmap, cone, pu, pv,
                                                  args.alpha, cfg)
    except NumericalBreakdown as exc:
        trace = exc.trace.as_dict() if exc.trace is not None else None
        return (EXIT_BREAKDOWN, {"error": "NumericalBreakdown",
                                 "message": str(exc), "w": w}, trace)
    verified = witness.verify_certificate(fmap, cone, w, cert, cfg)
    _log.debug("witness branch=%s image=%s crossing=%s tau=%.17g",
               cert.branch.value, cert.trace.image_kind,
               cert.trace.ray_direction or "-", cert.trace.ray_t)
    return (EXIT_OK if verified else EXIT_BREAKDOWN,
            {"x_star": cert.x_star, "e_star": cert.e_star,
             "branch": cert.branch.value, "w": w, "verified": bool(verified)},
            cert.trace.as_dict())


def _restricted(problem: Problem):
    """The working map plus a describing note; restricts when a manifold is set."""
    if problem.manifold is None:
        return problem.map, None
    reduced = quadmap.restrict_to_manifold(problem.map, problem.manifold)
    return reduced, {"ambient_dim": problem.manifold.ambient_dim,
                     "manifold_dim": problem.manifold.dim}


def _cmd_slemma(args, problem: Problem):
    fmap, note = _restricted(problem)
    manifold = problem.manifold
    x_star = _parse_vector(args.x_star, problem.map.n, "--x-star")
    if manifold is not None:
        try:
            x_star = manifold.coordinates(x_star, problem.tolerances)
        except PreconditionViolated as exc:
            raise SlaterViolated(f"--x-star: {exc}") from exc
    verdict = slemma.decide(fmap.f, fmap.g, x_star, problem.tolerances)
    # an unbounded probe's dual value is -inf, which JSON cannot hold
    payload: dict = {"outcome": verdict.outcome.value,
                     "dual_curve": [[lam, None if val == -math.inf else val]
                                    for lam, val in verdict.diagnostics]}
    if note:
        payload["restriction"] = note
    if verdict.outcome is slemma.Outcome.MULTIPLIER_FOUND:
        payload["lambda"] = verdict.lam
    elif verdict.outcome is slemma.Outcome.COUNTEREXAMPLE_FOUND:
        x = verdict.x_witness
        payload["x_witness"] = x if manifold is None else manifold.embed(x)
    if verdict.outcome is slemma.Outcome.UNDECIDED:
        return EXIT_UNDECIDED, payload, None
    return EXIT_OK, payload, None


def _cmd_sample(args, problem: Problem):
    if args.count < 1:
        raise _CliError(EXIT_VALIDATION, "--count must be at least 1")
    if args.box < 0.0:
        raise _CliError(EXIT_VALIDATION, "--box must be nonnegative")
    fmap, _ = _restricted(problem)
    cone = problem.cone
    witness.check_box(fmap, cone, args.box)
    rng = np.random.default_rng(args.seed)
    lines = []
    for _ in range(args.count):
        x = rng.uniform(-args.box, args.box, size=fmap.n)
        lam, bet = rng.uniform(0.0, args.box, size=2)
        point = quadmap.eval_map(fmap, x) + lam * cone.b + bet * cone.c
        lines.append(f"{point[0]:.17g} {point[1]:.17g}")
    return EXIT_OK, lines, None


def _cmd_verify_convexity(args, problem: Problem):
    fmap, note = _restricted(problem)
    if args.rho is not None:
        if problem.manifold is None:
            raise _CliError(EXIT_VALIDATION,
                            "--rho requires a manifold in the problem file")
        bound = slemma.dual_lower_bound(fmap.f, fmap.g)
        if not np.isfinite(bound):
            raise _CliError(EXIT_VALIDATION,
                            "cannot validate --rho: dual value is nowhere finite")
        if args.rho > bound - 1e-6:
            raise _CliError(EXIT_VALIDATION,
                            f"--rho {args.rho} exceeds validated bound {bound - 1e-6:.6g}")
        fmap = quadmap.QuadraticMap(fmap.f.shifted(-args.rho), fmap.g)
    report = witness.convexity_probe(fmap, problem.cone, args.trials,
                                     args.seed, args.box, problem.tolerances)
    payload = dataclasses.asdict(report)
    if note:
        payload["restriction"] = note
    if args.rho is not None:
        payload["rho"] = args.rho
    return EXIT_OK if report.consistent else EXIT_CONVEXITY, payload, None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hck",
        description="Convexity certificates for planar images of quadratic maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="problem description JSON file")
        p.add_argument("--tol-config", default=None,
                       help="JSON file with tolerance overrides")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("classify-line", help="classify the image of a line")
    common(p)
    p.add_argument("--xbar", required=True, help="first point on the line")
    p.add_argument("--ybar", required=True, help="second point on the line")
    p.set_defaults(handler=_cmd_classify_line)

    p = sub.add_parser("witness", help="certify a convex combination")
    common(p)
    p.add_argument("--xu", help="preimage of the first member")
    p.add_argument("--e1", default="0 0", help="cone element of the first member")
    p.add_argument("--xv", help="preimage of the second member")
    p.add_argument("--e2", default="0 0", help="cone element of the second member")
    p.add_argument("--alpha", type=_mixing_weight, default=None,
                   help="mixing weight in (0,1)")
    p.add_argument("--verify-envelope", default=None,
                   help="re-verify a previously emitted witness envelope")
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("slemma", help="decide the two-quadratic alternative")
    common(p)
    p.add_argument("--x-star", required=True, help="strictly feasible point for g")
    p.set_defaults(handler=_cmd_slemma)

    p = sub.add_parser("sample", help="stream points of F(x) + e")
    common(p)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--box", type=_finite_float, default=1.0)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("verify-convexity", help="randomized convexity probe")
    common(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--box", type=_finite_float, default=1.0)
    p.add_argument("--rho", type=_finite_float, default=None,
                   help="objective shift (requires a manifold)")
    p.set_defaults(handler=_cmd_verify_convexity)

    return parser


_VALUE_FLAGS = frozenset({"--xbar", "--ybar", "--xu", "--xv", "--e1", "--e2",
                          "--x-star", "--alpha", "--box", "--rho"})


def _join_values(argv: list[str]) -> list[str]:
    """``--flag value`` as ``--flag=value`` for the value flags: argparse
    takes a value such as ``-2e-3`` or ``-1,2`` for an option otherwise."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _VALUE_FLAGS and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_values(argv))
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else 0
    try:
        problem = _load(args)
        start = time.perf_counter()
        code, outcome, trace = args.handler(args, problem)
        elapsed = time.perf_counter() - start
    except _CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except HckError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return ERROR_EXITS.get(type(exc), EXIT_VALIDATION)
    if isinstance(outcome, list):   # sample's text lines
        text = "\n".join(outcome)
    else:
        text = dump_envelope(result_envelope(["hck"] + argv, problem.digest,
                                             outcome, problem.tolerances,
                                             elapsed, trace=trace))
    try:
        _emit(args, text)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write the output: {exc}\n")
        return EXIT_VALIDATION
    return code


if __name__ == "__main__":
    sys.exit(main())
