"""The four benchmark workloads.

Each workload defines one op, its unit of work.  ``prepare(i)`` turns the
generated raw case for op ``i`` into library objects (untimed), ``run`` is
the op itself (timed), and ``check`` classifies its result with the
independent checker (untimed) as ``ok``, ``refused``, ``failed`` or
``wrong``.  ``run`` returns the exception instead of the result when the
library raises.  A ``NumericalBreakdown``, an ``Undecided`` verdict and a
probe that records failures are the library's documented ways of declining
to answer, so they count as refused; any other raised error counts as a
failed op.
"""

from __future__ import annotations

import importlib
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import checker
import gen


class Certify:
    """witness_convex_combination + verify_certificate on a fresh instance."""

    name = "certify"
    batch = 256

    def __init__(self, root: Path, seed: int):
        self.hk = importlib.import_module("hckit")
        self.breakdown = importlib.import_module("hckit.errors").NumericalBreakdown
        self.seed = seed

    def prepare(self, i: int):
        hk, case = self.hk, gen.certify_case(self.seed, i)
        fmap = hk.QuadraticMap(hk.QuadraticForm(*case["map"][0]),
                               hk.QuadraticForm(*case["map"][1]))
        cone = hk.Cone2(*case["cone"])
        pu = hk.ConePoint(x=case["xu"], e=case["e1"],
                          value=np.array([fmap.f(case["xu"]), fmap.g(case["xu"])]) + case["e1"])
        pv = hk.ConePoint(x=case["xv"], e=case["e2"],
                          value=np.array([fmap.f(case["xv"]), fmap.g(case["xv"])]) + case["e2"])
        alpha = case["alpha"]
        w = alpha * pu.value + (1.0 - alpha) * pv.value
        return case, (fmap, cone, pu, pv, alpha, w)

    def run(self, args):
        fmap, cone, pu, pv, alpha, w = args
        hk = self.hk
        try:
            cert = hk.witness_convex_combination(fmap, cone, pu, pv, alpha)
            return cert, hk.verify_certificate(fmap, cone, w, cert)
        except Exception as exc:  # noqa: BLE001 - check() classifies every raise
            return exc

    def check(self, case, args, result) -> tuple[str, str]:
        if isinstance(result, Exception):
            verdict = "refused" if isinstance(result, self.breakdown) else "failed"
            return verdict, f"{type(result).__name__} ({case['slice']} slice)"
        cert, verified = result
        if not checker.check_certificate(case["map"], case["cone"], args[5],
                                         cert.x_star, cert.e_star):
            return "wrong", "certificate"
        return ("ok", "") if verified else ("failed", "verifier rejected")


class Probe:
    """One in-process verify-convexity request with a fixed trial count.

    Mirrors ``hck verify-convexity``: on a manifold map the op restricts the
    map, bounds the dual, shifts f by ``rho = bound - 1`` and then probes.
    """

    name = "probe"
    batch = 4

    def __init__(self, root: Path, seed: int):
        hk = self.hk = importlib.import_module("hckit")
        self.seed = seed
        self.maps = gen.probe_maps(seed)
        self.specs = []
        for spec in self.maps:
            fmap = hk.QuadraticMap(hk.QuadraticForm(*spec["map"][0]),
                                   hk.QuadraticForm(*spec["map"][1]))
            cone = hk.Cone2(*spec["cone"]) if spec["cone"] is not None \
                else hk.positive_quadrant()
            manifold = None
            if spec["manifold"]:
                manifold = hk.manifold_from_linear_system(spec["H"], spec["d"])
            self.specs.append((fmap, cone, manifold))

    def prepare(self, i: int):
        case = gen.probe_case(self.seed, i, self.maps)
        return case, self.specs[i % len(self.specs)] + (case,)

    def run(self, args):
        fmap, cone, manifold, case = args
        hk = self.hk
        try:
            bound = None
            if manifold is not None:
                fmap = hk.restrict_to_manifold(fmap, manifold)
                bound = hk.dual_lower_bound(fmap.f, fmap.g)
                fmap = hk.QuadraticMap(fmap.f.shifted(-(bound - 1.0)), fmap.g)
            report = hk.convexity_probe(fmap, cone, case["trials"], case["trial_seed"],
                                        case["box"])
            return report, bound
        except Exception as exc:  # noqa: BLE001 - check() classifies every raise
            return exc

    def check(self, case, args, result) -> tuple[str, str]:
        if isinstance(result, Exception):
            return "failed", type(result).__name__
        report, bound = result
        if (sum(report.branch_counts.values()) + len(report.failures) != case["trials"]
                or not math.isfinite(report.max_residual)):
            return "wrong", "report"
        if bound is not None:
            rng = gen.rng_for(self.seed, case["trial_seed"], 5)
            pts = checker.manifold_points(case["H"], case["d"], rng, 256, case["box"])
            if not checker.check_dual_bound(case["map"][0], case["map"][1], bound, pts):
                return "wrong", "dual bound"
        return ("ok", "") if not report.failures else ("refused", "probe failures")


class Decide:
    """slemma.decide on one Slater instance."""

    name = "decide"
    batch = len(gen.DECIDE_SLOTS)

    def __init__(self, root: Path, seed: int):
        self.hk = importlib.import_module("hckit")
        self.seed = seed

    def prepare(self, i: int):
        hk, case = self.hk, gen.decide_case(self.seed, i)
        return case, (hk.QuadraticForm(*case["f"]), hk.QuadraticForm(*case["g"]),
                      case["x_star"])

    def run(self, args):
        try:
            return self.hk.decide(*args)
        except Exception as exc:  # noqa: BLE001 - check() classifies every raise
            return exc

    def check(self, case, args, result) -> tuple[str, str]:
        if isinstance(result, Exception):
            return "failed", type(result).__name__
        outcome = result.outcome.value
        verdict = checker.check_verdict(case["f"], case["g"], outcome, result.lam,
                                        result.x_witness, case["known_multiplier"])
        return verdict, outcome if verdict != "ok" else ""


class Cli:
    """One cold-start ``hck`` subprocess, run one at a time."""

    name = "cli"
    batch = len(gen.CLI_COMMANDS)
    in_process = False

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.work = root / ".perfbench" / f"cli-{seed}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.cases: dict = {}
        self.trace_dir: Path | None = None

    def prepare(self, i: int):
        case = gen.cli_case(self.seed, i)
        if case["key"] not in self.cases:
            path = self.work / f"{case['key']}.json"
            path.write_text(case["doc"])
            self.cases[case["key"]] = path
        trace = None if self.trace_dir is None else self.trace_dir / f"op{i}.json"
        argv = [sys.executable, str(self.root / "perfbench" / "hck.py")]
        if trace is not None:
            argv += ["--trace-out", str(trace)]
        argv += [case["command"], str(self.cases[case["key"]])] + case["args"]
        return case, (argv, trace)

    def run(self, args):
        try:
            proc = subprocess.run(args[0], capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            return None, ""
        return proc.returncode, proc.stdout

    def check(self, case, args, result) -> tuple[str, str]:
        code, stdout = result
        verdict = checker.check_envelope(case, code, stdout)
        return verdict, "" if verdict == "ok" else f"{case['command']} exit {code}"


WORKLOADS = {cls.name: cls for cls in (Certify, Probe, Decide, Cli)}
