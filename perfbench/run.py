"""hckit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify|probe|decide|cli \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  The benchmark is single-process and closed-loop with one client:
the next op starts when the previous one has ended.  Each run is a fresh
interpreter.

``--trace 0`` measures the end-to-end metrics for S seconds of ops.
``--trace 1`` runs S/2 seconds untraced and then S/2 seconds with every
public hckit function wrapped (see ``tracer.py``), and reports the
per-layer metrics.  Every op's output goes through the independent checker
in ``checker.py``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
carry the machine fingerprint, sample counts and the reasons of failed and
refused ops.  An op is refused when the library declines to answer in the
way its API documents (``NumericalBreakdown``, ``Undecided``, a probe that
records failures); refusals lower ``ok_ratio`` but are not counted in
``failed``, which counts only ops that went wrong otherwise.  The exit code
is 1 if the checker found a wrong answer, 2 if the library source is
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5



def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it says."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hckit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "git_commit": commit, "source_sha256": digest.hexdigest()}


def setup_seconds() -> float:
    """Median over fresh interpreters of the time ``import hckit`` takes."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import hckit; print(time.perf_counter() - t)")
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip()))
    return statistics.median(samples)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Phase:
    """Tallies of one measured phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.active = 0.0
        self.failures: Counter = Counter()
        self.refusals: Counter = Counter()
        self.wrong: Counter = Counter()

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values()) + sum(self.wrong.values())

    @property
    def refused(self) -> int:
        return sum(self.refusals.values())

    @property
    def throughput(self) -> float:
        return self.attempted / self.active


def measure(wl, seconds: float, on_op=None, on_result=None) -> Phase:
    """Run ops back to back until ``seconds`` of op time have passed.

    Inputs are prepared and outputs checked a batch at a time outside the
    measured time.  A failed or refused op counts as slower than every
    successful one.
    """
    phase = Phase()
    i = 0
    while phase.active < seconds:
        batch = [wl.prepare(j) for j in range(i, i + wl.batch)]
        done = []
        start = time.perf_counter()
        for j, (case, args) in enumerate(batch):
            if on_op is not None:
                on_op(i + j)
            t0 = time.perf_counter()
            result = wl.run(args)
            t1 = time.perf_counter()
            done.append((case, args, result, t1 - t0))
            if phase.active + (t1 - start) >= seconds:
                break
        phase.active += time.perf_counter() - start
        for case, args, result, dt in done:
            verdict, reason = wl.check(case, args, result)
            if verdict == "failed":
                phase.failures[reason] += 1
            elif verdict == "refused":
                phase.refusals[reason] += 1
            elif verdict == "wrong":
                phase.wrong[reason] += 1
            phase.latencies.append(dt if verdict == "ok" else math.inf)
            if on_result is not None:
                on_result(args)
        i += wl.batch
    return phase


def end_to_end(wl_cls, seed: int, seconds: float) -> tuple[Phase, dict, list[str]]:
    wl = wl_cls(ROOT, seed)
    phase = measure(wl, seconds)
    who = resource.RUSAGE_SELF if getattr(wl, "in_process", True) else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    lat = sorted(phase.latencies)
    n = len(lat)
    metrics = {
        "throughput_ops_s": (phase.throughput, "1/s"),
        "latency_p50_ms": (1e3 * percentile(lat, 0.5), "ms"),
        "latency_p90_ms": (1e3 * percentile(lat, 0.9), "ms"),
        "ok_ratio": ((phase.attempted - phase.failed - phase.refused) / phase.attempted,
                     "ratio"),
        "setup_s": (setup_seconds(), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [f"ops {n} in {phase.active:.3f} s; latency samples {n}, "
             f"beyond p50 {n - math.ceil(0.5 * n)}, beyond p90 {n - math.ceil(0.9 * n)}; "
             f"setup samples {SETUP_SAMPLES}"]
    return phase, metrics, notes


def per_layer(wl_cls, seed: int, seconds: float) -> tuple[Phase, dict, list[str]]:
    import tracer as tr
    in_process = getattr(wl_cls, "in_process", True)
    totals: Counter = Counter()
    if in_process:
        # the import every hck call pays, timed while the interpreter is fresh
        start = time.perf_counter()
        import hckit.cli  # noqa: F401
        import_s = time.perf_counter() - start
    base = measure(wl_cls(ROOT, seed), seconds / 2.0)
    wl = wl_cls(ROOT, seed)
    if in_process:
        out = ROOT / ".perfbench" / f"spans-{wl.name}-{seed}.npz"
        tracer = tr.Tracer()
        tracer.install()

        def on_op(i):
            tracer.op = i
        with tr.count_warnings(tracer.counts):
            phase = measure(wl, seconds / 2.0, on_op=on_op)
        tracer.uninstall()
        totals.update(tracer.summary())
        tracer.dump(out)
        totals["cli.import_s"] = import_s * phase.attempted
    else:
        out = wl.trace_dir = ROOT / ".perfbench" / f"trace-{wl.name}-{seed}"
        out.mkdir(parents=True, exist_ok=True)

        def on_result(args):
            trace = args[1]
            if trace is not None and trace.exists():
                totals.update(json.loads(trace.read_text()))
        phase = measure(wl, seconds / 2.0, on_result=on_result)
    ops = phase.attempted
    metrics = {}
    for name in tr.NAMES:
        metrics[f"{name}.calls"] = (totals[f"{name}.calls"] / ops, "1/op")
        metrics[f"{name}.self_s"] = (totals[f"{name}.self_s"] / ops, "s/op")
    decides = totals["slemma.decide.calls"]
    metrics["slemma.probes_per_decide"] = (
        totals["slemma.decide_probes"] / decides if decides else 0.0, "count")
    for name in ([f"witness.branch.{b}" for b in tr.BRANCHES]
                 + [f"slemma.outcome.{o}" for o in tr.OUTCOMES]):
        metrics[name] = (totals[name] / ops, "1/op")
    certs = totals["witness.certificates"]
    metrics["witness.fallback_ratio"] = (totals["witness.fallbacks"] / certs if certs else 0.0,
                                         "ratio")
    for module in tr.MODULES:
        metrics[f"{module}.warnings"] = (totals[f"{module}.warnings"] / ops, "1/op")
    metrics["cli.import_s"] = (totals["cli.import_s"] / ops, "s")
    metrics["trace.overhead_ratio"] = (phase.throughput / base.throughput, "ratio")
    notes = [f"untraced ops {base.attempted} in {base.active:.3f} s; "
             f"traced ops {ops} in {phase.active:.3f} s; spans in {out.relative_to(ROOT)}"]
    phase.failures.update(base.failures)
    phase.refusals.update(base.refusals)
    phase.wrong.update(base.wrong)
    phase.latencies += base.latencies
    return phase, metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hckit" / "__init__.py").is_file():
        print(f"error: no hckit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import checker
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    checker.self_test()
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"# fingerprint {json.dumps(fingerprint())}")
    run = per_layer if args.trace else end_to_end
    phase, metrics, notes = run(WORKLOADS[args.workload], args.seed, args.seconds)
    for note in notes:
        print(f"# {note}")
    if phase.failures:
        print(f"# failed ops by reason {json.dumps(dict(phase.failures))}")
    if phase.refusals:
        print(f"# refused ops by reason {json.dumps(dict(phase.refusals))}")
    if phase.wrong:
        print(f"# WRONG answers by reason {json.dumps(dict(phase.wrong))}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    correct = not phase.wrong
    print(json.dumps({"correct": correct, "attempted": phase.attempted,
                      "failed": phase.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
