"""Span tracing of hckit's public functions, installed from outside the library.

:func:`install` wraps each function in :data:`TARGETS` and rebinds the
wrapper at every import site: a function is looked up by identity in every
loaded ``hckit`` module, so ``conic2d.eigh`` and ``slemma.min_of_quadratic``
are patched as well as ``smallmat.eigh``.  A target that no longer exists
is skipped and reports zero calls.

Each call records a span ``(name, start, end, parent span, op id)`` in
memory.  A span's self time is its duration minus the time its child spans
cover.  :meth:`Tracer.summary` folds the spans into per-function call counts
and self times plus the counters the benchmark reports; :meth:`Tracer.dump`
writes the raw spans out at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MODULES = ("smallmat", "cone2d", "conic2d", "quadmap", "witness", "slemma",
           "problemio", "cli")

# (module, attribute, reported name)
TARGETS = (
    ("smallmat", "eigh", "smallmat.eigh"),
    ("smallmat", "min_of_quadratic", "smallmat.min_of_quadratic"),
    ("cone2d", "coords", "cone2d.coords"),
    ("cone2d", "contains", "cone2d.contains"),
    ("conic2d", "classify", "conic2d.classify"),
    ("conic2d", "first_negative_ray_hit", "conic2d.first_negative_ray_hit"),
    ("quadmap", "eval_map", "quadmap.eval_map"),
    ("quadmap", "classify_line_image", "quadmap.classify_line_image"),
    ("quadmap", "preimage_on_line", "quadmap.preimage_on_line"),
    ("quadmap", "restrict_to_manifold", "quadmap.restrict_to_manifold"),
    ("witness", "witness_convex_combination", "witness.witness_convex_combination"),
    ("witness", "verify_certificate", "witness.verify_certificate"),
    ("witness", "convexity_probe", "witness.convexity_probe"),
    ("slemma", "decide", "slemma.decide"),
    ("slemma", "dual_lower_bound", "slemma.dual_lower_bound"),
    # the scipy minimizer as slemma binds it: the BFGS multistart
    ("slemma", "_scipy_minimize", "slemma.bfgs"),
    ("problemio", "load_problem", "problemio.load_problem"),
    ("problemio", "dump_envelope", "problemio.dump_envelope"),
    ("cli", "main", "cli.main"),
)
NAMES = tuple(name for _, _, name in TARGETS)
BRANCHES = ("Case1_u", "Case1_v", "RayOrLine", "ParabolaIVT", "ParabolaRayHit")
OUTCOMES = ("MultiplierFound", "CounterexampleFound", "Undecided")


def _observe_certificate(counts: Counter, cert) -> None:
    counts["witness.certificates"] += 1
    counts[f"witness.branch.{cert.branch.value}"] += 1
    trace = cert.trace
    if getattr(trace, "rescue_used", False) or getattr(trace, "notes", None):
        counts["witness.fallbacks"] += 1


def _observe_verdict(counts: Counter, verdict) -> None:
    counts[f"slemma.outcome.{verdict.outcome.value}"] += 1


OBSERVERS = {"witness.witness_convex_combination": _observe_certificate,
             "slemma.decide": _observe_verdict}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list = []          # (name index, start, end, parent, op)
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self._restore: list = []

    def _wrap(self, index: int, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.op)
            if observe is not None:
                observe(counts, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every target at every binding in the loaded hckit modules."""
        for mod in MODULES:
            importlib.import_module(f"hckit.{mod}")
        loaded = [m for key, m in sys.modules.items()
                  if m is not None and (key == "hckit" or key.startswith("hckit."))]
        for index, (mod, attr, name) in enumerate(TARGETS):
            original = getattr(sys.modules[f"hckit.{mod}"], attr, None)
            if original is None:
                continue
            wrapper = self._wrap(index, name, original)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per-function calls and self seconds, plus counters, as plain numbers."""
        out: dict = {f"{name}.calls": 0 for name in NAMES}
        out.update({f"{name}.self_s": 0.0 for name in NAMES})
        out["slemma.decide_probes"] = 0
        done = self.spans              # every slot is filled once calls return
        if done:
            arr = np.array([(s[0], s[3]) for s in done], dtype=np.int64)
            times = np.array([(s[1], s[2]) for s in done])
            names, parents = arr[:, 0], arr[:, 1]
            dur = times[:, 1] - times[:, 0]
            child = np.zeros(len(done))
            has_parent = parents >= 0
            np.add.at(child, parents[has_parent], dur[has_parent])
            self_s = dur - child
            calls = np.bincount(names, minlength=len(NAMES))
            selfs = np.bincount(names, weights=self_s, minlength=len(NAMES))
            for index, name in enumerate(NAMES):
                out[f"{name}.calls"] = int(calls[index])
                out[f"{name}.self_s"] = float(selfs[index])
            # min_of_quadratic calls made under a decide span; a parent
            # slot is always lower than its children's
            decide = NAMES.index("slemma.decide")
            probe = NAMES.index("smallmat.min_of_quadratic")
            under = np.zeros(len(done), dtype=bool)
            for i in range(len(done)):
                p = parents[i]
                under[i] = p >= 0 and (names[p] == decide or under[p])
            out["slemma.decide_probes"] = int(np.sum(under & (names == probe)))
        out.update(self.counts)
        return out

    def dump(self, path: Path) -> None:
        """Write the raw spans (name index, start, end, parent, op) as ``.npz``."""
        rec = np.array(self.spans, dtype=[("name", "i2"), ("start", "f8"), ("end", "f8"),
                                    ("parent", "i8"), ("op", "i8")])
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, spans=rec, names=np.array(NAMES))


def warning_module(filename: str) -> str:
    """The hckit module a warning was attributed to, or ``other``."""
    p = Path(filename)
    return p.stem if p.parent.name == "hckit" and p.stem in MODULES else "other"


@contextmanager
def count_warnings(counts: Counter):
    """Count every warning by source module as ``<module>.warnings``.

    The ``always`` filter reports each occurrence, not the first per
    location, so this belongs only in the untimed traced run.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("always")

        def show(message, category, filename, lineno, file=None, line=None):
            counts[f"{warning_module(filename)}.warnings"] += 1

        warnings.showwarning = show
        yield
