"""The benchmark's calls into the library still work.

``perfbench/`` drives the library through its public API.  This runs a few
of its ops end to end, ``prepare -> run -> check``, and expects each to be
judged ``ok`` by the benchmark's own checker, so an API change that breaks
the benchmark fails here first.  ``perfbench/`` is only imported, never
written: its modules are loaded without bytecode caching, and its top-level
``gen`` and ``checker`` never replace this suite's own ``gen`` in
``sys.modules``.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1


@pytest.fixture(scope="module")
def workloads():
    names = ("gen", "checker", "workloads")
    saved = {name: sys.modules.pop(name, None) for name in names}
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = dont_write
        for name in names:
            sys.modules.pop(name, None)
            if saved[name] is not None:
                sys.modules[name] = saved[name]


@pytest.mark.parametrize("name, ops", [("certify", None), ("decide", None), ("probe", 2)])
def test_ops_are_ok(workloads, name, ops):
    # one batch of each in-process workload, or ``ops`` ops of it
    workload = workloads.WORKLOADS[name](PERFBENCH.parent, SEED)
    verdicts = []
    for i in range(ops or workload.batch):
        case, args = workload.prepare(i)
        verdicts.append(workload.check(case, args, workload.run(args)))
    assert [v for v in verdicts if v[0] != "ok"] == []
