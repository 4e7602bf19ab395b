import ast
import dataclasses
import inspect
import re
import textwrap
from pathlib import Path

import pytest

import hckit
from hckit import errors
from hckit.config import ToleranceConfig


def _library_source() -> str:
    package = Path(hckit.__file__).parent
    return "\n".join(path.read_text() for path in sorted(package.glob("*.py"))
                     if path.name != "config.py")


@pytest.mark.parametrize("config", [ToleranceConfig])
def test_every_field_is_read(config):
    # a documented threshold that no code path reads is a dead knob
    source = _library_source()
    unread = [f.name for f in dataclasses.fields(config)
              if not re.search(rf"\.{f.name}\b", source)]
    assert unread == []


def test_every_tol_constant_is_read():
    # a module-level threshold that no code path reads is a dead constant
    package = Path(hckit.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]
    defined = {target.id for tree in trees for stmt in tree.body
               if isinstance(stmt, ast.Assign) for target in stmt.targets
               if isinstance(target, ast.Name) and target.id.endswith("_TOL")}
    read = {node.id for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    assert defined and sorted(defined - read) == []


def test_no_shadow_knobs():
    # a per-call tol or search argument shadows the one ToleranceConfig
    shadows = [name for name in hckit.__all__
               if callable(obj := getattr(hckit, name))
               and {"tol", "search"} & set(inspect.signature(obj).parameters)]
    assert shadows == []


def test_every_cfg_is_read():
    # a cfg parameter that the body never reads is a dead knob
    unread = []
    for name in hckit.__all__:
        obj = getattr(hckit, name)
        if not (inspect.isfunction(obj) and "cfg" in inspect.signature(obj).parameters):
            continue
        body = ast.parse(textwrap.dedent(inspect.getsource(obj))).body[0].body
        if not any(isinstance(node, ast.Name) and node.id == "cfg"
                   for stmt in body for node in ast.walk(stmt)):
            unread.append(name)
    assert unread == []


def test_every_error_is_raised():
    # an exception type that no code path raises is a dead name
    source = _library_source()
    unraised = [name for name, cls in vars(errors).items()
                if isinstance(cls, type) and issubclass(cls, errors.HckError)
                and cls is not errors.HckError
                and not re.search(rf"raise {name}\(", source)]
    assert unraised == []


def test_every_export_resolves():
    # a stale name in __all__ only fails at "from hckit import *"
    missing = [name for name in hckit.__all__ if not hasattr(hckit, name)]
    assert missing == []
    from hckit.conic2d import Conic2

    assert hckit.Conic2 is Conic2
