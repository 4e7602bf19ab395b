import dataclasses
import inspect
import re
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


def test_no_shadow_knobs():
    # a per-call tol or search argument shadows the one ToleranceConfig
    shadows = [name for name in hckit.__all__
               if callable(obj := getattr(hckit, name))
               and {"tol", "search"} & set(inspect.signature(obj).parameters)]
    assert shadows == []


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
