"""Problem description files and machine-readable result envelopes.

Problems are JSON documents carrying the two quadratic forms, an optional
cone (default: the positive quadrant), an optional affine manifold (either a
linear system ``H x = d`` or an explicit point plus basis columns), and
optional tolerance overrides.  Every number must be finite: JSON ``NaN``,
``Infinity``, strings and booleans are refused with the field named.
Numbers survive a round trip exactly: output uses Python's shortest repr,
which is bit-faithful for doubles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .cone2d import Cone2, make_cone
from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import DegenerateCone, HckError, ProblemFileError
from .quadmap import AffineManifold, QuadraticForm, QuadraticMap, manifold_from_linear_system

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class Problem:
    map: QuadraticMap
    cone: Cone2
    manifold: AffineManifold | None
    tolerances: ToleranceConfig
    digest: str


def _require(condition: bool, message: str, field: str):
    if not condition:
        raise ProblemFileError(message, field=field)


def _as_float(raw, field: str) -> float:
    """A finite JSON number; booleans, strings, NaN and Infinity are refused."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            value = float(raw)
        except OverflowError:
            value = math.inf
        if math.isfinite(value):
            return value
    raise ProblemFileError(f"field '{field}': {raw!r} is not a finite number", field)


def _as_floats(raw, length: int, field: str) -> np.ndarray:
    _require(isinstance(raw, list), f"field '{field}' must be an array", field)
    _require(len(raw) == length,
             f"field '{field}' has length {len(raw)}, expected {length}", field)
    return np.array([_as_float(v, field) for v in raw], dtype=float)


def _parse_symmetric(raw, n: int, field: str) -> np.ndarray:
    """Accept a full row-major n*n array or the upper triangle, mirrored."""
    _require(isinstance(raw, list), f"field '{field}' must be an array", field)
    full = n * n
    tri = n * (n + 1) // 2
    if len(raw) == full:
        entries = _as_floats(raw, full, field).reshape(n, n)
        skew = float(np.max(np.abs(entries - entries.T))) if n > 0 else 0.0
        _require(skew <= 1e-12 * (1.0 + float(np.max(np.abs(entries)))),
                 f"field '{field}' is asymmetric beyond 1e-12 (max skew {skew:.3e})",
                 field)
        return 0.5 * (entries + entries.T)
    if len(raw) == tri and tri != full:
        vals = _as_floats(raw, tri, field)
        out = np.zeros((n, n))
        k = 0
        for i in range(n):
            for j in range(i, n):
                out[i, j] = vals[k]
                out[j, i] = vals[k]
                k += 1
        return out
    raise ProblemFileError(
        f"field '{field}' has length {len(raw)}; expected {full} (full) or {tri} (upper triangle)",
        field)


def _parse_matrix_rows(raw, n_cols: int, field: str) -> np.ndarray:
    _require(isinstance(raw, list), f"field '{field}' must be an array", field)
    if raw and not isinstance(raw[0], list):
        _require(len(raw) % n_cols == 0,
                 f"field '{field}' flat length {len(raw)} is not a multiple of {n_cols}",
                 field)
        return _as_floats(raw, len(raw), field).reshape(-1, n_cols)
    rows = []
    for i, row in enumerate(raw):
        rows.append(_as_floats(row, n_cols, f"{field}[{i}]"))
    return np.array(rows, dtype=float).reshape(len(rows), n_cols)


# tolerances that no code path reads any more; files naming them still parse
RETIRED_TOLERANCES = frozenset({"rescue_factor", "jacobi_off_tol",
                                "jacobi_max_sweeps", "class_tol", "on_tol"})


def _parse_tolerances(raw, field: str) -> ToleranceConfig:
    """Overrides of known tolerances, each a finite number greater than 0."""
    if raw is None:
        return DEFAULT_TOLERANCES
    _require(isinstance(raw, dict), f"field '{field}' must be an object", field)
    known = {f.name for f in dataclasses.fields(ToleranceConfig)}
    overrides = {}
    for key, value in raw.items():
        name = f"{field}.{key}"
        _require(key in known or key in RETIRED_TOLERANCES,
                 f"unknown tolerance '{key}'", name)
        if key in known:
            overrides[key] = _as_float(value, name)
            _require(overrides[key] > 0.0,
                     f"tolerance '{key}' must be greater than 0", name)
    return DEFAULT_TOLERANCES.with_overrides(**overrides)


def parse_problem(text: str | bytes) -> Problem:
    """Parse and validate a problem document; raises :class:`ProblemFileError`."""
    data = text.encode() if isinstance(text, str) else text
    digest = hashlib.sha256(data).hexdigest()
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"not valid JSON: {exc}", field=None)
    _require(isinstance(doc, dict), "document root must be an object", "$")
    version = doc.get("schema_version")
    _require(version == SCHEMA_VERSION,
             f"schema_version must be '{SCHEMA_VERSION}', got {version!r}",
             "schema_version")
    n = doc.get("dimension")
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1,
             "dimension must be a positive integer", "dimension")
    for name in ("P", "Q", "p", "q", "p0", "q0"):
        _require(name in doc, f"missing required field '{name}'", name)
    pmat = _parse_symmetric(doc["P"], n, "P")
    qmat = _parse_symmetric(doc["Q"], n, "Q")
    pvec = _as_floats(doc["p"], n, "p")
    qvec = _as_floats(doc["q"], n, "q")
    fmap = QuadraticMap(QuadraticForm(pmat, pvec, _as_float(doc["p0"], "p0")),
                        QuadraticForm(qmat, qvec, _as_float(doc["q0"], "q0")))

    tol = _parse_tolerances(doc.get("tolerances"), "tolerances")

    cone_raw = doc.get("cone")
    if cone_raw is None:
        cone = make_cone((1.0, 0.0), (0.0, 1.0), tol)
    else:
        _require(isinstance(cone_raw, dict), "field 'cone' must be an object", "cone")
        b = _as_floats(cone_raw.get("b", []), 2, "cone.b")
        c = _as_floats(cone_raw.get("c", []), 2, "cone.c")
        try:
            cone = make_cone(b, c, tol)
        except DegenerateCone as exc:
            raise ProblemFileError(f"cone generators are dependent: {exc}", "cone")

    manifold = None
    mraw = doc.get("manifold")
    if mraw is not None:
        _require(isinstance(mraw, dict), "field 'manifold' must be an object", "manifold")
        if "H" in mraw:
            _require("d" in mraw, "manifold with 'H' also needs 'd'", "manifold.d")
            h = _parse_matrix_rows(mraw["H"], n, "manifold.H")
            d = _as_floats(mraw["d"], h.shape[0], "manifold.d")
            try:
                manifold = manifold_from_linear_system(h, d, cfg=tol)
            except HckError as exc:
                raise ProblemFileError(f"manifold system rejected: {exc}", "manifold")
        elif "x0" in mraw:
            _require("basis" in mraw, "manifold with 'x0' also needs 'basis'",
                     "manifold.basis")
            x0 = _as_floats(mraw["x0"], n, "manifold.x0")
            cols = mraw["basis"]
            _require(isinstance(cols, list), "manifold.basis must be an array of columns",
                     "manifold.basis")
            basis = np.zeros((n, len(cols)))
            for j, col in enumerate(cols):
                basis[:, j] = _as_floats(col, n, f"manifold.basis[{j}]")
            try:
                manifold = AffineManifold(x0, basis)
            except (ValueError, HckError) as exc:
                raise ProblemFileError(f"manifold basis rejected: {exc}",
                                       "manifold.basis")
        else:
            raise ProblemFileError("manifold needs either 'H'/'d' or 'x0'/'basis'",
                                   "manifold")

    return Problem(map=fmap, cone=cone, manifold=manifold, tolerances=tol,
                   digest=digest)


def load_problem(path: str) -> Problem:
    with open(path, "rb") as fh:
        return parse_problem(fh.read())


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    return obj


def result_envelope(command: list[str], digest: str, outcome: dict,
                    tolerances: ToleranceConfig, timing_seconds: float,
                    trace: dict | None = None) -> dict:
    """Assemble the machine-readable result document."""
    env = {
        "schema_version": SCHEMA_VERSION,
        "command": list(command),
        "input_digest": f"sha256:{digest}",
        "outcome": _jsonable(outcome),
        "timing_seconds": timing_seconds,
        "tolerances": _jsonable(dataclasses.asdict(tolerances)),
    }
    if trace is not None:
        env["trace"] = _jsonable(trace)
    return env


def dump_envelope(env: dict) -> str:
    return json.dumps(env, indent=2, allow_nan=True)
