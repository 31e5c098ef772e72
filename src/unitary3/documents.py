"""JSON document formats for matrices and parameter tuples.

MatrixDocument: {"kind": "unitary"|"hermitian"|"general", "re": [[...]x3],
"im": [[...]x3]} with row-major 3x3 float arrays.  ParamsDocument: the nine
named angle fields in radians; core-only documents omit phi/theta/varphi.
Floats are emitted with 17 significant digits so serialize -> parse is
bit-exact and a second serialize reproduces identical text.
"""
from __future__ import annotations

import json
import math
from operator import itemgetter
from typing import TYPE_CHECKING

from .linalg import NonFiniteError, Unitary3Error, as_matrix3
from .parametrization import UnitaryParams
from .rotations import RotationAngles

if TYPE_CHECKING:
    import numpy as np

MATRIX_KINDS = ("unitary", "hermitian", "general")
PARAM_FIELDS = ("phi", "theta", "varphi", "chi", "mu", "alpha1", "alpha2", "alpha3", "beta2")
CORE_FIELDS = PARAM_FIELDS[3:]
# A ParamsDocument with one %.17g per field (the format of _fmt), filled in
# field order from a parameter dict.
_PARAMS_TEMPLATE = "{\n" + ",\n".join(f'  "{k}": %.17g' for k in PARAM_FIELDS) + "\n}\n"
_param_values = itemgetter(*PARAM_FIELDS)


class MalformedDocumentError(Unitary3Error, ValueError):
    """Document fails to parse or violates the layout contract."""

    exit_code = 1
    kind = "malformed input"


class OutputWriteError(Unitary3Error, ValueError):
    """An output document could not be written (a missing directory, a
    path that is a file, no permission)."""

    kind = "cannot write output"


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _load_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocumentError(f"not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    except ValueError as exc:  # an integer literal beyond Python's int digit limit
        raise MalformedDocumentError(f"unreadable number: {exc}") from exc
    except RecursionError:
        raise MalformedDocumentError("nested too deeply") from None
    if not isinstance(doc, dict):
        raise MalformedDocumentError("top-level value must be an object")
    return doc


def _finite(x, field: str, *entry: int) -> float:
    """A JSON number as a finite float; ``field`` and grid ``entry`` name it in errors."""
    # json.loads yields exact types, so a bool is neither int nor float here.
    if type(x) is float:
        if math.isfinite(x):
            return x
        problem = "is not finite"
    elif type(x) is int:
        try:
            return float(x)
        except OverflowError:
            problem = "is too large for a float"
    else:
        problem = "is not numeric"
    where = " entry (%d,%d)" % entry if entry else ""
    raise MalformedDocumentError(f"field '{field}'{where} {problem}")


def _check_grid(doc: dict, field: str) -> list:
    """The nine entries of the 3x3 grid ``doc[field]``, row-major, as finite floats."""
    if field not in doc:
        raise MalformedDocumentError(f"missing field '{field}'")
    grid = doc[field]
    if not (isinstance(grid, list) and len(grid) == 3):
        raise MalformedDocumentError(f"field '{field}' must be a 3x3 array (3 rows)")
    for i, row in enumerate(grid):
        if not (isinstance(row, list) and len(row) == 3):
            raise MalformedDocumentError(f"field '{field}' row {i} must have 3 entries")
    # A finite float, what serialize_matrix writes, is kept without a call.
    return [
        x if type(x) is float and math.isfinite(x) else _finite(x, field, *divmod(k, 3))
        for k, x in enumerate(grid[0] + grid[1] + grid[2])
    ]


def parse_matrix(text: str) -> np.ndarray:
    """Parse a MatrixDocument into a complex 3x3 array.

    Entry (i, j) is complex(a + (0.0*b - 0.0), 0.0 + (0.0 + b)) for
    a = re[i][j] and b = im[i][j]: numpy's re + 1j*im, signs of zero included.
    """
    import numpy as np

    # A flat list and a reshape: numpy reads it faster than nested rows.
    return np.array(_parse_entries(text)).reshape(3, 3)


def _parse_rows(text: str) -> list:
    """parse_matrix without the array: three rows of three Python complex,
    exactly what as_matrix3(parse_matrix(text)).tolist() would give."""
    z = _parse_entries(text)
    return [z[0:3], z[3:6], z[6:9]]


def _parse_entries(text: str) -> list:
    """parse_matrix's validation and its nine entries, row-major, as Python
    complex."""
    doc = _load_json(text)
    kind = doc.get("kind")
    if kind not in MATRIX_KINDS:
        raise MalformedDocumentError(
            f"field 'kind' must be one of {MATRIX_KINDS}, got {kind!r}"
        )
    entries = zip(_check_grid(doc, "re"), _check_grid(doc, "im"))
    return [complex(a + (0.0 * b - 0.0), 0.0 + (0.0 + b)) for a, b in entries]


def serialize_matrix(m, kind: str = "general") -> str:
    """Serialize a 3x3 complex matrix; round-trips bit-exactly.  Raises
    NonFiniteError for a NaN or infinite entry, which JSON cannot hold."""
    return _serialize_rows(as_matrix3(m).tolist(), kind)


def _serialize_rows(rows, kind: str) -> str:
    """serialize_matrix of a matrix given as three rows of three Python complex."""
    if kind not in MATRIX_KINDS:
        raise MalformedDocumentError(f"unknown matrix kind {kind!r}")
    if not all(math.isfinite(z.real) and math.isfinite(z.imag) for row in rows for z in row):
        raise NonFiniteError("matrix has non-finite entries")
    rows_re = ["[" + ", ".join([_fmt(z.real) for z in row]) + "]" for row in rows]
    rows_im = ["[" + ", ".join([_fmt(z.imag) for z in row]) + "]" for row in rows]
    return (
        "{\n"
        f'  "kind": "{kind}",\n'
        '  "re": [' + ",\n         ".join(rows_re) + "],\n"
        '  "im": [' + ",\n         ".join(rows_im) + "]\n"
        "}\n"
    )


def parse_params(text: str) -> UnitaryParams:
    """Parse a ParamsDocument; missing rotation fields default to zero."""
    doc = _load_json(text)
    values = {}
    for field in PARAM_FIELDS:
        if field in CORE_FIELDS and field not in doc:
            raise MalformedDocumentError(f"missing field '{field}'")
        values[field] = _finite(doc.get(field, 0.0), field)
    unknown = set(doc) - set(PARAM_FIELDS)
    if unknown:
        raise MalformedDocumentError(f"unknown fields: {sorted(unknown)}")
    return UnitaryParams(
        rotation=RotationAngles(values["phi"], values["theta"], values["varphi"]),
        chi=values["chi"],
        mu=values["mu"],
        alpha1=values["alpha1"],
        alpha2=values["alpha2"],
        alpha3=values["alpha3"],
        beta2=values["beta2"],
    )


def serialize_params(p: UnitaryParams) -> str:
    """Serialize a parameter tuple; round-trips bit-exactly.  Raises
    NonFiniteError for a NaN or infinite field, which JSON cannot hold."""
    values = _param_values(p.as_dict())
    if not all(map(math.isfinite, values)):
        raise NonFiniteError("parameter tuple has non-finite fields")
    return _PARAMS_TEMPLATE % values
