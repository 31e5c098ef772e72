"""JSON documents: every format the library and the CLI read or write.

MatrixDocument (parse_matrix, serialize_matrix; the CLI's ``compose`` and
``gen`` write it): {"kind": "unitary"|"hermitian"|"general",
"re": [[...]x3], "im": [[...]x3]} with row-major 3x3 float arrays.
ParamsDocument (parse_params, serialize_params): the nine PARAM_FIELDS in
radians; core-only documents omit phi/theta/varphi.  Both write each float
with %.17g, 17 significant digits, and the parsers read each back bit for
bit, -0.0 included (parse_matrix then forms complex(re, im)), so a
second serialize reproduces identical text and parse_matrix gives back
what serialize_matrix wrote, every sign of zero included.

The parsers read every JSON number as a float (_SCAN): %.17g prints an
integral float as an integer literal (-0, 0, 1), and -0 reads back as -0.0.
An integer literal beyond the float range reads as infinite, so it is
malformed like NaN and Infinity.

The CLI's reports, each written by one private writer that takes the
record a kernel returns (fields of Python scalars) and fills one %
template, laid out as json.dumps(indent=2) lays out the same object
(_layout), with each float written by %r, the repr json.dumps writes:

- recover (_recovery_text): the nine fields as repr prints a float
  (0.0, -0.0, 0.1), then residual, branch and
  global_phase_alpha1_degenerate, indented by 2.  parse_params reads it
  bit for bit, so ``compose`` takes what ``recover`` writes.
- roundtrip (_roundtrip_text): residual and branch on one line.
- chardecomp (_chardecomp_text): trace, eigenvalues, P1, P2,
  coefficients, the re/im grids of Rp_hat, Rm_hat and Ru_hat, and the
  regularity object, indented by 2.

The reader runs the C scanner that json.JSONDecoder runs
(_json.make_scanner).  README, Conventions: Imports and the array boundary.
"""
import math
from types import SimpleNamespace

from _json import make_scanner

from .linalg import Unitary3Error, _array, _check_finite, as_matrix3
from .parametrization import PARAM_FIELDS, UnitaryParams, _check_params, _values
from .rotations import RotationAngles

MATRIX_KINDS = ("unitary", "hermitian", "general")
CORE_FIELDS = PARAM_FIELDS[3:]
# The keys a recover document adds after the nine fields, each with the
# type of its value; parse_params accepts them and drops them.
_REPORT_FIELDS = {"residual": float, "branch": str, "global_phase_alpha1_degenerate": bool}


def _layout(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2) of nested dicts and lists (none empty)
    whose leaves are strings written as they are: a template's fields."""
    inner = pad + "  "
    if isinstance(value, dict):
        items = (f'"{k}": {_layout(v, inner)}' for k, v in value.items())
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, list):
        return "[" + inner + ("," + inner).join(_layout(v, inner) for v in value) + pad + "]"
    return value


# A ParamsDocument and a MatrixDocument with one %.17g per float.
_PARAMS_TEMPLATE = _layout(dict.fromkeys(PARAM_FIELDS, "%.17g")) + "\n"
_GRID = "[" + ",\n         ".join(["[%.17g, %.17g, %.17g]"] * 3) + "]"
_MATRIX_TEMPLATE = '{\n  "kind": "%s",\n  "re": ' + _GRID + ',\n  "im": ' + _GRID + "\n}\n"
# The CLI's reports: %r is json's float repr, a bool is written true or
# false, and a branch is one of _branch's ASCII labels, which need no escape.
_RECOVERY_TEMPLATE = _layout({**dict.fromkeys(PARAM_FIELDS, "%r"), "residual": "%r", "branch": '"%s"',
                              "global_phase_alpha1_degenerate": "%s"}) + "\n"
_ROUNDTRIP_TEMPLATE = '{"residual": %r, "branch": "%s"}\n'
_VECTOR = ["%r"] * 3
_PARTS = {"re": [_VECTOR] * 3, "im": [_VECTOR] * 3}
_CHARDECOMP_TEMPLATE = _layout({
    "trace": "%r", "eigenvalues": _VECTOR, "P1": "%r", "P2": "%r", "coefficients": _VECTOR,
    "Rp_hat": _PARTS, "Rm_hat": _PARTS, "Ru_hat": _PARTS,
    "regularity": {"m_hat": _VECTOR, "chi_m": "%r", "regular": "%s", "im_norm": "%r"},
}) + "\n"
_JSON_BOOL = {True: "true", False: "false"}
# json.JSONDecoder(parse_int=float)'s scanner: every JSON number as a float,
# so -0 keeps its sign and an integer literal beyond the float range reads
# as infinite; NaN and +-Infinity as json reads them; strict strings.
_SCAN = make_scanner(SimpleNamespace(
    strict=True, object_hook=None, object_pairs_hook=None, parse_float=float, parse_int=float,
    parse_constant={"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}.__getitem__,
))
# The whitespace JSONDecoder.decode skips before and after the value.
_SPACE = " \t\n\r"


class MalformedDocumentError(Unitary3Error, ValueError):
    """Document fails to parse or violates the layout contract."""

    exit_code = 1
    kind = "malformed input"


class OutputWriteError(Unitary3Error, ValueError):
    """An output document could not be written (a missing directory, a
    path that is a file, no permission)."""

    kind = "cannot write output"


def _load_json(text: str) -> dict:
    """json.JSONDecoder(parse_int=float).decode(text), which must be an
    object: the same scan, with the same whitespace skipped on each side.
    Malformed JSON is decoded once more by json itself, imported only
    then, so that its JSONDecodeError gives the message and line."""
    try:
        doc, end = _SCAN(text, len(text) - len(text.lstrip(_SPACE)))
    except RecursionError:
        raise MalformedDocumentError("nested too deeply") from None
    # No value where one must start (StopIteration), json.JSONDecodeError
    # (a ValueError), or, on CPython 3.11, SystemError: its scanner can
    # raise JSONDecodeError only once json.decoder is loaded.
    except (StopIteration, ValueError, SystemError):
        end = None
    if end is None or text[end:].lstrip(_SPACE):
        import json

        try:
            json.JSONDecoder(parse_int=float).decode(text)
        except json.JSONDecodeError as exc:
            raise MalformedDocumentError(f"not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocumentError("top-level value must be an object")
    return doc


def _finite(x, field: str, *entry: int) -> float:
    """A JSON number as a finite float; ``field`` and grid ``entry`` name it in errors."""
    # _SCAN reads every number as a float, and a bool is not one.
    if type(x) is float and math.isfinite(x):
        return x
    problem = "is not finite" if type(x) is float else "is not numeric"
    where = " entry (%d,%d)" % entry if entry else ""
    raise MalformedDocumentError(f"field '{field}'{where} {problem}")


def _check_grid(doc: dict, field: str) -> list:
    """The nine entries of the 3x3 grid ``doc[field]``, row-major, as finite floats."""
    if field not in doc:
        raise MalformedDocumentError(f"missing field '{field}'")
    grid = doc[field]
    if not (isinstance(grid, list) and len(grid) == 3):
        raise MalformedDocumentError(f"field '{field}' must be a 3x3 array (3 rows)")
    r0, r1, r2 = grid
    # Three lists of three, what serialize_matrix writes, pass one test;
    # otherwise the loop names the first bad row.
    if not (type(r0) is type(r1) is type(r2) is list and len(r0) == len(r1) == len(r2) == 3):
        for i, row in enumerate(grid):
            if not (isinstance(row, list) and len(row) == 3):
                raise MalformedDocumentError(f"field '{field}' row {i} must have 3 entries")
    values = r0 + r1 + r2
    # Nine finite floats, what serialize_matrix writes, pass in two C-level
    # maps.  _SCAN gives no int, so only a bool, which math.isfinite
    # takes as a number, needs the type test.  Otherwise the per-entry pass
    # names the first bad entry.
    try:
        if bool not in map(type, values) and all(map(math.isfinite, values)):
            return values
    except TypeError:  # a string, null, array or object
        pass
    for k, x in enumerate(values):
        _finite(x, field, *divmod(k, 3))


def parse_matrix(text: str):
    """Parse a MatrixDocument into a complex 3x3 array: entry (i, j) is
    complex(re[i][j], im[i][j]), signs of zero included."""
    return _array(_parse_entries(text))


def _parse_rows(text: str) -> list:
    """parse_matrix without the array: three rows of three Python complex,
    exactly what as_matrix3(parse_matrix(text)) would give."""
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
    return list(map(complex, _check_grid(doc, "re"), _check_grid(doc, "im")))


def serialize_matrix(m, kind: str = "general") -> str:
    """Serialize a 3x3 complex matrix; parse_matrix gives it back bit for
    bit.  Raises NonFiniteError for a NaN or infinite entry, which JSON
    cannot hold."""
    return _matrix_text(as_matrix3(m), kind)


def _matrix_text(rows, kind: str) -> str:
    """serialize_matrix of a matrix given as three rows of three Python
    complex with finite parts: as_matrix3 gives such rows, and so does
    parametrization._unitary_rows of finite parameters."""
    if kind not in MATRIX_KINDS:
        raise MalformedDocumentError(f"unknown matrix kind {kind!r}")
    return _MATRIX_TEMPLATE % (kind, *_parts(rows))


def _parts(rows) -> list:
    """The real parts of three rows of Python complex, row-major, then
    their imaginary parts."""
    return [z.real for row in rows for z in row] + [z.imag for row in rows for z in row]


def parse_params(text: str) -> UnitaryParams:
    """Parse a ParamsDocument; missing rotation fields default to zero.  The
    report fields of a recover document (a finite number, a string, a bool)
    are checked and dropped."""
    doc = _load_json(text)
    values = []
    for field in PARAM_FIELDS:
        if field in CORE_FIELDS and field not in doc:
            raise MalformedDocumentError(f"missing field '{field}'")
        values.append(_finite(doc.get(field, 0.0), field))
    unknown = doc.keys() - PARAM_FIELDS - _REPORT_FIELDS.keys()
    if unknown:
        raise MalformedDocumentError(f"unknown fields: {sorted(unknown)}")
    for field, kind in _REPORT_FIELDS.items():
        if field in doc and kind is float:
            _finite(doc[field], field)
        elif field in doc and type(doc[field]) is not kind:
            raise MalformedDocumentError(f"field '{field}' must be of type {kind.__name__}")
    return UnitaryParams(RotationAngles(*values[:3]), *values[3:])


def serialize_params(p: UnitaryParams) -> str:
    """Serialize a parameter tuple; round-trips bit-exactly.  Raises
    TypeError unless ``p`` is a UnitaryParams whose rotation is a
    RotationAngles, and NonFiniteError for a NaN or infinite field, which
    JSON cannot hold."""
    values = _check_params(p, "serialize_params")
    _check_finite(values)
    return _PARAMS_TEMPLATE % values


def _recovery_text(report) -> str:
    """The recover document of a RecoveryReport.  Every field is finite:
    the nine are angles that math.atan2 and the wraps give from the finite
    parts of a matrix that passed the unitarity gate, and the residual, a
    norm of the gap between two such matrices, passed
    ``residual <= tolerance``, which NaN fails."""
    flag = _JSON_BOOL[report.global_phase_alpha1_degenerate]
    return _RECOVERY_TEMPLATE % (*_values(report.params), report.residual, report.branch, flag)


def _roundtrip_text(report) -> str:
    """The roundtrip line of a RecoveryReport, finite as _recovery_text's."""
    return _ROUNDTRIP_TEMPLATE % (report.residual, report.branch)


def _chardecomp_text(rep) -> str:
    """The chardecomp document of a regularity record of Python scalars
    (characteristic._regularity).  Every field is finite: the trace and
    the eigenvalues passed _eig's range gates; the purity indices and
    coefficients combine eigenvalues over the trace, at most about 1 in
    modulus, since the zero-trace gate keeps the trace positive and the
    PSD gate keeps every eigenvalue above -_PSD_TOL times it; the
    components' entries are products of unit vectors' entries, chi_m is
    an atan2, and m_hat and im_norm are at most 1."""
    c = rep.components
    return _CHARDECOMP_TEMPLATE % (
        c.traceR, *c.eigen.values, *c.purity, *c.coefficients,
        *_parts(c.Rp_hat), *_parts(c.Rm_hat), *_parts(c.Ru_hat),
        rep.m1_hat, rep.m2_hat, rep.m3_hat, rep.chi_m, _JSON_BOOL[rep.regular], rep.im_norm,
    )
