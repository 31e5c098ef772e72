import itertools
import json
import math
import struct

import numpy as np
import pytest

from unitary3.characteristic import _regularity
from unitary3.documents import (
    PARAM_FIELDS,
    MalformedDocumentError,
    _chardecomp_text,
    _load_json,
    _recovery_text,
    _roundtrip_text,
    parse_matrix,
    parse_params,
    serialize_matrix,
    serialize_params,
)
from unitary3.linalg import NonFiniteError, as_matrix3
from unitary3.parametrization import UnitaryParams, compose_core, compose_unitary, recover_params
from unitary3.rotations import RotationAngles
from unitary3.sampling import SeededGenerator, generate_haar_unitary, random_params, random_psd_hermitian

from test_cli import run_cli


def params_bits(p: UnitaryParams) -> bytes:
    """The nine fields of ``p`` as IEEE doubles: == on floats would not see
    a sign of zero."""
    return struct.pack("9d", *p.rotation, *p[1:])


def test_identity_document():
    text = serialize_matrix(np.eye(3), kind="unitary")
    m = parse_matrix(text)
    assert np.array_equal(m, np.eye(3).astype(complex))


def test_matrix_roundtrip_bit_exact():
    g = SeededGenerator(61)
    for _ in range(100):
        m = generate_haar_unitary(g)
        text = serialize_matrix(m, kind="unitary")
        again = parse_matrix(text)
        assert np.array_equal(m, again)
        assert serialize_matrix(again, kind="unitary") == text


def test_parse_matrix_bits(tmp_path):
    # parse_matrix gives complex(re, im) bit for bit (array_equal would not
    # see a sign of zero), and it reads back what serialize_matrix wrote,
    # every sign of zero included: serialize_matrix writes -0.0 as the
    # integer literal -0, which must read back as -0.0, and the entries
    # complex(-0.0, 0.0) and complex(-0.0, -0.0) must keep both signs.
    grids = []
    for re0, im0 in itertools.product([0.0, -0.0, 0.5, -0.5], repeat=2):
        grids.append(([[re0, -0.0, 0.0], [0.0, re0, -0.0], [1.0, -1.0, re0]],
                      [[im0, 0.0, -0.0], [-0.0, im0, 0.0], [-1.0, 1.0, im0]]))
    grids.append(([[1, 0, -2], [0, 1, 0], [3, 0, 1]], [[0, -1, 0], [2, 0, 0], [0, 0, -3]]))
    grids.append(([[1, -0.0, 0.25], [0, 1, 0], [0.0, 0, 1]], [[-0.0, 0, 0.0], [0, 1, -0.0], [0, 0, 0]]))
    g = SeededGenerator(63)
    for _ in range(100):
        u = generate_haar_unitary(g)
        grids.append((u.real.tolist(), u.imag.tolist()))
    for re, im in grids:
        text = json.dumps({"kind": "general", "re": re, "im": im})
        want = np.array([[complex(a, b) for a, b in zip(ra, ia)] for ra, ia in zip(re, im)])
        assert parse_matrix(text).tobytes() == want.tobytes(), text
        assert parse_matrix(serialize_matrix(want)).tobytes() == want.tobytes(), text
    # compose --core-only at chi = 0 writes entry (0,1) = complex(-0.0, 0.0)
    # as -0 and 0; recover must read the matrix that was composed.
    core = compose_core(0.0, 0.3, 0.1, 0.2, 0.3, 0.4)
    assert math.copysign(1.0, core[0, 1].real) == -1.0
    params = tmp_path / "p.json"
    params.write_text(serialize_params(UnitaryParams(RotationAngles(0.0, 0.0, 0.0), 0.0, 0.3, 0.1,
                                                     0.2, 0.3, 0.4)), encoding="utf-8")
    code, out, _ = run_cli(["compose", "--params", str(params), "--core-only"])
    assert code == 0
    assert parse_matrix(out).tobytes() == core.tobytes()


def test_matrix_wrong_shape():
    doc = {"kind": "general", "re": [[0, 0, 0], [0, 0, 0]], "im": [[0] * 3] * 3}
    with pytest.raises(MalformedDocumentError, match="re"):
        parse_matrix(json.dumps(doc))


@pytest.mark.parametrize("rows", [[[1, 0], [0, 1, 0, 0], [0, 0, 1]], ["abc", [0, 1, 0], [0, 0, 1]]],
                         ids=["nine-entries", "string-row"])
def test_matrix_row_of_three_entries(rows):
    # Each row is checked: rows of 2, 4 and 3 entries hold nine in all, and
    # a string of three characters is not a row.
    doc = {"kind": "general", "re": rows, "im": [[0] * 3] * 3}
    with pytest.raises(MalformedDocumentError, match=r"^field 're' row 0 must have 3 entries$"):
        parse_matrix(json.dumps(doc))


GRID_ROW = "[1, 0, 0]"
BAD_ROWS = {"string": '"abc"', "object": '{"a": 1, "b": 2, "c": 3}', "number": "1", "null": "null",
            "two": "[1, 0]"}


@pytest.mark.parametrize("field", ["re", "im"])
@pytest.mark.parametrize("i", [0, 1, 2])
@pytest.mark.parametrize("bad", BAD_ROWS.values(), ids=BAD_ROWS.keys())
def test_matrix_bad_row_named(field, i, bad):
    # A row that is not a list of three entries is named by its index, the
    # first of two bad ones
    rows = [GRID_ROW] * 3
    rows[i] = bad
    if i < 2:
        rows[2] = "[]"
    grids = {"re": "[%s]" % ", ".join(rows), "im": "[%s]" % ", ".join([GRID_ROW] * 3)}
    if field == "im":
        grids["re"], grids["im"] = grids["im"], grids["re"]
    text = '{"kind": "general", "re": %(re)s, "im": %(im)s}' % grids
    with pytest.raises(MalformedDocumentError) as exc:
        parse_matrix(text)
    assert str(exc.value) == f"field '{field}' row {i} must have 3 entries"


@pytest.mark.parametrize("grid", ['"abc"', '{"a": 1, "b": 2, "c": 3}', "3", "null",
                                  "[[1, 0, 0], [0, 1, 0]]"])
def test_matrix_grid_not_three_rows(grid):
    text = '{"kind": "general", "re": %s, "im": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}' % grid
    with pytest.raises(MalformedDocumentError) as exc:
        parse_matrix(text)
    assert str(exc.value) == "field 're' must be a 3x3 array (3 rows)"


def test_matrix_missing_field():
    with pytest.raises(MalformedDocumentError, match="missing field 'im'"):
        parse_matrix(json.dumps({"kind": "general", "re": [[0] * 3] * 3}))


def test_matrix_bad_kind():
    doc = {"kind": "spooky", "re": [[0] * 3] * 3, "im": [[0] * 3] * 3}
    with pytest.raises(MalformedDocumentError, match="kind"):
        parse_matrix(json.dumps(doc))


def test_matrix_non_numeric_entry():
    doc = {"kind": "general", "re": [[0, 0, "x"], [0] * 3, [0] * 3], "im": [[0] * 3] * 3}
    with pytest.raises(MalformedDocumentError, match=r"\(0,2\)"):
        parse_matrix(json.dumps(doc))


@pytest.mark.parametrize("literal, problem", [
    ("true", "is not numeric"), ("false", "is not numeric"), ("null", "is not numeric"),
    ('"1"', "is not numeric"), ("[1.0]", "is not numeric"), ("{}", "is not numeric"),
    ("NaN", "is not finite"), ("Infinity", "is not finite"), ("-Infinity", "is not finite"),
    ("1e400", "is not finite"),
])
def test_matrix_bad_entry_at_every_position(literal, problem):
    # The other entries are 1.0, 0.0 and -0.0: true passes math.isfinite and
    # equals 1.0, so only its type tells it from a number.
    good = ["1.0", "0.0", "-0.0"]
    for k in range(18):
        field, (i, j) = ("re", "im")[k // 9], divmod(k % 9, 3)
        entries = [good[(k + n) % 3] for n in range(18)]
        entries[k] = literal
        grids = ["[" + ", ".join("[%s, %s, %s]" % tuple(entries[m + 3 * r:m + 3 * r + 3]) for r in range(3)) + "]"
                 for m in (0, 9)]
        text = '{"kind": "general", "re": %s, "im": %s}' % tuple(grids)
        with pytest.raises(MalformedDocumentError) as info:
            parse_matrix(text)
        assert str(info.value) == f"field '{field}' entry ({i},{j}) {problem}", text


def test_matrix_not_json():
    with pytest.raises(MalformedDocumentError, match="JSON"):
        parse_matrix("kind: unitary")


def test_params_roundtrip_bit_exact():
    g = SeededGenerator(62)
    for _ in range(100):
        p = random_params(g)
        text = serialize_params(p)
        q = parse_params(text)
        assert p == q
        assert serialize_params(q) == text


def test_serialize_params_bytes():
    # One %.17g per field, as float() of the field formats it.
    values = [-0.0, 1.0, np.float64(-2.5), np.float64(1e-300), 0.1, np.float64(-0.0),
              np.pi, -1.0, 2.0]
    p = UnitaryParams(RotationAngles(*values[:3]), *values[3:])
    body = ",\n".join('  "%s": %s' % (k, "%.17g" % float(v)) for k, v in zip(PARAM_FIELDS, values))
    assert serialize_params(p) == "{\n" + body + "\n}\n"


def test_serialize_matrix_rejects_non_finite():
    # JSON has no inf or NaN, so writing one would give a document that
    # parse_matrix rejects as not valid JSON.
    for bad in (np.inf, -np.inf, np.nan, complex(0.0, np.inf)):
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(NonFiniteError):
            serialize_matrix(m)


def test_serialize_matrix_rejects_unknown_kind():
    with pytest.raises(MalformedDocumentError, match="bogus"):
        serialize_matrix(np.eye(3), kind="bogus")


def test_serialize_params_rejects_non_finite():
    p = random_params(SeededGenerator(64))
    for field in ("chi", "alpha3"):
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteError):
                serialize_params(p._replace(**{field: bad}))
    rotation = RotationAngles(p.rotation.phi, -np.inf, p.rotation.varphi)
    with pytest.raises(NonFiniteError):
        serialize_params(p._replace(rotation=rotation))


def test_params_core_only():
    g = SeededGenerator(63)
    p = random_params(g)
    core = {k: v for k, v in p.as_dict().items() if k not in ("phi", "theta", "varphi")}
    q = parse_params(json.dumps(core))
    assert (q.rotation.phi, q.rotation.theta, q.rotation.varphi) == (0.0, 0.0, 0.0)
    assert (q.chi, q.mu, q.beta2) == (p.chi, p.mu, p.beta2)


def test_params_missing_core_field():
    with pytest.raises(MalformedDocumentError, match="chi"):
        parse_params(json.dumps({"mu": 0, "alpha1": 0, "alpha2": 0, "alpha3": 0, "beta2": 0}))


def test_params_unknown_field():
    doc = {k: 0.0 for k in ("phi", "theta", "varphi", "chi", "mu",
                            "alpha1", "alpha2", "alpha3", "beta2", "bogus")}
    with pytest.raises(MalformedDocumentError, match="bogus"):
        parse_params(json.dumps(doc))


def test_params_reads_recover_document(tmp_path):
    # The recover document is a ParamsDocument plus three report fields,
    # which parse_params checks and drops.  Every field comes back bit for
    # bit, signs of zero included.
    g = SeededGenerator(65)
    units = [np.eye(3), np.diag([1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0])]
    units += [generate_haar_unitary(g) for _ in range(50)]
    for u in units:
        report = recover_params(u)
        assert params_bits(parse_params(_recovery_text(report))) == params_bits(report.params)
    # recover_params(I) has phi = -0.0: composing the file that recover
    # writes gives compose_unitary(report.params) byte for byte.
    report = recover_params(np.eye(3))
    assert math.copysign(1.0, report.params.rotation.phi) == -1.0
    m, r = tmp_path / "m.json", tmp_path / "r.json"
    m.write_text(serialize_matrix(np.eye(3), kind="unitary"), encoding="utf-8")
    assert run_cli(["recover", "--matrix", str(m), "--out", str(r)]) == (0, "", "")
    text = r.read_text(encoding="utf-8")
    assert '"phi": -0.0,' in text
    assert '"branch": "b1",' in text and '"global_phase_alpha1_degenerate": false' in text
    expected = serialize_matrix(compose_unitary(report.params), kind="unitary")
    assert run_cli(["compose", "--params", str(r)]) == (0, expected, "")


def test_params_report_fields_checked():
    doc = json.loads(_recovery_text(recover_params(generate_haar_unitary(SeededGenerator(66)))))
    for field, bad in (("residual", "0"), ("residual", True), ("residual", 10**400),
                       ("branch", 1), ("branch", None), ("global_phase_alpha1_degenerate", 0),
                       ("global_phase_alpha1_degenerate", "false")):
        with pytest.raises(MalformedDocumentError, match=field):
            parse_params(json.dumps({**doc, field: bad}))
    text = json.dumps(doc).replace('"residual": %r' % doc["residual"], '"residual": NaN')
    with pytest.raises(MalformedDocumentError, match="'residual' is not finite"):
        parse_params(text)
    with pytest.raises(MalformedDocumentError, match="bogus"):
        parse_params(json.dumps({**doc, "bogus": 0.0}))


def test_params_non_finite():
    doc = {k: 0.0 for k in ("chi", "mu", "alpha1", "alpha2", "alpha3", "beta2")}
    text = json.dumps(doc).replace('"chi": 0.0', '"chi": NaN')
    with pytest.raises(MalformedDocumentError):
        parse_params(text)


def test_huge_integer_entries():
    # Every JSON number reads as a float, so an integer literal beyond the
    # float range, even one past Python's int digit limit, is infinite.
    huge = 10**400
    doc = {"kind": "general", "re": [[0, 0, 0], [0, huge, 0], [0, 0, 0]],
           "im": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}
    with pytest.raises(MalformedDocumentError, match=r"'re' entry \(1,1\) is not finite"):
        parse_matrix(json.dumps(doc))
    doc["re"][1][1], doc["im"][2][0] = 0, -huge
    with pytest.raises(MalformedDocumentError, match=r"'im' entry \(2,0\) is not finite"):
        parse_matrix(json.dumps(doc))
    params = {k: 0 for k in ("chi", "mu", "alpha1", "alpha2", "alpha3", "beta2")}
    with pytest.raises(MalformedDocumentError, match="'mu' is not finite"):
        parse_params(json.dumps(dict(params, mu=huge)))
    with pytest.raises(MalformedDocumentError, match="'mu' is not finite"):
        parse_params(json.dumps(params).replace('"mu": 0', '"mu": 1' + "0" * 5000))
    # Integers within the float range still parse, to the nearest float.
    assert parse_params(json.dumps(dict(params, mu=10**300))).mu == 1e300


def reference_load(text: str):
    """The reader as json.JSONDecoder(parse_int=float).decode: the value,
    or the MalformedDocumentError text it gives."""
    try:
        doc = json.JSONDecoder(parse_int=float).decode(text)
    except json.JSONDecodeError as exc:
        return f"not valid JSON (line {exc.lineno}): {exc.msg}"
    except RecursionError:
        return "nested too deeply"
    return doc if isinstance(doc, dict) else "top-level value must be an object"


_OBJECT = '{"a": [1, -0, 0.5, -0.0, true, null, "s", {}], "b": {"c": []}}'
READER_CORPUS = [
    _OBJECT, " \t\n\r" + _OBJECT + "\r\n\t ", "\n\n" + _OBJECT + "\n\n x", _OBJECT + " {}",
    _OBJECT + "\n\n\t]", "", " ", "\n\t\r\n", "\f" + _OBJECT, _OBJECT + "\v", _OBJECT + "\x00",
    "\ufeff" + _OBJECT, "\ufeff", '{"a": "\\ud800"}', '{"a": "\\udc00\\ud800x"}', '{"a": "\x01"}',
    '{"a": "b\nc"}', '{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}', '{"a": -NaN}',
    '{"a": 1' + "0" * 400 + "}", '{"a": -1' + "0" * 5000 + "}", '{"a": 1e400}', '{"a": 1, "a": -0}',
    '{"a": 1, "b": 2, "a": 3}', "[" * 100000, "{" * 100000, '{"a": ' * 50000, "[]", "null", "-0", '"x"',
    "{not json", "{", "}", '{"a": 01}', '{"a": 1.}', '{"a": .5}', '{"a": -}', '{"a": tru}', "{'a': 1}",
    '{"a": 1,}', '{"a" 1}', '{"a": "\\x"}', '{"a": "\\u12"}', '{"a": "b', "{\n\n\n x", "\n" * 5 + "{\n\n]",
]


@pytest.mark.parametrize("index", range(len(READER_CORPUS)))
def test_reader_matches_json_decoder(index):
    # _load_json is json.JSONDecoder(parse_int=float).decode by another
    # route: the same value, repr for repr (signs of zero included), or
    # the same MalformedDocumentError text.
    text = READER_CORPUS[index]
    expected = reference_load(text)
    try:
        got = _load_json(text)
    except MalformedDocumentError as exc:
        got = str(exc)
    assert repr(got) == repr(expected)


# The writers as json.dumps wrote them: each template must give these bytes.
def reference_recovery_text(report) -> str:
    doc = {**report.params.as_dict(), **{field: getattr(report, field)
                                         for field in ("residual", "branch", "global_phase_alpha1_degenerate")}}
    return json.dumps(doc, indent=2) + "\n"


def reference_roundtrip_text(report) -> str:
    return json.dumps({"residual": report.residual, "branch": report.branch}) + "\n"


def _grid(rows) -> dict:
    return {"re": [[z.real for z in row] for row in rows], "im": [[z.imag for z in row] for row in rows]}


def reference_chardecomp_text(rep) -> str:
    c = rep.components
    return json.dumps({
        "trace": c.traceR,
        "eigenvalues": c.eigen.values,
        "P1": c.purity.P1,
        "P2": c.purity.P2,
        "coefficients": list(c.coefficients),
        "Rp_hat": _grid(c.Rp_hat),
        "Rm_hat": _grid(c.Rm_hat),
        "Ru_hat": _grid(c.Ru_hat),
        "regularity": {
            "m_hat": [rep.m1_hat, rep.m2_hat, rep.m3_hat],
            "chi_m": rep.chi_m,
            "regular": rep.regular,
            "im_norm": rep.im_norm,
        },
    }, indent=2) + "\n"


# Each chart face, as (field, value, the side of its inside).
FACE_POINTS = [("chi", 0.0, 1), ("chi", math.pi / 4, -1), ("chi", -math.pi / 4, 1), ("mu", 0.0, 1),
               ("mu", math.pi / 2, -1), ("theta", 0.0, -1), ("theta", math.pi / 2, -1), ("theta", -math.pi / 2, 1)]


def test_recovery_writers_match_json_dumps():
    g = SeededGenerator(71)
    units = [np.eye(3), np.diag([1.0, 1.0, -1.0])] + [generate_haar_unitary(g) for _ in range(200)]
    for i in range(400):
        field, value, side = FACE_POINTS[i % len(FACE_POINTS)]
        fields = random_params(g, margin=0.05).as_dict()
        fields[field] = value + (0.0 if i < 80 else side * 10.0 ** -(i % 13 + 1))
        values = [fields[k] for k in PARAM_FIELDS]
        p = UnitaryParams(RotationAngles(*values[:3]), *values[3:])
        units.append(compose_unitary(p))
    flags, branches = set(), set()
    for u in units:
        report = recover_params(u)
        assert _recovery_text(report) == reference_recovery_text(report)
        assert _roundtrip_text(report) == reference_roundtrip_text(report)
        flags.add(report.global_phase_alpha1_degenerate)
        branches.add(report.branch)
    assert flags == {True, False}
    assert "circular-fallback" in branches and len(branches) >= 4, branches


def test_chardecomp_writer_matches_json_dumps():
    g = SeededGenerator(72)
    matrices = [np.eye(3), np.diag([0.4, 0.4, 0.2]), np.diag([1.0, 0.0, 0.0])]
    for i in range(300):
        if i % 5 <= 1:
            r = random_psd_hermitian(g)
        elif i % 5 <= 3:
            a = g.complex_gauss_matrix()
            a[:, 4 - i % 5:] = 0.0  # rank 2, then rank 1
            r = a @ a.conj().T
        else:
            r = random_psd_hermitian(g) * (1e-250, 1e-100, 1e-10, 1e6, 1e100, 1e250)[i // 5 % 6]
        matrices.append(r)
    verdicts = set()
    for r in matrices:
        rep = _regularity(as_matrix3(r))
        assert _chardecomp_text(rep) == reference_chardecomp_text(rep)
        verdicts.add(rep.regular)
    assert verdicts == {True, False}
