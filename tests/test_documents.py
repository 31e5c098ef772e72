import itertools
import json
import math
import struct

import numpy as np
import pytest

from unitary3.documents import (
    PARAM_FIELDS,
    MalformedDocumentError,
    _recovery_text,
    parse_matrix,
    parse_params,
    serialize_matrix,
    serialize_params,
)
from unitary3.linalg import NonFiniteError
from unitary3.parametrization import UnitaryParams, compose_core, compose_unitary, recover_params
from unitary3.rotations import RotationAngles
from unitary3.sampling import SeededGenerator, generate_haar_unitary, random_params

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
    assert '"phi": -0.0,' in r.read_text(encoding="utf-8")
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
