import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import unitary3.characteristic
import unitary3.selftest
from unitary3.characteristic import characteristic_decomposition, regularity_report
from unitary3.cli import main
from unitary3.documents import parse_matrix, serialize_matrix, serialize_params
from unitary3.parametrization import UnitaryParams
from unitary3.rotations import RotationAngles
from unitary3.sampling import SeededGenerator, random_psd_hermitian


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_params(tmp_path, name="p.json", **kw):
    p = UnitaryParams(
        rotation=RotationAngles(kw.get("phi", 0.0), kw.get("theta", 0.0), kw.get("varphi", 0.0)),
        chi=kw.get("chi", 0.0), mu=kw.get("mu", 0.0),
        alpha1=kw.get("alpha1", 0.0), alpha2=kw.get("alpha2", 0.0),
        alpha3=kw.get("alpha3", 0.0), beta2=kw.get("beta2", np.pi),
    )
    path = tmp_path / name
    path.write_text(serialize_params(p), encoding="utf-8")
    return path


def test_compose_identity(tmp_path):
    path = write_params(tmp_path)
    code, out, _ = run_cli(["compose", "--params", str(path)])
    assert code == 0
    assert np.allclose(parse_matrix(out), np.eye(3), atol=1e-15)


def test_compose_core_only(tmp_path):
    path = write_params(tmp_path, chi=0.2, mu=0.7, varphi=1.0)
    _, full, _ = run_cli(["compose", "--params", str(path)])
    _, core, _ = run_cli(["compose", "--params", str(path), "--core-only"])
    assert not np.allclose(parse_matrix(full), parse_matrix(core))
    assert parse_matrix(core)[2, 0] == 0.0


def test_recover_pipeline(tmp_path):
    code, gen_out, _ = run_cli(["gen", "--haar", "1", "--seed", "7"])
    assert code == 0
    mpath = tmp_path / "m.json"
    mpath.write_text(gen_out, encoding="utf-8")
    code, out, _ = run_cli(["recover", "--matrix", str(mpath)])
    assert code == 0
    doc = json.loads(out)
    assert doc["residual"] <= 1e-10
    # compose the recovered params and compare against the input
    ppath = tmp_path / "rec.json"
    ppath.write_text(json.dumps({k: doc[k] for k in (
        "phi", "theta", "varphi", "chi", "mu", "alpha1", "alpha2", "alpha3", "beta2")}))
    code, out2, _ = run_cli(["compose", "--params", str(ppath)])
    assert code == 0
    assert np.linalg.norm(parse_matrix(out2) - parse_matrix(gen_out)) <= 1e-10


def test_roundtrip_exit_codes(tmp_path):
    _, gen_out, _ = run_cli(["gen", "--haar", "1", "--seed", "3"])
    mpath = tmp_path / "m.json"
    mpath.write_text(gen_out, encoding="utf-8")
    code, out, _ = run_cli(["roundtrip", "--matrix", str(mpath)])
    assert code == 0
    assert json.loads(out)["residual"] <= 1e-10
    code, out, err = run_cli(["roundtrip", "--matrix", str(mpath), "--tolerance", "1e-30"])
    assert code == 3
    assert out == ""
    assert "tolerance failure" in err


def test_chardecomp(tmp_path):
    mpath = tmp_path / "r.json"
    mpath.write_text(serialize_matrix(np.diag([0.5, 0.5, 0.0]), kind="hermitian"))
    code, out, _ = run_cli(["chardecomp", "--matrix", str(mpath)])
    assert code == 0
    doc = json.loads(out)
    assert doc["P1"] == pytest.approx(0.0, abs=1e-14)
    assert doc["P2"] == pytest.approx(1.0, abs=1e-14)
    assert doc["regularity"]["regular"] is True


def test_coherency_solve_count(tmp_path, monkeypatch):
    # One eigensolve per coherency call: the regularity analysis reuses the
    # decomposition's eigenvectors, and the CLI prints the decomposition
    # the regularity report carries.
    solve = unitary3.characteristic.eig_hermitian3
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("unitary3") and getattr(module, "eig_hermitian3", None) is solve:
            monkeypatch.setattr(module, "eig_hermitian3", counted)
    r = random_psd_hermitian(SeededGenerator(58))
    mpath = tmp_path / "r.json"
    mpath.write_text(serialize_matrix(r, kind="hermitian"))
    for run, want in (
        (lambda: characteristic_decomposition(r), 1),
        (lambda: regularity_report(r), 1),
        (lambda: run_cli(["chardecomp", "--matrix", str(mpath)]), 1),
    ):
        calls.clear()
        run()
        assert len(calls) == want


def test_gen_determinism():
    _, out1, _ = run_cli(["gen", "--haar", "3", "--seed", "42"])
    _, out2, _ = run_cli(["gen", "--haar", "3", "--seed", "42"])
    assert out1 == out2
    _, out3, _ = run_cli(["gen", "--haar", "3", "--seed", "43"])
    assert out1 != out3


def test_gen_out_dir(tmp_path):
    d = tmp_path / "samples"
    code, out, _ = run_cli(["gen", "--haar", "2", "--seed", "5", "--out-dir", str(d)])
    assert code == 0
    files = sorted(d.iterdir())
    assert len(files) == 2
    for f in files:
        parse_matrix(f.read_text(encoding="utf-8"))


def test_malformed_input_exit_1(tmp_path):
    mpath = tmp_path / "bad.json"
    mpath.write_text("{not json")
    code, _, err = run_cli(["recover", "--matrix", str(mpath)])
    assert code == 1
    assert "malformed" in err


def test_precondition_exit_2(tmp_path):
    mpath = tmp_path / "notunitary.json"
    mpath.write_text(serialize_matrix(np.eye(3) * 2.0, kind="general"))
    code, _, err = run_cli(["recover", "--matrix", str(mpath)])
    assert code == 2
    assert "precondition" in err
    code, _, err = run_cli(["chardecomp", "--matrix", str(mpath).replace(
        "notunitary", "nonexistent")])
    assert code == 1  # unreadable file counts as malformed input


def test_chardecomp_non_hermitian_exit_2(tmp_path):
    m = np.eye(3, dtype=complex)
    m[0, 1] = 1.0
    mpath = tmp_path / "nh.json"
    mpath.write_text(serialize_matrix(m, kind="general"))
    code, _, err = run_cli(["chardecomp", "--matrix", str(mpath)])
    assert code == 2


def test_selftest_failure_paths(monkeypatch):
    # A check over its bound and a check that raises both print FAIL and
    # make the exit code 3; the raise does not stop the checks after it.
    def raises(g, n):
        raise RuntimeError("boom")

    monkeypatch.setattr(unitary3.selftest, "CHECKS", [
        ("over-bound", lambda g, n: 2e-10, 1, 1, 1e-10),
        ("raises", raises, 2, 1, 1.0),
        ("passes", lambda g, n: 0.0, 3, 1, 1.0),
    ])
    code, out, _ = run_cli(["selftest"])
    lines = out.splitlines()
    assert code == 3
    assert len(lines) == 3
    assert lines[0].startswith("FAIL  over-bound: worst 2.00e-10 (bound 1e-10) in ")
    assert lines[1].startswith("FAIL  raises: raised RuntimeError: boom in ")
    assert lines[2].startswith("PASS  passes: worst 0.00e+00 (bound 1) in ")


def test_missing_file_exit_1(tmp_path):
    code, _, err = run_cli(["compose", "--params", str(tmp_path / "absent.json")])
    assert code == 1
