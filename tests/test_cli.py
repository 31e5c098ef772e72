import inspect
import io
import json
import marshal
import os
import pickle
import re
import subprocess
import sys
import typing
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import mpmath
import numpy as np
import pytest

import unitary3
import unitary3.cli
import unitary3.linalg
import unitary3.selftest
from unitary3.characteristic import characteristic_decomposition, middle_component, regularity_report
from unitary3.cli import main
from unitary3.documents import PARAM_FIELDS, parse_matrix, serialize_matrix
from unitary3.linalg import eig_hermitian3, unitarity_distance
from unitary3.parametrization import recover_params
from unitary3.rotations import RotationAngles, compose_rotation, extract_rotation_angles
from unitary3.sampling import SeededGenerator, generate_haar_unitary, random_psd_hermitian

from cli_cases import (CASES, COMPOSE_GOLDEN, GEN_7, HAAR_7, HAAR_7_FLIPPED, RECOVER_FACE_PARAMS, RECOVER_GOLDEN,
                       USAGE, params, stable)
from oracles import mp_compose


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def package_env(**setting):
    """The environment of a child interpreter: os.environ with ``setting``,
    and the package's source directory first on PYTHONPATH."""
    env = {**os.environ, **setting}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(unitary3.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    return env


def test_compose_core_only(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(params(chi="0.2", mu="0.7", varphi="1.0"), encoding="utf-8")
    _, full, _ = run_cli(["compose", "--params", str(path)])
    _, core, _ = run_cli(["compose", "--params", str(path), "--core-only"])
    assert not np.allclose(parse_matrix(full), parse_matrix(core))
    assert parse_matrix(core)[2, 0] == 0.0


def test_compose_golden(tmp_path):
    path = tmp_path / "p.json"
    for params, full, core in COMPOSE_GOLDEN:
        path.write_text(json.dumps(params), encoding="utf-8")
        assert run_cli(["compose", "--params", str(path)]) == (0, full, "")
        assert run_cli(["compose", "--params", str(path), "--core-only"]) == (0, core, "")


def test_gen_golden():
    assert run_cli(["gen", "--haar", "3", "--seed", "7"]) == (0, GEN_7, "")


def recover_golden_inputs(tmp_path) -> list:
    """Paths of the RECOVER_GOLDEN input documents: HAAR_7 and
    HAAR_7_FLIPPED, then the face documents as `compose` writes them."""
    paths = []
    for i, doc in enumerate(HAAR_7 + HAAR_7_FLIPPED):
        paths.append(tmp_path / f"haar{i}.json")
        paths[-1].write_text(doc, encoding="utf-8")
    for i, params in enumerate(RECOVER_FACE_PARAMS):
        p, m = tmp_path / f"p{i}.json", tmp_path / f"face{i}.json"
        p.write_text(json.dumps(params), encoding="utf-8")
        assert run_cli(["compose", "--params", str(p), "--out", str(m)]) == (0, "", "")
        paths.append(m)
    assert len(paths) == len(RECOVER_GOLDEN)
    return paths


def test_recover_golden(tmp_path):
    for path, (recovered, residual) in zip(recover_golden_inputs(tmp_path), RECOVER_GOLDEN):
        assert run_cli(["recover", "--matrix", str(path)]) == (0, recovered, "")
        assert run_cli(["roundtrip", "--matrix", str(path)]) == (0, residual, "")


# The recorded bytes above are checked against tests/oracles.py's 60-digit
# composition, which shares nothing with the library, so a re-recording is
# verified rather than copied.
ULP_OF_ONE = 2.0 ** -52


def test_compose_golden_oracle():
    # every real and imaginary part within one ulp of 1 (2**-52) of the
    # exact composition of its parameters (worst measured: 0.78 of that)
    for params, full, core in COMPOSE_GOLDEN:
        core_params = {k: v for k, v in params.items() if k not in ("phi", "theta", "varphi")}
        for doc, p in ((full, params), (core, core_params)):
            exact = mp_compose(p)
            for row, exact_row in zip(parse_matrix(doc).tolist(), exact):
                for z, e in zip(row, exact_row):
                    assert abs(mpmath.mpf(z.real) - e.real) <= ULP_OF_ONE, (p, z)
                    assert abs(mpmath.mpf(z.imag) - e.imag) <= ULP_OF_ONE, (p, z)


def test_recover_golden_oracle(tmp_path):
    # the exact composition of each recorded tuple lies within its reported
    # residual plus 2**-52 of the input document (Frobenius norm), so both
    # the tuple and the residual it reports hold up
    for path, (recovered, _) in zip(recover_golden_inputs(tmp_path), RECOVER_GOLDEN):
        doc = json.loads(recovered)
        exact = mp_compose({k: doc[k] for k in PARAM_FIELDS})
        u = parse_matrix(path.read_text(encoding="utf-8")).tolist()
        gap = mpmath.sqrt(sum(abs(e - mpmath.mpc(z)) ** 2
                              for row, exact_row in zip(u, exact) for z, e in zip(row, exact_row)))
        assert gap <= doc["residual"] + ULP_OF_ONE, (path.name, gap, doc["residual"])


def test_recover_pipeline(tmp_path):
    code, gen_out, _ = run_cli(["gen", "--haar", "1", "--seed", "7"])
    assert code == 0
    mpath = tmp_path / "m.json"
    mpath.write_text(gen_out, encoding="utf-8")
    ppath = tmp_path / "rec.json"
    assert run_cli(["recover", "--matrix", str(mpath), "--out", str(ppath)]) == (0, "", "")
    assert json.loads(ppath.read_text(encoding="utf-8"))["residual"] <= 1e-10
    # compose reads the recover document as written and gives back the input
    code, out2, _ = run_cli(["compose", "--params", str(ppath)])
    assert code == 0
    assert np.linalg.norm(parse_matrix(out2) - parse_matrix(gen_out)) <= 1e-10


def run_usage_error(argv):
    """run_cli for an argument list that the parser rejects, or one that asks
    for help: its exit code (SystemExit), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_gen_seed_bounds(seed):
    # Both ends of the seed range are accepted, each with its own stream.
    code, out, err = run_cli(["gen", "--haar", "1", f"--seed={seed}"])
    assert (code, err) == (0, "")
    assert out == serialize_matrix(generate_haar_unitary(SeededGenerator(seed)), kind="unitary")


COMMANDS = [command for command in USAGE if command]


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_top_level_help(flag):
    code, out, err = run_usage_error([flag])
    assert (code, err) == (0, "")
    assert out.startswith(USAGE[None]), out
    for command in COMMANDS:
        assert f"\n  {command} " in out, command
    assert f"\n  gen         emit Haar-random unitaries ({unitary3.sampling.ALGORITHM})\n" in out


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help(command):
    # Help wins over a missing required option, as it is read first.
    code, out, err = run_usage_error([command, "--help"])
    assert (code, err) == (0, "")
    assert out.startswith(USAGE[command] + "\n"), out
    assert run_usage_error([command, "-h"]) == (code, out, err)


def test_option_prefix_and_repeat(tmp_path):
    # A unique prefix names its option; a repeated option keeps its last value.
    _, gen_out, _ = run_cli(["gen", "--haar", "1", "--seed", "3"])
    mpath = tmp_path / "m.json"
    mpath.write_text(gen_out, encoding="utf-8")
    full = run_cli(["recover", "--matrix", str(mpath)])
    assert full[0] == 0
    assert run_cli(["recover", "--mat", str(mpath)]) == full
    assert run_cli(["recover", f"--ma={mpath}", "--tol", "1e-10"]) == full
    assert run_cli(["roundtrip", "--matrix", str(mpath), "--tolerance", "1e-30", "--tolerance", "1e-10"])[0] == 0
    assert run_cli(["roundtrip", "--matrix", str(mpath), "--tolerance", "1e-10", "--tolerance=1e-30"])[0] == 3
    assert run_cli(["gen", "--haar", "5", "--seed", "9", "--haar=1", "--se", "3"]) == (0, gen_out, "")


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case.argv) or "no-arguments")
def test_cli_case(tmp_path, monkeypatch, case):
    # Each row of tests/cli_cases.py through main, in a directory of its own
    # that holds the row's documents.  Help and usage errors leave main by
    # SystemExit, and every other row returns its exit code (README,
    # Conventions: Exit codes and process end).
    for name, data in case.files.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    run = run_usage_error if (case.stdout + case.stderr).startswith("usage: ") else run_cli
    code, out, err = run(case.argv)
    assert (code, stable(out), err) == (case.code, case.stdout, case.stderr)
    left = {path.relative_to(tmp_path).as_posix(): path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    assert left == {**case.files, **case.writes}


# What an array function raises where numpy cannot be imported.
NO_NUMPY_MESSAGE = "unitary3's array functions need numpy: pip install 'unitary3[array]'"
# First on the meta path of a child interpreter: numpy and its submodules
# cannot be imported, as where numpy is not installed.
REFUSE_NUMPY = """if True:
    import sys

    class RefuseNumpy:
        @staticmethod
        def find_spec(name, path=None, target=None):
            if name.partition(".")[0] == "numpy":
                raise ModuleNotFoundError(f"No module named {name!r}", name=name)

    for name in [name for name in sys.modules if name.partition(".")[0] == "numpy"]:
        del sys.modules[name]  # loaded by a site hook
    sys.meta_path.insert(0, RefuseNumpy)
"""
# Imports unitary3 and its CLI, runs each (argv, files) row of the marshal
# file argv[1] through cli.main in a directory of its own that holds the
# row's files, then calls every public scalar function and every public
# array function.  Prints as JSON what each gave: (exit code, stdout,
# stderr) of each row, repr of each scalar result, and "ok" or the
# exception of each array call; and the modules that each step loaded (the
# two imports, each row, then the library calls).  It imports nothing
# before the rows that they could load.
CASES_PROBE = """if True:
    import contextlib, io, marshal, os, sys

    with open(sys.argv[1], "rb") as f:
        rows = marshal.load(f)
    seen, loaded = set(sys.modules), []

    def step():
        loaded.append(sorted(set(sys.modules) - seen))
        seen.update(sys.modules)

    import unitary3
    step()
    from unitary3.cli import main
    step()
    cli = []
    for i, (argv, files) in enumerate(rows):
        os.mkdir(str(i))
        os.chdir(str(i))
        for name, data in files.items():
            with open(name, "wb") as f:
                f.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # help and usage errors
                code = exc.code
        os.chdir("..")
        cli.append([code, out.getvalue(), err.getvalue()])
        step()

    import json
    from unitary3 import *
    from unitary3.linalg import as_matrix3

    p = random_params(SeededGenerator(5), 1e-2)
    scalars = {
        "wrap_angle": wrap_angle(4.0),
        "RotationAngles.canonical": RotationAngles(0.1, 0.2, 4.0).canonical(),
        "random_params": p,
        "flip_equivalent": flip_equivalent(p),
        "params_distance": params_distance(p, flip_equivalent(p)),
        "serialize_params": serialize_params(p),
        "parse_params": parse_params(serialize_params(p)),
        "UnitaryParams.as_dict": p.as_dict(),
    }
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    text = json.dumps({"kind": "unitary", "re": eye, "im": [[0] * 3] * 3})
    calls = {
        "as_matrix3": lambda: as_matrix3(eye),
        "unitarity_distance": lambda: unitarity_distance(eye),
        "eig_hermitian3": lambda: eig_hermitian3(eye),
        "compose_rotation": lambda: compose_rotation(p.rotation),
        "extract_rotation_angles": lambda: extract_rotation_angles(eye),
        "canonical_basis": lambda: canonical_basis(0.1),
        "compose_core": lambda: compose_core(*p[1:]),
        "compose_unitary": lambda: compose_unitary(p),
        "recover_params": lambda: recover_params(eye),
        "characteristic_decomposition": lambda: characteristic_decomposition(eye),
        "regularity_report": lambda: regularity_report(eye),
        "middle_component": lambda: middle_component(eye),
        "intrinsic_middle": lambda: intrinsic_middle(0.1),
        "parse_matrix": lambda: parse_matrix(text),
        "serialize_matrix": lambda: serialize_matrix(eye),
        "generate_haar_unitary": lambda: generate_haar_unitary(SeededGenerator(1)),
        "random_psd_hermitian": lambda: random_psd_hermitian(SeededGenerator(1)),
        "SeededGenerator.complex_gauss_matrix": lambda: SeededGenerator(1).complex_gauss_matrix(),
    }
    arrays = {}
    for name, call in calls.items():
        try:
            call()
            arrays[name] = "ok"
        except Exception as exc:
            arrays[name] = f"{type(exc).__name__}: {exc}"
    step()
    print(json.dumps({"cli": cli, "loaded": loaded, "scalars": {name: repr(v) for name, v in scalars.items()},
                      "arrays": arrays}))
"""
# The modules that a CLI row loads only where may_load allows: numpy, the
# argparse, gettext and locale that a parser could load, cmath,
# dataclasses and the inspect it imports, json, and the submodules that
# some commands run.
WATCHED = {"numpy", "argparse", "gettext", "locale", "cmath", "dataclasses", "inspect", "json",
           "unitary3.characteristic", "unitary3.sampling", "unitary3.selftest"}
RUNS = {"chardecomp": {"unitary3.characteristic"}, "gen": {"unitary3.sampling"},
        "selftest": {"unitary3.characteristic", "unitary3.sampling", "unitary3.selftest"}}


def may_load(case) -> set:
    """The watched modules a row may load: the submodules its command runs,
    sampling for help (whose gen line names its ALGORITHM), and json to name
    the fault of a document that is not valid JSON."""
    return (RUNS.get((case.argv or [None])[0], set())
            | ({"unitary3.sampling"} if case.stdout.startswith("usage: ") else set())
            | ({"json"} if "not valid JSON" in case.stderr else set()))


def test_cli_cases_in_children(tmp_path):
    # README, Conventions: Imports and the array boundary.  Each command
    # line of the table is spelled once.  Every row gives the table's exit
    # code, stdout and stderr in an ordinary child and in one that cannot
    # import numpy (stdout through stable(); selftest's exit 0
    # shows that run_selftest returned).  In the ordinary child, import
    # unitary3 loads no submodule, the CLI's import no watched module, each
    # row only what may_load allows, and the array calls after the rows
    # load numpy; the rows that may load more run later, so that each rule
    # is checked on as many rows as can show it.  The scalar functions
    # return the same values in both children, and each public array
    # function raises the ImportError that names the array extra where
    # numpy cannot be imported.  purity_indices is neither: its argument is
    # eig_hermitian3's record.
    assert len({tuple(case.argv) for case in CASES}) == len(CASES)
    rows = sorted(CASES, key=lambda case: ("json" in may_load(case), len(may_load(case))))
    (tmp_path / "rows").write_bytes(marshal.dumps([(case.argv, case.files) for case in rows]))
    children = []
    for name, prefix in (("ordinary", ""), ("no-numpy", REFUSE_NUMPY)):
        (tmp_path / name).mkdir()
        children.append(subprocess.Popen([sys.executable, "-c", prefix + CASES_PROBE, str(tmp_path / "rows")],
                                         cwd=tmp_path / name, env=package_env(), stdout=subprocess.PIPE,
                                         stderr=subprocess.PIPE, text=True))
    results = []
    for child in children:
        out, err = child.communicate(timeout=60)
        assert child.returncode == 0, err
        results.append(json.loads(out))
    ordinary, bare = results
    for run in (ordinary, bare):
        for case, (code, out, err) in zip(rows, run["cli"]):
            assert (code, stable(out), err) == (case.code, case.stdout, case.stderr), case.argv
    imported, cli_imported, *row_loads, library = map(set, ordinary["loaded"])
    assert not {name for name in imported if name.startswith("unitary3.")}, imported
    assert not cli_imported & WATCHED, cli_imported
    for case, names in zip(rows, row_loads):
        assert names & WATCHED <= may_load(case), (case.argv, names & WATCHED)
    assert any("json" in names for names in row_loads)
    assert "numpy" in library
    assert bare["scalars"] == ordinary["scalars"]
    assert set(ordinary["arrays"].values()) == {"ok"}, ordinary["arrays"]
    assert bare["arrays"] == {name: f"ImportError: {NO_NUMPY_MESSAGE}" for name in ordinary["arrays"]}
    # Every public function, and the validator, is probed above.
    functions = {name for name in unitary3.__all__ if inspect.isfunction(getattr(unitary3, name))}
    probed = {name for name in [*bare["scalars"], *bare["arrays"]] if "." not in name}
    assert functions | {"as_matrix3"} == probed | {"purity_indices", "run_selftest"}


def test_chardecomp(tmp_path):
    mpath = tmp_path / "r.json"
    mpath.write_text(serialize_matrix(np.diag([0.5, 0.5, 0.0]), kind="hermitian"))
    code, out, _ = run_cli(["chardecomp", "--matrix", str(mpath)])
    assert code == 0
    doc = json.loads(out)
    assert doc["P1"] == pytest.approx(0.0, abs=1e-14)
    assert doc["P2"] == pytest.approx(1.0, abs=1e-14)
    assert doc["regularity"]["regular"] is True


def kernel_calls(run, *functions):
    """Calls of each of ``functions`` while ``run()`` runs, counted by a
    profile hook that matches their code objects, so no alias, wrapper or
    second binding of a function can hide a call."""
    index = {f.__code__: i for i, f in enumerate(functions)}
    counts = [0] * len(functions)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in index:
            counts[index[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return counts


# stdout of `chardecomp` byte for byte, with the document it reads: full
# rank, rank 2, rank 1, I, diag(.4, .4, .2), and full-rank matrices at
# scales 1e-100 and 1e100.  Coherency runs in Python floats, so these hold
# on every host with the same libm (see the README's Arithmetic convention);
# test_chardecomp_golden_oracle checks every number against mpmath.  The
# first input is also the committed document chardecomp_full.json, which
# CI runs through the installed console script.
CHARDECOMP_GOLDEN = Path(__file__).with_name("chardecomp_golden.json")


def test_chardecomp_golden(tmp_path):
    cases = json.loads(CHARDECOMP_GOLDEN.read_text(encoding="utf-8"))
    assert [c["name"] for c in cases] == [
        "full", "rank2", "rank1", "eye", "diag(.4,.4,.2)", "scale1e-100", "scale1e+100"]
    path = tmp_path / "r.json"
    for case in cases:
        path.write_text(case["matrix"], encoding="utf-8")
        assert run_cli(["chardecomp", "--matrix", str(path)]) == (0, case["stdout"], ""), case["name"]
    fixture = CHARDECOMP_GOLDEN.with_name("chardecomp_full.json")
    assert fixture.read_text(encoding="utf-8") == cases[0]["matrix"]


def test_chardecomp_golden_oracle(tmp_path):
    # Every number that chardecomp prints for the golden inputs against a
    # 50-digit mpmath eigendecomposition of the input (oracles.mp_eigh), so
    # a host whose libm moves the golden bytes still checks every number.
    # Exempt are the fields that a degenerate pair leaves to the basis:
    # Rp_hat when l1 = l2, and Rm_hat, chi_m, m_hat and im_norm when
    # l2 = l3 (relative gap below 1e-8).
    #
    # The bound is derived, not fitted.  Each Jacobi rotation is a unitary
    # similarity whose float rounding adds at most about 3 ulp of ||R||_F
    # (two products and a sum per entry, coefficients good to 1.5 ulp), and
    # these inputs take at most 13 rotations (one complex, then at most four
    # sweeps of three real ones), so the result is the exact decomposition
    # of R + E with ||E||_F <= e_ulp ulp of ||R||_F, e_ulp = 40.
    # Then (Weyl) each eigenvalue is within ||E||, each normalized quantity
    # (P1, P2, coefficients) within 4 ||E|| / tr R, and (Davis-Kahan) each
    # spectral projector within 2 ||E|| / gap, gap the distance to the rest
    # of the spectrum; m_hat, im_norm and chi_m are read off Rm_hat and its
    # kernel with a Lipschitz constant of at most 3.  The largest measured
    # error is 3.0 ulp (an Rp_hat entry of scale1e+100).
    import mpmath

    from oracles import mp_eigh

    ulp = 2.0 ** -52
    e_ulp = 40
    cases = json.loads(CHARDECOMP_GOLDEN.read_text(encoding="utf-8"))
    path = tmp_path / "r.json"
    with mpmath.workdps(50):
        for case in cases:
            path.write_text(case["matrix"], encoding="utf-8")
            code, stdout, _ = run_cli(["chardecomp", "--matrix", str(path)])
            assert code == 0, case["name"]
            doc, out = json.loads(case["matrix"]), json.loads(stdout)
            rows = [[complex(a, b) for a, b in zip(ra, ia)] for ra, ia in zip(doc["re"], doc["im"])]
            values, vectors = mp_eigh(rows)
            norm = mpmath.sqrt(sum(abs(mpmath.mpc(z)) ** 2 for row in rows for z in row))
            trace = sum(mpmath.mpf(rows[i][i].real) for i in range(3))
            err = e_ulp * ulp * norm

            def near(got, want, bound, field):
                assert abs(mpmath.mpf(got) - want) <= bound, (case["name"], field, got, want)

            def near_grid(grid, want, bound, field):
                for i in range(3):
                    for j in range(3):
                        got = mpmath.mpc(grid["re"][i][j], grid["im"][i][j])
                        assert abs(got - want[i][j]) <= bound, (case["name"], field, i, j)

            def projector(vs, weight):
                return [[weight * sum(v[i] * mpmath.conj(v[j]) for v in vs) for j in range(3)]
                        for i in range(3)]

            near(out["trace"], trace, 2 * ulp * abs(trace), "trace")
            for k in range(3):
                near(out["eigenvalues"][k], values[k], err, "eigenvalues")
            lam = [v / trace for v in values]
            p1, p2 = lam[0] - lam[1], lam[0] + lam[1] - 2 * lam[2]
            for got, want in zip([out["P1"], out["P2"]] + out["coefficients"], (p1, p2, p1, p2 - p1, 1 - p2)):
                near(got, want, 4 * err / trace, "purity")
            assert out["Ru_hat"] == {"re": [[1 / 3 if i == j else 0.0 for j in range(3)] for i in range(3)],
                                     "im": [[0.0] * 3] * 3}
            gap1, gap2 = values[0] - values[1], values[1] - values[2]
            if gap1 > 1e-8 * norm:
                near_grid(out["Rp_hat"], projector(vectors[:1], 1), 2 * err / gap1, "Rp_hat")
            if gap2 <= 1e-8 * norm:
                continue
            bound = 2 * err / gap2
            rm = projector(vectors[:2], mpmath.mpf(1) / 2)
            near_grid(out["Rm_hat"], rm, bound, "Rm_hat")
            m_hat = sorted(mpmath.eigsy(mpmath.matrix([[mpmath.re(x) for x in row] for row in rm]))[0],
                           reverse=True)
            for k in range(3):
                near(out["regularity"]["m_hat"][k], m_hat[k], 3 * bound, "m_hat")
            im_norm = mpmath.sqrt(sum(mpmath.im(x) ** 2 for row in rm for x in row))
            near(out["regularity"]["im_norm"], im_norm, 3 * bound, "im_norm")
            # chi_m of the third eigenvector v: e^{-i alpha} v = a + i b with
            # alpha = arg(v.v)/2, |chi| = atan2(|b|, |a|), signed by a1 b2 - a2 b1.
            v = vectors[2]
            w = mpmath.expj(-mpmath.arg(sum(z * z for z in v)) / 2)
            a, b = [mpmath.re(z * w) for z in v], [mpmath.im(z * w) for z in v]
            chi = mpmath.atan2(mpmath.norm(b), mpmath.norm(a))
            near(out["regularity"]["chi_m"], chi if a[0] * b[1] - a[1] * b[0] >= 0 else -chi, 3 * bound,
                 "chi_m")
            assert out["regularity"]["regular"] is (chi <= 1e-8), case["name"]


def test_coherency_solve_count(tmp_path):
    # One eigensolve per coherency call: the regularity analysis reuses the
    # decomposition's eigenvectors, and the CLI prints the decomposition
    # the regularity report carries.  The Jacobi kernel itself is counted,
    # so no wrapper around it can hide a second solve.
    r = random_psd_hermitian(SeededGenerator(58))
    mpath = tmp_path / "r.json"
    mpath.write_text(serialize_matrix(r, kind="hermitian"))
    for run in (lambda: characteristic_decomposition(r), lambda: regularity_report(r),
                lambda: eig_hermitian3(r), lambda: run_cli(["chardecomp", "--matrix", str(mpath)])):
        assert kernel_calls(run, unitary3.linalg._jacobi) == [1]


def test_validation_count():
    # Each public operation validates its input once; the stages behind it
    # are private kernels that trust the validated array.
    u = generate_haar_unitary(SeededGenerator(59))
    r = random_psd_hermitian(SeededGenerator(60))
    q = compose_rotation(RotationAngles(0.3, 0.5, -0.7))
    for operation, m in ((recover_params, u), (regularity_report, r), (characteristic_decomposition, r),
                         (middle_component, u), (eig_hermitian3, r), (unitarity_distance, u),
                         (extract_rotation_angles, q), (serialize_matrix, u)):
        assert kernel_calls(lambda: operation(m), unitary3.linalg.as_matrix3) == [1], operation.__name__


def test_gen_determinism():
    _, out1, _ = run_cli(["gen", "--haar", "3", "--seed", "42"])
    _, out2, _ = run_cli(["gen", "--haar", "3", "--seed", "42"])
    assert out1 == out2
    _, out3, _ = run_cli(["gen", "--haar", "3", "--seed", "43"])
    assert out1 != out3


def test_gen_out_dir(tmp_path):
    d = tmp_path / "samples"
    code, out, _ = run_cli(["gen", "--haar", "2", "--seed", "5", "--out-dir", str(d)])
    assert (code, out) == (0, "")
    files = sorted(d.iterdir())
    assert [f.name for f in files] == ["haar_5_0000.json", "haar_5_0001.json"]
    for f in files:
        parse_matrix(f.read_text(encoding="utf-8"))
    # The files hold, in order, the documents gen writes to stdout.
    assert "".join(f.read_text(encoding="utf-8") for f in files) == run_cli(["gen", "--haar", "2", "--seed", "5"])[1]


def test_gen_out_dir_made_once(tmp_path, monkeypatch):
    # --out-dir is made once, before the first document, and not at all
    # when there is no document to write.
    made = []
    makedirs = os.makedirs

    def counted(name, *args, **kwargs):
        made.append(Path(name))
        return makedirs(name, *args, **kwargs)

    monkeypatch.setattr(os, "makedirs", counted)
    d = tmp_path / "samples"
    assert run_cli(["gen", "--haar", "3", "--out-dir", str(d)]) == (0, "", "")
    assert made == [d] and len(list(d.iterdir())) == 3
    made.clear()
    assert run_cli(["gen", "--haar", "0", "--out-dir", str(tmp_path / "none")]) == (0, "", "")
    assert made == [] and not (tmp_path / "none").exists()


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


def _documented_exit_codes() -> dict:
    """Exit code of every error class that the README's exit table names,
    and Unitary3Error's default of 2: the README is the one list."""
    codes = {"Unitary3Error": 2}
    for line in (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines():
        cells = line.split("|")
        if len(cells) == 5 and cells[1].strip().isdigit():
            codes.update(dict.fromkeys(re.findall(r"`(\w+Error)`", cells[3]), int(cells[1])))
    return codes


EXIT_CODES = _documented_exit_codes()


def test_exported_errors_documented():
    # dir, not vars: the package binds each public name on first access.
    exported = {name for name in dir(unitary3)
                if isinstance(v := getattr(unitary3, name), type) and issubclass(v, BaseException)}
    assert exported == set(EXIT_CODES)


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_error_exit_code(name):
    cls = getattr(unitary3, name)
    assert issubclass(cls, unitary3.Unitary3Error)
    assert cls.exit_code == EXIT_CODES[name]
    if cls is not unitary3.Unitary3Error:  # each subclass keeps its builtin parent
        assert issubclass(cls, RuntimeError if cls.exit_code == 3 else ValueError)


_R = np.diag([0.6, 0.3, 0.1]).astype(complex)
_RECORDS = {
    "RotationAngles": (lambda: unitary3.RotationAngles(0.1, 0.2, 0.3), "phi"),
    "UnitaryParams": (lambda: unitary3.random_params(SeededGenerator(5)), "chi"),
    "RecoveryReport": (lambda: recover_params(generate_haar_unitary(SeededGenerator(5))), "residual"),
    "EigenDecomposition": (lambda: unitary3.eig_hermitian3(_R), "trace"),
    "PurityIndices": (lambda: unitary3.purity_indices(unitary3.eig_hermitian3(_R)), "P1"),
    "CharacteristicComponents": (lambda: characteristic_decomposition(_R), "traceR"),
    "RegularityReport": (lambda: regularity_report(_R), "chi_m"),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_record_is_immutable(name):
    # A record's fields cannot be assigned; _replace builds a new record
    # and leaves the old one as it was.
    make, field = _RECORDS[name]
    rec = make()
    assert type(rec) is getattr(unitary3, name)
    old = tuple(rec)
    with pytest.raises(AttributeError):
        setattr(rec, field, -1.0)
    new = rec._replace(**{field: -1.0})
    assert type(new) is type(rec) and getattr(new, field) == -1.0
    assert all(a is b for a, b in zip(rec, old))
    assert all(a is b for k, a, b in zip(rec._fields, new, rec) if k != field)


# Each record's module and field order.
_LAYOUTS = {
    "RotationAngles": ("unitary3.rotations", ("phi", "theta", "varphi")),
    "UnitaryParams": ("unitary3.parametrization",
                      ("rotation", "chi", "mu", "alpha1", "alpha2", "alpha3", "beta2")),
    "RecoveryReport": ("unitary3.parametrization",
                       ("params", "residual", "branch", "global_phase_alpha1_degenerate")),
    "EigenDecomposition": ("unitary3.linalg", ("values", "normalized", "vectors", "trace")),
    "PurityIndices": ("unitary3.characteristic", ("P1", "P2")),
    "CharacteristicComponents": ("unitary3.characteristic",
                                 ("traceR", "Rp_hat", "Rm_hat", "Ru_hat", "purity", "coefficients", "eigen")),
    "RegularityReport": ("unitary3.characteristic",
                         ("m1_hat", "m2_hat", "m3_hat", "chi_m", "regular", "im_norm", "components")),
}


def _kernel_records() -> dict:
    """By record name, the records the chain kernels build with
    tuple.__new__ (linalg._new), which checks no arity: the kernels' own
    results and the records nested in the public operations' results."""
    from unitary3.characteristic import _decompose, _regularity
    from unitary3.linalg import _eig, as_matrix3
    from unitary3.parametrization import RECOVERY_TOL, _recover_rows

    u = generate_haar_unitary(SeededGenerator(5))
    report, kernel = recover_params(u), _recover_rows(as_matrix3(u), RECOVERY_TOL)
    rows = as_matrix3(_R)
    components, regularity, decomposed = characteristic_decomposition(_R), regularity_report(_R), _decompose(rows)
    return {
        "RotationAngles": [RotationAngles(0.3, 1.0, 4.0).canonical(), report.params.rotation,
                           kernel.params.rotation],
        "UnitaryParams": [report.params, kernel.params],
        "RecoveryReport": [report, kernel],
        "EigenDecomposition": [components.eigen, regularity.components.eigen, _eig(rows)],
        "PurityIndices": [components.purity, decomposed.purity],
        "CharacteristicComponents": [components, regularity.components, decomposed],
        "RegularityReport": [regularity, _regularity(rows)],
    }


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_record_is_a_named_tuple(name):
    # A record keeps its name, module and field order, prints as
    # Name(field=value, ...), equals the tuple of its fields and pickles
    # back to its own type.  Each record of that type a chain kernel
    # builds has every field: tuple.__new__ would build a short one.
    rec = _RECORDS[name][0]()
    cls = type(rec)
    module, fields = _LAYOUTS[name]
    assert (cls.__name__, cls.__module__, cls._fields) == (name, module, fields)
    assert len(rec) == len(fields)
    for built in _kernel_records()[name]:
        assert type(built) is cls and len(built) == len(fields), built
    assert cls.__doc__.strip()
    assert repr(rec) == f"{name}(" + ", ".join(f"{k}={v!r}" for k, v in zip(fields, rec)) + ")"
    assert rec == tuple(rec) and rec._asdict() == dict(zip(fields, rec))
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls and pickle.dumps(back) == pickle.dumps(rec)


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_untyped_error_propagates(tmp_path, monkeypatch, error):
    # Only library errors map to exit codes; anything else is a bug and
    # keeps its traceback instead of exiting 2 or 3.
    def broken(rows, tolerance):
        raise error("bug")

    monkeypatch.setattr(unitary3.cli, "_recover_rows", broken)
    _, gen_out, _ = run_cli(["gen", "--haar", "1", "--seed", "3"])
    mpath = tmp_path / "m.json"
    mpath.write_text(gen_out, encoding="utf-8")
    with pytest.raises(error, match="bug"):
        run_cli(["recover", "--matrix", str(mpath)])


def test_closed_pipe_exits_0():
    # A reader that stops early, as `| head -1` does, chose to stop: the
    # writer exits 0 with nothing on stderr instead of a BrokenPipeError
    # traceback.
    proc = subprocess.Popen([sys.executable, "-m", "unitary3.cli", "gen", "--haar", "2000", "--seed", "1"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=package_env())
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


def cli_process(args, cwd, stdout=subprocess.PIPE):
    """``python args`` with the package importable and stdout block-buffered,
    as from a plain shell: its exit code, stdout and stderr bytes."""
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE,
                          timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def write_launcher_inputs(tmp_path):
    (tmp_path / "haar.json").write_text(run_cli(["gen", "--haar", "1", "--seed", "3"])[1], encoding="utf-8")
    (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
    (tmp_path / "two.json").write_text(serialize_matrix(2.0 * np.eye(3), kind="general"), encoding="utf-8")


def atexit_probe(argv) -> str:
    """A ``python -c`` program that registers an atexit handler printing
    ``bye``, then runs the CLI as ``python -m unitary3.cli argv`` does."""
    return ("import atexit, runpy, sys; atexit.register(print, 'bye'); "
            f"sys.argv = ['unitary3', *{argv!r}]; runpy.run_module('unitary3.cli', run_name='__main__')")


@pytest.mark.parametrize("argv, exit_code", [
    (["recover", "--matrix", "haar.json"], 0),
    (["recover", "--matrix", "bad.json"], 1),
    (["recover", "--matrix", "two.json"], 2),
    (["roundtrip", "--matrix", "haar.json", "--tolerance", "1e-30"], 3),
    (["recover", "--matrix", "haar.json", "--out", "r.json"], 0),
], ids=["success", "malformed", "not-unitary", "tolerance", "out"])
def test_launcher_matches_main(tmp_path, monkeypatch, argv, exit_code):
    # The process ends by os._exit, after the atexit handlers and a flush:
    # it gives the exit code, stdout and stderr of main() in process, and
    # the same --out document.
    write_launcher_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv)
    assert code == exit_code
    written = (tmp_path / "r.json").read_bytes() if "--out" in argv else None
    (tmp_path / "r.json").unlink(missing_ok=True)
    assert cli_process(["-m", "unitary3.cli", *argv], tmp_path) == (code, out.encode(), err.encode())
    if written is not None:
        assert (tmp_path / "r.json").read_bytes() == written


def test_launcher_runs_atexit_handlers(tmp_path):
    # A handler registered before the CLI runs, and its output is flushed.
    write_launcher_inputs(tmp_path)
    code, out, err = cli_process(["-c", atexit_probe(["recover", "--matrix", "haar.json"])], tmp_path)
    assert (code, err) == (0, b"")
    assert out == run_cli(["recover", "--matrix", str(tmp_path / "haar.json")])[1].encode() + b"bye\n"


def test_launcher_usage_error_exits_2(tmp_path):
    code, out, err = cli_process(["-m", "unitary3.cli", "recover"], tmp_path)
    assert (code, out, err) == (2, b"", run_usage_error(["recover"])[2].encode())
    assert err.startswith(b"usage: unitary3 recover [-h] --matrix MATRIX"), err
    # Help through the launcher gives the bytes of help in process, exit 0.
    for argv in (["--help"], ["recover", "--help"]):
        assert cli_process(["-m", "unitary3.cli", *argv], tmp_path) == (0, run_usage_error(argv)[1].encode(), b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_launcher_failed_flush_exits_through_interpreter(tmp_path):
    # stdout on a full device: the flush after the atexit handlers fails,
    # so the process leaves through the interpreter's exit, which reports
    # the failed flush of stdout and exits 120.
    write_launcher_inputs(tmp_path)
    with open("/dev/full", "wb") as full:
        code, _, err = cli_process(["-c", atexit_probe(["recover", "--matrix", "haar.json", "--out", "r.json"])],
                                   tmp_path, stdout=full)
    assert code == 120
    assert b"OSError: [Errno 28]" in err and b"Traceback" not in err, err
    assert (tmp_path / "r.json").is_file()


def closed_stream_process(argv, cwd, closed=">&-"):
    """``python -m unitary3.cli argv`` started from a shell with stdout
    (``>&-``) or stderr (``2>&-``) closed: its exit code and the bytes it
    wrote to the stream left open."""
    proc = subprocess.run(["/bin/sh", "-c", f'exec "$@" {closed}', "sh", sys.executable, "-m", "unitary3.cli", *argv],
                          cwd=cwd, env=package_env(), capture_output=True, timeout=60)
    return proc.returncode, proc.stdout + proc.stderr


@pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs /bin/sh")
def test_closed_stdout_with_out_exits_0(tmp_path):
    # Nothing is bound for the closed stdout: the --out document is written.
    write_launcher_inputs(tmp_path)
    assert closed_stream_process(["recover", "--matrix", "haar.json", "--out", "r.json"], tmp_path) == (0, b"")
    written = (tmp_path / "r.json").read_text(encoding="utf-8")
    assert written == run_cli(["recover", "--matrix", str(tmp_path / "haar.json")])[1]


@pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs /bin/sh")
@pytest.mark.parametrize("command", ["recover", "roundtrip"])
def test_closed_stdout_document_exits_2(tmp_path, command):
    write_launcher_inputs(tmp_path)
    assert closed_stream_process([command, "--matrix", "haar.json"], tmp_path) == (
        2, b"error: cannot write output: stdout is closed\n")


@pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs /bin/sh")
@pytest.mark.parametrize("argv", [["--help"], ["recover", "--help"], ["selftest"]],
                         ids=["program", "command", "selftest"])
def test_closed_stdout_help_exits_2(tmp_path, argv):
    # Help and the selftest report are bound for stdout as a document is; the
    # report's first line fails, and no check after it runs.
    assert closed_stream_process(argv, tmp_path) == (2, b"error: cannot write output: stdout is closed\n")


@pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs /bin/sh")
def test_closed_stderr_keeps_exit_code(tmp_path):
    # The error or usage line is lost with stderr, the exit code is the
    # documented one, and nothing else is written.
    write_launcher_inputs(tmp_path)
    for argv, code in ((["roundtrip", "--matrix", "haar.json", "--tolerance", "1e-30"], 3), (["recover"], 2),
                       (["recover", "--matrix", "bad.json"], 1)):
        assert closed_stream_process(argv, tmp_path, "2>&-") == (code, b""), argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_stdout_write_error_exits_2(tmp_path, flags):
    # A document that stdout cannot take is an output error: one line, no
    # traceback and no "Exception ignored" from the interpreter's exit,
    # whether the write (-u) or main's flush fails.
    write_launcher_inputs(tmp_path)
    with open("/dev/full", "wb") as full:
        code, _, err = cli_process([*flags, "-m", "unitary3.cli", "recover", "--matrix", "haar.json"], tmp_path,
                                   stdout=full)
    assert (code, err) == (2, b"error: cannot write output: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_help_write_error_exits_2(tmp_path, flags):
    # Help is flushed before its exit, so a failed flush is main's to report.
    with open("/dev/full", "wb") as full:
        code, _, err = cli_process([*flags, "-m", "unitary3.cli", "--help"], tmp_path, stdout=full)
    assert (code, err) == (2, b"error: cannot write output: [Errno 28] No space left on device\n")


def test_help_closed_pipe_exits_0(tmp_path):
    # The pipe's read end is closed before the process starts, so writing
    # the help meets a broken pipe: a reader that chose to stop.
    read, write = os.pipe()
    os.close(read)
    try:
        code, _, err = cli_process(["-m", "unitary3.cli", "--help"], tmp_path, stdout=write)
    finally:
        os.close(write)
    assert (code, err) == (0, b"")


def test_cli_import_without_site(tmp_path):
    # Without the site hook nothing preloads typing, pathlib, numpy, json,
    # re or __future__, and neither importing the CLI nor a recover run
    # loads any.
    write_launcher_inputs(tmp_path)
    probe = ("import sys, unitary3.cli; unitary3.cli.main(['recover', '--matrix', 'haar.json']); "
             "print(sorted({'typing', 'pathlib', 'numpy', 'json', 're', '__future__'} & set(sys.modules)))")
    out = run_cli(["recover", "--matrix", str(tmp_path / "haar.json")])[1]
    assert cli_process(["-S", "-c", probe], tmp_path) == (0, out.encode() + b"[]\n", b"")


# The public names of the package, by the submodule that defines them.
PUBLIC_NAMES = {
    "linalg": ["ConvergenceError", "EigenDecomposition", "FloatRangeError", "NonFiniteError", "NotHermitianError",
               "NotUnitaryError", "Unitary3Error", "eig_hermitian3", "unitarity_distance"],
    "rotations": ["NotOrthogonalError", "RotationAngles", "compose_rotation", "extract_rotation_angles",
                  "wrap_angle"],
    "parametrization": ["ParameterRangeError", "RecoveryReport", "RecoveryToleranceError", "UnitaryParams",
                        "canonical_basis", "compose_core", "compose_unitary", "flip_equivalent",
                        "params_distance", "recover_params"],
    "characteristic": ["CharacteristicComponents", "NotPositiveSemidefiniteError", "PurityIndices",
                       "RegularityReport", "ZeroTraceError", "characteristic_decomposition", "intrinsic_middle",
                       "middle_component", "purity_indices", "regularity_report"],
    "documents": ["MalformedDocumentError", "OutputWriteError", "parse_matrix", "parse_params",
                  "serialize_matrix", "serialize_params"],
    "sampling": ["SeededGenerator", "generate_haar_unitary", "random_params", "random_psd_hermitian"],
    "selftest": ["run_selftest"],
}


def test_public_surface(tmp_path):
    # In a fresh interpreter, where ``import unitary3`` has loaded no
    # submodule: each submodule is an attribute of the package, each public
    # name is its submodule's object, and dir and ``import *`` list them all.
    probe = f"""if True:
        import sys, unitary3
        expected = {PUBLIC_NAMES!r}
        assert unitary3.sampling is sys.modules["unitary3.sampling"]
        names = {{}}
        exec("from unitary3 import *", names)
        public = sorted([*expected, *(name for module_names in expected.values() for name in module_names)])
        assert sorted(set(names) - {{"__builtins__"}}) == public
        assert [name for name in dir(unitary3) if not name.startswith("_")] == public
        for module, module_names in expected.items():
            assert getattr(unitary3, module) is sys.modules["unitary3." + module], module
            for name in module_names:
                assert names[name] is getattr(unitary3, name) is getattr(sys.modules["unitary3." + module], name)
        assert unitary3.__version__ == "0.1.0"
        try:
            unitary3.bogus
        except AttributeError as exc:
            assert str(exc) == "module 'unitary3' has no attribute 'bogus'"
        else:
            raise AssertionError("unitary3.bogus")
        print("ok")
    """
    assert cli_process(["-c", probe], tmp_path) == (0, b"ok\n", b"")


def test_every_annotation_resolves():
    # typing.get_type_hints evaluates every annotation of each public
    # callable and of each function defined in a public class body: none
    # names what its module does not bind, such as numpy, which no module
    # imports at import time.
    functions = []
    for name in unitary3.__all__:
        obj = getattr(unitary3, name)
        if isinstance(obj, type):
            functions += [f for f in vars(obj).values() if inspect.isfunction(f)]
        elif callable(obj):
            functions.append(obj)
    names = {f.__name__ for f in functions}
    assert {"reconstruct", "canonical", "as_dict", "complex_gauss_matrix", "compose_unitary"} <= names
    for f in functions:
        typing.get_type_hints(f)


@pytest.mark.parametrize("command, document", [
    ("recover", "haar.json"),
    ("chardecomp", str(CHARDECOMP_GOLDEN.with_name("chardecomp_full.json"))),
])
def test_launcher_without_site_matches_main(tmp_path, command, document):
    write_launcher_inputs(tmp_path)
    out = run_cli([command, "--matrix", str(tmp_path / document)])[1]
    assert cli_process(["-S", "-m", "unitary3.cli", command, "--matrix", document], tmp_path) == (
        0, out.encode(), b"")


def test_stage_table_names_the_kernels_each_document_runs(tmp_path):
    # Every name of unitary3._STAGES resolves to a function of its
    # submodule.  One recover, roundtrip and chardecomp document, each run
    # through main under a profile hook that matches the kernels' code
    # objects, call every kernel of their pipeline's stages, of the parse
    # and of their writer, with one unitarity gate per recover document and
    # one eigensolve per chardecomp document; recovery runs no coherency
    # kernel.
    stages = unitary3._STAGES
    assert set(stages) == {"recovery", "coherency", "documents"}
    kernels = {}
    for pipeline in stages.values():
        for names in pipeline.values():
            for dotted in names:
                module, function = dotted.split(".")
                f = getattr(getattr(unitary3, module), function)
                assert inspect.isfunction(f) and f.__module__ == f"unitary3.{module}", dotted
                kernels[dotted] = f
    assert len({f.__code__ for f in kernels.values()}) == sum(
        len(names) for pipeline in stages.values() for names in pipeline.values())

    def run(argv, pipeline, writer):
        def document():
            assert run_cli(argv)[0] == 0, argv

        counts = dict(zip(kernels, kernel_calls(document, *kernels.values())))
        for names in [*stages[pipeline].values(), stages["documents"]["parse"], stages["documents"][writer]]:
            for dotted in names:
                assert counts[dotted] > 0, (argv[0], dotted)
        return counts

    write_launcher_inputs(tmp_path)
    haar = str(tmp_path / "haar.json")
    for command, writer in (("recover", "recovery_text"), ("roundtrip", "roundtrip_text")):
        counts = run([command, "--matrix", haar], "recovery", writer)
        assert counts["linalg._check_unitary"] == 1, command
        assert not any(counts[dotted] for names in stages["coherency"].values() for dotted in names), command
    counts = run(["chardecomp", "--matrix", str(CHARDECOMP_GOLDEN.with_name("chardecomp_full.json"))],
                 "coherency", "chardecomp_text")
    assert counts["linalg._eig"] == 1
