import io
import json
import math
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import unitary3
import unitary3.cli
import unitary3.linalg
import unitary3.selftest
from unitary3.characteristic import characteristic_decomposition, regularity_report
from unitary3.cli import main
from unitary3.documents import parse_matrix, serialize_matrix, serialize_params
from unitary3.parametrization import UnitaryParams, recover_params
from unitary3.rotations import RotationAngles
from unitary3.sampling import SeededGenerator, generate_haar_unitary, random_psd_hermitian


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


# stdout of `compose` and `compose --core-only` for three interior parameter
# documents, byte for byte.
COMPOSE_GOLDEN = [
    (
        dict(phi=0.3, theta=0.4, varphi=0.5, chi=0.2, mu=0.7, alpha1=0.1, alpha2=0.2, alpha3=0.3, beta2=0.4),
        '{\n'
        '  "kind": "unitary",\n'
        '  "re": [[0.89441698139030923, 0.073766384275026811, -0.38229835613234797],\n'
        '         [0.19448376551251395, 0.63689332028963841, 0.6533626628738316],\n'
        '         [-0.33696420661614906, 0.69399868291355615, -0.49269026779967856]],\n'
        '  "im": [[0.05729232634373535, 0.20522561778058696, -0.054998054500501915],\n'
        '         [0.21296716637813823, 0.14805229127368216, 0.24977129414408042],\n'
        '         [0.0034680252679784168, 0.20797647004136754, -0.34468973338228764]]\n'
        '}\n',
        '{\n'
        '  "kind": "unitary",\n'
        '  "re": [[0.97517032720181596, -0.030187941004448365, -0.03782253688306763],\n'
        '         [-0.019833838076209875, 0.73465424628004017, 0.60317674526421139],\n'
        '         [0, 0.5933637833613874, -0.67121216615895773]],\n'
        '  "im": [[0.09784339500725571, 0.14892178835002395, 0.12226997945051378],\n'
        '         [0.19767681165408388, 0.14892178835002395, 0.18658443223177018],\n'
        '         [0, 0.25087018385001431, -0.36668487758608259]]\n'
        '}\n',
    ),
    (
        dict(phi=-2.1, theta=-1.2, varphi=2.9, chi=-0.6, mu=1.3, alpha1=2.5, alpha2=-1.7, alpha3=3.0, beta2=-0.8),
        '{\n'
        '  "kind": "unitary",\n'
        '  "re": [[0.31712567558136917, 0.29512138984838021, -0.60517318755063276],\n'
        '         [0.42103455201119599, -0.48833879874191799, -0.51582797791300383],\n'
        '         [0.52302467262739338, 0.38514878903668348, 0.1764423168865811]],\n'
        '  "im": [[0.3846643642056759, -0.51888518522318994, 0.16997522077340102],\n'
        '         [-0.021785706462001207, 0.45691700570990418, -0.33004371490040596],\n'
        '         [-0.54787326420167159, -0.21925785652931148, -0.4457965787906597]]\n'
        '}\n',
        '{\n'
        '  "kind": "unitary",\n'
        '  "re": [[-0.66121235856839145, -0.14978224319150082, 0.076778580957781034],\n'
        '         [0.33792279170488804, -0.028445812041502778, -0.78730033144274536],\n'
        '         [-0, 0.6713174526265383, 0.19418604103428511]],\n'
        '  "im": [[0.4939403750603526, 0.019460827060761389, 0.53862113595959626],\n'
        '         [0.45235971262706198, -0.21893609781728343, 0.11222694060839648],\n'
        '         [0, -0.69121433324511505, 0.18397664194934446]]\n'
        '}\n',
    ),
    (
        dict(phi=1.0, theta=0.05, varphi=0.1, chi=0.75, mu=0.2, alpha1=-3.0, alpha2=0.9, alpha3=-2.2, beta2=1.9),
        '{\n'
        '  "kind": "unitary",\n'
        '  "re": [[-0.37442980929278435, 0.022532041517708771, -0.0086222583421320144],\n'
        '         [0.62644215789680502, 0.68911197548709702, -0.1238819836590014],\n'
        '         [0.036502333125777393, -0.035899731757087057, -0.36056248261796697]],\n'
        '  "im": [[-0.59276355447432805, 0.70298560580139691, -0.11688835785525531],\n'
        '         [-0.33862717516733115, 0.016353782693921296, -0.049115702218027295],\n'
        '         [0.0017678020512777988, 0.16991760777720233, 0.91569556431583343]]\n'
        '}\n',
        '{\n'
        '  "kind": "unitary",\n'
        '  "re": [[-0.72436649003114983, -0.52330261267487288, 0.10948716212945325],\n'
        '         [0.096192867308410798, 0.44575887394629965, -0.085546957580286964],\n'
        '         [0, -0.064227721901797402, -0.35513472438419014]],\n'
        '  "im": [[-0.10325593907278872, 0.41526738895702875, -0.079695242840781055],\n'
        '         [-0.67481725781513247, 0.56172670804941538, -0.11752638276022025],\n'
        '         [-0, 0.18800080515216638, 0.91346035739817844]]\n'
        '}\n',
    ),
]


def test_compose_golden(tmp_path):
    path = tmp_path / "p.json"
    for params, full, core in COMPOSE_GOLDEN:
        path.write_text(json.dumps(params), encoding="utf-8")
        assert run_cli(["compose", "--params", str(path)]) == (0, full, "")
        assert run_cli(["compose", "--params", str(path), "--core-only"]) == (0, core, "")


# stdout of `recover` and `roundtrip` for the documents of `gen --haar 3 --seed 7`
# and ten face documents, composed from the first parameters of
# COMPOSE_GOLDEN with chi, then mu, 1e-10 from its face, then with each of
# the eight chart faces 1e-13 away; byte for byte.
_BASE = COMPOSE_GOLDEN[0][0]
_D = 1e-13
RECOVER_FACE_PARAMS = [
    dict(_BASE, chi=1e-10), dict(_BASE, mu=1e-10),
    dict(_BASE, chi=_D), dict(_BASE, chi=math.pi / 4 - _D), dict(_BASE, chi=-math.pi / 4 + _D),
    dict(_BASE, mu=_D), dict(_BASE, mu=math.pi / 2 - _D), dict(_BASE, theta=_D),
    dict(_BASE, theta=math.pi / 2 - _D), dict(_BASE, theta=-math.pi / 2 + _D),
]
RECOVER_GOLDEN = [
    (
        '{\n'
        '  "phi": 1.2753512703049767,\n'
        '  "theta": -0.2912447422339084,\n'
        '  "varphi": 0.5789648949013997,\n'
        '  "chi": 0.5788409496335282,\n'
        '  "mu": 0.5092596075349444,\n'
        '  "alpha1": -0.40471801406030367,\n'
        '  "alpha2": 3.0175267042602356,\n'
        '  "alpha3": 0.4233371320945333,\n'
        '  "beta2": 2.981921664029693,\n'
        '  "residual": 4.175461749503335e-16,\n'
        '  "branch": "a",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 4.175461749503335e-16, "branch": "a"}\n',
    ),
    (
        '{\n'
        '  "phi": 1.3080896932715063,\n'
        '  "theta": 0.5055324201362938,\n'
        '  "varphi": 1.4507845321611657,\n'
        '  "chi": 0.45809629339024516,\n'
        '  "mu": 0.47776061788272217,\n'
        '  "alpha1": -1.4698538311136817,\n'
        '  "alpha2": 2.373562740440425,\n'
        '  "alpha3": 2.279350605774197,\n'
        '  "beta2": 0.7469176237563224,\n'
        '  "residual": 3.770699910419652e-16,\n'
        '  "branch": "a",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 3.770699910419652e-16, "branch": "a"}\n',
    ),
    (
        '{\n'
        '  "phi": 1.258451239584221,\n'
        '  "theta": -0.5453486117069466,\n'
        '  "varphi": 1.7689488695919247,\n'
        '  "chi": 0.38407207763527745,\n'
        '  "mu": 1.303556299497781,\n'
        '  "alpha1": -0.2059797789602764,\n'
        '  "alpha2": 1.3655974651813318,\n'
        '  "alpha3": -1.8843078186872813,\n'
        '  "beta2": 2.2353428274649922,\n'
        '  "residual": 4.787396807380367e-16,\n'
        '  "branch": "a",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 4.787396807380367e-16, "branch": "a"}\n',
    ),
    (
        '{\n'
        '  "phi": 0.29999991579011853,\n'
        '  "theta": 0.39999998208517423,\n'
        '  "varphi": 0.4999999224375627,\n'
        '  "chi": 9.999999981875182e-11,\n'
        '  "mu": 0.7000000366224196,\n'
        '  "alpha1": 0.1,\n'
        '  "alpha2": 0.19999999374707658,\n'
        '  "alpha3": 0.3000000088137647,\n'
        '  "beta2": 0.3999999911862351,\n'
        '  "residual": 2.924231343973887e-16,\n'
        '  "branch": "d2",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 2.924231343973887e-16, "branch": "d2"}\n',
    ),
    (
        '{\n'
        '  "phi": 0.2999999999999998,\n'
        '  "theta": 0.39999999999999997,\n'
        '  "varphi": 0.49999999999999994,\n'
        '  "chi": 0.19999999999999998,\n'
        '  "mu": 1.0000008376210421e-10,\n'
        '  "alpha1": 0.10000000000000002,\n'
        '  "alpha2": 0.19999999999999996,\n'
        '  "alpha3": 0.30000004332860575,\n'
        '  "beta2": 0.3999999566713943,\n'
        '  "residual": 3.124311747751477e-16,\n'
        '  "branch": "a",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 3.124311747751477e-16, "branch": "a"}\n',
    ),
    (
        '{\n'
        '  "phi": -0.23534756181146133,\n'
        '  "theta": 0.34877492296252366,\n'
        '  "varphi": 0,\n'
        '  "chi": 0,\n'
        '  "mu": 0.8960646413550064,\n'
        '  "alpha1": 0.09999999999999999,\n'
        '  "alpha2": 0.159287647170505,\n'
        '  "alpha3": 0.3386665462511311,\n'
        '  "beta2": 0.36133345374886894,\n'
        '  "residual": 1.414180100452215e-13,\n'
        '  "branch": "d1",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 1.414180100452215e-13, "branch": "d1"}\n',
    ),
    (
        '{\n'
        '  "phi": 0.2999999999999998,\n'
        '  "theta": 0.4,\n'
        '  "varphi": 0.5000260732514508,\n'
        '  "chi": 0.7853981633973482,\n'
        '  "mu": 0.6999999999999998,\n'
        '  "alpha1": 0.10002607325145092,\n'
        '  "alpha2": 0.1999739267485491,\n'
        '  "alpha3": 0.29997392674854906,\n'
        '  "beta2": 0.3999999999999999,\n'
        '  "residual": 2.6449840307621206e-16,\n'
        '  "branch": "circular-fallback",\n'
        '  "global_phase_alpha1_degenerate": true\n'
        '}\n',
        '{"residual": 2.6449840307621206e-16, "branch": "circular-fallback"}\n',
    ),
    (
        '{\n'
        '  "phi": 0.2999999999999998,\n'
        '  "theta": 0.4,\n'
        '  "varphi": 0.5001725107618264,\n'
        '  "chi": -0.7853981633973482,\n'
        '  "mu": 0.7,\n'
        '  "alpha1": 0.09982748923817336,\n'
        '  "alpha2": 0.20017251076182657,\n'
        '  "alpha3": 0.3001725107618266,\n'
        '  "beta2": 0.3999999999999999,\n'
        '  "residual": 2.3273757686693183e-16,\n'
        '  "branch": "circular-fallback",\n'
        '  "global_phase_alpha1_degenerate": true\n'
        '}\n',
        '{"residual": 2.3273757686693183e-16, "branch": "circular-fallback"}\n',
    ),
    (
        '{\n'
        '  "phi": 0.2999999999999998,\n'
        '  "theta": 0.39999999999999997,\n'
        '  "varphi": 0.49999999999999994,\n'
        '  "chi": 0.19999999999999998,\n'
        '  "mu": 1.0009300333942662e-13,\n'
        '  "alpha1": 0.10000000000000002,\n'
        '  "alpha2": 0.19999999999999996,\n'
        '  "alpha3": 0,\n'
        '  "beta2": 0.7000000000000002,\n'
        '  "residual": 4.233788595745639e-14,\n'
        '  "branch": "a",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 4.233788595745639e-14, "branch": "a"}\n',
    ),
    (
        '{\n'
        '  "phi": 0.2999999999999998,\n'
        '  "theta": 0.39999999999999997,\n'
        '  "varphi": 0.49999999999999994,\n'
        '  "chi": 0.19999999999999998,\n'
        '  "mu": 1.5707963267947966,\n'
        '  "alpha1": 0.10000000000000002,\n'
        '  "alpha2": 0,\n'
        '  "alpha3": 0.2999999999999999,\n'
        '  "beta2": 0.39999999999999997,\n'
        '  "residual": 2.8197106086307043e-14,\n'
        '  "branch": "a",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 2.8197106086307043e-14, "branch": "a"}\n',
    ),
    (
        '{\n'
        '  "phi": -0.20000000000000018,\n'
        '  "theta": 0,\n'
        '  "varphi": 0,\n'
        '  "chi": 0.20000000000000007,\n'
        '  "mu": 0.7000000000000424,\n'
        '  "alpha1": 0.10000000000000003,\n'
        '  "alpha2": 0.19999999999999174,\n'
        '  "alpha3": 0.3000000000000114,\n'
        '  "beta2": 0.4000000000000026,\n'
        '  "residual": 1.2543964280399065e-13,\n'
        '  "branch": "b2",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 1.2543964280399065e-13, "branch": "b2"}\n',
    ),
    (
        '{\n'
        '  "phi": 0.2999999999999998,\n'
        '  "theta": 1.5707963267947966,\n'
        '  "varphi": 0.49999999999999994,\n'
        '  "chi": 0.2,\n'
        '  "mu": 0.7000000000000002,\n'
        '  "alpha1": 0.09999999999999996,\n'
        '  "alpha2": 0.19999999999999998,\n'
        '  "alpha3": 0.3,\n'
        '  "beta2": 0.3999999999999999,\n'
        '  "residual": 2.7620807360039165e-16,\n'
        '  "branch": "a",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 2.7620807360039165e-16, "branch": "a"}\n',
    ),
    (
        '{\n'
        '  "phi": 0.2999999999999998,\n'
        '  "theta": -1.5707963267947966,\n'
        '  "varphi": 0.5,\n'
        '  "chi": 0.2,\n'
        '  "mu": 0.6999999999999997,\n'
        '  "alpha1": 0.09999999999999998,\n'
        '  "alpha2": 0.20000000000000004,\n'
        '  "alpha3": 0.2999999999999999,\n'
        '  "beta2": 0.40000000000000036,\n'
        '  "residual": 3.0839070684161707e-16,\n'
        '  "branch": "a",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 3.0839070684161707e-16, "branch": "a"}\n',
    ),
]


def test_recover_golden(tmp_path):
    assert run_cli(["gen", "--haar", "3", "--seed", "7", "--out-dir", str(tmp_path)])[0] == 0
    paths = sorted(tmp_path.glob("haar_7_*.json"))
    for i, params in enumerate(RECOVER_FACE_PARAMS):
        p, m = tmp_path / f"p{i}.json", tmp_path / f"face{i}.json"
        p.write_text(json.dumps(params), encoding="utf-8")
        assert run_cli(["compose", "--params", str(p), "--out", str(m)]) == (0, "", "")
        paths.append(m)
    assert len(paths) == len(RECOVER_GOLDEN)
    for path, (recovered, residual) in zip(paths, RECOVER_GOLDEN):
        assert run_cli(["recover", "--matrix", str(path)]) == (0, recovered, "")
        assert run_cli(["roundtrip", "--matrix", str(path)]) == (0, residual, "")


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
    for tolerance in ("1e-30", "nan"):
        code, out, err = run_cli(["roundtrip", "--matrix", str(mpath), "--tolerance", tolerance])
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


def count_calls(monkeypatch, owner, name):
    """Count calls of ``owner.name``, patched in ``owner`` and in every
    library module that binds it."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if (module is owner or module_name.startswith("unitary3")) and (
                getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, counted)
    return calls


# stdout of `chardecomp` byte for byte, with the document it reads: full
# rank, rank 2, rank 1, I, diag(.4, .4, .2), and full-rank matrices at
# scales 1e-100 and 1e100.  Kept small: numpy's SIMD dispatch may round
# differently on another host.
CHARDECOMP_GOLDEN = Path(__file__).with_name("chardecomp_golden.json")


def test_chardecomp_golden(tmp_path):
    cases = json.loads(CHARDECOMP_GOLDEN.read_text(encoding="utf-8"))
    assert [c["name"] for c in cases] == [
        "full", "rank2", "rank1", "eye", "diag(.4,.4,.2)", "scale1e-100", "scale1e+100"]
    path = tmp_path / "r.json"
    for case in cases:
        path.write_text(case["matrix"], encoding="utf-8")
        assert run_cli(["chardecomp", "--matrix", str(path)]) == (0, case["stdout"], ""), case["name"]


def test_chardecomp_float_range_exit_2(tmp_path):
    mpath = tmp_path / "r.json"
    mpath.write_text(serialize_matrix(np.diag([1e308, 1e308, 1.0]), kind="hermitian"))
    assert run_cli(["chardecomp", "--matrix", str(mpath)]) == (
        2, "", "error: precondition violated: trace is beyond the largest float\n")


def test_coherency_solve_count(tmp_path, monkeypatch):
    # One eigensolve per coherency call: the regularity analysis reuses the
    # decomposition's eigenvectors, and the CLI prints the decomposition
    # the regularity report carries.  LAPACK's own entry point is counted,
    # so no wrapper or kernel around it can hide a second solve.
    calls = count_calls(monkeypatch, np.linalg, "eigh")
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


def test_validation_count(monkeypatch):
    # Each pipeline validates its input once, at the public entry point;
    # the stages behind it trust the validated array.
    matrix_checks = count_calls(monkeypatch, unitary3.linalg, "as_matrix3")
    vector_checks = count_calls(monkeypatch, unitary3.linalg, "as_vector3")
    u = generate_haar_unitary(SeededGenerator(59))
    r = random_psd_hermitian(SeededGenerator(60))
    for run in (lambda: recover_params(u), lambda: regularity_report(r),
                lambda: characteristic_decomposition(r)):
        matrix_checks.clear()
        vector_checks.clear()
        run()
        assert (len(matrix_checks), len(vector_checks)) == (1, 0)


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


def test_huge_integer_exit_1(tmp_path):
    # JSON integers beyond the float range, or beyond Python's int digit
    # limit, are malformed input, not a crash.
    mpath, ppath = tmp_path / "m.json", tmp_path / "p.json"
    for digits in ("1" + "0" * 400, "1" + "0" * 5000):
        mpath.write_text('{"kind": "unitary", "re": [[%s, 0, 0], [0, 1, 0], [0, 0, 1]], '
                         '"im": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}' % digits)
        ppath.write_text('{"chi": -%s, "mu": 0, "alpha1": 0, "alpha2": 0, "alpha3": 0, '
                         '"beta2": 0}' % digits)
        for argv in (["recover", "--matrix", str(mpath)], ["roundtrip", "--matrix", str(mpath)],
                     ["chardecomp", "--matrix", str(mpath)], ["compose", "--params", str(ppath)]):
            code, out, err = run_cli(argv)
            assert (code, out) == (1, ""), argv
            assert err.startswith("error: malformed input"), err


def test_precondition_exit_2(tmp_path):
    mpath = tmp_path / "notunitary.json"
    mpath.write_text(serialize_matrix(np.eye(3) * 2.0, kind="general"))
    code, _, err = run_cli(["recover", "--matrix", str(mpath)])
    assert code == 2
    assert "precondition" in err
    code, out, err = run_cli(["compose", "--params", str(write_params(tmp_path, mu=2.0))])
    assert (code, out) == (2, "")
    assert "mu must lie in [0, pi/2]" in err
    code, _, err = run_cli(["chardecomp", "--matrix", str(mpath).replace(
        "notunitary", "nonexistent")])
    assert code == 1  # unreadable file counts as malformed input


def test_recover_huge_entries_exit_2(tmp_path):
    # Entries of 1e200 would overflow M^H M: recovery rejects them before
    # that product, so no numpy warning reaches stderr.
    u = np.eye(3, dtype=complex)
    u[1, 1] = u[2, 1] = u[1, 2] = 1e200
    u[2, 2] = -1e200
    mpath = tmp_path / "huge.json"
    mpath.write_text(serialize_matrix(u, kind="general"))
    for command in ("recover", "roundtrip"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli([command, "--matrix", str(mpath)]) == (
                2, "", "error: precondition violated: entry modulus 1.000e+200 exceeds 2\n")


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


# Exit code of every exported error class, as the README's table documents it.
EXIT_CODES = {
    "MalformedDocumentError": 1,
    "RecoveryToleranceError": 3,
    **dict.fromkeys([
        "Unitary3Error", "NonFiniteError", "NotHermitianError", "FloatRangeError",
        "NotOrthogonalError", "NotUnitError", "NotUnitaryError", "ParameterRangeError",
        "InconsistentColumnError", "StructureViolationError", "ZeroTraceError",
        "NotPositiveSemidefiniteError",
    ], 2),
}


def test_exported_errors_documented():
    exported = {name for name, v in vars(unitary3).items()
                if isinstance(v, type) and issubclass(v, BaseException)}
    assert exported == set(EXIT_CODES)


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_error_exit_code(name):
    cls = getattr(unitary3, name)
    assert issubclass(cls, unitary3.Unitary3Error)
    assert cls.exit_code == EXIT_CODES[name]
    if cls is not unitary3.Unitary3Error:  # each subclass keeps its builtin parent
        assert issubclass(cls, RuntimeError if cls.exit_code == 3 else ValueError)


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_untyped_error_propagates(tmp_path, monkeypatch, error):
    # Only library errors map to exit codes; anything else is a bug and
    # keeps its traceback instead of exiting 2 or 3.
    def broken(u, tolerance):
        raise error("bug")

    monkeypatch.setattr(unitary3.cli, "recover_params", broken)
    _, gen_out, _ = run_cli(["gen", "--haar", "1", "--seed", "3"])
    mpath = tmp_path / "m.json"
    mpath.write_text(gen_out, encoding="utf-8")
    with pytest.raises(error, match="bug"):
        run_cli(["recover", "--matrix", str(mpath)])
