import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
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
from unitary3.documents import PARAM_FIELDS, parse_matrix, serialize_matrix, serialize_params
from unitary3.parametrization import UnitaryParams, recover_params
from unitary3.rotations import RotationAngles
from unitary3.sampling import SeededGenerator, generate_haar_unitary, random_psd_hermitian

from oracles import mp_compose


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
        '  "re": [[0.89441698139030923, 0.073766384275026825, -0.38229835613234797],\n'
        '         [0.19448376551251395, 0.6368933202896383, 0.6533626628738316],\n'
        '         [-0.33696420661614906, 0.69399868291355615, -0.49269026779967851]],\n'
        '  "im": [[0.05729232634373535, 0.20522561778058696, -0.054998054500501908],\n'
        '         [0.21296716637813826, 0.14805229127368214, 0.24977129414408045],\n'
        '         [0.0034680252679784168, 0.20797647004136754, -0.3446897333822877]]\n'
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
        '  "re": [[0.31712567558136912, 0.29512138984838021, -0.60517318755063276],\n'
        '         [0.42103455201119599, -0.48833879874191793, -0.51582797791300372],\n'
        '         [0.52302467262739338, 0.38514878903668348, 0.17644231688658113]],\n'
        '  "im": [[0.3846643642056759, -0.51888518522318994, 0.16997522077340102],\n'
        '         [-0.021785706462001203, 0.45691700570990418, -0.33004371490040596],\n'
        '         [-0.54787326420167159, -0.21925785652931146, -0.4457965787906597]]\n'
        '}\n',
        '{\n'
        '  "kind": "unitary",\n'
        '  "re": [[-0.66121235856839145, -0.14978224319150082, 0.076778580957781034],\n'
        '         [0.33792279170488804, -0.028445812041502778, -0.78730033144274536],\n'
        '         [0, 0.6713174526265383, 0.19418604103428511]],\n'
        '  "im": [[0.4939403750603526, 0.019460827060761389, 0.53862113595959626],\n'
        '         [0.45235971262706198, -0.21893609781728343, 0.11222694060839648],\n'
        '         [0, -0.69121433324511505, 0.18397664194934446]]\n'
        '}\n',
    ),
    (
        dict(phi=1.0, theta=0.05, varphi=0.1, chi=0.75, mu=0.2, alpha1=-3.0, alpha2=0.9, alpha3=-2.2, beta2=1.9),
        '{\n'
        '  "kind": "unitary",\n'
        '  "re": [[-0.37442980929278435, 0.022532041517708771, -0.0086222583421320092],\n'
        '         [0.62644215789680502, 0.68911197548709702, -0.1238819836590014],\n'
        '         [0.036502333125777393, -0.035899731757087064, -0.36056248261796697]],\n'
        '  "im": [[-0.59276355447432805, 0.70298560580139691, -0.11688835785525531],\n'
        '         [-0.33862717516733115, 0.016353782693921286, -0.049115702218027288],\n'
        '         [0.0017678020512777986, 0.16991760777720233, 0.91569556431583343]]\n'
        '}\n',
        '{\n'
        '  "kind": "unitary",\n'
        '  "re": [[-0.72436649003114983, -0.52330261267487288, 0.10948716212945325],\n'
        '         [0.096192867308410798, 0.44575887394629965, -0.085546957580286964],\n'
        '         [0, -0.064227721901797402, -0.35513472438419014]],\n'
        '  "im": [[-0.10325593907278872, 0.41526738895702875, -0.079695242840781055],\n'
        '         [-0.67481725781513247, 0.56172670804941538, -0.11752638276022025],\n'
        '         [0, 0.18800080515216638, 0.91346035739817844]]\n'
        '}\n',
    ),
]


def test_compose_golden(tmp_path):
    path = tmp_path / "p.json"
    for params, full, core in COMPOSE_GOLDEN:
        path.write_text(json.dumps(params), encoding="utf-8")
        assert run_cli(["compose", "--params", str(path)]) == (0, full, "")
        assert run_cli(["compose", "--params", str(path), "--core-only"]) == (0, core, "")


# stdout of `gen --haar 3 --seed 7`, one document per entry.  These bytes are
# bound to the host: the Box-Muller Gaussians go through numpy's log, sin and
# cos, whose SIMD loops round differently on other CPUs, and the Haar QR is
# LAPACK's.  So the recovery goldens below read these literals, and
# test_gen_golden alone pins the sampler's output on this host.
HAAR_7 = [
    '{\n'
    '  "kind": "unitary",\n'
    '  "re": [[0.72203238431420025, -0.4745769054036531, 0.22581907107845034],\n'
    '         [-0.30712365881898429, -0.63670638154057935, 0.1217915633518072],\n'
    '         [0.15109785392805114, -0.36131778284275134, -0.85904761723444201]],\n'
    '  "im": [[0.076446586674182693, -0.30660323418837448, 0.32031565707502413],\n'
    '         [0.57500728707835602, 0.37672660839991512, -0.11353651098105395],\n'
    '         [-0.15822854333584793, -0.053876930808262065, -0.28410753961178264]]\n'
    '}\n',
    '{\n'
    '  "kind": "unitary",\n'
    '  "re": [[0.040729289255496459, -0.1635716178716774, -0.21144226920421516],\n'
    '         [0.39691377652310916, -0.6988874026593439, 0.072292224260276761],\n'
    '         [0.20630274503765894, 0.035568899174855784, -0.73731288467562073]],\n'
    '  "im": [[-0.88469127709946149, -0.30006674653544402, -0.23272066832388161],\n'
    '         [-0.10103600068819879, 0.2910014764792444, 0.50388446490596961],\n'
    '         [0.073163017856637869, 0.55571005565217224, -0.31365147498122753]]\n'
    '}\n',
    '{\n'
    '  "kind": "unitary",\n'
    '  "re": [[0.76570405387968532, -0.012754511638002416, 0.44789033481070434],\n'
    '         [0.47527048572667419, -0.30153444502743998, -0.11348765390872195],\n'
    '         [-0.1316473261785612, -0.5240110916478673, -0.014053582439963555]],\n'
    '  "im": [[-0.33029609091340717, -0.20989767395278966, 0.24449198572709457],\n'
    '         [0.18287635410625941, 0.5607806648072734, -0.56779994835904435],\n'
    '         [-0.16716752141342217, 0.52516158386957545, 0.63572335553504788]]\n'
    '}\n',
]


# Documents 3, 4 and 7 of `gen --haar 8 --seed 7` (its first three are
# HAAR_7), stored verbatim for the same reason.  Their flip-equivalent tuples
# (parametrization.flip_equivalent) have |alpha1| > pi/2, so the recover
# goldens of these three pin recovery's representative rule, alpha1 in
# [-pi/2, pi/2].
HAAR_7_FLIPPED = [
    '{\n'
    '  "kind": "unitary",\n'
    '  "re": [[0.096328387269669177, -0.51829315188214253, -0.00040573055193954038],\n'
    '         [-0.51850555404210219, 0.46991037697304577, 0.11580243805939376],\n'
    '         [0.061606474164808238, -0.11078408709406296, 0.80967810793525807]],\n'
    '  "im": [[0.54449623134449465, 0.62252030394783042, -0.19515432643208777],\n'
    '         [0.54808522042378804, 0.12544747383666799, 0.42519589113848338],\n'
    '         [-0.34814353330077535, 0.30824460230887946, 0.33486450287599717]]\n'
    '}\n',
    '{\n'
    '  "kind": "unitary",\n'
    '  "re": [[-0.33717268198946287, 0.55809947012605021, -0.5536862729358738],\n'
    '         [-0.087891026627381796, -0.34801599415825873, 0.12489612930183801],\n'
    '         [0.4714392486242599, 0.069365898221319652, -0.14759729604689178]],\n'
    '  "im": [[0.048724485881625187, -0.1100752473636324, 0.50376625484528215],\n'
    '         [-0.32842601212841327, 0.59641983689843514, 0.62608364045494258],\n'
    '         [0.73898380486179038, 0.44132192273995358, 0.1014216046081426]]\n'
    '}\n',
    '{\n'
    '  "kind": "unitary",\n'
    '  "re": [[-0.13738832431227355, -0.62718898352641816, -0.44009082715192499],\n'
    '         [-0.25650006405784603, 0.43797741396246892, -0.33311578610431813],\n'
    '         [0.055266248484284769, 0.23101196340840166, -0.55754052884309291]],\n'
    '  "im": [[-0.15407000702498311, 0.43412327981058252, 0.42647145508735079],\n'
    '         [-0.73339661542757184, 0.18947159754516432, -0.24009850738444077],\n'
    '         [0.59217366090882795, 0.3702441467656542, -0.3807588480254161]]\n'
    '}\n',
]


def test_gen_golden():
    # host-bound by design (see HAAR_7); a failure elsewhere means the
    # sampler's numpy or LAPACK rounds differently, not that recovery moved
    assert run_cli(["gen", "--haar", "3", "--seed", "7"]) == (0, "".join(HAAR_7), "")


# stdout of `recover` and `roundtrip` for the three HAAR_7 documents, the
# three HAAR_7_FLIPPED documents and ten face documents, composed from the
# first parameters of COMPOSE_GOLDEN with chi, then mu, 1e-10 from its face,
# then with each of the eight chart faces 1e-13 away; byte for byte.  Recovery and composition run in Python floats
# only, so these hold on every host with the same libm (see the README's
# Arithmetic convention).
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
        '  "phi": 1.275351270304977,\n'
        '  "theta": -0.29124474223390845,\n'
        '  "varphi": 0.5789648949013997,\n'
        '  "chi": 0.5788409496335282,\n'
        '  "mu": 0.5092596075349444,\n'
        '  "alpha1": -0.40471801406030383,\n'
        '  "alpha2": 3.0175267042602356,\n'
        '  "alpha3": 0.42333713209453333,\n'
        '  "beta2": 2.981921664029693,\n'
        '  "residual": 3.881441354699199e-16,\n'
        '  "branch": "a",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 3.881441354699199e-16, "branch": "a"}\n',
    ),
    (
        '{\n'
        '  "phi": 1.3080896932715063,\n'
        '  "theta": 0.5055324201362938,\n'
        '  "varphi": 1.4507845321611657,\n'
        '  "chi": 0.4580962933902452,\n'
        '  "mu": 0.47776061788272206,\n'
        '  "alpha1": -1.4698538311136817,\n'
        '  "alpha2": 2.373562740440425,\n'
        '  "alpha3": 2.2793506057741975,\n'
        '  "beta2": 0.7469176237563224,\n'
        '  "residual": 4.4235108494242803e-16,\n'
        '  "branch": "a",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 4.4235108494242803e-16, "branch": "a"}\n',
    ),
    (
        '{\n'
        '  "phi": 1.258451239584221,\n'
        '  "theta": -0.5453486117069465,\n'
        '  "varphi": 1.7689488695919247,\n'
        '  "chi": 0.3840720776352775,\n'
        '  "mu": 1.303556299497781,\n'
        '  "alpha1": -0.2059797789602764,\n'
        '  "alpha2": 1.365597465181332,\n'
        '  "alpha3": -1.884307818687281,\n'
        '  "beta2": 2.2353428274649922,\n'
        '  "residual": 4.442043913938138e-16,\n'
        '  "branch": "a",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 4.442043913938138e-16, "branch": "a"}\n',
    ),
    (
        '{\n'
        '  "phi": 2.7128402624441166,\n'
        '  "theta": -0.4487217816057729,\n'
        '  "varphi": 0.5285531554859579,\n'
        '  "chi": 0.4194314839699608,\n'
        '  "mu": 0.6291544640021048,\n'
        '  "alpha1": -1.1409198082916483,\n'
        '  "alpha2": 2.6654412301439105,\n'
        '  "alpha3": -2.0473005986890676,\n'
        '  "beta2": 1.953151071608037,\n'
        '  "residual": 5.964062126890571e-16,\n'
        '  "branch": "a",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 5.964062126890571e-16, "branch": "a"}\n',
    ),
    (
        '{\n'
        '  "phi": -1.2517901237997224,\n'
        '  "theta": 1.1891455239292925,\n'
        '  "varphi": 3.103694410407382,\n'
        '  "chi": 0.3328616308122234,\n'
        '  "mu": 0.7321707665006592,\n'
        '  "alpha1": 0.9898265354143874,\n'
        '  "alpha2": -0.41491693487547476,\n'
        '  "alpha3": 2.691711846401429,\n'
        '  "beta2": 1.748862581257561,\n'
        '  "residual": 8.524396565254951e-16,\n'
        '  "branch": "a",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 8.524396565254951e-16, "branch": "a"}\n',
    ),
    (
        '{\n'
        '  "phi": -2.562328184873483,\n'
        '  "theta": 1.1394738827610686,\n'
        '  "varphi": 2.2812843920590558,\n'
        '  "chi": 0.14866537254840925,\n'
        '  "mu": 0.9195247668179011,\n'
        '  "alpha1": 1.3053899437068455,\n'
        '  "alpha2": 1.6846567860029622,\n'
        '  "alpha3": -3.031747242111679,\n'
        '  "beta2": -0.10205024461256838,\n'
        '  "residual": 5.097135955591513e-16,\n'
        '  "branch": "a",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 5.097135955591513e-16, "branch": "a"}\n',
    ),
    (
        '{\n'
        '  "phi": 0.2999999334134712,\n'
        '  "theta": 0.39999998583436913,\n'
        '  "varphi": 0.4999999386697454,\n'
        '  "chi": 9.999999773303907e-11,\n'
        '  "mu": 0.7000000289581196,\n'
        '  "alpha1": 0.1,\n'
        '  "alpha2": 0.1999999950556816,\n'
        '  "alpha3": 0.3000000069692298,\n'
        '  "beta2": 0.39999999303077016,\n'
        '  "residual": 2.887988982910422e-16,\n'
        '  "branch": "d2",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 2.887988982910422e-16, "branch": "d2"}\n',
    ),
    (
        '{\n'
        '  "phi": 0.29999999999999993,\n'
        '  "theta": 0.39999999999999997,\n'
        '  "varphi": 0.4999999999999999,\n'
        '  "chi": 0.2,\n'
        '  "mu": 1.0000005685484537e-10,\n'
        '  "alpha1": 0.1,\n'
        '  "alpha2": 0.20000000000000004,\n'
        '  "alpha3": 0.300000087938712,\n'
        '  "beta2": 0.39999991206128804,\n'
        '  "residual": 1.8027775184845912e-16,\n'
        '  "branch": "a",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 1.8027775184845912e-16, "branch": "a"}\n',
    ),
    (
        '{\n'
        '  "phi": -0.23534756181146124,\n'
        '  "theta": 0.34877492296252366,\n'
        '  "varphi": 0.0,\n'
        '  "chi": 0.0,\n'
        '  "mu": 0.8960646413550065,\n'
        '  "alpha1": 0.09999999999999999,\n'
        '  "alpha2": 0.15928764717050506,\n'
        '  "alpha3": 0.33866654625113113,\n'
        '  "beta2": 0.3613334537488689,\n'
        '  "residual": 1.4143242304859664e-13,\n'
        '  "branch": "d1",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 1.4143242304859664e-13, "branch": "d1"}\n',
    ),
    (
        '{\n'
        '  "phi": 0.3000000000000001,\n'
        '  "theta": 0.39999999999999997,\n'
        '  "varphi": 0.4999031532256393,\n'
        '  "chi": 0.7853981633973481,\n'
        '  "mu": 0.6999999999999997,\n'
        '  "alpha1": 0.09990315322563927,\n'
        '  "alpha2": 0.20009684677436074,\n'
        '  "alpha3": 0.3000968467743606,\n'
        '  "beta2": 0.4000000000000001,\n'
        '  "residual": 3.3766115072321297e-16,\n'
        '  "branch": "circular-fallback",\n'
        '  "global_phase_alpha1_degenerate": true\n'
        '}\n',
        '{"residual": 3.3766115072321297e-16, "branch": "circular-fallback"}\n',
    ),
    (
        '{\n'
        '  "phi": 0.3,\n'
        '  "theta": 0.4000000000000001,\n'
        '  "varphi": 0.5001450153427871,\n'
        '  "chi": -0.7853981633973482,\n'
        '  "mu": 0.7,\n'
        '  "alpha1": 0.09985498465721282,\n'
        '  "alpha2": 0.20014501534278709,\n'
        '  "alpha3": 0.30014501534278704,\n'
        '  "beta2": 0.4,\n'
        '  "residual": 2.225860458774576e-16,\n'
        '  "branch": "circular-fallback",\n'
        '  "global_phase_alpha1_degenerate": true\n'
        '}\n',
        '{"residual": 2.225860458774576e-16, "branch": "circular-fallback"}\n',
    ),
    (
        '{\n'
        '  "phi": 0.29999999999999993,\n'
        '  "theta": 0.39999999999999997,\n'
        '  "varphi": 0.4999999999999999,\n'
        '  "chi": 0.2,\n'
        '  "mu": 1.0006838658895977e-13,\n'
        '  "alpha1": 0.1,\n'
        '  "alpha2": 0.20000000000000004,\n'
        '  "alpha3": 0.0,\n'
        '  "beta2": 0.7000000000000001,\n'
        '  "residual": 4.232595317317914e-14,\n'
        '  "branch": "a",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 4.232595317317914e-14, "branch": "a"}\n',
    ),
    (
        '{\n'
        '  "phi": 0.29999999999999993,\n'
        '  "theta": 0.39999999999999997,\n'
        '  "varphi": 0.4999999999999999,\n'
        '  "chi": 0.2,\n'
        '  "mu": 1.5707963267947966,\n'
        '  "alpha1": 0.1,\n'
        '  "alpha2": 0.0,\n'
        '  "alpha3": 0.29999999999999993,\n'
        '  "beta2": 0.4,\n'
        '  "residual": 2.8204505756832927e-14,\n'
        '  "branch": "a",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 2.8204505756832927e-14, "branch": "a"}\n',
    ),
    (
        '{\n'
        '  "phi": -0.19999999999999998,\n'
        '  "theta": 0.0,\n'
        '  "varphi": 0.0,\n'
        '  "chi": 0.2,\n'
        '  "mu": 0.7000000000000424,\n'
        '  "alpha1": 0.09999999999999998,\n'
        '  "alpha2": 0.1999999999999918,\n'
        '  "alpha3": 0.3000000000000114,\n'
        '  "beta2": 0.4000000000000025,\n'
        '  "residual": 1.2543260228680885e-13,\n'
        '  "branch": "b2",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 1.2543260228680885e-13, "branch": "b2"}\n',
    ),
    (
        '{\n'
        '  "phi": 0.3000000000000001,\n'
        '  "theta": 1.5707963267947966,\n'
        '  "varphi": 0.5,\n'
        '  "chi": 0.20000000000000004,\n'
        '  "mu": 0.6999999999999997,\n'
        '  "alpha1": 0.09999999999999999,\n'
        '  "alpha2": 0.20000000000000004,\n'
        '  "alpha3": 0.2999999999999999,\n'
        '  "beta2": 0.4000000000000002,\n'
        '  "residual": 2.673050709148004e-16,\n'
        '  "branch": "a",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 2.673050709148004e-16, "branch": "a"}\n',
    ),
    (
        '{\n'
        '  "phi": 0.2999999999999998,\n'
        '  "theta": -1.5707963267947966,\n'
        '  "varphi": 0.5,\n'
        '  "chi": 0.20000000000000004,\n'
        '  "mu": 0.6999999999999997,\n'
        '  "alpha1": 0.09999999999999999,\n'
        '  "alpha2": 0.20000000000000007,\n'
        '  "alpha3": 0.29999999999999993,\n'
        '  "beta2": 0.40000000000000013,\n'
        '  "residual": 1.9179484335559235e-16,\n'
        '  "branch": "a",\n'
        '  "global_phase_alpha1_degenerate": false\n'
        '}\n',
        '{"residual": 1.9179484335559235e-16, "branch": "a"}\n',
    ),
]


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


def run_usage_error(argv):
    """run_cli for an argument list that the parser rejects, or one that asks
    for help: its exit code (SystemExit), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1", "-1e-300", "abc"])
def test_bad_tolerance_is_usage_error(tmp_path, tolerance):
    # NaN or a negative tolerance would fail a perfect recovery with exit 3,
    # inf would switch the residual gate off: each is rejected at argument
    # parsing, as a tolerance that is not a number is.
    _, gen_out, _ = run_cli(["gen", "--haar", "1", "--seed", "3"])
    mpath = tmp_path / "m.json"
    mpath.write_text(gen_out, encoding="utf-8")
    for command in ("recover", "roundtrip"):
        # The = form; test_space_form_value_reaches_the_validator has the other.
        code, out, err = run_usage_error([command, "--matrix", str(mpath), f"--tolerance={tolerance}"])
        assert (code, out) == (2, ""), command
        assert err.startswith("usage: ") and "argument --tolerance: " in err, err
        assert repr(tolerance) in err, err


def test_zero_tolerance_reaches_the_gate(tmp_path):
    # 0 is the strictest tolerance, not a usage error: the residual gate judges it.
    mpath = tmp_path / "eye.json"
    mpath.write_text(serialize_matrix(np.eye(3), kind="unitary"), encoding="utf-8")
    code, out, err = run_cli(["roundtrip", "--matrix", str(mpath), "--tolerance", "0"])
    assert (code, out) == (3, "")
    assert err.startswith("error: tolerance failure: recomposition residual ") and " exceeds 0.0 " in err, err


@pytest.mark.parametrize("count", ["-3", "-1", "x"])
def test_bad_gen_count_is_usage_error(count):
    # A negative count used to exit 0 with nothing written.
    code, out, err = run_usage_error(["gen", "--haar", count])
    assert (code, out) == (2, "")
    assert err.startswith("usage: ") and "argument --haar: " in err and repr(count) in err, err


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "x"])
def test_bad_gen_seed_is_usage_error(seed):
    # A seed outside [0, 2**64) used to print the stream of the seed it
    # equals modulo 2**64 (-1 that of 2**64 - 1, 2**64 that of 0).
    code, out, err = run_usage_error(["gen", "--haar", "1", f"--seed={seed}"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: ") and "argument --seed: " in err and repr(seed) in err, err


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_gen_seed_bounds(seed):
    # Both ends of the seed range are accepted, each with its own stream.
    code, out, err = run_cli(["gen", "--haar", "1", f"--seed={seed}"])
    assert (code, err) == (0, "")
    assert out == serialize_matrix(generate_haar_unitary(SeededGenerator(seed)), kind="unitary")


COMMAND_OPTIONS = {
    "compose": ("--params PARAMS", "[--core-only]", "[--out OUT]"),
    "recover": ("--matrix MATRIX", "[--tolerance TOLERANCE]", "[--out OUT]"),
    "roundtrip": ("--matrix MATRIX", "[--tolerance TOLERANCE]"),
    "chardecomp": ("--matrix MATRIX", "[--out OUT]"),
    "gen": ("--haar HAAR", "[--seed SEED]", "[--out-dir OUT_DIR]"),
    "selftest": (),
}


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_top_level_help(flag):
    code, out, err = run_usage_error([flag])
    assert (code, err) == (0, "")
    assert out.startswith("usage: unitary3 [-h] {compose,recover,roundtrip,chardecomp,gen,selftest} ...\n"), out
    for command in COMMAND_OPTIONS:
        assert f"\n  {command} " in out, command


@pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
def test_command_help(command):
    # Help wins over a missing required option, as it is read first.
    code, out, err = run_usage_error([command, "--help"])
    assert (code, err) == (0, "")
    usage = " ".join(["usage: unitary3", command, "[-h]", *COMMAND_OPTIONS[command]])
    assert out.startswith(usage + "\n\n"), out
    assert run_usage_error([command, "-h"]) == (code, out, err)


@pytest.mark.parametrize("argv, prog, message", [
    ([], "unitary3", "the following arguments are required: command"),
    (["foo"], "unitary3", "argument command: invalid choice: 'foo' (choose from 'compose', "),
    (["recover"], "unitary3 recover", "the following arguments are required: --matrix"),
    (["gen", "--seed", "1"], "unitary3 gen", "the following arguments are required: --haar"),
    (["recover", "--matrix", "m.json", "--bogus"], "unitary3 recover", "unrecognized arguments: --bogus"),
    (["recover", "--matrix", "m.json", "extra"], "unitary3 recover", "unrecognized arguments: extra"),
    (["selftest", "-x"], "unitary3 selftest", "unrecognized arguments: -x"),
    (["compose", "--params", "p.json", "--core-only=x"], "unitary3 compose",
     "argument --core-only: ignored explicit argument 'x'"),
    (["recover", "--matrix"], "unitary3 recover", "argument --matrix: expected one argument"),
    (["gen", "--haar", "1", "--seed"], "unitary3 gen", "argument --seed: expected one argument"),
    (["recover", "--matrix", "--out", "o.json"], "unitary3 recover", "argument --matrix: expected one argument"),
])
def test_usage_error(argv, prog, message):
    code, out, err = run_usage_error(argv)
    assert (code, out) == (2, ""), argv
    usage, error = err.splitlines()
    assert usage.startswith("usage: " + prog + " "), err
    assert error.startswith(f"{prog}: error: {message}"), err


@pytest.mark.parametrize("argv, message", [
    (["recover", "--matrix", "m.json", "--out="], "argument --out: expected a non-empty path"),
    (["chardecomp", "--matrix", "m.json", "--out", ""], "argument --out: expected a non-empty path"),
    (["compose", "--params", "p.json", "--out="], "argument --out: expected a non-empty path"),
    (["gen", "--haar", "1", "--out-dir="], "argument --out-dir: expected a non-empty path"),
    # roundtrip writes to stdout only: it has no --out to leave empty.
    (["roundtrip", "--matrix", "m.json", "--out="], "unrecognized arguments: --out="),
])
def test_empty_output_path_is_usage_error(argv, message):
    # An empty --out or --out-dir used to write the document to stdout and
    # exit 0; it is rejected before any input is read.
    code, out, err = run_usage_error(argv)
    assert (code, out) == (2, ""), argv
    usage, error = err.splitlines()
    assert usage.startswith(f"usage: unitary3 {argv[0]} "), err
    assert error == f"unitary3 {argv[0]}: error: {message}", err


@pytest.mark.parametrize("argv, message", [
    (["recover", "--matrix", "m.json", "--tolerance", "x"], "argument --tolerance: invalid float value: 'x'"),
    (["roundtrip", "--matrix", "m.json", "--tolerance", "-1"],
     "argument --tolerance: must be a finite number >= 0, got '-1'"),
    (["gen", "--haar", "x"], "argument --haar: invalid int value: 'x'"),
    (["gen", "--haar", "-3"], "argument --haar: must be >= 0, got '-3'"),
    (["gen", "--haar", "1", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["gen", "--haar", "1", "--seed", "-1"], "argument --seed: must lie in [0, 2**64), got '-1'"),
    (["gen", "--haar", "1", "--seed", "18446744073709551616"],
     "argument --seed: must lie in [0, 2**64), got '18446744073709551616'"),
])
def test_value_error_message(argv, message):
    # The whole error line of each option value check, rejected before any
    # input is read.
    code, out, err = run_usage_error(argv)
    assert (code, out) == (2, ""), argv
    usage, error = err.splitlines()
    assert usage.startswith(f"usage: unitary3 {argv[0]} "), err
    assert error == f"unitary3 {argv[0]}: error: {message}", err


def test_space_form_value_reaches_the_validator(tmp_path):
    # "-inf" after --tolerance is its value, which the validator rejects.
    mpath = tmp_path / "eye.json"
    mpath.write_text(serialize_matrix(np.eye(3), kind="unitary"), encoding="utf-8")
    code, out, err = run_usage_error(["roundtrip", "--matrix", str(mpath), "--tolerance", "-inf"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: unitary3 roundtrip "), err
    assert err.endswith("unitary3 roundtrip: error: argument --tolerance: must be a finite number >= 0, "
                        "got '-inf'\n"), err


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


def test_recovery_cli_never_loads_numpy(tmp_path):
    # recover, roundtrip, chardecomp and compose run on Python scalars from
    # document to output, success and error exits alike, and parse their
    # arguments without argparse (nor the gettext and locale it loads);
    # gen, run last in the same interpreter, shows that the probe sees
    # numpy once it is loaded.
    _, gen_out, _ = run_cli(["gen", "--haar", "1", "--seed", "3"])
    (tmp_path / "u.json").write_text(gen_out, encoding="utf-8")
    (tmp_path / "big.json").write_text(serialize_matrix(2.0 * np.eye(3)), encoding="utf-8")
    (tmp_path / "r.json").write_text(serialize_matrix(np.diag([0.5, 0.3, 0.2]), kind="hermitian"),
                                     encoding="utf-8")
    not_hermitian = np.eye(3)
    not_hermitian[0, 1] = 1.0
    (tmp_path / "nh.json").write_text(serialize_matrix(not_hermitian), encoding="utf-8")
    (tmp_path / "huge.json").write_text(serialize_matrix(np.diag([1e308, 1e308, 1.0])),
                                        encoding="utf-8")
    (tmp_path / "bad.json").write_text('{"kind": "hermitian", "re": [[1, 0, 0]]}', encoding="utf-8")
    write_params(tmp_path)
    write_params(tmp_path, "mu.json", mu=2.0)
    probe = """if True:
        import sys
        before = set(sys.modules)
        import unitary3
        from unitary3.cli import main
        assert "numpy" not in sys.modules, "import unitary3"
        for argv, code in ((["recover", "--matrix", "u.json"], 0), (["roundtrip", "--matrix", "u.json"], 0),
                           (["recover", "--matrix", "big.json"], 2), (["roundtrip", "--matrix", "u.json",
                           "--tolerance", "1e-30"], 3), (["recover", "--matrix", "absent.json"], 1),
                           (["chardecomp", "--matrix", "r.json"], 0), (["chardecomp", "--matrix", "nh.json"], 2),
                           (["chardecomp", "--matrix", "huge.json"], 2), (["chardecomp", "--matrix", "bad.json"], 1),
                           (["compose", "--params", "p.json"], 0), (["compose", "--params", "p.json",
                           "--core-only"], 0), (["compose", "--params", "mu.json"], 2),
                           (["compose", "--params", "absent.json"], 1)):
            assert main(argv) == code, argv
            assert "numpy" not in sys.modules, argv
            assert not {"argparse", "cmath", "gettext", "locale"} & (set(sys.modules) - before), argv
        # The records are NamedTuples: dataclasses, and the inspect it imports, stay unloaded.
        assert not {"dataclasses", "inspect"} & (set(sys.modules) - before), "dataclasses"
        assert main(["gen", "--haar", "1"]) == 0
        assert "numpy" in sys.modules, "gen"
        print("ok")
    """
    src = str(Path(unitary3.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("ok\n"), proc.stdout
    assert "error: precondition violated: matrix is not Hermitian" in proc.stderr
    assert "error: precondition violated: trace is beyond the largest float" in proc.stderr
    assert "error: malformed input: field 're' must be a 3x3 array" in proc.stderr
    assert "error: precondition violated: mu must lie in [0, pi/2]" in proc.stderr


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


def test_chardecomp_float_range_exit_2(tmp_path):
    mpath = tmp_path / "r.json"
    mpath.write_text(serialize_matrix(np.diag([1e308, 1e308, 1.0]), kind="hermitian"))
    assert run_cli(["chardecomp", "--matrix", str(mpath)]) == (
        2, "", "error: precondition violated: trace is beyond the largest float\n")


def test_coherency_solve_count(tmp_path, monkeypatch):
    # One eigensolve per coherency call: the regularity analysis reuses the
    # decomposition's eigenvectors, and the CLI prints the decomposition
    # the regularity report carries.  The Jacobi kernel itself is counted,
    # so no wrapper around it can hide a second solve.
    calls = count_calls(monkeypatch, unitary3.linalg, "_jacobi")
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
    # Each public operation validates its input once; the stages behind it
    # are private kernels that trust the validated array.
    matrix_checks = count_calls(monkeypatch, unitary3.linalg, "as_matrix3")
    u = generate_haar_unitary(SeededGenerator(59))
    r = random_psd_hermitian(SeededGenerator(60))
    for run in (lambda: recover_params(u), lambda: regularity_report(r),
                lambda: characteristic_decomposition(r), lambda: middle_component(u)):
        matrix_checks.clear()
        run()
        assert len(matrix_checks) == 1


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


def test_gen_out_dir_made_once(tmp_path, monkeypatch):
    # --out-dir is made once, before the first document, and not at all
    # when there is no document to write.
    made = []
    mkdir = Path.mkdir

    def counted(self, *args, **kwargs):
        made.append(self)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counted)
    d = tmp_path / "samples"
    assert run_cli(["gen", "--haar", "3", "--out-dir", str(d)]) == (0, "", "")
    assert made == [d] and len(list(d.iterdir())) == 3
    made.clear()
    assert run_cli(["gen", "--haar", "0", "--out-dir", str(tmp_path / "none")]) == (0, "", "")
    assert made == [] and not (tmp_path / "none").exists()


def test_malformed_input_exit_1(tmp_path):
    mpath = tmp_path / "bad.json"
    mpath.write_text("{not json")
    code, _, err = run_cli(["recover", "--matrix", str(mpath)])
    assert code == 1
    assert "malformed" in err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 200000 + b"]" * 200000,
                                     b"\xef\xbb\xbf" + serialize_matrix(np.eye(3), "unitary").encode()],
                         ids=["not-utf8", "nested-too-deep", "utf8-bom"])
def test_unreadable_document_exit_1(tmp_path, content):
    # A file that is not UTF-8 text, JSON nested beyond the parser's
    # recursion limit, or a document after a UTF-8 byte order mark is
    # malformed input, not a traceback.
    mpath, ppath = tmp_path / "m.json", tmp_path / "p.json"
    mpath.write_bytes(content)
    ppath.write_bytes(content)
    for argv in (["recover", "--matrix", str(mpath)], ["chardecomp", "--matrix", str(mpath)],
                 ["compose", "--params", str(ppath)]):
        code, out, err = run_cli(argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: malformed input"), err


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


def test_compose_delta_overflow_exit_2(tmp_path):
    # Every field is finite, but delta = beta2 - alpha2 + alpha3 is beyond
    # the largest float: a precondition error, not a math domain error
    # traceback, with and without the rotation.
    path = write_params(tmp_path, chi=0.1, mu=0.3, alpha2=-1e308, beta2=1e308)
    for extra in ([], ["--core-only"]):
        assert run_cli(["compose", "--params", str(path), *extra]) == (
            2, "", "error: precondition violated: alpha2, alpha3 and beta2 must lie in [-2**8, 2**8]\n")


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


def test_recover_out_unwritable_exit_2(tmp_path):
    # --out into a directory that does not exist is an error line, not a
    # traceback, and nothing reaches stdout.
    _, text, _ = run_cli(["gen", "--haar", "1", "--seed", "3"])
    mpath = tmp_path / "m.json"
    mpath.write_text(text, encoding="utf-8")
    out_path = tmp_path / "missing-dir" / "x.json"
    code, out, err = run_cli(["recover", "--matrix", str(mpath), "--out", str(out_path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output: "), err
    assert str(out_path) in err


def test_gen_out_dir_is_a_file_exit_2(tmp_path):
    # --out-dir naming an existing file cannot hold the documents.
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    code, out, err = run_cli(["gen", "--haar", "1", "--out-dir", str(blocker)])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output: "), err
    assert blocker.read_text(encoding="utf-8") == ""


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
    src = str(Path(unitary3.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "unitary3.cli", "gen", "--haar", "2000", "--seed", "1"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")
