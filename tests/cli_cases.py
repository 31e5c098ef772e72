"""Every single-command case of the unitary3 CLI, in one table: CASES; and
the recorded output of the CLI's golden tests, which its rows reuse.

A row is one command line, run in a directory of its own that holds each
document of DOCS its ``argv`` names (``files``, as bytes).  The row gives
its exit code, and its stdout and stderr byte for byte; after the run the
directory holds its documents unchanged and the files ``writes`` gives, as
bytes.  Each reader compares stdout through stable(), as selftest's report
moves with the host and the run.

tests/test_cli.py runs every row through cli.main in process, and in an
ordinary child interpreter and one that cannot import numpy;
.github/console_parity.sh runs every row through the console script and
``python -m unitary3.cli``.  So a new CLI case is one more row.  The
module imports neither numpy nor pytest, which CI's no-extras job has not.
"""
import json
import math
import re
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).parent
# chardecomp's committed golden on its first input, chardecomp_full.json.
FULL = json.loads((HERE / "chardecomp_golden.json").read_text(encoding="utf-8"))[0]


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


# stdout of `gen --haar 3 --seed 7` as an earlier sampler wrote it (numpy's
# Box-Muller and LAPACK's QR), one document per entry, within 2.5e-16 of
# what gen writes now (GEN_7).  They are the recover goldens' inputs, so they
# stay verbatim and no recover golden moves with the sampler.
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


# stdout of `gen --haar 3 --seed 7`.  The sampler runs on Python floats and
# math's functions, so these bytes move only with the host libm's log, sin
# and cos, and test_host_independence checks them under every setting.
GEN_7 = (
    '{\n'
    '  "kind": "unitary",\n'
    '  "re": [[0.72203238431420014, -0.4745769054036531, 0.22581907107845031],\n'
    '         [-0.30712365881898429, -0.63670638154057935, 0.12179156335180713],\n'
    '         [0.15109785392805114, -0.36131778284275151, -0.85904761723444201]],\n'
    '  "im": [[0.076446586674182707, -0.30660323418837454, 0.3203156570750243],\n'
    '         [0.57500728707835613, 0.37672660839991512, -0.11353651098105393],\n'
    '         [-0.15822854333584796, -0.053876930808262044, -0.28410753961178259]]\n'
    '}\n'
    '{\n'
    '  "kind": "unitary",\n'
    '  "re": [[0.040729289255496466, -0.16357161787167718, -0.21144226920421494],\n'
    '         [0.39691377652310905, -0.69888740265934401, 0.072292224260276677],\n'
    '         [0.2063027450376588, 0.0355688991748557, -0.73731288467562073]],\n'
    '  "im": [[-0.88469127709946127, -0.30006674653544407, -0.23272066832388158],\n'
    '         [-0.10103600068819876, 0.29100147647924446, 0.5038844649059695],\n'
    '         [0.073163017856637841, 0.55571005565217202, -0.3136514749812277]]\n'
    '}\n'
    '{\n'
    '  "kind": "unitary",\n'
    '  "re": [[0.76570405387968532, -0.012754511638002383, 0.44789033481070434],\n'
    '         [0.47527048572667419, -0.30153444502743992, -0.11348765390872205],\n'
    '         [-0.1316473261785612, -0.52401109164786741, -0.014053582439963417]],\n'
    '  "im": [[-0.33029609091340717, -0.20989767395278963, 0.24449198572709469],\n'
    '         [0.18287635410625944, 0.56078066480727329, -0.56779994835904457],\n'
    '         [-0.16716752141342217, 0.52516158386957545, 0.63572335553504788]]\n'
    '}\n'
)


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


def matrix(kind: str, real: str) -> str:
    """A matrix document with real part ``real``."""
    return '{"kind": "%s", "re": %s, "im": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}' % (kind, real)


def params(**fields) -> str:
    """A params document: ``fields`` over zeros and beta2 = pi."""
    values = {**dict.fromkeys(["phi", "theta", "varphi", "chi", "mu", "alpha1", "alpha2", "alpha3"], "0"),
              "beta2": "3.1415926535897931", **fields}
    return "{" + ", ".join(f'"{name}": {value}' for name, value in values.items()) + "}"


EYE = matrix("unitary", "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]")
# stdout of `recover` on EYE.  The identity fires recovery's linear-column,
# gimbal and mu = 0 folds and reads beta2 = pi off -v33.
RECOVERED_EYE = ('{\n'
                 '  "phi": -0.0,\n'
                 '  "theta": 0.0,\n'
                 '  "varphi": 0.0,\n'
                 '  "chi": 0.0,\n'
                 '  "mu": 0.0,\n'
                 '  "alpha1": 0.0,\n'
                 '  "alpha2": 0.0,\n'
                 '  "alpha3": 0.0,\n'
                 '  "beta2": 3.141592653589793,\n'
                 '  "residual": 1.2246467991473532e-16,\n'
                 '  "branch": "b1",\n'
                 '  "global_phase_alpha1_degenerate": false\n'
                 '}\n')
# Integer literals beyond the float range, and beyond Python's int digit limit.
E400, E5000 = "1" + "0" * 400, "1" + "0" * 5000
DOCS = {
    "u.json": HAAR_7[0],
    "eye.json": EYE,
    "r.json": RECOVERED_EYE,
    "full.json": (HERE / "chardecomp_full.json").read_text(encoding="utf-8"),
    "two.json": matrix("general", "[[2, 0, 0], [0, 2, 0], [0, 0, 2]]"),
    "e200.json": matrix("general", "[[1, 0, 0], [0, 1e200, 1e200], [0, 1e200, -1e200]]"),
    "nh.json": matrix("general", "[[1, 1, 0], [0, 1, 0], [0, 0, 1]]"),
    "e308.json": matrix("hermitian", "[[1e308, 0, 0], [0, 1e308, 0], [0, 0, 1]]"),
    "e400.json": matrix("unitary", f"[[{E400}, 0, 0], [0, 1, 0], [0, 0, 1]]"),
    "e5000.json": matrix("unitary", f"[[{E5000}, 0, 0], [0, 1, 0], [0, 0, 1]]"),
    "rows.json": '{"kind": "hermitian", "re": [[1, 0, 0]]}',
    "notjson.json": "{not json",
    "bom.json": "\ufeff" + EYE,
    "notutf8.json": "\udcff\udcfe{}",  # the bytes ff fe 7b 7d (surrogateescape)
    "deep.json": "[" * 200000 + "]" * 200000,
    "p.json": json.dumps(COMPOSE_GOLDEN[0][0]),
    "mu.json": params(mu="2"),
    "delta.json": params(chi="0.1", mu="0.3", alpha2="-1e308", beta2="1e308"),
    "chi400.json": params(chi="-" + E400),
    "chi5000.json": params(chi="-" + E5000),
}

Case = namedtuple("Case", "argv code stdout stderr files writes")


def case(argv: list, code: int = 0, stdout: str = "", stderr: str = "", writes: dict = {}) -> Case:
    return Case(argv, code, stdout, stderr,
                {name: DOCS[name].encode("utf-8", "surrogateescape") for name in argv if name in DOCS},
                {name: text.encode("utf-8") for name, text in writes.items()})


def fails(argv: list, code: int, message: str) -> Case:
    """A row whose command raises a library error: its one stderr line."""
    return case(argv, code, stderr=f"error: {message}\n")


USAGE = {
    None: "usage: unitary3 [-h] {compose,recover,roundtrip,chardecomp,gen,selftest} ...\n",
    "compose": "usage: unitary3 compose [-h] --params PARAMS [--core-only] [--out OUT]\n",
    "recover": "usage: unitary3 recover [-h] --matrix MATRIX [--tolerance TOLERANCE] [--out OUT]\n",
    "roundtrip": "usage: unitary3 roundtrip [-h] --matrix MATRIX [--tolerance TOLERANCE]\n",
    "chardecomp": "usage: unitary3 chardecomp [-h] --matrix MATRIX [--out OUT]\n",
    "gen": "usage: unitary3 gen [-h] --haar HAAR [--seed SEED] [--out-dir OUT_DIR]\n",
    "selftest": "usage: unitary3 selftest [-h]\n",
}


def usage(argv: list, message: str) -> Case:
    """A row the parser rejects before any input is read: exit 2, the usage
    line and the error line."""
    command = argv[0] if argv and argv[0] in USAGE else None
    prog = "unitary3" if command is None else f"unitary3 {command}"
    return case(argv, 2, stderr=f"{USAGE[command]}{prog}: error: {message}\n")


FINITE = "argument --tolerance: must be a finite number >= 0, got "
SEED = "argument --seed: must lie in [0, 2**64), got "
NOT_READ = "malformed input: cannot read "
# What of selftest's report moves with the host and the run: each check's
# worst value and its timing (`` in 0.03s``).
VARIES = re.compile(r"^((?:PASS|FAIL)  [\w-]+: worst )\S+( \(bound \S+\)) in \d+\.\d\ds$", re.M)


def stable(stdout: str) -> str:
    """``stdout`` with each selftest line's worst value written ``...`` and
    its timing left out, as the rows give it."""
    return VARIES.sub(r"\1...\2", stdout)


CASES = [
    case(["recover", "--matrix", "u.json"], 0, RECOVER_GOLDEN[0][0]),
    case(["roundtrip", "--matrix", "u.json"], 0, RECOVER_GOLDEN[0][1]),
    case(["recover", "--matrix", "u.json", "--out", "out.json"], writes={"out.json": RECOVER_GOLDEN[0][0]}),
    case(["recover", "--matrix", "eye.json"], 0, RECOVERED_EYE),
    case(["roundtrip", "--matrix", "eye.json"], 0, '{"residual": 1.2246467991473532e-16, "branch": "b1"}\n'),
    # compose reads the document that recover writes.
    case(["compose", "--params", "r.json"], 0,
         '{\n'
         '  "kind": "unitary",\n'
         '  "re": [[1, -0, 0],\n'
         '         [0, 1, 0],\n'
         '         [0, 0, 1]],\n'
         '  "im": [[0, 0, 0],\n'
         '         [0, 0, 0],\n'
         '         [0, 0, -1.2246467991473532e-16]]\n'
         '}\n'),
    case(["compose", "--params", "p.json"], 0, COMPOSE_GOLDEN[0][1]),
    case(["compose", "--params", "p.json", "--core-only"], 0, COMPOSE_GOLDEN[0][2]),
    case(["chardecomp", "--matrix", "full.json"], 0, FULL["stdout"]),
    case(["gen", "--haar", "3", "--seed", "7"], 0, GEN_7),
    case(["gen", "--haar", "2", "--seed", "7", "--out-dir", "haar"],
         writes={f"haar/haar_7_000{i}.json": doc + "}\n" for i, doc in enumerate(GEN_7.split("}\n")[:2])}),
    case(["selftest"], 0,
         'PASS  composition-unitarity: worst ... (bound 1e-13)\n'
         'PASS  haar-roundtrip: worst ... (bound 1e-10)\n'
         'PASS  param-roundtrip: worst ... (bound 1e-09)\n'
         'PASS  rotation-roundtrip: worst ... (bound 1e-12)\n'
         'PASS  eigensolver-residual: worst ... (bound 1e-12)\n'
         'PASS  characteristic-reconstruction: worst ... (bound 1e-12)\n'
         'PASS  middle-spectrum: worst ... (bound 1e-12)\n'
         'PASS  chi-only-dependence: worst ... (bound 1e-13)\n'
         'PASS  regularity-spectrum: worst ... (bound 1e-10)\n'
         'PASS  haar-moment: worst ... (bound 0.02)\n'
         'PASS  haar-trace: worst ... (bound 0.08)\n'
         'PASS  haar-coe: worst ... (bound 0.12)\n'),
    case(["--help"], 0,
         USAGE[None] + '\n'
         'Nine-parameter composition and recovery of 3x3 unitaries, characteristic\n'
         'decomposition of coherency matrices.\n'
         '\n'
         'commands:\n'
         '  compose     params document to matrix document\n'
         '  recover     matrix document to params document\n'
         '  roundtrip   recover then recompose; print residual\n'
         '  chardecomp  characteristic decomposition report\n'
         '  gen         emit Haar-random unitaries (splitmix64+box-muller)\n'
         '  selftest    run the invariant suite\n'),
    case(["gen", "--help"], 0, USAGE["gen"] + '\nemit Haar-random unitaries (splitmix64+box-muller)\n'),
    # Exit 1: a document that cannot be read or is malformed.
    *(fails([*command, name], 1, message)
      for name, message in (
          ("absent.json", NOT_READ + "absent.json: [Errno 2] No such file or directory: 'absent.json'"),
          ("notutf8.json",
           NOT_READ + "notutf8.json: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
          ("deep.json", "malformed input: nested too deeply"),
          ("bom.json", "malformed input: not valid JSON (line 1): Expecting value"))
      for command in (["recover", "--matrix"], ["chardecomp", "--matrix"], ["compose", "--params"])),
    fails(["recover", "--matrix", "notjson.json"], 1,
          "malformed input: not valid JSON (line 1): Expecting property name enclosed in double quotes"),
    *(fails([command, "--matrix", "rows.json"], 1, "malformed input: field 're' must be a 3x3 array (3 rows)")
      for command in ("recover", "chardecomp")),
    *(fails([command, "--matrix", name], 1, "malformed input: field 're' entry (0,0) is not finite")
      for name in ("e400.json", "e5000.json") for command in ("recover", "roundtrip", "chardecomp")),
    *(fails(["compose", "--params", name], 1, "malformed input: field 'chi' is not finite")
      for name in ("chi400.json", "chi5000.json")),
    # Exit 2: a precondition, or an output that cannot be written.
    fails(["recover", "--matrix", "two.json"], 2, "precondition violated: unitarity distance 5.196e+00 exceeds 1e-12"),
    *(fails([command, "--matrix", "e200.json"], 2, "precondition violated: entry modulus 1.000e+200 exceeds 2")
      for command in ("recover", "roundtrip")),
    fails(["compose", "--params", "mu.json"], 2, "precondition violated: mu must lie in [0, pi/2]"),
    *(fails(["compose", "--params", "delta.json", *extra], 2,
            "precondition violated: alpha2, alpha3 and beta2 must lie in [-2**8, 2**8]")
      for extra in ([], ["--core-only"])),
    fails(["chardecomp", "--matrix", "nh.json"], 2,
          "precondition violated: matrix is not Hermitian: max|R - R'| = 1.000e+00, max|R| = 1.000e+00"),
    fails(["chardecomp", "--matrix", "e308.json"], 2, "precondition violated: trace is beyond the largest float"),
    fails(["recover", "--matrix", "u.json", "--out", "missing-dir/x.json"], 2,
          "cannot write output: [Errno 2] No such file or directory: 'missing-dir/x.json'"),
    fails(["gen", "--haar", "1", "--out-dir", "u.json"], 2, "cannot write output: [Errno 17] File exists: 'u.json'"),
    # Exit 3: the residual gate.
    fails(["roundtrip", "--matrix", "u.json", "--tolerance", "1e-30"], 3,
          "tolerance failure: recomposition residual 3.881e-16 exceeds 1e-30 (branch a)"),
    # 0 is the strictest tolerance, not a usage error.
    fails(["roundtrip", "--matrix", "eye.json", "--tolerance", "0"], 3,
          "tolerance failure: recomposition residual 1.225e-16 exceeds 0.0 (branch b1)"),
    # Usage errors.  NaN or a negative tolerance would fail every recovery,
    # and inf would pass every one.
    *(usage([command, "--matrix", "u.json", f"--tolerance={value}"], message)
      for command in ("recover", "roundtrip")
      for value, message in (("nan", FINITE + "'nan'"), ("inf", FINITE + "'inf'"), ("-inf", FINITE + "'-inf'"),
                             ("-1", FINITE + "'-1'"), ("-1e-300", FINITE + "'-1e-300'"),
                             ("abc", "argument --tolerance: invalid float value: 'abc'"))),
    usage(["recover", "--matrix", "u.json", "--tolerance", "x"], "argument --tolerance: invalid float value: 'x'"),
    # A value after its option is the option's value, "-1" and "-inf" too.
    usage(["roundtrip", "--matrix", "u.json", "--tolerance", "-1"], FINITE + "'-1'"),
    usage(["roundtrip", "--matrix", "eye.json", "--tolerance", "-inf"], FINITE + "'-inf'"),
    # A negative count once wrote nothing and exited 0.
    usage(["gen", "--haar", "-3"], "argument --haar: must be >= 0, got '-3'"),
    usage(["gen", "--haar", "-1"], "argument --haar: must be >= 0, got '-1'"),
    usage(["gen", "--haar", "x"], "argument --haar: invalid int value: 'x'"),
    # A seed outside [0, 2**64) once gave the stream of the seed it equals
    # modulo 2**64.
    usage(["gen", "--haar", "1", "--seed=-1"], SEED + "'-1'"),
    usage(["gen", "--haar", "1", "--seed=18446744073709551616"], SEED + "'18446744073709551616'"),
    usage(["gen", "--haar", "1", "--seed=x"], "argument --seed: invalid int value: 'x'"),
    usage(["gen", "--haar", "1", "--seed", "-1"], SEED + "'-1'"),
    usage(["gen", "--haar", "1", "--seed", "18446744073709551616"], SEED + "'18446744073709551616'"),
    usage(["gen", "--haar", "1", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    # An empty --out or --out-dir once wrote to stdout.
    usage(["recover", "--matrix", "u.json", "--out="], "argument --out: expected a non-empty path"),
    usage(["chardecomp", "--matrix", "u.json", "--out", ""], "argument --out: expected a non-empty path"),
    usage(["compose", "--params", "p.json", "--out="], "argument --out: expected a non-empty path"),
    usage(["gen", "--haar", "1", "--out-dir="], "argument --out-dir: expected a non-empty path"),
    usage(["roundtrip", "--matrix", "u.json", "--out="], "unrecognized arguments: --out="),
    usage([], "the following arguments are required: command"),
    usage(["foo"], "argument command: invalid choice: 'foo' (choose from 'compose', 'recover', 'roundtrip', "
                   "'chardecomp', 'gen', 'selftest')"),
    usage(["recover"], "the following arguments are required: --matrix"),
    usage(["gen", "--seed", "1"], "the following arguments are required: --haar"),
    usage(["recover", "--matrix", "u.json", "--bogus"], "unrecognized arguments: --bogus"),
    usage(["recover", "--matrix", "u.json", "extra"], "unrecognized arguments: extra"),
    usage(["selftest", "-x"], "unrecognized arguments: -x"),
    usage(["compose", "--params", "p.json", "--core-only=x"], "argument --core-only: ignored explicit argument 'x'"),
    usage(["recover", "--matrix"], "argument --matrix: expected one argument"),
    usage(["gen", "--haar", "1", "--seed"], "argument --seed: expected one argument"),
    usage(["recover", "--matrix", "--out", "o.json"], "argument --matrix: expected one argument"),
]
