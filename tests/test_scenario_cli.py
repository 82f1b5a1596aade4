import glob
import importlib
import json
import os
import re
import subprocess
import sys
import tokenize
from fractions import Fraction

import pytest

from affsieve import cli
from affsieve.cli import build_parser, main
from affsieve.core_arith import primes_upto
from affsieve.modp import local_density
from affsieve.orbit_sieve import sieve_dimension_fit
from affsieve.polyalg import CertificateError
from affsieve.scenario import (
    load_scenario,
    parse_rational,
    rational_str,
    scenario_from_dict,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SL2 = os.path.join(ROOT, "scenarios", "sl2-free.json")
HEIS = os.path.join(ROOT, "scenarios", "heisenberg.json")
HEIS_Q = os.path.join(ROOT, "scenarios", "heisenberg-rational.json")
TORUS = os.path.join(ROOT, "scenarios", "torus.json")
ENTRY = os.path.join(ROOT, "scenarios", "sl2-entry.json")

# one cheap invocation of every subcommand on the shipped scenarios
REPLAY = [
    ["ball", "--scenario", SL2, "--L", "3"],
    ["orbit", "--scenario", SL2, "--L", "4"],
    ["local-density", "--scenario", SL2, "--p", "5"],
    ["beta-table", "--scenario", SL2, "--pmax", "7"],
    ["strong-approx", "--scenario", SL2, "--q", "15"],
    ["ramified", "--scenario", SL2, "--Lsample", "2", "--pmax", "20"],
    ["variety-count", "--scenario", SL2, "--p", "7"],
    ["splitting-census", "--scenario", SL2, "--pmax", "30"],
    ["sequence", "--scenario", SL2, "--L", "4"],
    ["decompose", "--scenario", SL2, "--L", "3", "--D", "6"],
    ["level-report", "--scenario", SL2, "--L", "3", "--D", "6"],
    ["sieve-dim", "--scenario", SL2, "--pmax", "100"],
    ["brun-bound", "--scenario", SL2, "--L", "4", "--z", "13", "--b", "2"],
    ["census", "--scenario", SL2, "--L", "3"],
    ["saturate", "--scenario", ENTRY, "--Lmax", "4", "--D", "1"],
    ["uni-sieve", "--scenario", HEIS, "--want", "2", "--prefixes", "5"],
    ["torus-heuristic", "--scenario", TORUS, "--bc-M", "1000"],
    ["r-formula", "--deg", "1", "--s", "1", "--dim", "3", "--tau", "1/2", "--omega", "4"],
]


def minimal_scenario():
    return {
        "name": "tiny",
        "ambient": {"n": 2, "kind": "SL"},
        "generators": [[[1, 2], [0, 1]], [[1, 0], [2, 1]]],
        "f": "x11 + x22 - 2",
    }


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(-2) == Fraction(-2)
    assert rational_str(Fraction(3, 4)) == "3/4"
    assert rational_str(Fraction(4, 2)) == "2"
    with pytest.raises(ValueError):
        parse_rational(0.5)
    with pytest.raises(ValueError):
        parse_rational(True)


def test_load_shipped_scenarios():
    for path in (SL2, HEIS, TORUS):
        sc = load_scenario(path)
        assert sc.name
        assert len(sc.hash()) == 64


def test_unknown_keys_rejected():
    raw = minimal_scenario()
    raw["surprise"] = 1
    with pytest.raises(ValueError, match="unknown keys"):
        scenario_from_dict(raw)
    raw = minimal_scenario()
    raw["params"] = {"zeta": 1}
    with pytest.raises(ValueError, match="unknown keys"):
        scenario_from_dict(raw)
    raw = minimal_scenario()
    raw["decomposition"] = {}
    with pytest.raises(ValueError, match="unknown keys"):
        scenario_from_dict(raw)
    # the paper's r-formula inputs and the Levi hypothesis are r-formula flags
    # and (later) a certified report, not scenario keys
    dropped = [
        ({"f_tilde": {"poly": "x11 + x22 - 2"}}, "f_tilde"),
        ({"f_tilde": {"poly": "x11 + x22 - 2", "degree": 1}}, "f_tilde"),
        ({"S_prime": [2]}, "S_prime"),
        ({"levi_semisimple": True}, "levi_semisimple"),
        ({"params": {"tau": "1/2"}}, "tau"),
        ({"params": {"T": "1"}}, "T"),
        ({"params": {"logM0": "1"}}, "logM0"),
    ]
    for extra, key in dropped:
        raw = {**minimal_scenario(), **extra}
        with pytest.raises(ValueError, match=f"unknown keys in .*'{key}'"):
            scenario_from_dict(raw)


def test_readme_scenario_example_loads():
    readme = open(os.path.join(ROOT, "README.md")).read()
    section = readme.split("## Scenario format", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    sc = scenario_from_dict(json.loads(block))
    assert (sc.name, sc.n, sc.L_schedule) == ("sl2-free", 2, (4, 6, 8))


def exit_code(tmp_path, raw, *args):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return main([args[0], "--scenario", str(path), *args[1:]])


@pytest.mark.parametrize(
    "params",
    [{"D": "3"}, {"D": True}, {"r_max": "8"}, {"ball_cap": False}, {"L_schedule": [4, "6"]}],
)
def test_non_integer_params_rejected(tmp_path, params):
    raw = minimal_scenario()
    raw["params"] = params
    with pytest.raises(ValueError, match="must be an integer"):
        scenario_from_dict(raw)
    assert exit_code(tmp_path, raw, "ball", "--L", "1") == 2


@pytest.mark.parametrize("key, value", [("dim_V", "2"), ("dim_G", True), ("S0", ["2"])])
def test_non_integer_dims_and_S0_rejected(tmp_path, key, value):
    raw = minimal_scenario()
    raw[key] = value
    with pytest.raises(ValueError, match="must be an integer"):
        scenario_from_dict(raw)
    assert exit_code(tmp_path, raw, "splitting-census", "--pmax", "7") == 2


@pytest.mark.parametrize(
    "key, value, name",
    [
        ("generators", [5], "generators"),
        ("generators", [[1, 2]], "generators"),
        ("generators", [[["1/0", 0], [0, 1]]], "generators"),
        ("f", 5, "f must be"),
        ("params", [], "params"),
        ("params", {"L_schedule": 3}, "params.L_schedule"),
        ("torus", 5, "torus"),
        ("ambient", {"n": 2, "kind": ["SL"]}, "ambient.kind"),
        ("orbit_vector", 3, "orbit_vector"),
        ("S0", 3, "S0"),
        ("ambient_ideal", "x11", "ambient_ideal"),
        ("unipotent", {"p": "x11", "families": ["x11"]}, "unipotent.families"),
        (None, [1, 2], "scenario must be an object"),
    ],
)
def test_malformed_scenario_exits_invalid(tmp_path, capsys, key, value, name):
    raw = json.loads(open(SL2).read())
    if key is None:
        raw = value
    else:
        raw[key] = value
    assert exit_code(tmp_path, raw, "ball", "--L", "1") == 2
    err = capsys.readouterr().err
    assert "invalid input" in err and name in err


@pytest.mark.parametrize(
    "argv",
    [
        ["level-report", "--scenario", SL2, "--L", "2", "--D", "2", "--taus", "1/0"],
        ["r-formula", "--deg", "1", "--s", "1", "--dim", "3", "--tau", "1/0", "--omega", "4"],
    ],
    ids=["level-report", "r-formula"],
)
def test_zero_denominator_flag_exits_invalid(capsys, argv):
    assert main(argv) == 2
    assert "invalid input: zero denominator in '1/0'" in capsys.readouterr().err


def test_variety_count_at_a_prime_of_the_denominators_exits_invalid(tmp_path, capsys):
    # 7 divides the bad modulus of the count plan of {x11/7 + x12, det - 1}:
    # p = 7 is counted step by step, where f does not reduce
    raw = {**minimal_scenario(), "f": "x11/7 + x12", "ambient_ideal": ["x11*x22 - x12*x21 - 1"]}
    assert exit_code(tmp_path, raw, "variety-count", "--p", "5") == 0
    assert "count: 20" in capsys.readouterr().out
    assert exit_code(tmp_path, raw, "variety-count", "--p", "7") == 2
    assert "coefficient denominator 7 not invertible mod 7" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        # each count used to run: saturation at D = -1, strong approximation
        # mod -7 (read as the image mod 7), a census up to Omega = -1, a sieve
        # wanting no value, negative sequence and sample heads, and a
        # splitting census at dimension -1 (a TypeError traceback, exit 1),
        # a local density at the composite p = 15 (beta 5/64, exit 0), a
        # unipotent search bound of -5 (no search, "exhausted: True"), and
        # levels D < 1 (least_tau 1/4 at D = -1, 1/10 over no moduli at D = 0)
        ["saturate", "--scenario", SL2, "--D", "-1", "--Lmax", "2"],
        ["strong-approx", "--scenario", SL2, "--q", "-7"],
        ["census", "--scenario", SL2, "--L", "2", "--rmax", "-1"],
        ["uni-sieve", "--scenario", HEIS, "--want", "0"],
        ["uni-sieve", "--scenario", HEIS, "--prefixes", "0"],
        ["uni-sieve", "--scenario", HEIS, "--head", "-1"],
        ["sequence", "--scenario", SL2, "--L", "2", "--head", "-1"],
        ["splitting-census", "--scenario", SL2, "--pmax", "7", "--dim", "-1"],
        ["local-density", "--scenario", SL2, "--p", "15"],
        ["uni-sieve", "--scenario", HEIS, "--bound", "-5"],
        ["level-report", "--scenario", SL2, "--L", "2", "--D", "-1"],
        ["level-report", "--scenario", SL2, "--L", "2", "--D", "0"],
        ["decompose", "--scenario", SL2, "--L", "2", "--D", "-3"],
    ],
    ids=["saturate-D", "strong-approx-q", "census-rmax", "uni-sieve-want", "uni-sieve-prefixes",
         "uni-sieve-head", "sequence-head", "splitting-census-dim", "local-density-p",
         "uni-sieve-bound", "level-report-D-negative", "level-report-D-zero", "decompose-D"],
)
def test_out_of_range_count_exits_invalid(capsys, argv):
    assert main(argv) == 2
    assert "invalid input" in capsys.readouterr().err


def test_ambient_n_above_10_rejected(tmp_path):
    def elementary(n):
        return [[int(i == j or (i, j) == (0, 1)) for j in range(n)] for i in range(n)]

    raw = minimal_scenario()
    raw["ambient"]["n"] = 10
    raw["generators"] = [elementary(10)]
    assert len(set(scenario_from_dict(raw).variables)) == 100
    raw["ambient"]["n"] = 11
    raw["generators"] = [elementary(11)]
    with pytest.raises(ValueError, match="at most 10"):
        scenario_from_dict(raw)
    assert exit_code(tmp_path, raw, "ball", "--L", "1") == 2


def test_float_literals_rejected(tmp_path):
    p = tmp_path / "bad.json"
    raw = minimal_scenario()
    text = json.dumps(raw).replace('"x11 + x22 - 2"', '0.5')
    p.write_text(text)
    with pytest.raises(ValueError, match="float"):
        load_scenario(str(p))


@pytest.mark.parametrize(
    "f",
    [
        "len('abc')*x11",
        "__import__('os').getpid()*x11",
        "sqrt(2)*x11",
        "x11**-1",
        "x11/x12",
        "0.1*x11",
    ],
)
def test_polynomial_outside_grammar_exits_2(tmp_path, capsys, f):
    # the parser evaluates nothing: code, functions, negative powers,
    # rational functions and float literals are invalid input
    raw = minimal_scenario()
    raw["f"] = f
    assert exit_code(tmp_path, raw, "ball", "--L", "1") == 2
    assert "cannot parse polynomial" in capsys.readouterr().err


def test_cli_import_leaves_sympy_numpy_scipy_unloaded():
    src = os.path.join(ROOT, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, affsieve.cli; print(sorted({'sympy', 'numpy', 'scipy'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_modules_stay_under_the_parser_token_step():
    # CPython 3.11's parser grows its token array by doubling and preallocates
    # every new slot: a module past 8,192 tokens costs about 0.5 MB more peak
    # RSS in every process that imports affsieve without a bytecode cache
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "affsieve", "*.py"))):
        with open(path) as fh:
            tokens = [t for t in tokenize.generate_tokens(fh.readline) if t.type not in (tokenize.COMMENT, tokenize.NL)]
        assert len(tokens) < 8192, (path, len(tokens))


@pytest.mark.parametrize(
    "argv, module",
    [
        # the dimension fit is a closed-form regression in math.fsum
        pytest.param(["sieve-dim", "--scenario", SL2, "--pmax", "100"], "numpy", id="sieve-dim-numpy"),
        # the Borel-Cantelli partial sums are closed forms in Fraction
        pytest.param(["torus-heuristic", "--scenario", TORUS], "numpy", id="torus-heuristic-numpy"),
        # gcds, content splits and certificates run on MultiPoly; every member
        # of these families is proved irreducible without factoring
        pytest.param(["uni-sieve", "--scenario", HEIS, "--want", "3", "--prefixes", "10"], "sympy", id="uni-sieve-sympy"),
        pytest.param(
            ["uni-sieve", "--scenario", HEIS_Q, "--want", "3", "--prefixes", "10"], "sympy", id="uni-sieve-rational-sympy"
        ),
        # records are NamedTuples: no dataclass is generated, nor inspect imported
        pytest.param(["local-density", "--scenario", SL2, "--p", "5"], "dataclasses", id="local-density-dataclasses"),
        pytest.param(["ball", "--scenario", SL2, "--L", "3"], "inspect", id="ball-inspect"),
    ],
)
def test_run_leaves_module_unloaded(tmp_path, argv, module):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    rec = tmp_path / "record.json"
    code = (
        "import sys, contextlib, io, affsieve.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = affsieve.cli.main({argv + ['--record', str(rec)]!r})\n"
        f"print(rc, {module!r} in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"
    assert json.loads(rec.read_text())["command"] == argv[0]


def test_records_are_immutable():
    # one instance of every public record type of the package: a field
    # cannot be assigned, and no attribute can be added beside the fields
    records = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "affsieve", "*.py"))):
        module = importlib.import_module("affsieve." + os.path.basename(path)[:-3])
        records += [
            obj
            for name, obj in vars(module).items()
            if getattr(obj, "__module__", None) == module.__name__ and not name.startswith("_")
            and isinstance(obj, type) and issubclass(obj, tuple)
        ]
    checked = {"MatrixQ", "GeneratorSet", "TorusSpec", "SieveBudget", "UniSieveProblem"}
    sized = {"Ball", "OrbitSlice", "FiniteImage"}
    assert checked | sized | {"Scenario", "LocalDensity"} <= {cls.__name__ for cls in records}
    for cls in records:
        record = tuple.__new__(cls, range(len(cls._fields)))
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[0], None)
        assert not hasattr(record, "__dict__"), cls


def test_determinant_checked():
    raw = minimal_scenario()
    raw["generators"] = [[[2, 0], [0, 1]]]
    with pytest.raises(ValueError, match="determinant"):
        scenario_from_dict(raw)


def test_hash_stable_under_key_order():
    a = scenario_from_dict(minimal_scenario())
    flipped = dict(reversed(list(minimal_scenario().items())))
    b = scenario_from_dict(flipped)
    assert a.hash() == b.hash()
    changed = minimal_scenario()
    changed["f"] = "x11 + x22"
    assert scenario_from_dict(changed).hash() != a.hash()


def test_cli_replay_byte_identical(tmp_path):
    rec1 = tmp_path / "a.json"
    rec2 = tmp_path / "b.json"
    args = ["ball", "--scenario", SL2, "--L", "3"]
    assert main(args + ["--record", str(rec1)]) == 0
    assert main(args + ["--record", str(rec2)]) == 0
    assert rec1.read_bytes() == rec2.read_bytes()
    payload = json.loads(rec1.read_text())
    assert payload["command"] == "ball"
    assert payload["scenario"] == "sl2-free"
    assert len(payload["scenario_hash"]) == 64
    assert payload["outputs"]["size"] == 53


def test_replay_list_covers_every_subcommand():
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    assert sorted(args[0] for args in REPLAY) == sorted(subparsers.choices)


def usage_exit(capsys, argv):
    """(exit code, stdout, stderr) of an invocation that argparse ends."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return (exc.value.code, *capsys.readouterr())


def test_cli_help_version_and_usage_errors(capsys):
    code, out, _ = usage_exit(capsys, ["--help"])
    assert code == 0 and {args[0] for args in REPLAY} <= set(re.split(r"[\s{},]+", out))
    code, out, _ = usage_exit(capsys, ["ball", "--help"])
    assert code == 0 and "--L" in out
    assert usage_exit(capsys, ["--version"])[:2] == (0, "0.1.0\n")
    code, _, err = usage_exit(capsys, ["no-such-command"])
    assert code == 2 and "invalid choice" in err
    code, _, err = usage_exit(capsys, ["ball", "--scenario", SL2])
    assert code == 2 and "required: --L" in err


@pytest.mark.parametrize("args", REPLAY, ids=[args[0] for args in REPLAY])
def test_cli_replay_byte_identical_per_subcommand(tmp_path, args):
    rec1 = tmp_path / "a.json"
    rec2 = tmp_path / "b.json"
    assert main(args + ["--record", str(rec1)]) == 0
    assert main(args + ["--record", str(rec2)]) == 0
    assert rec1.read_bytes() == rec2.read_bytes()
    assert json.loads(rec1.read_text())["command"] == args[0]


def test_cli_exit_code_certificate(monkeypatch):
    def failing(*args, **kwargs):
        raise CertificateError("forged failure")

    monkeypatch.setattr(cli, "ball", failing)
    assert main(["ball", "--scenario", SL2, "--L", "2"]) == 4


def test_cli_exit_code_invalid_input(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["ball", "--scenario", missing, "--L", "2"]) == 2
    # scenario without a torus block fed to the torus command
    assert main(["torus-heuristic", "--scenario", SL2]) == 2



def test_identity_generators_exit_invalid(tmp_path, capsys):
    raw = minimal_scenario()
    raw["generators"] = [[[1, 0], [0, 1]]]
    assert exit_code(tmp_path, raw, "ball", "--L", "2") == 2
    assert "non-identity generator" in capsys.readouterr().err

def test_torus_heuristic_small_bc_M(tmp_path, capsys):
    # below 10 there is no tenth checkpoint: one partial sum, at M itself
    rec = tmp_path / "bc.json"
    assert main(["torus-heuristic", "--scenario", TORUS, "--bc-M", "9", "--record", str(rec)]) == 0
    out = json.loads(rec.read_text())["outputs"]
    assert len(out["bc_partial_sums"]) == len(out["bc_partial_sums_lo"]) == len(out["bc_increments"]) == 1
    capsys.readouterr()
    assert main(["torus-heuristic", "--scenario", TORUS, "--bc-M", "0"]) == 2
    assert "M must be >= 1" in capsys.readouterr().err


def test_cli_exit_code_budget(tmp_path):
    raw = json.loads(open(SL2).read())
    raw["params"]["ball_cap"] = 10
    capped = tmp_path / "capped.json"
    capped.write_text(json.dumps(raw))
    assert main(["ball", "--scenario", str(capped), "--L", "6"]) == 3


def test_cli_image_cap_exit_code(tmp_path):
    # the Borel group mod 5 has order 20 and no lower root element, so p = 5
    # is not certified and its image is enumerated past the cap
    raw = minimal_scenario()
    raw["generators"] = [[[2, 0], [0, "1/2"]], [[1, 1], [0, 1]]]
    raw["params"] = {"image_cap": 10}
    assert exit_code(tmp_path, raw, "local-density", "--p", "5") == 3


def test_certified_density_ignores_image_cap(tmp_path):
    # sl2-free is certified at 5: no image is enumerated, so a cap of 10
    # (below |SL_2(F_5)| = 120) changes nothing
    def outputs(raw, name):
        path, rec = tmp_path / f"{name}.json", tmp_path / f"{name}.rec"
        path.write_text(json.dumps(raw))
        argv = ["local-density", "--scenario", str(path), "--p", "5", "--record", str(rec)]
        assert main(argv) == 0
        return json.loads(rec.read_text())["outputs"]

    raw = json.loads(open(SL2).read())
    default = outputs(raw, "default")
    raw["params"]["image_cap"] = 10
    assert outputs(raw, "capped") == default
    assert default["order"] == 120


def test_certified_strong_approx_ignores_image_cap(tmp_path):
    # sl2-free is certified at 5 and 7: the image mod 35 is SL_2(F_5) x
    # SL_2(F_7) by Goursat's lemma, so a cap of 1000 (below 40,320) never binds
    raw = json.loads(open(SL2).read())
    raw["params"]["image_cap"] = 1000
    path, rec = tmp_path / "capped.json", tmp_path / "capped.rec"
    path.write_text(json.dumps(raw))
    assert main(["strong-approx", "--scenario", str(path), "--q", "35", "--record", str(rec)]) == 0
    out = json.loads(rec.read_text())["outputs"]
    assert out["holds"] is True
    assert out["image_order"] == 40320


def sieve_dim_outputs(tmp_path, scenario_path, *args):
    rec = tmp_path / "sieve-dim.json"
    argv = ["sieve-dim", "--scenario", str(scenario_path), *args, "--record", str(rec)]
    assert main(argv) == 0
    return json.loads(rec.read_text())["outputs"]


def test_sieve_dim_uses_local_density(tmp_path):
    # sl2-entry's generators are I mod 2 and f = x11 is 1 there, so
    # beta(2) = 0, not #V / |SL_2(F_2)| = 1/3
    sc = load_scenario(ENTRY)
    table = {p: local_density(sc.generators, sc.f, p).beta for p in primes_upto(50)}
    assert table[2] == 0
    out = sieve_dim_outputs(tmp_path, ENTRY, "--pmax", "50", "--w", "2")
    fit = sieve_dimension_fit(table, 2, 50)
    # the cumulative sum starts with beta(2) log 2: the intercept shows it
    assert (float(out["slope"]), float(out["intercept"])) == (fit.slope, fit.intercept)
    assert out["uncertified"] == [2]


def test_sieve_dim_leaves_out_primes_without_reduction(tmp_path):
    # 1/2 has no reduction mod 2: no beta(2), and p = 2 is listed, not fitted
    raw = minimal_scenario()
    raw["generators"] = [[[2, 0], [0, "1/2"]], [[1, 2], [0, 1]], [[1, 0], [2, 1]]]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    out = sieve_dim_outputs(tmp_path, path, "--pmax", "50", "--w", "2")
    assert out["uncertified"] == [2]
    assert out["n_primes"] == len(primes_upto(50)) - 1


def test_sieve_dim_confirms_ramified_primes_up_to_pmax(tmp_path):
    # f = 101 x12 vanishes mod 101 on the whole group: beta(101) is 0 by fiat,
    # as beta(2) is, although 101 lies above the default search bound 100
    raw = minimal_scenario()
    raw["f"] = "101*x12"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    sc = load_scenario(str(path))
    out = sieve_dim_outputs(tmp_path, path, "--pmax", "120")
    table = {
        p: local_density(sc.generators, sc.f, p, ramified=[2, 101]).beta for p in primes_upto(120)
    }
    fit = sieve_dimension_fit(table, 3, 120)
    assert (float(out["slope"]), float(out["intercept"])) == (fit.slope, fit.intercept)


def test_decompose_confirms_ramified_primes_up_to_D(tmp_path):
    # f = 101 x12 vanishes mod 101 on the whole group, so beta(101) = 0 and
    # row 101 predicts 0, as row 2 does, although 101 lies above 100
    raw = minimal_scenario()
    raw["f"] = "101*x12"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    rec = tmp_path / "decompose.json"
    argv = ["decompose", "--scenario", str(path), "--L", "2", "--D", "101", "--record", str(rec)]
    assert main(argv) == 0
    rows = json.loads(rec.read_text())["outputs"]["rows"]
    assert Fraction(rows["2"]["prediction"]) == 0
    assert Fraction(rows["101"]["prediction"]) == 0
    assert Fraction(rows["101"]["remainder"]) == rows["101"]["A_d"] > 0


def test_sieve_dim_trivial_images_mod_2_and_3(tmp_path):
    # e12(18), e21(12) are I mod 2 and mod 3, where f(I) = 1: beta = 0 there
    raw = minimal_scenario()
    raw["generators"] = [[[1, 18], [0, 1]], [[1, 0], [12, 1]]]
    raw["f"] = "2*x11 + x12 - 2*x21 - 1"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    sc = load_scenario(str(path))
    assert local_density(sc.generators, sc.f, 3).beta == 0
    out = sieve_dim_outputs(tmp_path, path, "--pmax", "60")
    assert out["uncertified"] == [2, 3]
    table = {p: local_density(sc.generators, sc.f, p).beta for p in primes_upto(60)}
    fit = sieve_dimension_fit(table, 3, 60)
    assert (float(out["slope"]), float(out["intercept"])) == (fit.slope, fit.intercept)


def test_sieve_dim_rejects_non_SL_kind(tmp_path, capsys):
    # beta(p) = #V / |SL_n(F_p)| means nothing off SL: refuse instead of
    # fitting a table of zeros
    raw = minimal_scenario()
    raw["ambient"]["kind"] = "affine"
    assert exit_code(tmp_path, raw, "sieve-dim", "--pmax", "50") == 2
    assert "ambient.kind" in capsys.readouterr().err


def test_strong_approx_rejects_non_SL_kind(capsys):
    # the expected order is prod |SL_n(F_p)|: on the unipotent Heisenberg
    # group it used to report holds: False against |SL_3(F_5)| and exit 0
    assert main(["strong-approx", "--scenario", HEIS, "--q", "5"]) == 2
    assert "ambient.kind" in capsys.readouterr().err


def test_cli_r_formula_no_scenario(capsys):
    assert main(
        ["r-formula", "--deg", "1", "--s", "1", "--dim", "3", "--tau", "1/2", "--omega", "4"]
    ) == 0
    out = capsys.readouterr().out
    assert "r: 104" in out
