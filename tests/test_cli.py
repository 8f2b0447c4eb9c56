"""End-to-end CLI behavior: JSON I/O, exit codes, deterministic proptest."""

from __future__ import annotations

import contextlib
import io
import json
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gaugenorm import cli, proptest


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def diag_json(*values):
    n = len(values)
    entries = [
        [[float(values[i]) if i == j else 0.0, 0.0] for j in range(n)]
        for i in range(n)
    ]
    return {"n": n, "entries": entries}


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_snumbers_prints_vector_and_step_function(tmp_path, capsys):
    mat = write(tmp_path / "m.json", diag_json(3, 1))
    code, out = run(capsys, ["snumbers", mat])
    assert code == 0
    report = json.loads(out)
    assert report["s"] == [3.0, 1.0]
    assert report["mu"]["breakpoints"] == ["0", "1/2", "1"]


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert cli.main(["snumbers", str(bad)]) == 2
    assert cli.main(["snumbers", str(tmp_path / "missing.json")]) == 2
    fractional = write(tmp_path / "m.json", {"n": 1.7, "entries": [[[2, 0]]]})
    assert cli.main(["snumbers", fractional]) == 2
    capsys.readouterr()


def test_zero_denominator_rational_exits_2(tmp_path, capsys):
    spec = write(tmp_path / "s.json", {"kind": "kyfan", "t": "2/0"})
    mat = write(tmp_path / "m.json", diag_json(2, 1))
    assert cli.main(["norm", spec, mat]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "spec, operand",
    [
        ({"kind": "lp", "p": "1e400"}, {"x": [1.0, 2.0]}),
        ({"kind": "trace"}, {"x": ["1e400", 1.0]}),
        ({"kind": "trace"}, {"n": 1, "entries": [[[10**400, 0]]]}),
        ({"kind": "trace"}, {"breakpoints": [0, 1], "values": [10**400]}),
    ],
    ids=["lp-p", "vector-entry", "matrix-entry", "step-value"],
)
def test_inputs_past_the_float_range_exit_2(tmp_path, capsys, spec, operand):
    spec = write(tmp_path / "s.json", spec)
    operand = write(tmp_path / "x.json", operand)
    assert cli.main(["norm", spec, operand]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "spec",
    [{"kind": "lp", "p": True}, {"kind": "kyfan", "t": True}],
    ids=["lp", "kyfan"],
)
def test_boolean_spec_parameters_exit_2(tmp_path, capsys, spec):
    # JSON true loads as a bool, which Python counts as the int 1; it is no p or t.
    spec = write(tmp_path / "s.json", spec)
    operand = write(tmp_path / "x.json", {"x": [3, 1]})
    assert cli.main(["norm", spec, operand]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "operand",
    [
        {"x": [True, 1]},
        {"x": [[True, 0], 1]},
        {"breakpoints": [0, 1], "values": [True]},
        {"breakpoints": [0, True], "values": [1]},
        {"n": 1, "entries": [[[True, 0]]]},
        {"n": 1, "entries": [[[1, False]]]},
    ],
    ids=[
        "vector-entry",
        "vector-pair",
        "step-value",
        "step-breakpoint",
        "matrix-real",
        "matrix-imag",
    ],
)
def test_boolean_operand_entries_exit_2(tmp_path, capsys, operand):
    # Each of these used to be read as the number 1 and print a norm of 1.0.
    spec = write(tmp_path / "s.json", {"kind": "trace"})
    operand = write(tmp_path / "x.json", operand)
    assert cli.main(["norm", spec, operand]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "operand",
    [{"x": 5}, {"x": None}, {"x": [[None, 1]]}],
    ids=["number", "null", "null-pair"],
)
def test_malformed_vector_operand_exits_2(tmp_path, capsys, operand):
    # Each of these raised TypeError out of main, which exits 1 like
    # "dominance false".
    spec = write(tmp_path / "s.json", {"kind": "trace"})
    operand = write(tmp_path / "x.json", operand)
    assert cli.main(["norm", spec, operand]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_arithmetic_errors_exit_3(tmp_path, capsys, monkeypatch):
    # Returning at all means main caught it: no traceback, and not exit 1,
    # which means "dominance false".
    def divide_by_zero(args):
        return 1 // 0

    monkeypatch.setattr(cli, "cmd_snumbers", divide_by_zero)
    mat = write(tmp_path / "m.json", diag_json(1, 1))
    assert cli.main(["snumbers", mat]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_norm_kyfan_example(tmp_path, capsys):
    spec = write(tmp_path / "s.json", {"kind": "kyfan", "t": "2/3"})
    mat = write(tmp_path / "m.json", diag_json(3, 2, 1))
    code, out = run(capsys, ["norm", spec, mat])
    assert code == 0
    assert json.loads(out)["norm"] == pytest.approx(2.5)


def test_norm_accepts_vectors_and_step_functions(tmp_path, capsys):
    spec = write(tmp_path / "s.json", {"kind": "trace"})
    vec = write(tmp_path / "v.json", {"x": [3, "1/2", [0.0, 1.5]]})
    code, out = run(capsys, [
        "norm", spec, vec])
    assert code == 0
    assert json.loads(out)["norm"] == pytest.approx((3.0 + 0.5 + 1.5) / 3.0)

    step = write(
        tmp_path / "f.json",
        {"breakpoints": ["0", "1/3", "1"], "values": [3.0, 1.0]},
    )
    code, out = run(capsys, ["norm", spec, step])
    assert code == 0
    assert json.loads(out)["norm"] == pytest.approx(3.0 / 3.0 + 2.0 / 3.0)


def test_dual_norm_example_with_witness(tmp_path, capsys):
    spec = write(tmp_path / "s.json", {"kind": "kyfan", "t": "1/2"})
    mat = write(tmp_path / "m.json", diag_json(2, 1))
    code, out = run(capsys, ["norm", "--dual", spec, mat])
    assert code == 0
    report = json.loads(out)
    assert report["dual"] == pytest.approx(1.5)
    assert report["primal"] == pytest.approx(2.0)
    assert report["witness"] == pytest.approx([1.0, 1.0])


def test_profile_emits_csv_with_the_bracket_knot(tmp_path, capsys):
    spec = write(tmp_path / "s.json", {"kind": "tbracket", "t": 0.75})
    code, out = run(capsys, ["norm", "--profile", spec])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,f"
    assert "0.5,0.75" in lines
    code, _ = run(capsys, ["norm", spec])
    assert code == 2  # operand required without --profile


def test_kyfan_at_zero_spellings_print_as_the_operator_norm(tmp_path, capsys):
    operands = [
        write(tmp_path / "m.json", diag_json(3, 1, 2)),
        write(tmp_path / "x.json", {"x": [1.0, -4.0, 2.5]}),
        write(tmp_path / "f.json", {"breakpoints": [0, "1/3", 1], "values": [1, 3]}),
    ]
    commands = [["norm", "--profile", "{spec}"]]
    for operand in operands:
        commands += [["norm", "{spec}", operand], ["norm", "--dual", "{spec}", operand]]

    def outputs(spec):
        spec = write(tmp_path / "s.json", spec)
        return [
            (cli.main([a.format(spec=spec) for a in argv]), *capsys.readouterr())
            for argv in commands
        ]

    expected = outputs({"kind": "operator"})
    assert outputs({"kind": "kyfan", "t": 0}) == expected
    assert outputs({"kind": "kyfanzero"}) == expected


def test_dominance_exit_codes(tmp_path, capsys):
    flat = write(tmp_path / "flat.json", diag_json(1, 1))
    spike = write(tmp_path / "spike.json", diag_json(2, 0))
    code, out = run(capsys, ["dominance", flat, spike])
    assert code == 0
    assert json.loads(out)["dominates"] is True

    code, out = run(capsys, ["dominance", spike, flat])
    assert code == 1
    report = json.loads(out)
    assert report["dominates"] is False
    assert report["violating_k"] == 1


def test_dominance_of_equal_inputs_has_zero_margins(tmp_path, capsys):
    flat = write(tmp_path / "flat.json", diag_json(1, 1))
    code, out = run(capsys, ["dominance", flat, flat])
    assert code == 0
    report = json.loads(out)
    assert report["partial_sums_S"] == pytest.approx(report["partial_sums_T"])


@pytest.mark.parametrize(
    "argv",
    [
        ["snumbers", "{m}"],
        ["norm", "{spec}", "{m}"],
        ["norm", "--dual", "{spec}", "{m}"],
        ["dominance", "{m}", "{m}"],
    ],
    ids=["snumbers", "norm", "norm-dual", "dominance"],
)
def test_s_number_overflow_exits_3(tmp_path, capsys, argv):
    # Every entry 1e308 parses, but s_1 = 2e308 overflows.
    big = {"n": 2, "entries": [[[1e308, 0.0]] * 2] * 2}
    files = {
        "m": write(tmp_path / "m.json", big),
        "spec": write(tmp_path / "s.json", {"kind": "trace"}),
    }
    assert cli.main([arg.format(**files) for arg in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_dominance_partial_sum_overflow_exits_3(tmp_path, capsys):
    # s_1 = s_2 = 1.5e308 are finite, but their sum once printed as Infinity.
    m = write(tmp_path / "m.json", diag_json(1.5e308, 1.5e308))
    assert cli.main(["dominance", m, m]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def weight(value):
    return {"kind": "weight", "f": {"breakpoints": [0, 1], "values": [value]}}


@pytest.mark.parametrize(
    "flags, spec, operand",
    [
        ([], {"kind": "trace"}, {"x": [[1.5e308, 1.5e308], 1]}),
        ([], weight(1000), {"x": [1e306, 1e306]}),
        ([], weight(1000), diag_json(1e306, 1e306)),
        ([], weight(1000), {"breakpoints": [0, 1], "values": [1e306]}),
        (["--dual"], weight(0.001), {"x": [1e306, 1e306]}),
        (["--dual"], weight(0.001), diag_json(1e306, 1e306)),
    ],
    ids=[
        "magnitude", "norm-vector", "norm-matrix", "norm-step", "dual-vector", "dual-matrix"
    ],
)
def test_values_past_the_float_range_exit_3(tmp_path, capsys, flags, spec, operand):
    # Finite inputs whose modulus, norm or dual overflows once printed
    # Infinity, or exited 2 as if an entry were not finite.
    spec = write(tmp_path / "s.json", spec)
    operand = write(tmp_path / "x.json", operand)
    assert cli.main(["norm", *flags, spec, operand]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize(
    "operand", [{"x": [1e306, 1e306]}, diag_json(1e306, 1e306)], ids=["vector", "matrix"]
)
def test_overflowing_norm_raises_no_numpy_warning(tmp_path, capsys, operand):
    # The overflowing row product once printed a RuntimeWarning and its
    # source line on stderr ahead of the error line.
    spec = write(tmp_path / "s.json", weight(1000))
    operand = write(tmp_path / "x.json", operand)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["norm", spec, operand]) == 3
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert capsys.readouterr().err == "error: norm overflows the float range\n"


def test_dominance_dimension_mismatch_exits_5(tmp_path, capsys):
    a = write(tmp_path / "a.json", diag_json(1, 1))
    b = write(tmp_path / "b.json", diag_json(1, 1, 1))
    assert cli.main(["dominance", a, b]) == 5
    capsys.readouterr()


def test_decompose_round_trip(tmp_path, capsys):
    prof = write(
        tmp_path / "p.json", {"knots": [0, 0.5, 1], "values": [0.75, 0.75, 1.0]}
    )
    code, out = run(capsys, ["decompose", prof])
    assert code == 0
    assert json.loads(out)["atoms"] == [{"t": 0.75, "w": 1.0}]


def test_decompose_inadmissible_profile_exits_6(tmp_path, capsys):
    prof = write(tmp_path / "p.json", {"knots": [0, 1], "values": [0.3, 1.0]})
    assert cli.main(["decompose", prof]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: profile is not admissible: fails left derivative at 1 exceeds 1/2\n"
    )


@pytest.mark.parametrize(
    "profile",
    [
        {"knots": [0, 1], "values": [10**400, 1]},
        {"p": 10**400},
        5,
        {"knots": [0, True], "values": [0.5, 1]},
        {"knots": [0, 1], "values": [0.5, True]},
    ],
    ids=[
        "pl-value-past-float-range",
        "lp-p-past-float-range",
        "not-an-object",
        "boolean-knot",
        "boolean-value",
    ],
)
def test_decompose_malformed_profile_exits_2(tmp_path, capsys, profile):
    prof = write(tmp_path / "p.json", profile)
    assert cli.main(["decompose", prof]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_lpcheck_reports_small_error(capsys):
    code, out = run(capsys, ["lpcheck", "--p", "2.0"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["max_error"] <= 1e-6


def test_lpcheck_passes_at_huge_p(capsys):
    # The rule once missed the spike of f_p'' at t = 1: 4.2e-4, exit 3.
    code, out = run(capsys, ["lpcheck", "--p", "1e12"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["max_error"] <= 1e-14


@pytest.mark.parametrize(
    "p, grid", [("2.0", "0"), ("2.0", "-3"), ("1.0", "11"), ("inf", "11"), ("nan", "11")]
)
def test_lpcheck_rejects_bad_arguments(capsys, p, grid):
    # An empty grid checks nothing, so it must not report "ok": true.
    assert cli.main(["lpcheck", "--p", p, "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_proptest_axioms_passes_and_is_deterministic(capsys):
    argv = ["proptest", "--suite", "axioms", "--seed", "7", "--trials", "10"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["passed"] is True


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_proptest_rejects_trials_below_one(capsys, trials):
    # No trials check nothing, so they must not report "passed": true.
    assert cli.main(["proptest", "--suite", "axioms", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


GOLDEN = Path(__file__).parent / "data" / "proptest_seed7_trials10.json"


def test_proptest_report_matches_the_golden_file(capsys, monkeypatch):
    # A fixed seed gives a byte-identical report, from one version to the next.
    monkeypatch.delenv("GAUGENORM_SEED", raising=False)
    argv = ["proptest", "--suite", "all", "--seed", "7", "--trials", "10"]
    code, out = run(capsys, argv)
    assert code == 0
    assert out == GOLDEN.read_text(encoding="utf-8")


def test_proptest_seed_env_override(capsys, monkeypatch):
    _, baseline = run(
        capsys, ["proptest", "--suite", "extreme2", "--seed", "9", "--trials", "6"]
    )
    monkeypatch.setenv("GAUGENORM_SEED", "9")
    _, overridden = run(
        capsys, ["proptest", "--suite", "extreme2", "--seed", "0", "--trials", "6"]
    )
    assert overridden == baseline


def test_proptest_failure_dumps_witnesses(tmp_path, capsys, monkeypatch):
    original = proptest.check_norm_axioms

    def broken_axioms(spec, n=4, trials=50, seed=0):
        report = original(spec, n=n, trials=trials, seed=seed)
        report["checks"]["triangle"]["fail"] = 1
        report["checks"]["triangle"]["witness"] = {"injected": True}
        report["passed"] = False
        return report

    monkeypatch.setattr(proptest, "check_norm_axioms", broken_axioms)
    witness_file = tmp_path / "w.json"
    code = cli.main(
        [
            "proptest",
            "--suite",
            "axioms",
            "--trials",
            "2",
            "--witness-file",
            str(witness_file),
        ]
    )
    captured = capsys.readouterr()
    assert code == 6
    assert json.loads(captured.out)["passed"] is False
    dumped = json.loads(witness_file.read_text())
    assert dumped and dumped[0]["suite"] == "axioms"


def test_dominance_of_a_halved_tiny_matrix_exits_1(tmp_path, capsys):
    # T = S/2 at S = diag(2e-11, 0) once passed an absolute slack and exited 0
    s = write(tmp_path / "s.json", diag_json(2e-11, 0))
    t = write(tmp_path / "t.json", diag_json(1e-11, 0))
    code, out = run(capsys, ["dominance", s, t])
    assert code == 1
    assert json.loads(out)["violating_k"] == 1


def test_exit_codes_are_one_map_with_no_shadowed_entry():
    kinds = [kind for kind, _ in cli.EXIT_CODES]
    for i, kind in enumerate(kinds):
        assert not [above for above in kinds[:i] if issubclass(kind, above)], kind
    own_exceptions = [
        name
        for name, value in vars(cli).items()
        if isinstance(value, type)
        and issubclass(value, BaseException)
        and value.__module__ == cli.__name__
    ]
    assert own_exceptions == []


KINDS = "operator trace lp kyfan kyfanzero weight supof tbracket csup".split()
FIELDS = "kind p t f fs c n entries x breakpoints values knots".split()
# Mostly values that parse, so the fuzz also reaches the numerics behind the
# parsers, plus every float (NaN, inf, 1e308) and strings that do not parse.
FLOAT = st.floats(0, 2) | st.floats(allow_nan=False, allow_infinity=False)
NUMBER = st.one_of(
    st.integers(-3, 3),
    FLOAT,
    st.floats(),
    st.sampled_from(["1/2", "1/0", "1e400", "x"]),
)
LEAF = st.one_of(st.none(), st.booleans(), NUMBER, st.sampled_from(KINDS))
ANY_JSON = st.recursive(
    LEAF,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(FIELDS), inner, max_size=3),
    max_leaves=10,
)
KNOTS = st.sampled_from([[0, 1], [0, "1/2", 1], [0, 0.3, 1]]) | st.lists(
    NUMBER, max_size=4
)
STEP = st.fixed_dictionaries(
    {"breakpoints": KNOTS, "values": st.lists(FLOAT | NUMBER, max_size=3)}
)
SPEC = ANY_JSON | st.fixed_dictionaries(
    {"kind": st.sampled_from(KINDS), "p": NUMBER, "t": NUMBER},
    optional={"f": STEP, "fs": st.lists(STEP, max_size=2), "c": STEP},
)


def _square(n, entry):
    return st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
    )


MATRIX = st.integers(1, 3).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "n": st.just(n),
            "entries": _square(n, st.lists(FLOAT, min_size=2, max_size=2)),
        }
    )
)
VECTOR = st.fixed_dictionaries(
    {"x": st.lists(NUMBER | st.lists(NUMBER, max_size=3), max_size=3)}
)
OPERAND = st.one_of(ANY_JSON, MATRIX, VECTOR, STEP)
PROFILE = st.one_of(
    ANY_JSON,
    st.fixed_dictionaries({"p": NUMBER}),
    KNOTS.flatmap(
        lambda knots: st.fixed_dictionaries(
            {
                "knots": st.just(knots),
                "values": st.lists(
                    FLOAT | NUMBER, min_size=len(knots), max_size=len(knots)
                ),
            }
        )
    ),
)
COMMANDS = [
    ["norm", "{spec}", "{a}"],
    ["norm", "--dual", "{spec}", "{a}"],
    ["norm", "--profile", "{spec}"],
    ["snumbers", "{a}"],
    ["dominance", "{a}", "{b}"],
    ["decompose", "{profile}"],
]
PARSER = cli.build_parser()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@seed(20260)
@settings(max_examples=150, deadline=None)
@given(SPEC, OPERAND, OPERAND, PROFILE)
def test_random_json_never_escapes_the_exit_code_map(fuzz_dir, spec, a, b, profile):
    # Whatever the input files hold, main returns: a code from the map, 0, or
    # 1 only as dominance's verdict, and any error leaves stdout empty.
    inputs = {"spec": spec, "a": a, "b": b, "profile": profile}
    files = {name: write(fuzz_dir / f"{name}.json", v) for name, v in inputs.items()}
    codes = {0, 1, *(code for _, code in cli.EXIT_CODES)}
    # One parser serves every call; building 900 of them took most of the time.
    with mock.patch.object(cli, "build_parser", lambda: PARSER):
        for argv in COMMANDS:
            argv = [arg.format(**files) for arg in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in codes, argv
            assert code != 1 or argv[0] == "dominance", argv
            if code >= 2:
                assert out.getvalue() == "", argv
                assert err.getvalue().startswith("error: "), argv
