"""End-to-end CLI behavior: JSON I/O, exit codes, deterministic proptest."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

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
    capsys.readouterr()


@pytest.mark.parametrize(
    "profile",
    [{"knots": [0, 1], "values": [10**400, 1]}, {"p": 10**400}, 5],
    ids=["pl-value-past-float-range", "lp-p-past-float-range", "not-an-object"],
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
