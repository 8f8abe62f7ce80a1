import argparse
import json

import pytest

from fiblike import identities
from fiblike.cli import build_parser, main
from fiblike.sequences import dump_spec, evaluate_fast, knacci_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_knacci_table(capsys):
    code, out, _ = run_cli(capsys, "gen", "--knacci", "4", "--to", "11")
    assert code == 0
    values = [line.split("\t")[1] for line in out.strip().splitlines()]
    assert values == ["0", "0", "0", "1", "1", "2", "4", "8", "15", "29", "56", "108"]


def test_gen_periodic_fibonacci_row(capsys):
    code, out, _ = run_cli(capsys, "gen", "--periodic2", "1,1", "--inits", "0,1", "--to", "9")
    assert code == 0
    values = [line.split("\t")[1] for line in out.strip().splitlines()]
    assert values == ["0", "1", "1", "2", "3", "5", "8", "13", "21", "34"]


def test_gen_from_spec_file_matches_fast_path(capsys, tmp_path):
    spec = knacci_spec(6)
    path = tmp_path / "spec.json"
    path.write_text(dump_spec(spec))
    code, out, _ = run_cli(capsys, "gen", "--spec", str(path), "--from", "100", "--to", "100")
    assert code == 0
    n, value = out.strip().split("\t")
    assert n == "100"
    assert value == str(evaluate_fast(spec, 100))


def test_gen_json_is_byte_identical_across_runs(capsys):
    argv = ("gen", "--knacci", "3", "--to", "8", "--output", "json")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    payload = json.loads(first)
    assert payload["values"][-1] == "24"
    assert list(payload) == ["command", "from", "to", "values"]


def test_gen_csv(capsys):
    code, out, _ = run_cli(capsys, "gen", "--knacci", "2", "--to", "3", "--output", "csv")
    assert code == 0
    assert out.splitlines() == ["n,value", "0,0", "1,1", "2,1", "3,2"]


def test_gen_rejects_bad_ranges_and_specs(capsys):
    code, _, err = run_cli(capsys, "gen", "--knacci", "2", "--to", "-1")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "gen", "--to", "3")
    assert code == 2
    code, _, err = run_cli(capsys, "gen", "--knacci", "2", "--coeffs", "1,1", "--to", "3")
    assert code == 2
    code, _, err = run_cli(capsys, "gen", "--spec", "/nonexistent.json", "--to", "3")
    assert code == 2
    code, _, err = run_cli(capsys, "gen", "--knacci", "1", "--to", "3")
    assert code == 2


def test_verify_canonical(capsys):
    code, out, _ = run_cli(capsys, "verify", "canonical", "--inits", "2,1", "--n", "1..20")
    assert code == 0
    assert "verdict[printed]: HOLDS (20 checks, 0 failures)" in out


def test_verify_knacci_like(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "knacci-like", "--k", "3", "--inits", "1,2,3", "--n", "3..50"
    )
    assert code == 0
    assert "0 failures" in out


def test_verify_with_trials_is_seed_deterministic(capsys):
    argv = ("verify", "horadam-like", "--trials", "3", "--seed", "5", "--output", "json")
    code1, first, _ = run_cli(capsys, *argv)
    code2, second, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert first == second
    payload = json.loads(first)
    assert payload["verdicts"] == {"printed": "holds"}
    assert len(payload["cases"]) == 3


def test_verify_periodic3_reports_verdict(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "periodic3", "--a", "1", "--b", "2", "--c", "3",
        "--inits", "1,0,0", "--n", "2..30",
    )
    assert code == 0
    assert "verdict[printed]: HOLDS" in out


def test_verify_periodic_k_adjudicates_both_variants(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "periodic-k", "--leading", "1,2,3,4", "--inits", "0,1,0,0",
        "--n", "4..20", "--trials", "2", "--seed", "3",
    )
    assert code == 0  # exit follows the printed formula, which holds
    assert "verdict[printed]: HOLDS" in out
    assert "verdict[shift-from-zero]: REFUTED" in out
    assert "first counterexample" in out


def test_verify_exit_code_one_on_counterexample(capsys, monkeypatch):
    # No true identity here ever fails, so force a failing witness to pin the
    # exit-code contract.
    real = identities.decompose_canonical

    def broken(inits, n):
        w = real(inits, n)
        return identities.DecompositionWitness(
            identity=w.identity, n=w.n, lhs=w.lhs + 1, rhs=w.rhs, terms=w.terms
        )

    monkeypatch.setattr("fiblike.cli.identities.decompose_canonical", broken)
    code, out, _ = run_cli(capsys, "verify", "canonical", "--inits", "2,1", "--n", "1..5")
    assert code == 1
    assert "REFUTED" in out and "first counterexample" in out


# Per identity: explicit flags, the params line they print, and the two cases
# that --trials 2 --seed 5 draws (pinned so the random draws stay the same).
REGISTRY_CASES = {
    "canonical": (["--inits", "2,1"], "inits=2,1", ["inits=9,4", "inits=5,8"]),
    "knacci-like": (
        ["--k", "3", "--inits", "1,2,3"],
        "k=3 inits=1,2,3",
        ["k=6 inits=4,5,8,0,7,3", "k=2 inits=2,1"],
    ),
    "horadam-like": (
        ["--coeffs", "2,1", "--inits", "0,1"],
        "k=2 coeffs=2,1 inits=0,1",
        ["k=4 coeffs=5,4,3,1 inits=3,0,2,1", "k=4 coeffs=5,4,4,2 inits=1,9,3,0"],
    ),
    "periodic2": (
        ["--a", "0.2", "--b=-1/3", "--inits", "2,3"],
        "a=1/5 b=-1/3 inits=2,3",
        ["a=3 b=2/3 inits=8,0", "a=4 b=-3 inits=1,5"],
    ),
    "periodic2-edson": (
        ["--a", "2", "--b", "3", "--inits", "1,2"],
        "a=2 b=3 inits=1,2",
        ["a=3 b=2/3 inits=8,0", "a=4 b=-3 inits=1,5"],
    ),
    "swap": (["--a", "1/3", "--b", "-2"], "a=1/3 b=-2", ["a=3 b=2/3", "a=5 b=4"]),
    "periodic3": (
        ["--a", "1", "--b", "2", "--c", "3", "--inits", "1,0,0"],
        "a=1 b=2 c=3 inits=1,0,0",
        ["a=5/2 b=3 c=2 inits=8,0,7", "a=2/3 b=1 c=1/2 inits=7,3,6"],
    ),
    "periodic-k": (
        ["--leading", "1,2,3,4", "--inits", "0,1,0,0"],
        "leading=1,2,3,4 inits=0,1,0,0",
        ["leading=1,1,2,5,4 inits=0,2,1,5,7", "leading=4/3,1/3,2 inits=3,6,4"],
    ),
}


def test_verify_choices_are_the_registry():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    identity = next(a for a in commands.choices["verify"]._actions if a.dest == "identity")
    assert list(identity.choices) == list(identities.IDENTITIES) == list(REGISTRY_CASES)


@pytest.mark.parametrize("identity", list(identities.IDENTITIES))
def test_verify_every_registry_entry(capsys, identity):
    flags, explicit, drawn = REGISTRY_CASES[identity]
    code, out, _ = run_cli(
        capsys, "verify", identity, *flags, "--trials", "2", "--seed", "5", "--output", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [(c["origin"], c["params"]) for c in payload["cases"]] == [
        ("flags", explicit), ("random", drawn[0]), ("random", drawn[1])
    ]
    assert payload["cases"][0]["results"]["printed"]["failures"] == 0
    expected = dict.fromkeys(identities.IDENTITIES[identity].variants, "holds")
    if identity == "periodic-k":
        expected["shift-from-zero"] = "refuted"
    assert payload["verdicts"] == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--coeffs", "1/0,1", "--to", "3"],
        ["gen", "--spec", "{spec}", "--to", "3"],
        ["verify", "swap", "--a", "1/0", "--b", "1"],
        ["verify", "canonical", "--inits", "1,1/0"],
    ],
)
def test_zero_denominator_is_an_input_error(capsys, tmp_path, argv):
    spec = tmp_path / "spec.json"
    spec.write_text('{"kind": "constant", "k": 2, "coeffs": ["1", "1/0"], "inits": ["0", "1"]}')
    code, _, err = run_cli(capsys, *(arg.format(spec=spec) for arg in argv))
    assert code == 2
    assert err.startswith("error:") and "zero denominator" in err


def test_verify_wrong_init_count_is_reported(capsys):
    code, _, err = run_cli(capsys, "verify", "canonical", "--inits", "1,2,3")
    assert code == 2
    assert err == "error: need exactly 2 initial terms, got 3\n"


def test_verify_horadam_like_rejects_order_zero(capsys):
    code, _, err = run_cli(
        capsys, "verify", "horadam-like", "--k", "0", "--coeffs", "1,1", "--inits", "0,1"
    )
    assert code == 2 and "order k" in err


def test_verify_requires_parameters_or_trials(capsys):
    code, _, err = run_cli(capsys, "verify", "canonical")
    assert code == 2 and "trials" in err


def test_verify_unknown_identity_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "golden"])
    assert excinfo.value.code == 2


def test_root_knacci(capsys):
    code, out, _ = run_cli(capsys, "root", "--knacci", "2")
    assert code == 0
    assert "dominant: 1.6180339887" in out
    assert "modulus=0.6180339887" in out
    assert "inside unit circle: True" in out


def test_root_bracket(capsys):
    code, out, _ = run_cli(capsys, "root", "--coeffs", "3,2,1")
    assert code == 0
    assert "bracket (3, 4): inside" in out
    assert "dominant: 3.6273650847" in out


def test_root_knacci3(capsys):
    code, out, _ = run_cli(capsys, "root", "--knacci", "3", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dominant"].startswith("1.8392867552")
    assert len(payload["others"]) == 2
    assert payload["inside_unit_circle"] is True


def test_root_reports_the_largest_positive_root(capsys):
    code, out, _ = run_cli(capsys, "root", "--coeffs", "6,-11,6")
    assert code == 0
    assert "dominant: 3.0\n" in out


def test_limit_reference_is_the_largest_positive_root(capsys):
    code, out, _ = run_cli(
        capsys, "limit", "--coeffs", "6,-11,6", "--inits", "1,5,2", "--output", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["reference"] == "3.0"
    assert abs(float(payload["estimate"]) - 3) < 1e-12
    assert float(payload["gap"]) < 1e-12


def test_root_rejects_periodic(capsys):
    code, _, err = run_cli(capsys, "root", "--periodic2", "2,3")
    assert code == 2 and "periodic" in err


def test_limit_even_odd_values(capsys):
    code, out, _ = run_cli(
        capsys, "limit", "--periodic2", "0.2,0.3", "--inits", "2,3", "--sub", "odd", "--nmax", "400"
    )
    assert code == 0
    assert "estimate: 1.38389626" in out
    code, out, _ = run_cli(
        capsys, "limit", "--periodic2", "0.2,0.3", "--inits", "2,3", "--sub", "even", "--nmax", "400"
    )
    assert code == 0
    assert "estimate: 0.92259751" in out


def test_limit_equal_parameters(capsys):
    code, out, _ = run_cli(capsys, "limit", "--periodic2", "0.1,0.1", "--inits", "2,3")
    assert code == 0
    assert "estimate: 1.0512492" in out
    assert "gap:" in out


def test_limit_csv_plot_data(capsys):
    code, out, _ = run_cli(
        capsys, "limit", "--knacci", "2", "--nmax", "40", "--output", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,ratio"
    assert len(lines) == 40  # samples at n = 2..40
    assert lines[-1].startswith("40,1.618")


def test_limit_knacci_estimates_increase(capsys):
    _, out9, _ = run_cli(capsys, "limit", "--knacci", "9", "--nmax", "300", "--output", "json")
    _, out10, _ = run_cli(capsys, "limit", "--knacci", "10", "--nmax", "300", "--output", "json")
    e9 = float(json.loads(out9)["estimate"])
    e10 = float(json.loads(out10)["estimate"])
    assert e9 < e10 < 2


def test_root_and_limit_json_are_deterministic(capsys):
    for argv in (
        ("root", "--coeffs", "4,3,2,1", "--output", "json"),
        ("limit", "--periodic2", "0.2,0.3", "--inits", "2,3", "--sub", "even",
         "--nmax", "120", "--output", "json"),
    ):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


def test_verify_json_reports_failing_indices(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "periodic-k", "--leading", "1,2,3", "--inits", "1,1,0",
        "--n", "3..12", "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    results = payload["cases"][0]["results"]
    assert results["printed"]["failing_n"] == []
    assert results["shift-from-zero"]["failures"] == len(results["shift-from-zero"]["failing_n"])
    assert results["shift-from-zero"]["failures"] > 0


def test_precision_flag_bounds(capsys):
    code, _, err = run_cli(capsys, "limit", "--knacci", "2", "--precision", "10")
    assert code == 2 and "precision" in err


def test_output_flag_validated_by_argparse(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["gen", "--knacci", "2", "--to", "3", "--output", "xml"])
    assert excinfo.value.code == 2
