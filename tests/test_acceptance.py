"""Acceptance suite: one test per release criterion, each timed against its
budget and printing a PASS line (visible with ``pytest -s``)."""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from mpmath import mp, mpf

from fiblike.charpoly import CharPoly, all_roots, dresden_round
from fiblike.cli import main as cli_main
from fiblike.convergence import ratio_limit
from fiblike.identities import (
    decompose_horadam_like,
    decompose_knacci_like,
    decompose_periodic2,
    decompose_periodic2_edson,
    periodic2_swap_relation,
)
from fiblike.sequences import (
    RecurrenceSpec,
    evaluate,
    evaluate_fast,
    horadam_spec,
    knacci_spec,
    periodic_spec,
    terms,
)

TABLE_ROWS = {
    2: ["0", "1", "1", "2", "3", "5", "8", "13", "21", "34"],
    3: ["0", "0", "1", "1", "2", "4", "7", "13", "24", "44", "81"],
    4: ["0", "0", "0", "1", "1", "2", "4", "8", "15", "29", "56", "108"],
    5: ["0", "0", "0", "0", "1", "1", "2", "4", "8", "16", "31", "61", "120"],
}


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} blew its budget: {elapsed:.2f}s >= {budget_seconds}s"
    )
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s < {budget_seconds}s)")


def test_criterion_01_table_reproduction(capsys):
    with criterion(1, "gen reproduces the classic rows for k=2..5 exactly", 1.0):
        for k, row in TABLE_ROWS.items():
            code = cli_main(["gen", "--knacci", str(k), "--to", str(len(row) - 1)])
            out = capsys.readouterr().out
            assert code == 0
            values = [line.split("\t")[1] for line in out.strip().splitlines()]
            assert values == row


def test_criterion_02_knacci_like_decomposition_suite():
    rng = random.Random(1202)
    with criterion(2, "k-step split exact for k=2..7, 50 random inits, n=k..200", 30.0):
        failures = 0
        for k in range(2, 8):
            for _ in range(50):
                inits = [rng.randint(0, 20) for _ in range(k)]
                if not any(inits):
                    inits[rng.randrange(k)] = 1
                spec = RecurrenceSpec(k=k, coeffs=(Fraction(1),) * k, inits=tuple(inits))
                for n in range(k, 201):
                    if not decompose_knacci_like(spec, n).holds:
                        failures += 1
        assert failures == 0


def test_criterion_03_horadam_like_decomposition_suite():
    rng = random.Random(1203)
    with criterion(3, "Horadam-type split exact for k=2..6, ordered q<=5, n=k..150", 30.0):
        failures = 0
        for k in range(2, 7):
            for _ in range(12):
                q = sorted((rng.randint(1, 5) for _ in range(k)), reverse=True)
                inits = [rng.randint(0, 12) for _ in range(k)]
                if not any(inits):
                    inits[-1] = 3
                uspec = horadam_spec(k, q)
                for n in range(k, 151):
                    if not decompose_horadam_like(uspec, inits, n).holds:
                        failures += 1
        assert failures == 0


def test_criterion_04_two_periodic_identities_agree():
    rng = random.Random(1204)
    with criterion(4, "2-periodic splits + swap hold and agree term-for-term", 10.0):
        for _ in range(30):
            a = Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4, 5]), rng.randint(1, 4))
            b = Fraction(rng.randint(-3, 5), rng.randint(1, 4))
            inits = (Fraction(rng.randint(0, 9)), Fraction(rng.randint(0, 9)))
            if not any(inits):
                inits = (Fraction(1), inits[1])
            for n in range(1, 101):
                two_basis = decompose_periodic2(a, b, inits, n)
                one_basis = decompose_periodic2_edson(a, b, inits, n)
                swap = periodic2_swap_relation(a, b, n)
                assert two_basis.holds and one_basis.holds and swap.holds
                assert [t.value for t in two_basis.terms] == [t.value for t in one_basis.terms]


def test_criterion_05_published_ratio_decimals():
    with criterion(5, "fractional-parameter ratio limits match published decimals", 5.0):
        g = periodic_spec(("0.2", "0.3"), (2, 3))
        even = ratio_limit(g, step=1, subsequence="even", n_max=400).estimate
        odd = ratio_limit(g, step=1, subsequence="odd", n_max=400).estimate
        step2 = ratio_limit(g, step=2, subsequence="all", n_max=400).estimate
        published = (1.3839, 0.921886, 1.276807)
        # pair each published decimal with the subsequence that attains it
        # (brute force fixes the even/odd orientation; see convergence docs)
        assert abs(float(odd) - published[0]) < 1e-3
        assert abs(float(even) - published[1]) < 1e-3
        assert abs(float(step2) - published[2]) < 1e-3
        # set-level check: the three estimates reproduce the published triple
        estimates = sorted(float(x) for x in (even, odd, step2))
        for estimate, target in zip(estimates, sorted(published)):
            assert abs(estimate - target) < 1e-3

        equal = periodic_spec(("0.1", "0.1"), (2, 3))
        report = ratio_limit(equal, step=1, subsequence="all", n_max=400)
        assert abs(float(report.estimate) - 1.05125) < 1e-4
        with mp.workdps(60):
            closed_form = (mpf(1) / 10 + mp.sqrt(mpf("4.01"))) / 2
            assert abs(report.estimate - closed_form) < mpf(10) ** (-6)


def test_criterion_06_root_certification():
    rng = random.Random(1206)
    with criterion(6, "dominant in (q1,q1+1), residual<1e-12, others inside unit circle", 20.0):
        for _ in range(100):
            k = rng.randint(2, 6)
            q = tuple(sorted((rng.randint(1, 5) for _ in range(k)), reverse=True))
            poly = CharPoly(k=k, coeffs=q)
            roots = all_roots(poly, 50)
            assert q[0] < float(roots.dominant) < q[0] + 1
            assert roots.residual < mpf(10) ** (-12)
            assert roots.moduli_bound < 1
            assert roots.inside_unit_circle
            assert len(roots.others) == k - 1


def test_criterion_07_round_formula_equalities():
    with criterion(7, "nearest-integer spectral formula equals exact terms (305 cases)", 5.0):
        checked = 0
        for k in range(2, 7):
            exact = terms(knacci_spec(k), 61)
            for n in range(61):
                assert dresden_round(k, n) == int(exact[n])
                checked += 1
        assert checked == 305


def test_criterion_08_ratio_convergence_to_dominant_root():
    rng = random.Random(1208)
    with criterion(8, "ratio estimates within 1e-8 of dominant roots; constants rise to 2", 10.0):
        for k in range(2, 7):
            specs = [knacci_spec(k)]
            q = tuple(sorted((rng.randint(1, 5) for _ in range(k)), reverse=True))
            inits = tuple(Fraction(rng.randint(0, 5)) for _ in range(k - 1)) + (Fraction(1),)
            specs.append(RecurrenceSpec(k=k, coeffs=q, inits=inits))
            for spec in specs:
                report = ratio_limit(spec, n_max=300)
                assert report.gap < mpf(10) ** (-8)
        estimates = [float(ratio_limit(knacci_spec(k), n_max=300).estimate) for k in range(2, 11)]
        assert all(b > a for a, b in zip(estimates, estimates[1:]))
        assert all(e < 2 for e in estimates)


def test_criterion_09_fast_path_equivalence():
    rng = random.Random(1209)
    with criterion(9, "x^n-mod-charpoly path equals naive recurrence on 500 random cases", 20.0):
        for _ in range(500):
            k = rng.randint(2, 7)
            if rng.random() < 0.3:
                coeffs = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(k))
            else:
                coeffs = tuple(Fraction(rng.randint(1, 5)) for _ in range(k))
            inits = [Fraction(rng.randint(0, 9)) for _ in range(k)]
            if not any(inits):
                inits[-1] = Fraction(1)
            spec = RecurrenceSpec(k=k, coeffs=coeffs, inits=tuple(inits))
            n = rng.randint(0, 1000)
            assert evaluate_fast(spec, n) == evaluate(spec, n)


def test_criterion_10_printed_formula_adjudication(capsys):
    with criterion(10, "ternary and k-ary formulas get a definitive verdict per variant", 10.0):
        code = cli_main(["verify", "periodic3", "--trials", "5", "--seed", "11", "--n", "2..40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict[printed]: HOLDS" in out

        code = cli_main(
            ["verify", "periodic-k", "--trials", "5", "--seed", "13", "--n", "3..40"]
        )
        out = capsys.readouterr().out
        assert code == 0  # exit code keyed to the printed formula
        assert "verdict[printed]: HOLDS" in out
        assert "verdict[shift-from-zero]: REFUTED" in out
        assert "first counterexample" in out

        # the adjudication is definitive in JSON form too
        code = cli_main(
            ["verify", "periodic-k", "--trials", "5", "--seed", "13", "--n", "3..40",
             "--output", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["verdicts"]["printed"] == "holds"
        assert payload["verdicts"]["shift-from-zero"] == "refuted"
        assert payload["totals"]["shift-from-zero"]["first_counterexample"] is not None
        assert len(payload["cases"]) == 5
