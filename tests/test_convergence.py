import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from fiblike.charpoly import charpoly_of, dominant_root
from fiblike.convergence import (
    PRINTED_PARITY_ASSIGNMENTS,
    adjudicate_parity_assignment,
    asymptotic_fit,
    ratio_limit,
    ratio_limit_reference,
    report_to_csv,
    report_to_dict,
)
from fiblike import sequences
from fiblike.sequences import RecurrenceSpec, horadam_spec, knacci_spec, periodic_spec

G23 = periodic_spec(("0.2", "0.3"), (2, 3))  # the running fractional example


def test_fibonacci_ratio_converges_to_golden_ratio():
    report = ratio_limit(knacci_spec(2), n_max=200)
    assert report.reference is not None
    assert report.gap < mpf(10) ** (-20)
    assert report.monotone_tail
    assert report.samples[0][0] >= 2 and report.samples[-1][0] == 200


def test_constant_coefficient_ratio_hits_dominant_root():
    rng = random.Random(31)
    for _ in range(6):
        k = rng.randint(2, 6)
        q = tuple(sorted((rng.randint(1, 5) for _ in range(k)), reverse=True))
        inits = tuple(Fraction(rng.randint(0, 5)) for _ in range(k - 1)) + (Fraction(1),)
        spec = RecurrenceSpec(k=k, coeffs=q, inits=inits)
        report = ratio_limit(spec, n_max=300)
        assert report.gap < mpf(10) ** (-8)


def test_knacci_ratio_estimates_increase_toward_two():
    estimates = [ratio_limit(knacci_spec(k), n_max=300).estimate for k in range(2, 11)]
    assert all(b > a for a, b in zip(estimates, estimates[1:]))
    assert all(e < 2 for e in estimates)


def test_periodic_even_odd_step2_estimates():
    even = ratio_limit(G23, step=1, subsequence="even", n_max=400)
    odd = ratio_limit(G23, step=1, subsequence="odd", n_max=400)
    step2 = ratio_limit(G23, step=2, n_max=400)
    # printed reference decimals; the parity orientation is the one brute
    # force confirms (see module docstring)
    assert abs(float(even.estimate) - 0.921886) < 1e-3
    assert abs(float(odd.estimate) - 1.3839) < 1e-3
    assert abs(float(step2.estimate) - 1.276807) < 1e-3
    for report in (even, odd, step2):
        assert report.reference is not None
        assert report.gap < mpf(10) ** (-6)
    # parity samples land on indices of the right parity
    assert all(n % 2 == 0 for n, _ in even.samples)
    assert all(n % 2 == 1 for n, _ in odd.samples)


def test_periodic_unequal_parameters_full_ratio_diverges():
    full = ratio_limit(G23, step=1, subsequence="all", n_max=400)
    assert full.reference is None
    assert not full.monotone_tail
    even = ratio_limit(G23, step=1, subsequence="even", n_max=400)
    odd = ratio_limit(G23, step=1, subsequence="odd", n_max=400)

    def oscillation(report):
        tail = [v for _, v in report.samples[-10:]]
        return max(tail) - min(tail)

    spread = abs(even.estimate - odd.estimate)
    assert spread > 10 * max(oscillation(even), oscillation(odd))


def test_periodic_equal_parameters_closed_form():
    for a in (Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(2)):
        spec = periodic_spec((a, a), (2, 3))
        report = ratio_limit(spec, n_max=400)
        with mp.workdps(60):
            closed = (mpf(a.numerator) / a.denominator + mp.sqrt(mpf(a.numerator) / a.denominator * (mpf(a.numerator) / a.denominator) + 4)) / 2
            assert abs(report.estimate - closed) < mpf(10) ** (-6)


def test_tenth_parameter_example():
    spec = periodic_spec(("0.1", "0.1"), (2, 3))
    report = ratio_limit(spec, n_max=400)
    assert abs(float(report.estimate) - 1.05125) < 1e-4
    with mp.workdps(60):
        closed = (mpf(1) / 10 + mp.sqrt(mpf("4.01"))) / 2
        assert abs(report.estimate - closed) < mpf(10) ** (-6)
        assert abs(report.reference - closed) < mpf(10) ** (-40)


def test_reference_table():
    phi = dominant_root(charpoly_of(knacci_spec(2)), 50)
    with mp.workdps(60):
        assert abs(ratio_limit_reference(knacci_spec(2)) - phi) < mpf(10) ** (-45)
        assert abs(ratio_limit_reference(knacci_spec(2), step=2) - phi**2) < mpf(10) ** (-40)
        ab = mpf(6) / 100
        alpha = (ab + mp.sqrt(ab * ab + 4 * ab)) / 2
        assert abs(ratio_limit_reference(G23, subsequence="even") - alpha / (mpf(3) / 10)) < mpf(10) ** (-40)
        assert abs(ratio_limit_reference(G23, subsequence="odd") - alpha / (mpf(2) / 10)) < mpf(10) ** (-40)
        assert abs(ratio_limit_reference(G23, step=2) - (alpha + 1)) < mpf(10) ** (-40)
    assert ratio_limit_reference(G23, subsequence="all") is None
    assert ratio_limit_reference(G23, step=3) is None
    assert ratio_limit_reference(periodic_spec((1, 2, 3), (0, 0, 1))) is None
    assert ratio_limit_reference(periodic_spec((-1, 2), (0, 1))) is None
    # constant spec without a positive real root: explicit "no reference"
    no_root = RecurrenceSpec(k=2, coeffs=(-3, -5), inits=(0, 1))
    assert ratio_limit_reference(no_root) is None


def test_equal_parameter_reference_is_shared():
    spec = periodic_spec((2, 2), (1, 1))
    with mp.workdps(40):
        expected = (2 + mp.sqrt(8)) / 2  # (a+sqrt(a^2+4))/2 at a=2
        for kwargs in (dict(), dict(subsequence="even"), dict(subsequence="odd")):
            assert abs(ratio_limit_reference(spec, **kwargs) - expected) < mpf(10) ** (-30)


def test_parity_adjudication():
    for inits in ((0, 1), (2, 3)):
        verdicts = adjudicate_parity_assignment("0.2", "0.3", inits)["verdicts"]
        assert verdicts == {"basis-display": True, "general-derivation": False}
    both = adjudicate_parity_assignment(1, 1, (2, 3))
    assert set(both["matching"]) == set(PRINTED_PARITY_ASSIGNMENTS)
    with pytest.raises(ValueError):
        adjudicate_parity_assignment(0, 1)
    with pytest.raises(ValueError):
        adjudicate_parity_assignment(1, -1)


def test_ratio_limit_argument_validation():
    with pytest.raises(ValueError):
        ratio_limit(knacci_spec(2), step=0)
    with pytest.raises(ValueError):
        ratio_limit(knacci_spec(2), subsequence="prime")
    with pytest.raises(ValueError):
        ratio_limit(knacci_spec(5), n_max=3)  # nothing to sample past the zeros


def test_one_shot_prefixes_stay_out_of_the_prefix_cache():
    cached = list(sequences._CACHE._prefixes)  # keys in LRU order: a full cache evicts, not grows
    ratio_limit(RecurrenceSpec(k=3, coeffs=(5, 3, 1), inits=(7, 1, 9)), n_max=250)
    ratio_limit(periodic_spec(("7/3", "2/9"), (5, 8)), subsequence="odd", n_max=150)
    asymptotic_fit(RecurrenceSpec(k=2, coeffs=(3, 1), inits=(4, 7)), n_max=120)
    sequences.terms(RecurrenceSpec(k=4, coeffs=(2, 0, -1, "1/3"), inits=(1, 0, "2/5", 3)), 200)
    assert list(sequences._CACHE._prefixes) == cached


def test_asymptotic_fit_fibonacci():
    fit = asymptotic_fit(knacci_spec(2))
    with mp.workdps(40):
        assert abs(fit.c - 1 / mp.sqrt(5)) < mpf(10) ** (-30)


def test_asymptotic_fit_lucas():
    lucas = RecurrenceSpec(k=2, coeffs=(1, 1), inits=(2, 1))
    fit = asymptotic_fit(lucas)
    with mp.workdps(40):
        assert abs(fit.c - 1) < mpf(10) ** (-30)


@pytest.mark.parametrize("spec", [knacci_spec(2), knacci_spec(3), knacci_spec(5), horadam_spec(3, (3, 2, 1))])
def test_asymptotic_fit_residual_envelope_decays(spec):
    fit = asymptotic_fit(spec)
    values = [v for _, v in fit.residual_trend]
    assert len(values) == 20
    assert all(v > 0 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))
    indices = [n for n, _ in fit.residual_trend]
    assert indices == sorted(indices)


def test_asymptotic_fit_rejects_negative_growth():
    spec = RecurrenceSpec(k=2, coeffs=(1, 1), inits=(1, -1))
    with pytest.raises(ArithmeticError):
        asymptotic_fit(spec, n_max=120)
    with pytest.raises(TypeError):
        asymptotic_fit(periodic_spec((1, 1), (0, 1)))


def test_report_serialization():
    report = ratio_limit(knacci_spec(2), n_max=60)
    data = report_to_dict(report, 30)
    assert set(data) == {"samples", "estimate", "reference", "gap", "monotone_tail"}
    assert data["reference"].startswith("1.6180339887")
    csv = report_to_csv(report, 30)
    lines = csv.strip().splitlines()
    assert lines[0] == "n,ratio"
    assert len(lines) == len(report.samples) + 1
    full = ratio_limit(G23, subsequence="all", n_max=100)
    data = report_to_dict(full)
    assert data["reference"] is None and data["gap"] is None
