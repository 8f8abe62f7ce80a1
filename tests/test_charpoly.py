import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from fiblike.charpoly import (
    CharPoly,
    RootConvergenceError,
    all_roots,
    charpoly_of,
    dominant_root,
    dresden_coefficient,
    dresden_exact_sum,
    dresden_round,
    horadam_binet,
    knacci_constant,
    rootset_to_dict,
    wu_zhang_ordered,
)
from fiblike.sequences import (
    RecurrenceSpec,
    evaluate,
    horadam_spec,
    knacci_spec,
    periodic_basis,
    terms,
)

from oracles import bisect_root


def test_charpoly_construction():
    p2 = charpoly_of(knacci_spec(2))
    assert (p2.k, p2.coeffs) == (2, (1, 1))
    assert str(p2) == "x^2 - x - 1"
    p3 = charpoly_of(horadam_spec(3, (3, 2, 1)))
    assert str(p3) == "x^3 - 3*x^2 - 2*x - 1"
    p5 = charpoly_of(knacci_spec(5))
    assert p5.coeffs == (1,) * 5


def test_charpoly_rejects_periodic():
    with pytest.raises(TypeError):
        charpoly_of(periodic_basis((2, 3)))


def test_wu_zhang_ordering_predicate():
    assert wu_zhang_ordered(CharPoly(k=3, coeffs=(3, 2, 1)))
    assert not wu_zhang_ordered(CharPoly(k=2, coeffs=(1, 2)))
    assert not wu_zhang_ordered(CharPoly(k=2, coeffs=(2, Fraction(1, 2))))


def test_dominant_root_golden_ratio():
    alpha = dominant_root(charpoly_of(knacci_spec(2)), 50)
    with mp.workdps(60):
        phi = (1 + mp.sqrt(5)) / 2
        assert abs(alpha - phi) < mpf(10) ** (-48)


def test_dominant_root_tribonacci():
    alpha = dominant_root(charpoly_of(knacci_spec(3)), 50)
    # float bisection oracle on the same polynomial
    approx = bisect_root(lambda x: x**3 - x**2 - x - 1, 1.0, 2.0)
    assert str(alpha).startswith("1.8392867552")
    assert abs(float(alpha) - approx) < 1e-12


def test_dominant_root_bracket():
    poly = charpoly_of(horadam_spec(3, (3, 2, 1)))
    alpha = dominant_root(poly, 50)
    assert 3 < float(alpha) < 4
    with mp.workdps(60):
        assert abs(poly.eval_mp(alpha)) < mpf(10) ** (-50)


def test_dominant_root_without_ordering_falls_back_to_scan():
    # q = (1, 2) violates the ordering; the positive zero is exactly 2.
    alpha = dominant_root(CharPoly(k=2, coeffs=(1, 2)), 40)
    assert abs(float(alpha) - 2.0) < 1e-38


def test_dominant_root_no_positive_zero():
    with pytest.raises(RootConvergenceError):
        dominant_root(CharPoly(k=2, coeffs=(-3, -5)), 30)  # x^2+3x+5: no real zero


# (x - 1)(x - 3)(x - 4)(x + 2) = x^4 - 6x^3 + 3x^2 + 26x - 24
THREE_POSITIVE_ROOTS = CharPoly(k=4, coeffs=(6, -3, -26, 24))


def test_dominant_root_is_the_largest_positive_root():
    assert abs(dominant_root(THREE_POSITIVE_ROOTS, 50) - 4) < mpf(10) ** (-48)
    assert abs(dominant_root(CharPoly(k=3, coeffs=(6, -11, 6)), 50) - 3) < mpf(10) ** (-48)


def test_all_roots_reports_the_largest_positive_root():
    roots = all_roots(THREE_POSITIVE_ROOTS, 50)
    assert abs(roots.dominant - 4) < mpf(10) ** (-48)
    assert [round(float(z.real), 12) for z in roots.others] == [-2, 1, 3]
    assert all(abs(z.imag) < 1e-40 for z in roots.others)


def _poly_value(coeffs, x: Fraction) -> Fraction:
    value = Fraction(1)
    for q in coeffs:
        value = value * x - q
    return value


def _random_certifiable_poly(rng, ordered: bool) -> tuple[Fraction, ...]:
    k = rng.randint(2, 8)
    if ordered:
        return tuple(sorted((Fraction(rng.randint(2, 18), 2) for _ in range(k)), reverse=True))
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(k)]
    coeffs[-1] = abs(coeffs[-1]) or Fraction(1)  # f(0) < 0, so a positive zero exists
    return tuple(coeffs)


@pytest.mark.parametrize("precision", [50, 200])
@pytest.mark.parametrize("ordered", [True, False])
def test_dominant_root_certified_in_exact_arithmetic(precision, ordered):
    """Each reported root has an exact sign change around it and no sign
    change above it on the 1024-step grid over (0, 1 + sum|q|]."""
    rng = random.Random(64 + precision + ordered)
    for _ in range(10):
        coeffs = _random_certifiable_poly(rng, ordered)
        poly = CharPoly(k=len(coeffs), coeffs=coeffs)
        assert wu_zhang_ordered(poly) or not ordered
        root = dominant_root(poly, precision)
        with mp.workdps(precision + 20):
            x = Fraction(mp.nstr(root, precision + 15))
        delta = Fraction(1, 10 ** (precision - 3))
        assert _poly_value(coeffs, x - delta) < 0 < _poly_value(coeffs, x + delta), coeffs
        bound = 1 + sum(abs(q) for q in coeffs)
        grid = (bound * j / 1024 for j in range(1025))
        assert all(_poly_value(coeffs, g) > 0 for g in grid if g > x + delta), coeffs


def test_random_wu_zhang_brackets():
    rng = random.Random(61)
    for _ in range(20):
        k = rng.randint(2, 6)
        q = tuple(sorted((rng.randint(1, 5) for _ in range(k)), reverse=True))
        poly = CharPoly(k=k, coeffs=q)
        alpha = dominant_root(poly, 50)
        assert q[0] < float(alpha) < q[0] + 1
        with mp.workdps(60):
            assert abs(poly.eval_mp(alpha)) < mpf(10) ** (-12)


def test_all_roots_quadratic_against_formula():
    roots = all_roots(charpoly_of(knacci_spec(2)), 50)
    with mp.workdps(60):
        assert abs(roots.others[0] - (1 - mp.sqrt(5)) / 2) < mpf(10) ** (-45)
        assert roots.moduli_bound < 1
    assert roots.inside_unit_circle
    assert len(roots.others) == 1


def test_all_roots_pell_like():
    roots = all_roots(charpoly_of(horadam_spec(2, (2, 1))), 50)
    with mp.workdps(60):
        assert abs(roots.dominant - (1 + mp.sqrt(2))) < mpf(10) ** (-45)
        assert abs(roots.others[0] - (1 - mp.sqrt(2))) < mpf(10) ** (-45)
    assert roots.inside_unit_circle


def test_all_roots_tribonacci_pair():
    roots = all_roots(charpoly_of(knacci_spec(3)), 50)
    assert len(roots.others) == 2
    mods = [float(abs(z)) for z in roots.others]
    assert mods[0] == pytest.approx(mods[1], abs=1e-40)
    assert mods[0] == pytest.approx(0.7373527, abs=1e-6)
    # conjugate pair
    assert float(roots.others[0].imag) == pytest.approx(-float(roots.others[1].imag), abs=1e-40)


def test_all_roots_against_numpy():
    rng = random.Random(62)
    for _ in range(10):
        k = rng.randint(2, 6)
        q = tuple(sorted((rng.randint(1, 5) for _ in range(k)), reverse=True))
        mine = all_roots(CharPoly(k=k, coeffs=q), 40)
        coeffs = [1.0] + [-float(v) for v in q]
        reference = sorted(np.roots(coeffs), key=lambda z: (z.real, z.imag))
        computed = sorted(
            [complex(mine.dominant)] + [complex(z) for z in mine.others],
            key=lambda z: (z.real, z.imag),
        )
        for ours, theirs in zip(computed, reference):
            assert abs(ours - theirs) < 1e-8
        assert mine.inside_unit_circle


def test_rootset_to_dict_shape():
    data = rootset_to_dict(all_roots(charpoly_of(knacci_spec(3)), 30), 30)
    assert set(data) == {
        "dominant",
        "others",
        "moduli_bound",
        "residual",
        "inside_unit_circle",
    }
    assert len(data["others"]) == 2
    assert data["dominant"].startswith("1.83928675")


def test_knacci_constant_values_and_identity():
    with mp.workdps(60):
        assert abs(knacci_constant(2, 50) - (1 + mp.sqrt(5)) / 2) < mpf(10) ** (-48)
    assert str(knacci_constant(3, 50)).startswith("1.8392867552")
    previous = None
    for k in range(2, 11):
        alpha = knacci_constant(k, 40)
        with mp.workdps(50):
            assert abs(alpha + alpha ** (-k) - 2) < mpf(10) ** (-10)
            assert alpha < 2
        if previous is not None:
            assert alpha > previous
        previous = alpha


def test_dresden_coefficient_golden_pair():
    with mp.workdps(30):
        phi = (1 + mp.sqrt(5)) / 2
        a1 = dresden_coefficient(phi, 2)
        a2 = dresden_coefficient(1 - phi, 2)
        assert abs(a1 - phi / mp.sqrt(5)) < mpf(10) ** (-25)
        assert float(a1) == pytest.approx(0.7236068, abs=1e-7)
        assert float(a2) == pytest.approx(0.2763932, abs=1e-7)
        assert abs(a1 + a2 - 1) < mpf(10) ** (-25)


def test_dresden_coefficient_weights_sum_to_one():
    for k in range(2, 7):
        roots = all_roots(charpoly_of(knacci_spec(k)), 40)
        with mp.workdps(50):
            total = sum(dresden_coefficient(r, k) for r in [roots.dominant, *roots.others])
            assert abs(total - 1) < mpf(10) ** (-35)


def test_dresden_coefficient_degenerate_denominator():
    assert float(dresden_coefficient(2, 5)) == pytest.approx(0.5)  # (r-1)/2 at r=2
    with pytest.raises(ValueError):
        dresden_coefficient(1.5, 3)  # 2 + 4*(r-2) = 0


def test_dresden_exact_sum_basis_values():
    with mp.workdps(40):
        assert abs(dresden_exact_sum(2, 9) - 34) < mpf(10) ** (-20)
        assert abs(dresden_exact_sum(2, 10) - 55) < mpf(10) ** (-20)
        assert abs(dresden_exact_sum(3, 8) - 24) < mpf(10) ** (-20)


def test_dresden_exact_sum_with_inits():
    with mp.workdps(40):
        assert abs(dresden_exact_sum(3, 5, (1, 2, 3)) - 20) < mpf(10) ** (-20)


def test_dresden_exact_sum_reproduces_exact_terms():
    rng = random.Random(63)
    for k in range(2, 6):
        inits = tuple(rng.randint(0, 6) for _ in range(k - 1)) + (1,)
        spec = RecurrenceSpec(k=k, coeffs=(1,) * k, inits=inits)
        exact = terms(spec, 41)
        for n in range(2, 41):
            value = dresden_exact_sum(k, n, inits)
            assert abs(value - int(exact[n])) < 1e-6


def test_dresden_exact_sum_bounds():
    with pytest.raises(ValueError):
        dresden_exact_sum(2, 1)
    with pytest.raises(ValueError):
        dresden_exact_sum(1, 5)
    with pytest.raises(ValueError):
        dresden_exact_sum(3, 5, (1, 2))


def test_dresden_round_examples():
    assert dresden_round(2, 9) == 34
    assert dresden_round(4, 11) == 108
    assert [dresden_round(5, n) for n in range(5)] == [0, 0, 0, 0, 1]


def test_dresden_round_matches_exact_terms():
    for k in (2, 3, 6):
        row = terms(knacci_spec(k), 61)
        for n in range(0, 61, 5):
            assert dresden_round(k, n) == int(row[n])


@pytest.mark.parametrize("k", [2, 3, 7])
@pytest.mark.parametrize("n", [320, 381, 1000])
def test_dresden_round_deep_indices_raise_precision(k, n):
    assert dresden_round(k, n) == evaluate(knacci_spec(k), n)


def test_horadam_binet_values():
    with mp.workdps(60):
        assert abs(horadam_binet(1, 1, 9) - 34) < mpf(10) ** (-40)
        assert abs(horadam_binet(2, 1, 4) - 12) < mpf(10) ** (-40)  # Pell
        assert horadam_binet(3, 2, 0) == 0
        assert abs(horadam_binet(3, 2, 1) - 1) < mpf(10) ** (-45)


def test_horadam_binet_agrees_with_exact_evaluation():
    for p in range(1, 6):
        for q in range(1, 6):
            exact = terms(horadam_spec(2, (p, q)), 41)
            for n in range(0, 41, 4):
                assert abs(horadam_binet(p, q, n) - int(exact[n])) < 1e-8


def test_horadam_binet_rejects_degenerate_discriminant():
    with pytest.raises(ValueError, match="repeated"):
        horadam_binet(2, -1, 5)
    with pytest.raises(ValueError):
        horadam_binet(1, -1, 5)


def test_evaluate_consistency_with_binet_path():
    # one cross-stack check: exact evaluation, fast path, Binet, spectral sum
    spec = knacci_spec(2)
    n = 30
    exact = evaluate(spec, n)
    assert exact == 832040
    assert abs(horadam_binet(1, 1, n) - int(exact)) < 1e-20
    assert abs(dresden_exact_sum(2, n) - int(exact)) < 1e-12
    assert dresden_round(2, n) == int(exact)
