import random
from fractions import Fraction

import pytest

from fiblike.identities import (
    DecompositionWitness,
    WitnessTerm,
    decompose_canonical,
    decompose_horadam_like,
    decompose_knacci_like,
    decompose_periodic2,
    decompose_periodic2_edson,
    decompose_periodic3,
    decompose_periodic_k,
    dump_witness,
    periodic2_swap_relation,
    witness_to_dict,
)
from fiblike.sequences import RecurrenceSpec, horadam_spec

from oracles import run_constant, run_periodic


def unit_spec(k, inits):
    return RecurrenceSpec(k=k, coeffs=(Fraction(1),) * k, inits=tuple(inits))


# ------------------------------------------------------------ canonical ----


def test_canonical_lucas():
    w = decompose_canonical((2, 1), 5)
    assert w.lhs == w.rhs == 11
    assert run_constant((1, 1), (2, 1), 6)[5] == 11
    assert [t.value for t in w.terms] == [5, 6]  # 1*F(5) + 2*F(4)


def test_canonical_on_basis():
    w = decompose_canonical((0, 1), 7)
    assert w.holds and w.lhs == 13


def test_canonical_shifted_basis():
    w = decompose_canonical((5, 0), 4)
    assert w.holds and w.lhs == 10
    assert run_constant((1, 1), (5, 0), 5)[4] == 10


def test_canonical_index_bound():
    with pytest.raises(ValueError):
        decompose_canonical((2, 1), 0)


# ----------------------------------------------------------- knacci-like ----


def test_knacci_like_k2_reduces_to_canonical():
    w2 = decompose_knacci_like(unit_spec(2, (2, 1)), 6)
    wc = decompose_canonical((2, 1), 6)
    assert w2.holds and wc.holds
    assert w2.rhs == wc.rhs
    assert len(w2.terms) == 2  # middle sum is empty at order 2


def test_knacci_like_k3_example():
    w = decompose_knacci_like(unit_spec(3, (1, 2, 3)), 5)
    assert w.holds and w.lhs == 20
    assert [t.value for t in w.terms] == [2, 6, 12]


def test_knacci_like_k4_all_ones():
    w = decompose_knacci_like(unit_spec(4, (1, 1, 1, 1)), 4)
    assert w.holds and w.lhs == 4
    assert [t.value for t in w.terms] == [1, 1, 1, 1]


def test_knacci_like_rejects_bad_input():
    with pytest.raises(ValueError):
        decompose_knacci_like(RecurrenceSpec(k=2, coeffs=(2, 1), inits=(0, 1)), 5)
    with pytest.raises(ValueError):
        decompose_knacci_like(unit_spec(3, (1, 2, 3)), 2)


def test_knacci_like_random_suite():
    rng = random.Random(220)
    for k in range(2, 8):
        for _ in range(5):
            inits = [rng.randint(0, 9) for _ in range(k)]
            if not any(inits):
                inits[0] = 1
            spec = unit_spec(k, inits)
            expected = run_constant(spec.coeffs, spec.inits, 81)
            for n in range(k, 81, 7):
                w = decompose_knacci_like(spec, n)
                assert w.holds and w.lhs == expected[n]


# ---------------------------------------------------------- horadam-like ----


def test_horadam_like_unit_coeffs_reduce_termwise():
    uspec = horadam_spec(3, (1, 1, 1))
    wh = decompose_horadam_like(uspec, (1, 2, 3), 9)
    wk = decompose_knacci_like(unit_spec(3, (1, 2, 3)), 9)
    assert wh.holds and wk.holds
    assert [t.value for t in wh.terms] == [t.value for t in wk.terms]


def test_horadam_like_order2():
    # basis 0,1 with t(n) = 2 t(n-1) + t(n-2); arbitrary inits (1, 1)
    uspec = horadam_spec(2, (2, 1))
    w = decompose_horadam_like(uspec, (1, 1), 4)
    assert w.holds
    assert w.lhs == run_constant((2, 1), (1, 1), 5)[4] == 17


def test_horadam_like_k3_example():
    uspec = horadam_spec(3, (3, 2, 1))
    w = decompose_horadam_like(uspec, (1, 0, 2), 6)
    assert w.holds
    assert w.lhs == run_constant((3, 2, 1), (1, 0, 2), 7)[6] == 330


def test_horadam_like_input_checks():
    uspec = horadam_spec(3, (3, 2, 1))
    with pytest.raises(ValueError):
        decompose_horadam_like(uspec, (1, 0), 6)  # length mismatch
    with pytest.raises(ValueError):
        decompose_horadam_like(uspec, (0, 0, 0), 6)
    with pytest.raises(ValueError):
        decompose_horadam_like(uspec, (1, 0, 2), 2)  # below k
    lucas = RecurrenceSpec(k=2, coeffs=(1, 1), inits=(2, 1))
    with pytest.raises(ValueError):
        decompose_horadam_like(lucas, (1, 1), 4)  # not a basis spec


def test_horadam_like_random_suite():
    rng = random.Random(221)
    for k in range(2, 7):
        for _ in range(4):
            q = sorted((rng.randint(1, 5) for _ in range(k)), reverse=True)
            inits = [rng.randint(0, 9) for _ in range(k)]
            if not any(inits):
                inits[-1] = 2
            uspec = horadam_spec(k, q)
            expected = run_constant(q, inits, 61)
            for n in range(k, 61, 5):
                w = decompose_horadam_like(uspec, inits, n)
                assert w.holds and w.lhs == expected[n]


# -------------------------------------------------------------- periodic2 ----


def test_periodic2_example():
    w = decompose_periodic2(2, 3, (1, 1), 4)
    assert w.holds and w.lhs == 23
    assert [t.value for t in w.terms] == [16, 7]


def test_periodic2_basis_inits():
    for n in range(1, 12):
        w = decompose_periodic2(2, 3, (0, 1), n)
        assert w.holds
        assert w.rhs == run_periodic((2, 3), (0, 1), n + 1)[n]


def test_periodic2_swapped_basis_component():
    w = decompose_periodic2(2, 3, (1, 0), 5)
    assert w.holds and w.lhs == 24  # swapped-parameter basis at index 4


def test_swap_relation():
    even = periodic2_swap_relation(2, 3, 4)
    assert even.holds and even.terms[0].coefficient == 1  # exponent 0 at even n
    assert even.lhs == 7  # both orderings give the same symmetric value
    odd = periodic2_swap_relation(2, 3, 5)
    assert odd.holds and odd.lhs == 24
    assert odd.terms[0].coefficient == Fraction(3, 2)
    same = periodic2_swap_relation(5, 5, 9)
    assert same.holds and same.terms[0].coefficient == 1
    with pytest.raises(ValueError):
        periodic2_swap_relation(0, 3, 5)


def test_edson_form_collapses_at_equal_parameters():
    w = decompose_periodic2_edson(1, 1, (2, 1), 5)
    assert w.holds and w.lhs == 11


def test_edson_form_matches_two_basis_form():
    w1 = decompose_periodic2(2, 3, (1, 1), 4)
    w2 = decompose_periodic2_edson(2, 3, (1, 1), 4)
    assert w1.holds and w2.holds
    assert w1.rhs == w2.rhs == 23
    assert [t.value for t in w1.terms] == [t.value for t in w2.terms]


def test_edson_form_fractional_parameters():
    w = decompose_periodic2_edson("1/5", "3/10", (2, 3), 3)
    assert w.holds
    with pytest.raises(ValueError):
        decompose_periodic2_edson(0, 3, (1, 1), 3)


def test_periodic2_trio_random_suite():
    rng = random.Random(222)
    for _ in range(12):
        a = Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 3))
        b = Fraction(rng.randint(-2, 4), rng.randint(1, 3))
        inits = (Fraction(rng.randint(0, 5)), Fraction(rng.randint(0, 5)))
        if not any(inits):
            inits = (inits[0], Fraction(1))
        expected = run_periodic((a, b), inits, 41)
        for n in range(1, 41, 3):
            w1 = decompose_periodic2(a, b, inits, n)
            w2 = decompose_periodic2_edson(a, b, inits, n)
            ws = periodic2_swap_relation(a, b, n)
            assert w1.holds and w2.holds and ws.holds
            assert w1.lhs == w2.lhs == expected[n]
            assert w1.rhs == w2.rhs


# -------------------------------------------------------------- periodic3 ----


def test_periodic3_basis_identity():
    w = decompose_periodic3(1, 1, 1, (0, 0, 1), 6)
    assert w.holds and w.rhs == 7  # Tribonacci value


def test_periodic3_all_equal_reduces_to_knacci_like():
    w3 = decompose_periodic3(1, 1, 1, (1, 1, 1), 8)
    wk = decompose_knacci_like(unit_spec(3, (1, 1, 1)), 8)
    assert w3.holds and wk.holds
    assert w3.rhs == wk.rhs


def test_periodic3_printed_formula_verdict():
    # The repeated shift tuple in the middle weight looks like a misprint but
    # brute force confirms it on every checked parameter set.
    expected = run_periodic((1, 2, 3), (1, 0, 0), 31)
    for n in range(2, 31):
        w = decompose_periodic3(1, 2, 3, (1, 0, 0), n)
        assert w.holds and w.lhs == expected[n]


def test_periodic3_random_suite():
    rng = random.Random(223)
    for _ in range(10):
        abc = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 2)) for _ in range(3))
        inits = tuple(Fraction(rng.randint(0, 4)) for _ in range(3))
        if not any(inits):
            inits = (Fraction(1),) + inits[1:]
        for n in range(2, 25):
            assert decompose_periodic3(*abc, inits, n).holds


def test_periodic3_input_checks():
    with pytest.raises(ValueError):
        decompose_periodic3(1, 2, 3, (1, 0), 5)
    with pytest.raises(ValueError):
        decompose_periodic3(1, 2, 3, (1, 0, 0), 1)


# -------------------------------------------------------------- periodic-k ----


def test_periodic_k_unit_leading_reduces_to_knacci_like():
    wk = decompose_periodic_k((1, 1, 1, 1), (1, 2, 0, 3), 9)
    wr = decompose_knacci_like(unit_spec(4, (1, 2, 0, 3)), 9)
    assert wk.holds and wr.holds
    assert wk.rhs == wr.rhs


def test_periodic_k_basis_identity():
    w = decompose_periodic_k((1, 2, 3), (0, 0, 1), 7)
    assert w.holds
    assert w.rhs == run_periodic((1, 2, 3), (0, 0, 1), 8)[7]


def test_periodic_k_printed_holds_on_random_draws():
    rng = random.Random(224)
    for _ in range(8):
        k = rng.randint(3, 5)
        leading = tuple(Fraction(rng.randint(1, 5)) for _ in range(k))
        inits = tuple(Fraction(rng.randint(0, 4)) for _ in range(k))
        if not any(inits):
            inits = inits[:-1] + (Fraction(2),)
        for n in range(k, k + 20):
            assert decompose_periodic_k(leading, inits, n, variant="printed").holds


def test_periodic_k_shift_from_zero_is_refuted():
    w = decompose_periodic_k((1, 2, 3, 4), (0, 1, 0, 0), 8, variant="shift-from-zero")
    assert not w.holds
    assert (w.lhs, w.rhs) == (58, 80)
    # and the printed indexing passes on the very same input
    assert decompose_periodic_k((1, 2, 3, 4), (0, 1, 0, 0), 8, variant="printed").holds


@pytest.mark.parametrize(
    "decompose, leading_args",
    [(decompose_canonical, ()), (decompose_periodic2, (2, 3)), (decompose_periodic2_edson, (2, 3))],
    ids=["canonical", "periodic2", "periodic2-edson"],
)
@pytest.mark.parametrize("inits", [(1,), (1, 2, 3)], ids=["one-init", "three-inits"])
def test_order_two_identities_reject_wrong_init_count(decompose, leading_args, inits):
    with pytest.raises(ValueError, match=f"need exactly 2 initial terms, got {len(inits)}"):
        decompose(*leading_args, inits, 3)


def test_periodic_k_input_checks():
    with pytest.raises(ValueError):
        decompose_periodic_k((1, 2), (0, 1), 4)  # k < 3
    with pytest.raises(ValueError):
        decompose_periodic_k((1, 2, 3), (0, 1), 4)  # length mismatch
    with pytest.raises(ValueError):
        decompose_periodic_k((1, 2, 3), (0, 0, 1), 2)  # below k
    with pytest.raises(ValueError):
        decompose_periodic_k((1, 2, 3), (0, 0, 1), 5, variant="bogus")


# ---------------------------------------------------------------- witness ----


def test_witness_internal_consistency_enforced():
    with pytest.raises(ValueError):
        DecompositionWitness(
            identity="x",
            n=3,
            lhs=Fraction(1),
            rhs=Fraction(2),
            terms=(WitnessTerm("t", Fraction(1), Fraction(1)),),
        )


def test_witness_holds_flag_is_honest():
    w = DecompositionWitness(
        identity="x",
        n=3,
        lhs=Fraction(5),
        rhs=Fraction(4),
        terms=(WitnessTerm("t", Fraction(2), Fraction(2)),),
    )
    assert not w.holds


def test_witness_serialization():
    w = decompose_periodic2("1/5", "3/10", (2, 3), 3)
    data = witness_to_dict(w)
    assert data["identity"] == "periodic2"
    assert data["n"] == 3
    assert data["holds"] is True
    assert data["lhs"] == data["rhs"]
    assert {t["label"] for t in data["terms"]} == {"F[a,b](3)", "F[b,a](2)"}
    assert "periodic2" in dump_witness(w)
