import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiblike.sequences import (
    PeriodicSpec,
    RecurrenceSpec,
    dump_spec,
    evaluate,
    evaluate_fast,
    evaluate_floor_indexed,
    evaluate_periodic,
    horadam_spec,
    knacci_spec,
    load_spec,
    periodic_basis,
    periodic_spec,
    spec_from_dict,
    spec_to_dict,
    terms,
)

from oracles import run_constant, run_periodic

FAMOUS_ROWS = {
    2: [0, 1, 1, 2, 3, 5, 8, 13, 21, 34],
    3: [0, 0, 1, 1, 2, 4, 7, 13, 24, 44, 81],
    4: [0, 0, 0, 1, 1, 2, 4, 8, 15, 29, 56, 108],
    5: [0, 0, 0, 0, 1, 1, 2, 4, 8, 16, 31, 61, 120],
}


@pytest.mark.parametrize("k", sorted(FAMOUS_ROWS))
def test_knacci_table_rows(k):
    row = FAMOUS_ROWS[k]
    assert terms(knacci_spec(k), len(row)) == row


def test_knacci_spec_shape():
    spec = knacci_spec(5)
    assert spec.coeffs == (1, 1, 1, 1, 1)
    assert spec.inits == (0, 0, 0, 0, 1)
    assert knacci_spec(2).inits == (0, 1)


def test_knacci_rejects_order_one():
    with pytest.raises(ValueError):
        knacci_spec(1)


def test_horadam_spec():
    assert horadam_spec(2, (1, 1)) == knacci_spec(2)
    spec = horadam_spec(3, (3, 2, 1))
    assert spec.coeffs == (3, 2, 1)
    assert spec.inits == (0, 0, 1)
    with pytest.raises(ValueError):
        horadam_spec(3, (1, 2))
    with pytest.raises(ValueError):
        horadam_spec(1, (1,))


def test_spec_validation():
    with pytest.raises(ValueError):
        RecurrenceSpec(k=2, coeffs=(1, 1, 1), inits=(0, 1))
    with pytest.raises(ValueError):
        RecurrenceSpec(k=2, coeffs=(1, 1), inits=(0, 0))
    with pytest.raises(TypeError):
        RecurrenceSpec(k=2, coeffs=(0.2, 1), inits=(0, 1))  # floats are inexact
    with pytest.raises(ValueError):
        PeriodicSpec(p=2, leading=(1,), k=2, inits=(0, 1))


def test_lucas_evaluation():
    lucas = RecurrenceSpec(k=2, coeffs=(1, 1), inits=(2, 1))
    assert terms(lucas, 6) == [2, 1, 3, 4, 7, 11]
    assert evaluate(lucas, 5) == 11


def test_tribonacci_slice():
    assert [evaluate(knacci_spec(3), n) for n in range(9)] == [0, 0, 1, 1, 2, 4, 7, 13, 24]


def test_evaluate_matches_oracle_on_random_specs():
    rng = random.Random(1105)
    for _ in range(25):
        k = rng.randint(2, 6)
        coeffs = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(k)]
        inits = [Fraction(rng.randint(0, 8)) for _ in range(k)]
        if not any(inits):
            inits[-1] = Fraction(1)
        spec = RecurrenceSpec(k=k, coeffs=tuple(coeffs), inits=tuple(inits))
        assert terms(spec, 60) == run_constant(coeffs, inits, 60)


def test_recurrence_closure():
    rng = random.Random(7)
    for _ in range(10):
        k = rng.randint(2, 6)
        coeffs = tuple(Fraction(rng.randint(1, 4)) for _ in range(k))
        inits = tuple(Fraction(rng.randint(0, 5)) for _ in range(k - 1)) + (Fraction(1),)
        spec = RecurrenceSpec(k=k, coeffs=coeffs, inits=inits)
        for n in range(k, 80):
            assert evaluate(spec, n) == sum(
                c * evaluate(spec, n - i) for i, c in enumerate(coeffs, start=1)
            )


def test_evaluate_fast_equals_naive_randomized():
    rng = random.Random(2024)
    for _ in range(40):
        k = rng.randint(2, 7)
        coeffs = tuple(Fraction(rng.randint(1, 5)) for _ in range(k))
        inits = tuple(Fraction(rng.randint(0, 9)) for _ in range(k))
        if not any(inits):
            inits = inits[:-1] + (Fraction(1),)
        spec = RecurrenceSpec(k=k, coeffs=coeffs, inits=inits)
        n = rng.randint(0, 300)
        assert evaluate_fast(spec, n) == evaluate(spec, n)


def test_evaluate_fast_initial_segment_and_deep_term():
    spec = knacci_spec(5)
    for n in range(5):
        assert evaluate_fast(spec, n) == spec.inits[n]
    assert evaluate_fast(spec, 500) == run_constant(spec.coeffs, spec.inits, 501)[500]
    assert evaluate_fast(knacci_spec(2), 9) == 34


def test_evaluate_fast_rejects_periodic():
    with pytest.raises(TypeError):
        evaluate_fast(periodic_basis((1, 1)), 5)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=120),
    st.randoms(use_true_random=False),
)
def test_evaluate_fast_equals_naive_property(k, n, rng):
    # negative, zero and rational coefficients; rational inits (E > 1 with D > 1)
    coeffs = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k))
    inits = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k - 1)) + (Fraction(1, 3),)
    spec = RecurrenceSpec(k=k, coeffs=coeffs, inits=inits)
    assert evaluate_fast(spec, n) == evaluate(spec, n) == run_constant(coeffs, inits, n + 1)[n]


@pytest.mark.parametrize("k", range(2, 9))
def test_kernel_edge_indices_match_oracle(k):
    # D = lcm(2, 3, 5) and E = lcm(3, 4, 7) both exceed 1; the coefficients
    # include a negative and (for k >= 3) a zero one
    coeffs = ([Fraction(5, 2), Fraction(-4, 3), Fraction(0)] + [Fraction(7, 5)] * k)[:k]
    leading = [Fraction(3, 2), Fraction(-1, 3), Fraction(0), Fraction(6, 5)][: k % 3 + 2]
    inits = ([Fraction(1, 3), Fraction(-2, 7), Fraction(0)] + [Fraction(5, 4)] * k)[:k]
    indices = {k - 1, k, k + 1} | {2**m - d for m in range(1, 9) for d in (0, 1)}
    count = max(indices) + 1
    for spec, oracle in [
        (RecurrenceSpec(k=k, coeffs=tuple(coeffs), inits=tuple(inits)), run_constant(coeffs, inits, count)),
        (periodic_spec(leading, inits), run_periodic(leading, inits, count)),
    ]:
        for n in sorted(indices):
            assert evaluate(spec, n) == oracle[n]
            if isinstance(spec, RecurrenceSpec):
                assert evaluate_fast(spec, n) == oracle[n]
        for c in range(k + 1):
            assert terms(spec, c) == oracle[:c]


def test_periodic_examples():
    assert evaluate_periodic(periodic_spec((2, 3), (0, 1)), 5) == 55
    assert terms(periodic_spec((1, 1), (0, 1)), 10) == FAMOUS_ROWS[2]
    assert evaluate_periodic(periodic_basis((1, 1, 1)), 7) == 13


def test_periodic_matches_oracle():
    rng = random.Random(99)
    for _ in range(20):
        p = rng.randint(2, 5)
        leading = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(p)]
        inits = [Fraction(rng.randint(0, 6)) for _ in range(p)]
        if not any(inits):
            inits[-1] = Fraction(1)
        spec = periodic_spec(leading, inits)
        assert terms(spec, 50) == run_periodic(leading, inits, 50)


def test_periodic_constant_leading_reduces_to_constant_spec():
    rng = random.Random(5)
    for _ in range(10):
        k = rng.randint(2, 5)
        q = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        inits = tuple(Fraction(rng.randint(0, 5)) for _ in range(k - 1)) + (Fraction(1),)
        periodic = periodic_spec((q,) * k, inits)
        constant = RecurrenceSpec(k=k, coeffs=(q,) + (Fraction(1),) * (k - 1), inits=inits)
        assert terms(periodic, 60) == terms(constant, 60)


def test_periodic_residue_labels():
    # leading[j] applies at indices congruent to j: check a 3-periodic hand trace.
    spec = periodic_spec((1, 2, 3), (0, 0, 1))
    # t3 uses leading[0]=1, t4 leading[1]=2, t5 leading[2]=3
    assert terms(spec, 6) == [0, 0, 1, 1, 3, 11]


def test_evaluate_periodic_rejects_constant_spec():
    with pytest.raises(TypeError):
        evaluate_periodic(knacci_spec(2), 3)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        evaluate(knacci_spec(2), -1)


def test_floor_indexed():
    spec = periodic_spec((2, 3), (0, 1))
    assert evaluate_floor_indexed(spec, 5.9) == 55
    assert evaluate_floor_indexed(spec, "5.9") == 55
    assert evaluate_floor_indexed(spec, Fraction(59, 10)) == 55
    assert evaluate_floor_indexed(spec, 7.0) == evaluate_periodic(spec, 7)
    with pytest.raises(ValueError):
        evaluate_floor_indexed(spec, -0.5)


def test_floor_indexed_fractional_parameters():
    spec = periodic_spec(("0.2", "0.3"), (2, 3))
    assert evaluate_floor_indexed(spec, 2.5) == Fraction(13, 5)


def test_knacci_growth():
    for k in range(2, 7):
        row = terms(knacci_spec(k), 61)
        assert all(v >= 0 and v.denominator == 1 for v in row)
        assert row[k - 1] == row[k] == 1
        assert all(row[n + 1] > row[n] for n in range(k, 60))


def test_concurrent_evaluation_is_consistent():
    # values are immutable and the prefix cache is locked, so hammering the
    # same specs from several threads must agree with a cold reference run
    import concurrent.futures

    specs = [knacci_spec(k) for k in range(2, 6)] + [
        periodic_spec((2, 3), (0, 1)),
        periodic_spec(("3/2", "-2/5", "7/3"), ("1/2", "-3/4", 2)),
    ]
    expected = {spec: run_periodic(spec.leading, spec.inits, 201)
                if isinstance(spec, PeriodicSpec)
                else run_constant(spec.coeffs, spec.inits, 201)
                for spec in specs}

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(200):
            spec = rng.choice(specs)
            n = rng.randint(0, 200)
            if evaluate(spec, n) != expected[spec][n]:
                return False
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the cache's read-modify-write too
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            assert all(pool.map(worker, range(8)))
    finally:
        sys.setswitchinterval(interval)


def test_spec_serialization_round_trip():
    specs = [
        knacci_spec(4),
        horadam_spec(3, (3, 2, 1)),
        RecurrenceSpec(k=2, coeffs=(Fraction(1, 5), 1), inits=(2, 3)),
        periodic_spec(("0.2", "0.3"), (2, 3)),
        periodic_basis((1, 2, 3, 4)),
    ]
    for spec in specs:
        assert load_spec(dump_spec(spec)) == spec
        assert spec_from_dict(spec_to_dict(spec)) == spec


def test_spec_serialization_format():
    data = spec_to_dict(periodic_spec(("0.2", "0.3"), (2, 3)))
    assert data == {
        "kind": "periodic",
        "k": 2,
        "leading": ["1/5", "3/10"],
        "inits": ["2", "3"],
    }


def test_spec_deserialization_errors():
    with pytest.raises(ValueError):
        load_spec("not json")
    with pytest.raises(ValueError):
        spec_from_dict({"kind": "nope", "k": 2, "inits": ["0", "1"]})
    with pytest.raises(ValueError):
        spec_from_dict({"kind": "constant", "k": 2, "coeffs": ["1"], "inits": ["0", "1"]})
