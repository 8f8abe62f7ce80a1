"""Sequence specifications and exact term evaluation.

Two families are covered:

* :class:`RecurrenceSpec` -- constant-coefficient order-k recurrences
  (k-step Fibonacci, Horadam-type sequences, and their arbitrary-initial-term
  variants), and
* :class:`PeriodicSpec` -- variants where the coefficient of the most recent
  term cycles with the index's residue class while the remaining trailing
  coefficients are all 1.

Indexing is 0-based throughout: the k-step Fibonacci basis starts with k-1
zeros and a single 1 at index k-1.  Negative indices are not supported.

All arithmetic is exact; nothing here ever rounds.  Each spec is scaled
once to an integer recurrence (:func:`_scaled`) that one stepping loop runs
for both spec kinds and that :func:`evaluate_fast` solves by Fiduccia's
x^n mod charpoly; a :class:`fractions.Fraction` is formed only for a
returned value.
"""

from __future__ import annotations

import json
import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .rationals import RationalLike, as_rational, as_rationals, format_rational

__all__ = [
    "RecurrenceSpec",
    "PeriodicSpec",
    "SequenceSpec",
    "knacci_spec",
    "horadam_spec",
    "periodic_spec",
    "periodic_basis",
    "evaluate",
    "evaluate_fast",
    "evaluate_periodic",
    "evaluate_floor_indexed",
    "terms",
    "spec_to_dict",
    "spec_from_dict",
    "dump_spec",
    "load_spec",
]


@dataclass(frozen=True)
class RecurrenceSpec:
    """Order-k constant-coefficient recurrence: t(n) = sum_i coeffs[i-1]*t(n-i).

    ``inits`` are the terms at indices 0..k-1.  At least one initial term
    must be nonzero (an identically-zero sequence is outside every family
    this package models).
    """

    k: int
    coeffs: tuple[Fraction, ...]
    inits: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError(f"order k must be an integer >= 2, got {self.k!r}")
        object.__setattr__(self, "coeffs", as_rationals(self.coeffs))
        object.__setattr__(self, "inits", as_rationals(self.inits))
        if len(self.coeffs) != self.k:
            raise ValueError(f"need exactly {self.k} coefficients, got {len(self.coeffs)}")
        if len(self.inits) != self.k:
            raise ValueError(f"need exactly {self.k} initial terms, got {len(self.inits)}")
        if not any(self.inits):
            raise ValueError("at least one initial term must be nonzero")
        # hashing Fractions is costly and specs are cache keys, so memoize
        object.__setattr__(self, "_hash", hash((self.k, self.coeffs, self.inits)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class PeriodicSpec:
    """Order-k recurrence whose leading coefficient cycles with period p.

    For a term at index n >= k:

        t(n) = leading[n mod p] * t(n-1) + t(n-2) + ... + t(n-k)

    so ``leading[0]`` applies at indices congruent to 0, ``leading[1]`` at
    indices congruent to 1, and so on.  In the 2-periodic case this puts the
    first leading coefficient on even indices and the second on odd ones.
    """

    p: int
    leading: tuple[Fraction, ...]
    k: int
    inits: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or self.p < 2:
            raise ValueError(f"period p must be an integer >= 2, got {self.p!r}")
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError(f"order k must be an integer >= 2, got {self.k!r}")
        object.__setattr__(self, "leading", as_rationals(self.leading))
        object.__setattr__(self, "inits", as_rationals(self.inits))
        if len(self.leading) != self.p:
            raise ValueError(f"need exactly {self.p} leading coefficients, got {len(self.leading)}")
        if len(self.inits) != self.k:
            raise ValueError(f"need exactly {self.k} initial terms, got {len(self.inits)}")
        if not any(self.inits):
            raise ValueError("at least one initial term must be nonzero")
        object.__setattr__(self, "_hash", hash((self.p, self.leading, self.k, self.inits)))

    def __hash__(self) -> int:
        return self._hash


SequenceSpec = Union[RecurrenceSpec, PeriodicSpec]


def knacci_spec(k: int) -> RecurrenceSpec:
    """The k-step Fibonacci basis: unit coefficients, inits 0,...,0,1.

    k=2 is Fibonacci, k=3 Tribonacci, k=4 Tetranacci, and so on.  Order 1
    is rejected; the family starts at k=2.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k-step Fibonacci needs integer k >= 2, got {k!r}")
    ones = (Fraction(1),) * k
    inits = (Fraction(0),) * (k - 1) + (Fraction(1),)
    return RecurrenceSpec(k=k, coeffs=ones, inits=inits)


def horadam_spec(k: int, coeffs: Iterable[RationalLike]) -> RecurrenceSpec:
    """Order-k Horadam-type basis: given coefficients, inits 0,...,0,1."""
    qs = as_rationals(coeffs)
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"order k must be an integer >= 2, got {k!r}")
    if len(qs) != k:
        raise ValueError(f"need exactly {k} coefficients, got {len(qs)}")
    inits = (Fraction(0),) * (k - 1) + (Fraction(1),)
    return RecurrenceSpec(k=k, coeffs=qs, inits=inits)


def periodic_spec(leading: Iterable[RationalLike], inits: Iterable[RationalLike]) -> PeriodicSpec:
    """Periodic spec with period = len(leading) and order = len(inits)."""
    lead = as_rationals(leading)
    init = as_rationals(inits)
    return PeriodicSpec(p=len(lead), leading=lead, k=len(init), inits=init)


def periodic_basis(leading: Iterable[RationalLike]) -> PeriodicSpec:
    """Periodic basis sequence: order = period, inits 0,...,0,1."""
    lead = as_rationals(leading)
    k = len(lead)
    inits = (Fraction(0),) * (k - 1) + (Fraction(1),)
    return PeriodicSpec(p=k, leading=lead, k=k, inits=inits)


def _scaled(spec: SequenceSpec) -> tuple[tuple[tuple[int, ...], ...], list[int], int, int]:
    """Integer form ``(rows, s0, E, D)``: s(n) = E*D^n*t(n) is an integer.

    D and E are the lcms of the coefficient and initial-term denominators,
    s0 is s(0..k-1) and s(n) = sum_i rows[n mod p][i-1]*s(n-i) with
    rows[r][i-1] = c_i*D^i: one row (p = 1) for a constant spec, and rows
    with c = (leading[r], 1, ..., 1) for a periodic one.
    """
    if isinstance(spec, RecurrenceSpec):
        coeff_rows = (spec.coeffs,)
    else:
        coeff_rows = tuple((lead,) + (1,) * (spec.k - 1) for lead in spec.leading)
    D = math.lcm(*(c.denominator for row in coeff_rows for c in row))
    E = math.lcm(*(v.denominator for v in spec.inits))
    rows = tuple(
        tuple(c.numerator * (D // c.denominator) * D ** (i - 1) for i, c in enumerate(row, start=1))
        for row in coeff_rows
    )
    s0 = [v.numerator * (E // v.denominator) * D**j for j, v in enumerate(spec.inits)]
    return rows, s0, E, D


def _step(rows: tuple[tuple[int, ...], ...], s: list[int], count: int) -> list[int]:
    """Append scaled terms to ``s`` in place until it holds ``count``; return it."""
    p, k = len(rows), len(rows[0])
    while len(s) < count:
        s.append(sum(map(operator.mul, rows[len(s) % p], reversed(s[-k:]))))
    return s


class _PrefixCache:
    """Per-spec memo of the scaled integer prefix s(0), s(1), ... (see :func:`_scaled`).

    Identity verification sweeps the same handful of specs over long index
    ranges; memoizing prefixes keeps those sweeps linear overall.  The lock
    guards the LRU of at most ``max_specs`` specs and the growing lists.
    """

    def __init__(self, max_specs: int = 128):
        self._max_specs = max_specs
        self._lock = threading.Lock()
        self._prefixes: OrderedDict[SequenceSpec, tuple] = OrderedDict()

    def window(self, spec: SequenceSpec, lo: int, hi: int) -> list[Fraction]:
        """Terms at indices lo..hi-1."""
        with self._lock:
            entry = self._prefixes.pop(spec, None) or _scaled(spec)
            self._prefixes[spec] = entry  # most recently used last
            if len(self._prefixes) > self._max_specs:
                self._prefixes.popitem(last=False)
            rows, s, E, D = entry
            values = _step(rows, s, hi)[lo:hi]
        return [Fraction(v, E * D**n) for n, v in enumerate(values, start=lo)]


_CACHE = _PrefixCache()


def _check_index(n: int) -> None:
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"index must be an integer >= 0, got {n!r}")


def evaluate(spec: SequenceSpec, n: int) -> Fraction:
    """Exact term at index n, computed by the defining recurrence."""
    _check_index(n)
    return _CACHE.window(spec, n, n + 1)[0]


def terms(spec: SequenceSpec, count: int) -> list[Fraction]:
    """The first ``count`` terms (indices 0..count-1), one-shot: no prefix cache is touched."""
    if count < 0:
        raise ValueError("count must be >= 0")
    rows, s0, E, D = _scaled(spec)
    return [Fraction(v, E * D**n) for n, v in enumerate(_step(rows, s0[:count], count))]


def evaluate_periodic(spec: PeriodicSpec, n: int) -> Fraction:
    """Exact term of a periodic recurrence at index n."""
    if not isinstance(spec, PeriodicSpec):
        raise TypeError("evaluate_periodic expects a PeriodicSpec")
    return evaluate(spec, n)


def evaluate_floor_indexed(spec: PeriodicSpec, x) -> Fraction:
    """Term at index floor(x) for real x >= 0.

    The floor-indexed extension inherits every property of the
    integer-indexed sequence, so this simply floors and delegates.
    """
    if isinstance(x, str):
        x = as_rational(x)
    if x < 0:
        raise ValueError(f"floor-indexed evaluation needs x >= 0, got {x!r}")
    return evaluate_periodic(spec, math.floor(x))


def _mulmod(u: list[int], v: list[int], a: tuple[int, ...]) -> list[int]:
    """u*v modulo x^k - a_1*x^(k-1) - ... - a_k; lists hold the coefficients of x^0..x^(k-1)."""
    k = len(a)
    prod = [0] * (2 * k - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            prod[i + j] += ui * vj
    for d in range(2 * k - 2, k - 1, -1):  # x^d = sum_i a_i*x^(d-i)
        for i, ai in enumerate(a, start=1):
            prod[d - i] += prod[d] * ai
    return prod[:k]


def evaluate_fast(spec: RecurrenceSpec, n: int) -> Fraction:
    """Exact term at index n by Fiduccia's method, in O(k^2 log n) integer products.

    For the scaled recurrence s(n) = sum_i a_i*s(n-i) (see :func:`_scaled`),
    x^n = sum_j r_j*x^j modulo its characteristic polynomial gives
    s(n) = sum_j r_j*s(j).  Agrees exactly with :func:`evaluate`.
    """
    if not isinstance(spec, RecurrenceSpec):
        raise TypeError("evaluate_fast expects a constant-coefficient RecurrenceSpec")
    _check_index(n)
    (a,), s0, E, D = _scaled(spec)
    x = [0, 1] + [0] * (spec.k - 2)
    r = [1] + [0] * (spec.k - 1)
    for bit in bin(n)[2:]:
        r = _mulmod(r, r, a)
        if bit == "1":
            r = _mulmod(r, x, a)
    return Fraction(sum(map(operator.mul, r, s0)), E * D**n)


def spec_to_dict(spec: SequenceSpec) -> dict:
    """JSON-ready mapping; rationals rendered as ``p/q`` strings."""
    if isinstance(spec, RecurrenceSpec):
        return {
            "kind": "constant",
            "k": spec.k,
            "coeffs": [format_rational(c) for c in spec.coeffs],
            "inits": [format_rational(v) for v in spec.inits],
        }
    if isinstance(spec, PeriodicSpec):
        return {
            "kind": "periodic",
            "k": spec.k,
            "leading": [format_rational(c) for c in spec.leading],
            "inits": [format_rational(v) for v in spec.inits],
        }
    raise TypeError(f"not a sequence spec: {spec!r}")


def spec_from_dict(data: dict) -> SequenceSpec:
    try:
        kind = data["kind"]
        inits = as_rationals(data["inits"])
        k = int(data["k"])
        if kind == "constant":
            return RecurrenceSpec(k=k, coeffs=as_rationals(data["coeffs"]), inits=inits)
        if kind == "periodic":
            lead = as_rationals(data["leading"])
            return PeriodicSpec(p=len(lead), leading=lead, k=k, inits=inits)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed sequence spec: {exc}") from exc
    raise ValueError(f"unknown spec kind {kind!r} (expected 'constant' or 'periodic')")


def dump_spec(spec: SequenceSpec) -> str:
    return json.dumps(spec_to_dict(spec), indent=2)


def load_spec(text: str) -> SequenceSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec is not valid JSON: {exc}") from exc
    return spec_from_dict(data)
