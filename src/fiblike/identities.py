"""Decomposition identities for Fibonacci-like and periodic sequences.

Every operation here rewrites a term of a sequence with arbitrary initial
values as an initial-term-weighted combination of shifted *basis* sequences
(the ones starting 0,...,0,1), and returns a :class:`DecompositionWitness`
recording both sides plus each contributing term.  Nothing asserts: the
witness carries a ``holds`` verdict so a formula can be checked by brute
force without presupposing that it is true.  That matters for the ternary
and general k-periodic formulas, whose printed shift indexing is worth
adjudicating empirically (see :func:`decompose_periodic_k` and its
``variant`` parameter).

The basis sequences inside the periodic identities are built by rotating
the parameter tuple of the same :class:`~fiblike.sequences.PeriodicSpec`
machinery; there is no second evaluation code path.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .rationals import RationalLike, as_rational, as_rationals, format_rational
from .sequences import (
    _CACHE,
    RecurrenceSpec,
    evaluate,
    horadam_spec,
    knacci_spec,
    periodic_basis,
    periodic_spec,
)

__all__ = [
    "WitnessTerm",
    "DecompositionWitness",
    "decompose_canonical",
    "decompose_knacci_like",
    "decompose_horadam_like",
    "decompose_periodic2",
    "periodic2_swap_relation",
    "decompose_periodic2_edson",
    "decompose_periodic3",
    "decompose_periodic_k",
    "PERIODIC_K_VARIANTS",
    "IdentityEntry",
    "IDENTITIES",
    "witness_to_dict",
    "dump_witness",
]


@dataclass(frozen=True)
class WitnessTerm:
    label: str
    coefficient: Fraction
    basis_value: Fraction

    @property
    def value(self) -> Fraction:
        return self.coefficient * self.basis_value


@dataclass(frozen=True)
class DecompositionWitness:
    """Evidence record for one identity check at one index.

    ``rhs`` always equals the sum of the recorded terms (enforced at
    construction); ``holds`` is true exactly when lhs == rhs.
    """

    identity: str
    n: int
    lhs: Fraction
    rhs: Fraction
    terms: tuple[WitnessTerm, ...]

    def __post_init__(self) -> None:
        total = sum((t.value for t in self.terms), Fraction(0))
        if total != self.rhs:
            raise ValueError(f"witness is inconsistent: sum of terms {total} != rhs {self.rhs}")

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def _witness(identity: str, n: int, lhs: Fraction, terms: Sequence[WitnessTerm]) -> DecompositionWitness:
    rhs = sum((t.value for t in terms), Fraction(0))
    return DecompositionWitness(identity=identity, n=n, lhs=lhs, rhs=rhs, terms=tuple(terms))


def _initial_terms(inits: Sequence[RationalLike], k: int) -> tuple[Fraction, ...]:
    values = as_rationals(inits)
    if len(values) != k:
        raise ValueError(f"need exactly {k} initial terms, got {len(values)}")
    return values


def decompose_canonical(inits: Sequence[RationalLike], n: int) -> DecompositionWitness:
    """Order-2 canonical-basis split: S(n) = S1*F(n) + S0*F(n-1).

    The Fibonacci sequence and its shift form a basis of the space of
    sequences obeying S(n) = S(n-1) + S(n-2), so any such sequence is the
    initial-value-weighted combination above.
    """
    s0, s1 = _initial_terms(inits, 2)
    if n < 1:
        raise ValueError(f"canonical decomposition needs n >= 1, got {n}")
    fib = knacci_spec(2)
    lhs = evaluate(RecurrenceSpec(k=2, coeffs=(Fraction(1), Fraction(1)), inits=(s0, s1)), n)
    terms = [
        WitnessTerm(f"F({n})", s1, evaluate(fib, n)),
        WitnessTerm(f"F({n - 1})", s0, evaluate(fib, n - 1)),
    ]
    return _witness("canonical", n, lhs, terms)


def decompose_knacci_like(spec: RecurrenceSpec, n: int) -> DecompositionWitness:
    """Split a k-step Fibonacci-like term over the k-nacci basis.

    For unit coefficients and n >= k:

        G(n) = G(0)*F(n-1)
             + sum_{m=0}^{k-3} G(m+1) * [F(n-1) + F(n-2) + ... + F(n-2-m)]
             + G(k-1)*F(n)

    where F is the k-nacci basis.  The middle sum is empty for k = 2, which
    reduces the formula to the canonical order-2 split.
    """
    if not isinstance(spec, RecurrenceSpec):
        raise TypeError("decompose_knacci_like expects a RecurrenceSpec")
    if any(c != 1 for c in spec.coeffs):
        raise ValueError("coefficients must all be 1; use decompose_horadam_like otherwise")
    k = spec.k
    if n < k:
        raise ValueError(f"decomposition needs n >= k = {k}, got {n}")
    *older, top = _CACHE.window(knacci_spec(k), n - k + 1, n + 1)  # F(n-k+1), ..., F(n)
    inits = spec.inits
    lhs = evaluate(spec, n)
    block, label = older[-1], f"F({n - 1})"
    terms = [WitnessTerm(label, inits[0], block)]
    for m in range(k - 2):
        block += older[-2 - m]
        label += f"+F({n - 2 - m})"
        terms.append(WitnessTerm(label, inits[m + 1], block))
    terms.append(WitnessTerm(f"F({n})", inits[k - 1], top))
    return _witness("knacci-like", n, lhs, terms)


def decompose_horadam_like(
    uspec: RecurrenceSpec, vinits: Sequence[RationalLike], n: int
) -> DecompositionWitness:
    """Split an order-k Horadam-like term over the Horadam basis.

    With basis U (inits 0,...,0,1) sharing the coefficients q1..qk, and V the
    sequence with initial terms ``vinits``, for n >= k:

        V(n) = qk*V(0)*U(n-1)
             + sum_{m=0}^{k-3} V(m+1) * [ sum_{j=0}^{m+1} q(k-m-1+j)*U(n-1-j) ]
             + V(k-1)*U(n)

    (1-based q indexing).  With unit coefficients this reduces term by term
    to :func:`decompose_knacci_like`.
    """
    if not isinstance(uspec, RecurrenceSpec):
        raise TypeError("decompose_horadam_like expects a RecurrenceSpec basis")
    k = uspec.k
    basis_inits = (Fraction(0),) * (k - 1) + (Fraction(1),)
    if uspec.inits != basis_inits:
        raise ValueError("uspec must be a basis spec with inits (0, ..., 0, 1)")
    vin = _initial_terms(vinits, k)
    if not any(vin):
        raise ValueError("at least one initial term must be nonzero")
    if n < k:
        raise ValueError(f"decomposition needs n >= k = {k}, got {n}")
    q = uspec.coeffs  # q[i-1] is q_i
    *older, top = _CACHE.window(uspec, n - k + 1, n + 1)  # U(n-k+1), ..., U(n)
    lhs = evaluate(RecurrenceSpec(k=k, coeffs=q, inits=vin), n)
    terms = [WitnessTerm(f"q{k}*U({n - 1})", vin[0], q[k - 1] * older[-1])]
    for m in range(k - 2):
        block = Fraction(0)
        labels = []
        for j in range(m + 2):
            qi = k - (m + 1) + j  # 1-based coefficient index
            block += q[qi - 1] * older[-1 - j]
            labels.append(f"q{qi}*U({n - 1 - j})")
        terms.append(WitnessTerm("+".join(labels), vin[m + 1], block))
    terms.append(WitnessTerm(f"U({n})", vin[k - 1], top))
    return _witness("horadam-like", n, lhs, terms)


def decompose_periodic2(
    a: RationalLike, b: RationalLike, inits: Sequence[RationalLike], n: int
) -> DecompositionWitness:
    """2-periodic split with a swapped-parameter second basis.

    G(n) = G(1)*F[a,b](n) + G(0)*F[b,a](n-1), where F[a,b] is the 2-periodic
    basis applying ``a`` on even indices and ``b`` on odd ones, and F[b,a]
    the same machinery with the parameters exchanged.
    """
    a = as_rational(a)
    b = as_rational(b)
    g0, g1 = _initial_terms(inits, 2)
    if n < 1:
        raise ValueError(f"decomposition needs n >= 1, got {n}")
    lhs = evaluate(periodic_spec((a, b), (g0, g1)), n)
    terms = [
        WitnessTerm(f"F[a,b]({n})", g1, evaluate(periodic_basis((a, b)), n)),
        WitnessTerm(f"F[b,a]({n - 1})", g0, evaluate(periodic_basis((b, a)), n - 1)),
    ]
    return _witness("periodic2", n, lhs, terms)


def periodic2_swap_relation(a: RationalLike, b: RationalLike, n: int) -> DecompositionWitness:
    """Parameter-swap relation: F[b,a](n-1) = (b/a)^(n mod 2) * F[a,b](n-1).

    The exponent is 0 for even n and 1 for odd n, so swapping parameters
    only rescales odd-position terms by b/a.  Requires a != 0.
    """
    a = as_rational(a)
    b = as_rational(b)
    if a == 0:
        raise ValueError("swap relation needs a != 0")
    if n < 1:
        raise ValueError(f"swap relation needs n >= 1, got {n}")
    lhs = evaluate(periodic_basis((b, a)), n - 1)
    scale = (b / a) ** (n % 2)
    terms = [WitnessTerm(f"(b/a)^{n % 2}*F[a,b]({n - 1})", scale, evaluate(periodic_basis((a, b)), n - 1))]
    return _witness("swap", n, lhs, terms)


def decompose_periodic2_edson(
    a: RationalLike, b: RationalLike, inits: Sequence[RationalLike], n: int
) -> DecompositionWitness:
    """2-periodic split over a single basis with a parity rescale.

    G(n) = G(1)*F[a,b](n) + G(0)*(b/a)^(n mod 2)*F[a,b](n-1).  Equivalent to
    :func:`decompose_periodic2` via :func:`periodic2_swap_relation`; requires
    a != 0.
    """
    a = as_rational(a)
    b = as_rational(b)
    if a == 0:
        raise ValueError("decomposition needs a != 0")
    g0, g1 = _initial_terms(inits, 2)
    if n < 1:
        raise ValueError(f"decomposition needs n >= 1, got {n}")
    basis = periodic_basis((a, b))
    lhs = evaluate(periodic_spec((a, b), (g0, g1)), n)
    scale = (b / a) ** (n % 2)
    terms = [
        WitnessTerm(f"F[a,b]({n})", g1, evaluate(basis, n)),
        WitnessTerm(f"(b/a)^{n % 2}*F[a,b]({n - 1})", g0 * scale, evaluate(basis, n - 1)),
    ]
    return _witness("periodic2-edson", n, lhs, terms)


def _rotate(values: tuple, j: int) -> tuple:
    j %= len(values)
    return values[j:] + values[:j]


def decompose_periodic3(
    a: RationalLike,
    b: RationalLike,
    c: RationalLike,
    uinits: Sequence[RationalLike],
    n: int,
) -> DecompositionWitness:
    """Ternary 3-periodic split over rotated basis sequences, as printed.

    U(n) = U(0)*T[b,c,a](n-1)
         + U(1)*( T[b,c,a](n-1) + T[c,a,b](n-2) )
         + U(2)*T[a,b,c](n)

    where T[x,y,z] is the 3-periodic basis with leading tuple (x,y,z).  Note
    that T[b,c,a](n-1) appears both as the U(0) weight and inside the U(1)
    weight; that reuse looks suspicious but brute force is the judge here,
    which is why the witness reports ``holds`` instead of asserting.
    """
    lead = (as_rational(a), as_rational(b), as_rational(c))
    u = _initial_terms(uinits, 3)
    if n < 2:
        raise ValueError(f"decomposition needs n >= 2, got {n}")
    lhs = evaluate(periodic_spec(lead, u), n)
    shift1 = periodic_basis(_rotate(lead, 1))  # (b, c, a)
    shift2 = periodic_basis(_rotate(lead, 2))  # (c, a, b)
    terms = [
        WitnessTerm(f"T[b,c,a]({n - 1})", u[0], evaluate(shift1, n - 1)),
        WitnessTerm(
            f"T[b,c,a]({n - 1})+T[c,a,b]({n - 2})",
            u[1],
            evaluate(shift1, n - 1) + evaluate(shift2, n - 2),
        ),
        WitnessTerm(f"T[a,b,c]({n})", u[2], evaluate(periodic_basis(lead), n)),
    ]
    return _witness("periodic3", n, lhs, terms)


PERIODIC_K_VARIANTS = ("printed", "shift-from-zero")


def decompose_periodic_k(
    leading: Sequence[RationalLike],
    ginits: Sequence[RationalLike],
    n: int,
    variant: str = "printed",
) -> DecompositionWitness:
    """General k-periodic split over cyclically rotated basis sequences.

    With B[j] the k-periodic basis on the leading tuple rotated left by j
    (B[0] is the unrotated basis), the ``printed`` variant is

        G(n) = G(0)*B[1](n-1)
             + sum_{m=0}^{k-3} G(m+1) * [ sum_{j=0}^{m+1} B[j+1](n-1-j) ]
             + G(k-1)*B[0](n)

    The inner shift indexing is ambiguous in the source formulation, so the
    ``shift-from-zero`` variant replaces B[j+1](n-1-j) with B[j](n-1-j)
    inside the double sum.  Both are checkable: the witness records the
    verdict either way rather than asserting.
    """
    lead = as_rationals(leading)
    k = len(lead)
    if k < 3:
        raise ValueError("k-periodic decomposition needs k >= 3; use decompose_periodic2 for k = 2")
    g = _initial_terms(ginits, k)
    if n < k:
        raise ValueError(f"decomposition needs n >= k = {k}, got {n}")
    if variant not in PERIODIC_K_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {PERIODIC_K_VARIANTS}")
    offset = 1 if variant == "printed" else 0
    lhs = evaluate(periodic_spec(lead, g), n)
    bases = [periodic_basis(_rotate(lead, j)) for j in range(k)]
    terms = [WitnessTerm(f"B1({n - 1})", g[0], evaluate(bases[1], n - 1))]
    block, label = evaluate(bases[offset], n - 1), f"B{offset}({n - 1})"
    for m in range(k - 2):
        shift = (m + 1 + offset) % k
        block += evaluate(bases[shift], n - 2 - m)
        label += f"+B{shift}({n - 2 - m})"
        terms.append(WitnessTerm(label, g[m + 1], block))
    terms.append(WitnessTerm(f"B0({n})", g[k - 1], evaluate(bases[0], n)))
    return _witness(f"periodic-k[{variant}]", n, lhs, terms)


@dataclass(frozen=True)
class IdentityEntry:
    """Everything ``fiblike verify`` knows about one :data:`IDENTITIES` entry.

    A case is a dict keyed by ``params``, in the order ``verify`` prints them;
    ``defaults`` fill optional ones.  ``min_index``, ``witness`` and the
    defaults take the case as keyword arguments.  Witness calls look
    ``decompose_*`` up by module-global name, so a patched attribute applies.
    """

    params: tuple[str, ...]
    random_case: Callable[[random.Random], dict]
    witness: Callable[..., DecompositionWitness]
    min_index: Callable[..., int] = lambda **case: 1
    variants: tuple[str, ...] = ("printed",)
    defaults: Mapping[str, Callable[..., object]] = field(default_factory=dict)


def _rand_inits(rng: random.Random, k: int) -> tuple[Fraction, ...]:
    while True:
        vals = tuple(Fraction(rng.randint(0, 9)) for _ in range(k))
        if any(vals):
            return vals


def _rand_rational(rng: random.Random, nonzero: bool = False, signed: bool = True) -> Fraction:
    lo = -3 if signed else 1
    while True:
        num = rng.randint(lo, 6)
        if num or not nonzero:
            return Fraction(num, rng.randint(1, 3))


def _random_knacci_like(rng: random.Random) -> dict:
    k = rng.randint(2, 6)
    return {"k": k, "inits": _rand_inits(rng, k)}


def _random_horadam_like(rng: random.Random) -> dict:
    k = rng.randint(2, 5)
    coeffs = tuple(Fraction(v) for v in sorted((rng.randint(1, 5) for _ in range(k)), reverse=True))
    return {"k": k, "coeffs": coeffs, "inits": _rand_inits(rng, k)}


def _random_periodic2(rng: random.Random) -> dict:
    return {"a": _rand_rational(rng, nonzero=True), "b": _rand_rational(rng), "inits": _rand_inits(rng, 2)}


def _random_periodic3(rng: random.Random) -> dict:
    lead = {name: _rand_rational(rng, signed=False) for name in ("a", "b", "c")}
    return {**lead, "inits": _rand_inits(rng, 3)}


def _random_periodic_k(rng: random.Random) -> dict:
    k = rng.randint(3, 5)
    leading = tuple(_rand_rational(rng, signed=False) for _ in range(k))
    return {"leading": leading, "inits": _rand_inits(rng, k)}


IDENTITIES: dict[str, IdentityEntry] = {
    "canonical": IdentityEntry(
        params=("inits",),
        random_case=lambda rng: {"inits": _rand_inits(rng, 2)},
        witness=lambda n, variant, inits: decompose_canonical(inits, n),
    ),
    "knacci-like": IdentityEntry(
        params=("k", "inits"),
        random_case=_random_knacci_like,
        min_index=lambda k, inits: k,
        witness=lambda n, variant, k, inits: decompose_knacci_like(RecurrenceSpec(k, (1,) * k, inits), n),
    ),
    "horadam-like": IdentityEntry(
        params=("k", "coeffs", "inits"),
        defaults={"k": lambda coeffs, inits: len(coeffs)},
        random_case=_random_horadam_like,
        min_index=lambda k, coeffs, inits: k,
        witness=lambda n, variant, k, coeffs, inits: decompose_horadam_like(horadam_spec(k, coeffs), inits, n),
    ),
    "periodic2": IdentityEntry(
        params=("a", "b", "inits"),
        random_case=_random_periodic2,
        witness=lambda n, variant, a, b, inits: decompose_periodic2(a, b, inits, n),
    ),
    "periodic2-edson": IdentityEntry(
        params=("a", "b", "inits"),
        random_case=_random_periodic2,
        witness=lambda n, variant, a, b, inits: decompose_periodic2_edson(a, b, inits, n),
    ),
    "swap": IdentityEntry(
        params=("a", "b"),
        random_case=lambda rng: {"a": _rand_rational(rng, nonzero=True), "b": _rand_rational(rng)},
        witness=lambda n, variant, a, b: periodic2_swap_relation(a, b, n),
    ),
    "periodic3": IdentityEntry(
        params=("a", "b", "c", "inits"),
        random_case=_random_periodic3,
        min_index=lambda a, b, c, inits: 2,
        witness=lambda n, variant, a, b, c, inits: decompose_periodic3(a, b, c, inits, n),
    ),
    "periodic-k": IdentityEntry(
        params=("leading", "inits"),
        random_case=_random_periodic_k,
        min_index=lambda leading, inits: len(leading),
        witness=lambda n, variant, leading, inits: decompose_periodic_k(leading, inits, n, variant=variant),
        variants=PERIODIC_K_VARIANTS,
    ),
}


def witness_to_dict(witness: DecompositionWitness) -> dict:
    return {
        "identity": witness.identity,
        "n": witness.n,
        "lhs": format_rational(witness.lhs),
        "rhs": format_rational(witness.rhs),
        "holds": witness.holds,
        "terms": [
            {
                "label": t.label,
                "coefficient": format_rational(t.coefficient),
                "basis_value": format_rational(t.basis_value),
            }
            for t in witness.terms
        ],
    }


def dump_witness(witness: DecompositionWitness) -> str:
    return json.dumps(witness_to_dict(witness), indent=2)
