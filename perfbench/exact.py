"""The benchmark's own reference arithmetic.

Nothing here imports fiblike: every output the benchmark checks is checked
by a route that does not go through the layer under test.  Deep terms are
compared modulo the Mersenne prime 2^61 - 1, which costs O(n*k) operations
on machine-size integers; roots are certified by an exact sign change of
the characteristic polynomial evaluated in ``Fraction`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

P = (1 << 61) - 1
_DIGEST_BASE = 1_000_003


def residue(value: Fraction | int) -> int:
    """``value`` mod P; denominators here are products of 2s and 3s."""
    value = Fraction(value)
    return value.numerator % P * pow(value.denominator % P, -1, P) % P


def constant_residues(coeffs, inits, count: int) -> list[int]:
    """t(0..count-1) mod P for t(n) = sum coeffs[i-1] * t(n-i)."""
    cs = [residue(c) for c in coeffs]
    seq = [residue(v) for v in inits][:count]
    while len(seq) < count:
        seq.append(sum(c * seq[-i] for i, c in enumerate(cs, start=1)) % P)
    return seq


def periodic_residues(leading, inits, count: int) -> list[int]:
    """t(0..count-1) mod P for t(n) = leading[n % p]*t(n-1) + t(n-2) + ... + t(n-k)."""
    lead = [residue(c) for c in leading]
    seq = [residue(v) for v in inits][:count]
    k, p = len(inits), len(lead)
    while len(seq) < count:
        n = len(seq)
        seq.append((lead[n % p] * seq[-1] + sum(seq[-k:-1])) % P)
    return seq


def digest(residues) -> int:
    """Polynomial hash of a residue sequence, order-sensitive."""
    h = 0
    for r in residues:
        h = (h * _DIGEST_BASE + r) % P
    return h


def constant_terms(coeffs, inits, count: int) -> list[Fraction]:
    cs = [Fraction(c) for c in coeffs]
    seq = [Fraction(v) for v in inits][:count]
    while len(seq) < count:
        seq.append(sum(c * seq[-i] for i, c in enumerate(cs, start=1)))
    return seq


def periodic_terms(leading, inits, count: int) -> list[Fraction]:
    lead = [Fraction(c) for c in leading]
    seq = [Fraction(v) for v in inits][:count]
    k, p = len(inits), len(lead)
    while len(seq) < count:
        n = len(seq)
        seq.append(lead[n % p] * seq[-1] + sum(seq[-k:-1]))
    return seq


@lru_cache(maxsize=None)
def knacci_terms(k: int, count: int) -> tuple[int, ...]:
    seq = [0] * (k - 1) + [1]
    while len(seq) < count:
        seq.append(sum(seq[-k:]))
    return tuple(seq[:count])


def periodic_k_failures(leading, inits, lo: int, hi: int, offset: int) -> list[int]:
    """Indices in lo..hi where the k-periodic split with the given inner
    shift offset (1 = printed, 0 = shift-from-zero) does not hold."""
    k = len(leading)
    rotated = [tuple(leading[j:]) + tuple(leading[:j]) for j in range(k)]
    basis = [periodic_terms(r, (0,) * (k - 1) + (1,), hi + 1) for r in rotated]
    g = [Fraction(v) for v in inits]
    lhs = periodic_terms(leading, g, hi + 1)
    failing = []
    for n in range(lo, hi + 1):
        rhs = g[0] * basis[1 % k][n - 1] + g[k - 1] * basis[0][n]
        for m in range(k - 2):
            rhs += g[m + 1] * sum(basis[(j + offset) % k][n - 1 - j] for j in range(m + 2))
        if rhs != lhs[n]:
            failing.append(n)
    return failing


# ------------------------------------------------------------- roots ----


def poly_value(coeffs, x: Fraction) -> Fraction:
    """x^k - q1*x^(k-1) - ... - qk, exactly."""
    acc = Fraction(1)
    for q in coeffs:
        acc = acc * x - q
    return acc


def mpf_to_fraction(x) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def brackets_root(coeffs, x: Fraction, delta: Fraction) -> bool:
    """True when the polynomial changes sign (or vanishes) on [x-delta, x+delta]."""
    lo, hi = poly_value(coeffs, x - delta), poly_value(coeffs, x + delta)
    return lo == 0 or hi == 0 or (lo < 0) != (hi < 0)


def single_positive_root(coeffs) -> bool:
    """Descartes' rule: with every q_i >= 0 and q_k > 0 the coefficient
    signs change once, so there is exactly one positive root."""
    return all(q >= 0 for q in coeffs) and coeffs[-1] > 0


def product_coeffs(roots) -> tuple[Fraction, ...]:
    """q1..qk with x^k - q1*x^(k-1) - ... - qk = prod (x - r)."""
    poly = [Fraction(1)]
    for r in roots:
        poly = [a - r * b for a, b in zip(poly + [Fraction(0)], [Fraction(0)] + poly)]
    return tuple(-c for c in poly[1:])

