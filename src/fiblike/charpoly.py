"""Characteristic polynomials and root analysis for constant recurrences.

For a spec with coefficients q1..qk the characteristic polynomial is the
monic

    f(x) = x^k - q1*x^(k-1) - q2*x^(k-2) - ... - q(k-1)*x - qk.

Under the dominance ordering q1 >= q2 >= ... >= qk >= 1 ("Wu-Zhang
ordering") f has exactly one positive real zero, bracketed in
(q1, q1 + 1), and the other k-1 zeros lie inside the unit circle.  The
positive zero governs growth and every successive-term ratio limit.

"Dominant" means the largest positive real zero.  It is found in three
certified steps: an exact bracket with f(lo) < 0 < f(hi) (the Wu-Zhang
interval when the ordering holds, otherwise the top-most sign change of a
sign scan run on integers from the Cauchy bound downward), safeguarded
Newton inside that bracket, and a residual check |f(x)| < 10^-precision.
The full spectrum comes from Durand-Kerner simultaneous iteration, with the
dominant zero taken from the certified search.  On top of the roots sit
the closed forms for the unit-coefficient family: the full-spectrum sum
with weights A(i) = (r_i - 1)/(2 + (k+1)(r_i - 2)), its nearest-integer
one-root shortcut, and the order-2 Binet formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from mpmath import mp, mpf, mpc

from .rationals import RationalLike, as_rational, as_rationals
from .sequences import PeriodicSpec, RecurrenceSpec, knacci_spec

__all__ = [
    "CharPoly",
    "RootSet",
    "RootConvergenceError",
    "charpoly_of",
    "wu_zhang_ordered",
    "dominant_root",
    "knacci_constant",
    "all_roots",
    "dresden_coefficient",
    "dresden_exact_sum",
    "dresden_round",
    "horadam_binet",
    "rootset_to_dict",
]

DEFAULT_PRECISION = 50  # decimal digits
_GUARD = 15  # extra working digits beyond the requested precision


class RootConvergenceError(ArithmeticError):
    """An iterative root search failed to bracket or settle."""


@dataclass(frozen=True)
class CharPoly:
    """Monic x^k - q1*x^(k-1) - ... - qk with exact rational q's."""

    k: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", as_rationals(self.coeffs))
        if self.k < 2 or len(self.coeffs) != self.k:
            raise ValueError("degree must be >= 2 and match the coefficient count")

    def eval_exact(self, x: RationalLike) -> Fraction:
        x = as_rational(x)
        acc = Fraction(1)
        for q in self.coeffs:
            acc = acc * x - q
        return acc

    def eval_mp(self, x):
        """Horner evaluation for mpf/mpc at the active precision."""
        return _horner(_mp_coeffs(self), x)

    def deriv_mp(self, x):
        return _horner_slope(_mp_coeffs(self), x)[1]

    def __str__(self) -> str:
        parts = [f"x^{self.k}"]
        for i, q in enumerate(self.coeffs):
            if q == 0:
                continue
            power = self.k - 1 - i
            mag = abs(q)
            coef = "" if mag == 1 and power > 0 else f"{mag}"
            if power > 1:
                term = f"{coef}{'*' if coef else ''}x^{power}"
            elif power == 1:
                term = f"{coef}{'*' if coef else ''}x"
            else:
                term = f"{mag}"
            parts.append(("- " if q > 0 else "+ ") + term)
        return " ".join(parts)


@dataclass(frozen=True)
class RootSet:
    """Full spectrum of a characteristic polynomial.

    ``dominant`` is the certified largest positive real zero; ``others``
    are the remaining k-1 zeros, sorted by (re, im).  ``inside_unit_circle``
    flags whether every non-dominant modulus stays below 1 - 1e-9.
    """

    dominant: mpf
    others: tuple[mpc, ...]
    moduli_bound: mpf
    residual: mpf
    inside_unit_circle: bool


def _to_mpf(value: Fraction) -> mpf:
    return mpf(value.numerator) / mpf(value.denominator)


def _mp_coeffs(poly: CharPoly) -> tuple[mpf, ...]:
    """The q's as mpf at the active precision; convert once per search."""
    return tuple(_to_mpf(q) for q in poly.coeffs)


def _horner(qs: Sequence[mpf], x):
    """f(x) for the monic polynomial with mpf coefficients ``qs``."""
    value = mpf(1)
    for q in qs:
        value = value * x - q
    return value


def _horner_slope(qs: Sequence[mpf], x) -> tuple:
    """(f(x), f'(x)) in one Horner pass."""
    value, slope = mpf(1), mpf(0)
    for q in qs:
        slope = slope * x + value
        value = value * x - q
    return value, slope


def charpoly_of(spec: RecurrenceSpec) -> CharPoly:
    """Characteristic polynomial of a constant-coefficient spec.

    Periodic specs are rejected: their leading coefficient changes with the
    index, so no single polynomial describes them.
    """
    if isinstance(spec, PeriodicSpec):
        raise TypeError("periodic specs have no single characteristic polynomial")
    if not isinstance(spec, RecurrenceSpec):
        raise TypeError("charpoly_of expects a RecurrenceSpec")
    return CharPoly(k=spec.k, coeffs=spec.coeffs)


def wu_zhang_ordered(poly: CharPoly) -> bool:
    """True when q1 >= q2 >= ... >= qk >= 1 (dominant root bracket applies)."""
    qs = poly.coeffs
    return all(qs[i] >= qs[i + 1] for i in range(len(qs) - 1)) and qs[-1] >= 1


def _exact_bracket(poly: CharPoly) -> tuple[Fraction, Fraction]:
    """Bracket (lo, hi) with f(lo) < 0 < f(hi) around the largest positive zero.

    Under the Wu-Zhang ordering this is (q1, q1 + 1), checked in Fraction
    arithmetic.  Otherwise a grid x_j = bound*j/1024 over (0, bound] with
    bound = 1 + sum|q_i| is scanned from the top down for the first sign
    change.  The scan runs on the integers L*s^k*f(x_j), where s = 1024 *
    den(bound) and L = lcm of the q denominators, which have the signs of
    f(x_j).  f > 0 for x >= 1 + max(q_i, 0) (Cauchy's bound for positive
    zeros), so grid points above that are skipped.  A zero lying exactly
    on the grid comes back as (x, x).
    """
    if wu_zhang_ordered(poly):
        lo, hi = poly.coeffs[0], poly.coeffs[0] + 1
        if poly.eval_exact(lo) < 0 < poly.eval_exact(hi):
            return lo, hi
    bound = Fraction(1) + sum(abs(q) for q in poly.coeffs)
    steps = 1024
    scale = math.lcm(*(q.denominator for q in poly.coeffs))
    grid = steps * bound.denominator
    scaled = [int(q * scale) * grid**i for i, q in enumerate(poly.coeffs, start=1)]
    top = 1 + max(max(poly.coeffs), 0)
    for j in reversed(range(math.ceil(top * steps / bound))):
        y = bound.numerator * j
        value = scale
        for c in scaled:
            value = value * y - c
        if value < 0:
            return bound * j / steps, bound * (j + 1) / steps
        if value == 0 and j > 0:
            x = bound * j / steps
            return x, x
    raise RootConvergenceError(
        "no positive sign change found; the polynomial has no bracketable positive real zero"
    )


def dominant_root(poly: CharPoly, precision: int = DEFAULT_PRECISION) -> mpf:
    """The largest positive real zero, certified to ``precision`` digits.

    Starts from the exact bracket of :func:`_exact_bracket` and runs Newton
    steps with the coefficients converted to mpf once; a step that would
    leave the current bracket is replaced by bisection, and every evaluation
    shrinks the bracket.  The search stops once a Newton step falls below
    10^-(precision+10) and raises :class:`RootConvergenceError` if its
    iteration cap is reached first or if the final residual |f(x)| is not
    below 10^-precision.  The result lies inside the bracket: strictly
    inside (q1, q1 + 1) under the dominance ordering.  Two zeros closer
    together than the scan grid's step can hide each other from the scan.
    """
    lo_f, hi_f = _exact_bracket(poly)
    with mp.workdps(precision + _GUARD):
        if lo_f == hi_f:  # exact rational root found during the scan
            return _to_mpf(lo_f)
        qs = _mp_coeffs(poly)
        lo, hi = _to_mpf(lo_f), _to_mpf(hi_f)
        eps = mpf(10) ** (-(precision + 10))
        x = (lo + hi) / 2
        for _ in range(int(3.4 * (precision + 12)) + 16):
            value, slope = _horner_slope(qs, x)
            if value == 0:
                break
            if value < 0:
                lo = x
            else:
                hi = x
            step = value / slope if slope else hi - lo  # a flat spot bisects
            inside = lo < x - step < hi
            if inside:
                x -= step
            # convergence is tested before the bracket, which may have
            # collapsed onto x so that even a converged step leaves it
            if abs(step) < eps:
                break
            if not inside:
                x = (lo + hi) / 2
        else:
            raise RootConvergenceError("Newton-bisection search hit its iteration cap")
        if abs(_horner(qs, x)) >= mpf(10) ** (-precision):
            raise RootConvergenceError("residual did not reach the requested precision")
        return x


def knacci_constant(k: int, precision: int = DEFAULT_PRECISION) -> mpf:
    """Growth constant of the k-step Fibonacci family.

    The positive zero of x^k - x^(k-1) - ... - 1; equivalently the root of
    x + x^(-k) = 2 in (1, 2).  Both characterizations are cross-checked.
    The constants increase strictly with k and tend to 2.
    """
    alpha = dominant_root(charpoly_of(knacci_spec(k)), precision)
    with mp.workdps(precision + _GUARD):
        residual = abs(alpha**k * (2 - alpha) - 1)
        if residual >= mpf(10) ** (-(precision - 5)):
            raise RootConvergenceError("the two growth-constant characterizations disagree")
    return alpha


def all_roots(poly: CharPoly, precision: int = DEFAULT_PRECISION) -> RootSet:
    """All k zeros via Durand-Kerner simultaneous iteration.

    Starts from perturbed roots of unity scaled by 1 + max|q_i|; stops when
    the largest per-root step drops below 10^-precision (cap 10^5 sweeps).
    The dominant zero reported comes from :func:`dominant_root`, not from
    the simultaneous iteration, so it carries its own certification.
    """
    k = poly.k
    dominant = dominant_root(poly, precision)
    with mp.workdps(precision + _GUARD):
        qs = _mp_coeffs(poly)
        radius = mpf(1) + max(abs(q) for q in qs)
        zs = [radius * mp.exp(mpc(0, 2 * mp.pi * j / k + mpf(2) / 5)) for j in range(k)]
        tol = mpf(10) ** (-precision)
        for _ in range(100_000):
            worst = mpf(0)
            for j in range(k):
                den = mpf(1)
                for l in range(k):
                    if l != j:
                        den *= zs[j] - zs[l]
                if den == 0:
                    raise RootConvergenceError("simultaneous iterates collided")
                step = _horner(qs, zs[j]) / den
                zs[j] -= step
                worst = max(worst, abs(step))
            if worst < tol:
                break
        else:
            raise RootConvergenceError("simultaneous iteration hit its sweep cap")
        nearest = min(range(k), key=lambda j: abs(zs[j] - dominant))
        others = [zs[j] for j in range(k) if j != nearest]
        others.sort(key=lambda z: (mp.re(z), mp.im(z)))
        moduli_bound = max(abs(z) for z in others)
        residual = abs(_horner(qs, dominant))
        inside = bool(moduli_bound < 1 - mpf(10) ** (-9))
    return RootSet(
        dominant=dominant,
        others=tuple(others),
        moduli_bound=moduli_bound,
        residual=residual,
        inside_unit_circle=inside,
    )


def dresden_coefficient(root, k: int):
    """Spectral weight A = (r - 1) / (2 + (k+1)(r - 2)) for a zero r.

    Evaluated at the active mpmath precision; real input gives a real
    weight, complex input a complex one.  A near-zero denominator (within
    1e-12) is rejected.
    """
    r = mpc(root) if isinstance(root, (complex, mpc)) else mpf(root)
    den = 2 + (k + 1) * (r - 2)
    if abs(den) < mpf(10) ** (-12):
        raise ValueError("spectral weight undefined: denominator 2+(k+1)(r-2) is (near) zero")
    return (r - 1) / den


def dresden_exact_sum(
    k: int,
    n: int,
    inits: Optional[Sequence[RationalLike]] = None,
    precision: int = DEFAULT_PRECISION,
) -> mpf:
    """Closed-form term of a unit-coefficient sequence from the full spectrum.

    Writes the basis value at index t as sum_i A(i) * r_i^(t-k+1) over all k
    zeros r_i (the exponent shift places the basis' first 1 at index k-1),
    then combines shifted basis values with the initial terms exactly as in
    :func:`fiblike.identities.decompose_knacci_like`.  The result reproduces
    the exact integer/rational term to roughly half the working digits.

    ``inits`` defaults to the k-step basis (0, ..., 0, 1); n must be >= 2.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"order k must be an integer >= 2, got {k!r}")
    if n < 2:
        raise ValueError(f"closed-form evaluation is restricted to n >= 2, got {n}")
    if inits is None:
        init = (Fraction(0),) * (k - 1) + (Fraction(1),)
    else:
        init = as_rationals(inits)
        if len(init) != k:
            raise ValueError(f"need exactly {k} initial terms, got {len(init)}")
    roots_set = all_roots(charpoly_of(knacci_spec(k)), precision)
    with mp.workdps(precision + _GUARD):
        roots = [mpc(roots_set.dominant), *roots_set.others]
        weights = [dresden_coefficient(r, k) for r in roots]

        def basis_value(t: int):
            return mp.fsum((w * r ** (t - k + 1) for w, r in zip(weights, roots)), absolute=False)

        total = _to_mpf(init[0]) * basis_value(n - 1)
        for m in range(k - 2):
            block = mp.fsum(basis_value(n - 1 - j) for j in range(m + 2))
            total += _to_mpf(init[m + 1]) * block
        total += _to_mpf(init[k - 1]) * basis_value(n)
        if abs(mp.im(total)) > mpf(10) ** (-(precision // 2)):
            raise RootConvergenceError("imaginary parts failed to cancel in the spectral sum")
        return mp.re(total)


def dresden_round(k: int, n: int, precision: int = DEFAULT_PRECISION) -> int:
    """k-step Fibonacci term as the nearest integer to one spectral term.

    Only the dominant zero contributes: the term at index n equals
    Round[A * alpha^(n-k+1)] with A the dominant spectral weight, because
    the remaining zeros contribute less than 1/2 in absolute value.  Rounding
    is half-away-from-zero; true terms never land on a half, so the tie rule
    is unobservable but fixed for determinism.

    The working precision is raised to cover every integer digit of the
    term: at least (n-k+1)*log10(2) + 10 digits, since alpha < 2.  A
    ``precision`` that already covers them is used as given.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"order k must be an integer >= 2, got {k!r}")
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    precision = max(precision, math.ceil((n - k + 1) * math.log10(2)) + 10)
    alpha = dominant_root(charpoly_of(knacci_spec(k)), precision)
    with mp.workdps(precision + _GUARD):
        value = dresden_coefficient(alpha, k) * alpha ** (n - k + 1)
        if value >= 0:
            return int(mp.floor(value + mpf(1) / 2))
        return int(mp.ceil(value - mpf(1) / 2))


def horadam_binet(
    p: RationalLike, q: RationalLike, n: int, precision: int = DEFAULT_PRECISION
) -> mpf:
    """Order-2 Binet value for the basis sequence 0, 1, p*t(n-1)+q*t(n-2).

    Uses the two real roots (p +/- sqrt(p^2+4q))/2 of x^2 - p*x - q.  The
    discriminant must be positive: a repeated root (p^2 + 4q = 0) is
    rejected with a distinct error since the formula degenerates there.
    """
    p = as_rational(p)
    q = as_rational(q)
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    disc = p * p + 4 * q
    if disc == 0:
        raise ValueError("repeated characteristic root (p^2 + 4q = 0): Binet form degenerates")
    if disc < 0:
        raise ValueError("complex characteristic roots (p^2 + 4q < 0) are out of scope")
    with mp.workdps(precision + _GUARD):
        s = mp.sqrt(_to_mpf(disc))
        alpha = (_to_mpf(p) + s) / 2
        beta = (_to_mpf(p) - s) / 2
        return (alpha**n - beta**n) / (alpha - beta)


def rootset_to_dict(roots: RootSet, digits: int = DEFAULT_PRECISION) -> dict:
    """JSON-ready mapping with decimal-string values."""
    with mp.workdps(digits + _GUARD):
        return {
            "dominant": mp.nstr(roots.dominant, digits),
            "others": [
                {
                    "re": mp.nstr(mp.re(z), digits),
                    "im": mp.nstr(mp.im(z), digits),
                    "modulus": mp.nstr(abs(z), digits),
                }
                for z in roots.others
            ],
            "moduli_bound": mp.nstr(roots.moduli_bound, digits),
            "residual": mp.nstr(roots.residual, digits),
            "inside_unit_circle": roots.inside_unit_circle,
        }
