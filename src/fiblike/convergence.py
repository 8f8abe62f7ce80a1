"""Successive-ratio limits and asymptotic growth fits.

For constant-coefficient sequences under the dominance ordering, the ratio
of successive terms tends to the dominant characteristic root alpha, and
terms behave like c*alpha^n with c > 0.  For 2-periodic sequences with
leading coefficients (a, b) the step-1 ratio converges only when a = b
(to (a + sqrt(a^2+4))/2); otherwise the two parity subsequences and the
step-2 sequence converge separately:

    t(2m)/t(2m-1)   -> alpha/b
    t(2m+1)/t(2m)   -> alpha/a        with alpha = (ab + sqrt(a^2b^2+4ab))/2
    t(n+2)/t(n)     -> alpha + 1

The parity assignment above is the one confirmed by direct computation
(the limits do not depend on the initial terms); published derivations of
these limits circulate in both orientations, so
:func:`adjudicate_parity_assignment` compares each printed assignment
against brute force instead of trusting either.

Ratios are formed exactly as Fractions and converted to high-precision
floats only at the last step, so the reported samples carry no iteration
drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from mpmath import mp, mpf

from .charpoly import (
    DEFAULT_PRECISION,
    _GUARD,
    RootConvergenceError,
    _to_mpf,
    all_roots,
    charpoly_of,
    dominant_root,
)
from .rationals import RationalLike, as_rational, as_rationals
from .sequences import PeriodicSpec, RecurrenceSpec, SequenceSpec, periodic_spec, terms

__all__ = [
    "RatioReport",
    "AsymptoticFit",
    "ratio_limit",
    "ratio_limit_reference",
    "asymptotic_fit",
    "PRINTED_PARITY_ASSIGNMENTS",
    "adjudicate_parity_assignment",
    "report_to_dict",
    "report_to_csv",
]

SUBSEQUENCES = ("all", "even", "odd")

# n_max defaults: periodic coefficients below 1 settle noticeably slower.
DEFAULT_NMAX_CONSTANT = 300
DEFAULT_NMAX_PERIODIC = 400


@dataclass(frozen=True)
class RatioReport:
    """Index-stamped ratio samples plus the analytic limit when one exists.

    ``gap`` is |estimate - reference| (None without a reference);
    ``monotone_tail`` says whether |ratio - reference| was non-increasing
    over the sampled tail (against the final estimate when no reference is
    available).
    """

    samples: tuple[tuple[int, mpf], ...]
    estimate: mpf
    reference: Optional[mpf]
    gap: Optional[mpf]
    monotone_tail: bool


@dataclass(frozen=True)
class AsymptoticFit:
    """Leading growth coefficient and the decay of what it leaves behind.

    ``c`` estimates the coefficient in t(n) ~ c*alpha^n as t(n_max)/alpha^n_max.
    ``residual_trend`` records block maxima of |t(n)/alpha^n - c| over a tail
    window (block maxima rather than raw points: with complex secondary
    roots the raw residual oscillates through near-zeros, while its
    envelope decays monotonically).
    """

    c: mpf
    residual_trend: tuple[tuple[int, mpf], ...]


def _periodic2_alpha(a: Fraction, b: Fraction) -> mpf:
    """alpha = (ab + sqrt(a^2b^2 + 4ab))/2 at the current working precision."""
    ab = _to_mpf(a * b)
    return (ab + mp.sqrt(ab * ab + 4 * ab)) / 2


def _parity_ok(n: int, subsequence: str) -> bool:
    if subsequence == "all":
        return True
    if subsequence == "even":
        return n % 2 == 0
    return n % 2 == 1


def ratio_limit(
    spec: SequenceSpec,
    step: int = 1,
    subsequence: str = "all",
    n_max: Optional[int] = None,
    precision: int = DEFAULT_PRECISION,
) -> RatioReport:
    """Sample t(n)/t(n-step) over a subsequence and estimate its limit.

    Samples every index n <= n_max (of the requested parity) whose
    denominator term is safely past the last zero term; the estimate is the
    final sample.  The reference limit is filled from
    :func:`ratio_limit_reference` when the family has one.
    """
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if subsequence not in SUBSEQUENCES:
        raise ValueError(f"unknown subsequence {subsequence!r}; expected one of {SUBSEQUENCES}")
    if n_max is None:
        n_max = DEFAULT_NMAX_CONSTANT if isinstance(spec, RecurrenceSpec) else DEFAULT_NMAX_PERIODIC
    seq = terms(spec, max(n_max + 1, 0))  # n_max < 0 leaves no samples: reported below
    start = 0
    for i, value in enumerate(seq):
        if value == 0:
            start = i + 1
    indices = [n for n in range(start + step, n_max + 1) if _parity_ok(n, subsequence)]
    if not indices:
        raise ValueError("no valid ratio samples: subsequence is empty over the index range")
    with mp.workdps(precision):
        samples = tuple((n, _to_mpf(seq[n] / seq[n - step])) for n in indices)
        estimate = samples[-1][1]
        reference = ratio_limit_reference(spec, step=step, subsequence=subsequence, precision=precision)
        gap = abs(estimate - reference) if reference is not None else None
        target = reference if reference is not None else estimate
        tail = [abs(value - target) for _, value in samples[-10:]]
        monotone = all(tail[i + 1] <= tail[i] for i in range(len(tail) - 1))
    return RatioReport(
        samples=samples, estimate=estimate, reference=reference, gap=gap, monotone_tail=monotone
    )


def ratio_limit_reference(
    spec: SequenceSpec,
    step: int = 1,
    subsequence: str = "all",
    precision: int = DEFAULT_PRECISION,
) -> Optional[mpf]:
    """Analytic ratio limit for the families that have one, else None.

    Constant-coefficient specs: alpha^step with alpha the dominant root.
    2-periodic specs with positive a*b: alpha/b (even), alpha/a (odd),
    alpha+1 (step 2), and alpha/a for the full step-1 sequence only when
    a = b -- with a = b this is (a + sqrt(a^2+4))/2.  General k-periodic
    families carry no analytic reference here.
    """
    if subsequence not in SUBSEQUENCES:
        raise ValueError(f"unknown subsequence {subsequence!r}; expected one of {SUBSEQUENCES}")
    if isinstance(spec, RecurrenceSpec):
        try:
            alpha = dominant_root(charpoly_of(spec), precision)
        except RootConvergenceError:
            return None  # no positive real root, so no growth-ratio limit
        with mp.workdps(precision + _GUARD):
            return alpha**step
    if isinstance(spec, PeriodicSpec) and spec.p == 2 and spec.k == 2:
        a, b = spec.leading
        if a * b <= 0:
            return None
        with mp.workdps(precision + _GUARD):
            alpha = _periodic2_alpha(a, b)
            if step == 1:
                if subsequence == "even":
                    return alpha / _to_mpf(b)
                if subsequence == "odd":
                    return alpha / _to_mpf(a)
                return alpha / _to_mpf(a) if a == b else None
            if step == 2:
                return alpha + 1
            return None
    return None


PRINTED_PARITY_ASSIGNMENTS = {
    # Stated while deriving limits for the basis sequence (inits 0, 1):
    "basis-display": {"even": "alpha/b", "odd": "alpha/a"},
    # Stated while deriving limits for arbitrary initial terms:
    "general-derivation": {"even": "alpha/a", "odd": "alpha/b"},
}


def adjudicate_parity_assignment(
    a: RationalLike,
    b: RationalLike,
    inits: Sequence[RationalLike] = (0, 1),
    n_max: int = DEFAULT_NMAX_PERIODIC,
    precision: int = DEFAULT_PRECISION,
) -> dict:
    """Compare both printed parity-limit assignments against brute force.

    The two printed assignments transpose each other, so at most one can be
    right for a != b.  Returns the even/odd estimates, both candidate
    limits, and a per-assignment verdict; ``matching`` lists the assignments
    consistent with the computed estimates (both, when a = b).
    """
    a = as_rational(a)
    b = as_rational(b)
    if a == 0 or b == 0 or a * b < 0:
        raise ValueError("parity adjudication needs positive a*b with a, b nonzero")
    spec = periodic_spec((a, b), as_rationals(inits))
    even = ratio_limit(spec, step=1, subsequence="even", n_max=n_max, precision=precision).estimate
    odd = ratio_limit(spec, step=1, subsequence="odd", n_max=n_max, precision=precision).estimate
    with mp.workdps(precision + _GUARD):
        alpha = _periodic2_alpha(a, b)
        candidates = {"alpha/a": alpha / _to_mpf(a), "alpha/b": alpha / _to_mpf(b)}
        tol = mpf(10) ** (-4)

        def matches(assignment: dict) -> bool:
            return (
                abs(even - candidates[assignment["even"]]) < tol
                and abs(odd - candidates[assignment["odd"]]) < tol
            )

        verdicts = {name: matches(table) for name, table in PRINTED_PARITY_ASSIGNMENTS.items()}
    return {
        "even_estimate": even,
        "odd_estimate": odd,
        "alpha_over_a": candidates["alpha/a"],
        "alpha_over_b": candidates["alpha/b"],
        "verdicts": verdicts,
        "matching": tuple(name for name, ok in verdicts.items() if ok),
    }


def asymptotic_fit(
    spec: RecurrenceSpec,
    n_max: Optional[int] = None,
    precision: int = DEFAULT_PRECISION,
    blocks: int = 20,
    block_width: int = 5,
) -> AsymptoticFit:
    """Estimate c in t(n) ~ c*alpha^n and chart the residual envelope.

    c is taken as t(n_max)/alpha^n_max; the residual envelope is the block
    maxima of |t(n)/alpha^n - c| over a tail window just below n_max.
    Working precision is raised automatically with n_max so the deep-tail
    residuals are actually resolved rather than lost to rounding.  A
    non-positive c signals initial terms outside the nonnegative setting
    and is rejected.
    """
    if not isinstance(spec, RecurrenceSpec):
        raise TypeError("asymptotic_fit expects a constant-coefficient RecurrenceSpec")
    if n_max is None:
        n_max = DEFAULT_NMAX_CONSTANT
    poly = charpoly_of(spec)
    spectrum = all_roots(poly, max(precision, 30))
    with mp.workdps(30):
        spread = spectrum.dominant / max(spectrum.moduli_bound, mpf(10) ** (-6))
        extra = int(float(n_max * mp.log10(spread))) + 30
    dps = min(precision + extra, 4000)
    seq = terms(spec, n_max + 1)
    alpha = dominant_root(poly, dps)
    with mp.workdps(dps):
        c = _to_mpf(seq[n_max]) / alpha**n_max
        if c <= 0:
            raise ArithmeticError(
                "non-positive leading coefficient: growth along the dominant root is not positive"
            )
        gap = 10
        top = n_max - gap
        bounds = []
        end = top
        while end - block_width + 1 >= 1 and len(bounds) < blocks:
            bounds.append((end - block_width + 1, end))
            end -= block_width
        bounds.reverse()
        trend = []
        for lo, hi in bounds:
            worst = max(abs(_to_mpf(seq[n]) / alpha**n - c) for n in range(lo, hi + 1))
            trend.append((hi, worst))
    return AsymptoticFit(c=c, residual_trend=tuple(trend))


def report_to_dict(report: RatioReport, digits: int = DEFAULT_PRECISION) -> dict:
    return {
        "samples": [[n, mp.nstr(value, digits)] for n, value in report.samples],
        "estimate": mp.nstr(report.estimate, digits),
        "reference": mp.nstr(report.reference, digits) if report.reference is not None else None,
        "gap": mp.nstr(report.gap, digits) if report.gap is not None else None,
        "monotone_tail": report.monotone_tail,
    }


def report_to_csv(report: RatioReport, digits: int = DEFAULT_PRECISION) -> str:
    lines = ["n,ratio"]
    lines.extend(f"{n},{mp.nstr(value, digits)}" for n, value in report.samples)
    return "\n".join(lines) + "\n"
