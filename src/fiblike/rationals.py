"""Exact rational plumbing: input coercion and ``p/q`` string formatting.

Every term, coefficient, and initial value in this package is a
:class:`fractions.Fraction`.  The one rule enforced here is that binary
floats never sneak in: ``0.2`` as a float is *not* one fifth, and identity
checks that must hold exactly would silently break.  Decimal *strings*
("0.2", "3/10") are parsed exactly instead.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[int, str, Fraction]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ``value`` to an exact Fraction.

    Accepts ints, Fractions, Decimals, and strings in either ``p/q`` or
    decimal form ("0.2" becomes 1/5 exactly).  Floats are rejected: pass
    the string "0.2" or ``Fraction(1, 5)`` instead.  A zero denominator
    ("1/0") is a ``ValueError``, like any other malformed input.
    """
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: binary floats are inexact; "
            f"pass a string like '{value}' or a Fraction"
        )
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def as_rationals(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(as_rational(v) for v in values)


def format_rational(value: Fraction) -> str:
    """Render as ``p`` for integers, ``p/q`` otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational_list(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated list such as ``"0.2,3/10,-1"``."""
    items = [piece.strip() for piece in text.split(",")]
    if not items or any(not piece for piece in items):
        raise ValueError(f"malformed rational list: {text!r}")
    return tuple(as_rational(piece) for piece in items)
