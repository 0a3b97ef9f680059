"""Exact rational plumbing for the ratio k.

k enters every definition as the divisor in pi(x) - pi(x/k), so boundary
cases (x/k exactly prime) must be decided exactly.  We represent k as a
stdlib Fraction and never let a decimal string round-trip through binary
floating point: Fraction("745.8") is exactly 7458/10 reduced.
"""

from __future__ import annotations

import decimal
from fractions import Fraction

__all__ = [
    "parse_ratio",
    "parse_k",
    "ceil_div",
    "format_fraction",
]


def parse_ratio(text: str | int | Fraction) -> Fraction:
    """Parse "p/q" or a decimal string to an exact Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise TypeError("refusing float input; pass a string or Fraction")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def parse_k(text: str | int | Fraction) -> Fraction:
    """Parse a ratio and require k > 1."""
    k = parse_ratio(text)
    if k <= 1:
        raise ValueError(f"k must exceed 1, got {k}")
    return k


def ceil_div(a, b: int):
    """Exact ceiling of a/b for b >= 1; a may be an int or an int64 array."""
    if b < 1:
        raise ValueError("ceil_div needs positive denominator")
    return -((-a) // b)


def format_fraction(fr: Fraction) -> str:
    """Render an exact rational as fraction plus approximate decimal.

    The decimal part is computed with the decimal module to 12
    significant digits, not via float, and marked approximate.
    """
    if fr.denominator == 1:
        return str(fr.numerator)
    with decimal.localcontext() as ctx:
        ctx.prec = 12
        approx = decimal.Decimal(fr.numerator) / decimal.Decimal(fr.denominator)
    return f"{fr.numerator}/{fr.denominator} (~ {approx})"
