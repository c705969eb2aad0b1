"""Exact rational scalars.

All lattice variables and polynomial coefficients are arbitrary-precision
rationals, kept reduced with positive denominator at all times.  gmpy2's
``mpq`` provides exactly that representation and is much faster than
``fractions.Fraction``; the latter is kept as a fallback so the package
still works on interpreters without gmpy2.
"""

from __future__ import annotations

import re

from .errors import PdTodaError

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as Q

#: canonical constants
ZERO = Q(0)
ONE = Q(1)

#: the one accepted string form of a rational, for both backends
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def as_q(value) -> Q:
    """Coerce ints, strings like ``"p/q"``, and rational types to Q."""
    if isinstance(value, Q):
        return value
    if isinstance(value, str):
        return q_from_str(value)
    if isinstance(value, float):
        raise TypeError("refusing to coerce float to exact rational: %r" % value)
    return Q(value.numerator, value.denominator) if hasattr(value, "numerator") else Q(value)


def q_str(value) -> str:
    """Serialize a rational as ``"p/q"`` (``"p"`` when the denominator is 1)."""
    q = as_q(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def q_from_str(text: str) -> Q:
    """Parse ``[+-]digits`` or ``[+-]digits/digits`` (ASCII digits, nonzero
    denominator, nothing around them) into a rational.

    Anything else, such as ``"0.5"``, ``"1e3"``, ``"1_000"``, ``" 3/4 "`` or
    ``"1/0"``, raises :class:`PdTodaError`, under either backend.
    """
    if not _RATIONAL.fullmatch(text):
        raise PdTodaError(f"malformed rational {text!r}: expected [+-]digits or [+-]digits/digits")
    try:
        # a '+' is dropped first: mpq is not relied on to parse it
        return Q(text.lstrip("+"))
    except ZeroDivisionError:
        raise PdTodaError(f"malformed rational {text!r}: zero denominator") from None
