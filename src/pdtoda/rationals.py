"""Exact rational scalars.

Contract: every rational the package makes is reduced, with a positive
denominator, and has one type, ``Q``.  gmpy2's ``mpq`` is that type when
gmpy2 is installed.  Otherwise ``Q`` is :class:`LeanFraction`, a subclass of
``fractions.Fraction`` that holds the same two reduced integers and gives the
same value as ``Fraction`` for every operation, so outputs do not depend on
which of the two runs.

Why the subclass: on the small rationals of most checks (a few hundred bits
at most) the cost of ``Fraction`` is its numeric-tower dispatch
(``isinstance`` tests, the ``forward``/``reverse`` wrappers, ``__new__``
and the ``numerator`` properties), not its arithmetic.  A cProfile of one
``verify --suite all`` pass over seeds 0-5 with plain ``Fraction`` put 39%
of self time (1.83 M calls) in ``fractions.py``, and only about 0.1 s of it
in ``math.gcd`` (Python 3.11.7, x86_64).  ``LeanFraction`` runs
``Fraction``'s own reduced-form formulas (one or two gcds of already
reduced parts; Knuth, TAOCP Vol. 2, 4.5.1) directly when the other operand
is exactly a ``LeanFraction`` or an ``int``, and builds the result without
a constructor call.  Any other operand (``bool``, a plain ``Fraction``,
``float``) goes to the inherited ``Fraction`` method, and a rational result
is rewrapped, so a plain ``Fraction`` does not come back into the package.
Hashing, ``str``, the conversions to ``float`` and ``int``, pickling and
copying are ``Fraction``'s own code.  So are the operators the package does
not apply to rationals (``//``, ``%``, ``divmod``, ``int ** q``,
``round(q, n)``); those that make a rational return a plain ``Fraction``.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import gcd

from .errors import PdTodaError

_new = object.__new__


def _q(n, d):
    """The LeanFraction n/d, built without the constructor: n/d must be
    reduced with d > 0."""
    r = _new(LeanFraction)
    r._numerator = n
    r._denominator = d
    return r


def _wrap(value):
    """A rational result of an inherited ``Fraction`` method as a
    ``LeanFraction``; anything else (a float, a complex, NotImplemented)
    as it is."""
    if isinstance(value, Fraction):
        return _q(value._numerator, value._denominator)
    return value


# The formulas of ``Fraction._add``, ``_mul`` and ``_div`` on reduced parts
# (na/da) and (nb/db), with an int passed as (b, 1); a - b is a + (-b).


def _add(na, da, nb, db):
    g = gcd(da, db)
    if g == 1:
        return _q(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _q(t, s * db)
    return _q(t // g2, s * (db // g2))


def _sub(na, da, nb, db):
    return _add(na, da, -nb, db)


def _mul(na, da, nb, db):
    g1 = gcd(na, db)
    g2 = gcd(nb, da)
    return _q((na // g1) * (nb // g2), (da // g2) * (db // g1))


def _div(na, da, nb, db):
    if nb == 0:
        raise ZeroDivisionError(f"Fraction({na}, 0)")
    if nb < 0:
        nb, db = -nb, -db
    return _mul(na, da, db, nb)


def _operators(fast, name):
    """``__name__`` and ``__rname__``: ``fast`` when the other operand is
    exactly a LeanFraction or an int, ``Fraction``'s method otherwise."""
    forward, reverse = getattr(Fraction, f"__{name}__"), getattr(Fraction, f"__r{name}__")

    def op(a, b):
        tb = type(b)
        if tb is LeanFraction:
            return fast(a._numerator, a._denominator, b._numerator, b._denominator)
        if tb is int:
            return fast(a._numerator, a._denominator, b, 1)
        return _wrap(forward(a, b))

    def rop(a, b):
        if type(b) is int:
            return fast(b, 1, a._numerator, a._denominator)
        return _wrap(reverse(a, b))

    return op, rop


def _comparison(op):
    """``op`` (one of < <= > >=) by cross products against a LeanFraction
    or an int, by ``Fraction``'s method otherwise."""
    inherited = getattr(Fraction, f"__{op.__name__}__")

    def compare(a, b):
        tb = type(b)
        if tb is LeanFraction:
            return op(a._numerator * b._denominator, b._numerator * a._denominator)
        if tb is int:
            return op(a._numerator, b * a._denominator)
        return inherited(a, b)

    return compare


class LeanFraction(Fraction):
    """``fractions.Fraction`` with direct arithmetic against itself and
    ``int``: the same values, without the numeric-tower dispatch."""

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        if type(numerator) is int:
            if denominator is None:
                return _q(numerator, 1)
            if type(denominator) is int:
                if denominator == 0:
                    raise ZeroDivisionError(f"Fraction({numerator}, 0)")
                g = gcd(numerator, denominator)
                if denominator < 0:
                    g = -g
                return _q(numerator // g, denominator // g)
        return _wrap(Fraction(numerator, denominator))

    # defining __eq__ below would otherwise set __hash__ to None
    __hash__ = Fraction.__hash__

    __add__, __radd__ = _operators(_add, "add")
    __sub__, __rsub__ = _operators(_sub, "sub")
    __mul__, __rmul__ = _operators(_mul, "mul")
    __truediv__, __rtruediv__ = _operators(_div, "truediv")

    def __pow__(a, b):
        if type(b) is not int:
            return _wrap(Fraction.__pow__(a, b))
        if b >= 0:
            return _q(a._numerator ** b, a._denominator ** b)
        return _div(1, 1, a._numerator ** -b, a._denominator ** -b)

    def __neg__(a):
        return _q(-a._numerator, a._denominator)

    def __pos__(a):
        return a

    def __abs__(a):
        return a if a._numerator >= 0 else -a

    def __eq__(a, b):
        tb = type(b)
        if tb is LeanFraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if tb is int:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    __lt__ = _comparison(operator.lt)
    __le__ = _comparison(operator.le)
    __gt__ = _comparison(operator.gt)
    __ge__ = _comparison(operator.ge)

    def __bool__(a):
        return a._numerator != 0


try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    Q = LeanFraction

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
