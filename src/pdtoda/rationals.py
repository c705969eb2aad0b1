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
a constructor call.  Each of ``+ - * /`` does this in one method frame, with
no helper call.  The reflected ``+`` and ``*`` are the forward methods
themselves: both operations commute, exactly on rationals and in IEEE
arithmetic on the float and complex results of other operands.  ``-`` and
``/`` have reflected bodies of their own.  In a cProfile of the same
verify pass this module's functions take 20% of self time (420 k calls);
they took 27% (955 k calls) while the operators called formula and
constructor helpers and states and polynomials coerced entries that were
``Q`` already.  Any other operand (``bool``, a plain ``Fraction``,
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

    # The operators below run the formulas of ``Fraction._add``, ``_mul``
    # and ``_div`` on the reduced parts (na/da) and (nb/db) in their own
    # frame, an int b being (b/1); a - b is a + (-b).  Against an int the
    # formulas lose their trivial gcds: (na + b da)/da is reduced as it
    # stands, and a product or quotient needs one gcd.  Each result is
    # built as ``_q`` builds it, without a call.

    def __add__(a, b):
        na, da = a._numerator, a._denominator
        tb = type(b)
        if tb is int:
            r = _new(LeanFraction)
            r._numerator = na + b * da
            r._denominator = da
            return r
        if tb is not LeanFraction:
            return _wrap(Fraction.__add__(a, b))
        nb, db = b._numerator, b._denominator
        r = _new(LeanFraction)
        g = gcd(da, db)
        if g == 1:
            r._numerator = na * db + da * nb
            r._denominator = da * db
            return r
        s = da // g
        t = na * (db // g) + nb * s
        g2 = gcd(t, g)
        if g2 == 1:
            r._numerator = t
            r._denominator = s * db
        else:
            r._numerator = t // g2
            r._denominator = s * (db // g2)
        return r

    __radd__ = __add__

    def __sub__(a, b):
        na, da = a._numerator, a._denominator
        tb = type(b)
        if tb is int:
            r = _new(LeanFraction)
            r._numerator = na - b * da
            r._denominator = da
            return r
        if tb is not LeanFraction:
            return _wrap(Fraction.__sub__(a, b))
        nb, db = b._numerator, b._denominator
        r = _new(LeanFraction)
        g = gcd(da, db)
        if g == 1:
            r._numerator = na * db - da * nb
            r._denominator = da * db
            return r
        s = da // g
        t = na * (db // g) - nb * s
        g2 = gcd(t, g)
        if g2 == 1:
            r._numerator = t
            r._denominator = s * db
        else:
            r._numerator = t // g2
            r._denominator = s * (db // g2)
        return r

    def __rsub__(a, b):
        if type(b) is int:
            r = _new(LeanFraction)
            r._numerator = b * a._denominator - a._numerator
            r._denominator = a._denominator
            return r
        return _wrap(Fraction.__rsub__(a, b))

    def __mul__(a, b):
        na, da = a._numerator, a._denominator
        tb = type(b)
        if tb is LeanFraction:
            nb, db = b._numerator, b._denominator
            g1 = gcd(na, db)
            g2 = gcd(nb, da)
            r = _new(LeanFraction)
            r._numerator = (na // g1) * (nb // g2)
            r._denominator = (da // g2) * (db // g1)
            return r
        if tb is int:
            g = gcd(b, da)
            r = _new(LeanFraction)
            r._numerator = na * (b // g)
            r._denominator = da // g
            return r
        return _wrap(Fraction.__mul__(a, b))

    __rmul__ = __mul__

    def __truediv__(a, b):
        na, da = a._numerator, a._denominator
        tb = type(b)
        if tb is LeanFraction:
            nb, db = b._numerator, b._denominator
        elif tb is int:
            nb, db = b, 1
        else:
            return _wrap(Fraction.__truediv__(a, b))
        if nb == 0:
            raise ZeroDivisionError(f"Fraction({na}, 0)")
        if nb < 0:
            nb, db = -nb, -db
        g1 = gcd(na, nb)
        g2 = gcd(db, da)
        r = _new(LeanFraction)
        r._numerator = (na // g1) * (db // g2)
        r._denominator = (da // g2) * (nb // g1)
        return r

    def __rtruediv__(a, b):
        if type(b) is not int:
            return _wrap(Fraction.__rtruediv__(a, b))
        na, da = a._numerator, a._denominator
        if na == 0:
            raise ZeroDivisionError(f"Fraction({b}, 0)")
        if na < 0:
            na, b = -na, -b
        g = gcd(b, na)
        r = _new(LeanFraction)
        r._numerator = (b // g) * da
        r._denominator = na // g
        return r

    def __pow__(a, b):
        if type(b) is not int:
            return _wrap(Fraction.__pow__(a, b))
        if b >= 0:
            return _q(a._numerator ** b, a._denominator ** b)
        na = a._numerator
        if na == 0:
            raise ZeroDivisionError("Fraction(1, 0)")
        if na < 0:
            return _q((-a._denominator) ** -b, (-na) ** -b)
        return _q(a._denominator ** -b, na ** -b)

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
