"""Dense univariate polynomials over the exact rationals.

Coefficients are stored lowest degree first; the invariant is that the
highest stored coefficient is nonzero, with the empty tuple representing
the zero polynomial.  :func:`horner` is the one univariate evaluator: it
is exact on integer and rational coefficients and points, and
floating-point on float and complex ones.  Everything else is exact except
:func:`roots_numeric` and its check :func:`root_residual`, the deliberately
floating-point routines.  The gcd takes one big-integer gcd at a point
beyond a root bound of its inputs, where exact trial division in Z[x]
certifies the result.
"""

from __future__ import annotations

from math import gcd, isfinite, lcm
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericFailureError, PdTodaError
from .rationals import ONE, ZERO, Q, as_q, q_str


class UniPoly:
    """Polynomial in one variable with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if type(c) is Q else as_q(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((ONE,))

    @classmethod
    def const(cls, c) -> "UniPoly":
        return cls((as_q(c),))

    @classmethod
    def x(cls, power: int = 1) -> "UniPoly":
        if power < 0:
            raise ValueError("negative power")
        return cls((ZERO,) * power + (ONE,))

    @classmethod
    def from_roots(cls, roots: Sequence) -> "UniPoly":
        p = cls.one()
        for r in roots:
            p = p * cls((-as_q(r), ONE))
        return p

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    @property
    def lead(self):
        if not self.coeffs:
            raise PdTodaError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    # -- arithmetic ----------------------------------------------------

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __add__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            other = UniPoly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return UniPoly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __sub__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            other = UniPoly.const(other)
        a, b = self.coeffs, other.coeffs
        return UniPoly([x - y for x, y in zip(a, b)] + list(a[len(b):]) + [-y for y in b[len(a):]])

    def __mul__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            c = as_q(other)
            return UniPoly(a * c for a in self.coeffs)
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative exponent")
        out, base = UniPoly.one(), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "UniPoly"):
        """Field division: self = q*other + r with deg r < deg other."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly(), self
        quot = [ZERO] * (dq + 1)
        lead = other.lead
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lead
            quot[k] = c
            if c != 0:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return UniPoly(quot), UniPoly(rem[: other.degree if other.degree > 0 else 0])

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        inv = 1 / self.lead
        return UniPoly(c * inv for c in self.coeffs)

    def strip_x_power(self):
        """Factor out the largest x**k: return (k, self / x**k)."""
        if self.is_zero():
            return 0, self
        k = 0
        while self.coeffs[k] == 0:
            k += 1
        return k, UniPoly(self.coeffs[k:])

    def derivative(self) -> "UniPoly":
        return UniPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def __call__(self, value):
        """Exact evaluation at a rational or an integer; floating-point
        evaluation is :func:`horner` on converted coefficients."""
        if not isinstance(value, (Q, int)):
            raise TypeError("UniPoly evaluates exactly; use horner for floats")
        return horner(self.coeffs, value)

    def __repr__(self) -> str:
        if self.is_zero():
            return "UniPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            terms.append(f"({q_str(c)})*x^{i}" if i else f"({q_str(c)})")
        return "UniPoly(" + " + ".join(terms) + ")"


def gcd_monic(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic exact gcd over the rationals, by the heuristic gcd (GCDHEU) of
    Char, Geddes and Gonnet (J. Symbolic Comput. 7 (1989) 31), certified
    in Z[x] by a root bound.

    Both arguments are replaced by their primitive integer images a and b;
    their gcd G in Z[x], primitive with a positive lead, is the wanted gcd
    up to its lead.  At xi = 2**k, with k the larger of
    min(height a, height b) // 2 + 32 bits and min(_root_bits(a),
    _root_bits(b)), so that xi >= 2 rho + 2 for a bound rho on the roots
    of a or of b, one integer gcd gamma = gcd(a(xi), b(xi)) is taken, and
    the symmetric base-xi digits of gamma, made primitive with a positive
    lead, are the candidate h.  h is accepted as soon as it divides both a
    and b exactly; otherwise k doubles.

    Correctness: h divides a and b, so G = h c with c in Z[x]; write
    a = G u and b = G v.  The digits lie in [-xi/2, xi/2), so the digit
    polynomial D has 0 < cont D <= xi/2, and gamma = D(xi) = cont(D) h(xi).
    Also gamma = |G(xi)| gcd(u(xi), v(xi)), hence |c(xi)| <= cont D <= xi/2.
    Every root of c is a root of both a and b, of modulus <= rho; so if
    deg c >= 1, |c(xi)| >= xi - rho >= xi/2 + 1.  Hence c = +-1, and the
    positive leads give h = G.  xi also exceeds every root of a or of b,
    so gamma is never 0.

    Termination: gamma = |c' G(xi)| with c' = gcd(u(xi), v(xi)), and c'
    divides res(u, v), a nonzero integer since the cofactors are coprime.
    Once xi > 2 |c'| max|G_i|, the symmetric digits of gamma are the
    coefficients of c' G, so h = G.
    """
    if p.is_zero() and q.is_zero():
        raise PdTodaError("gcd(0, 0) is undefined")
    if p.is_zero() or q.is_zero():
        return (p or q).monic()
    if p.degree == 0 or q.degree == 0:
        return UniPoly.one()
    a = _primitive(cleared([p])[0][0])
    b = _primitive(cleared([q])[0][0])
    k = max(min(_height(a), _height(b)) // 2 + 32, min(_root_bits(a), _root_bits(b)))
    while True:
        h = _primitive(_digits(gcd(_eval_pow2(a, k), _eval_pow2(b, k)), k))
        if _divides_int(h, a) and _divides_int(h, b):
            return UniPoly(Q(c, h[-1]) for c in h)
        k *= 2


def gcd_monic_euclid(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm over the rationals; the test
    oracle for :func:`gcd_monic`."""
    if p.is_zero() and q.is_zero():
        raise PdTodaError("gcd(0, 0) is undefined")
    a, b = p, q
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic()


def cleared(polys: Sequence) -> tuple:
    """Integer coefficient lists (lowest degree first) of a list of
    UniPoly with rational coefficients, and the common denominator D that
    was multiplied through."""
    # star-arguments from a list, not a generator: CPython collects a
    # generator into a resized 10-slot tuple, and on every call that strands
    # memory in the free list of another tuple size
    den = lcm(*[int(a.denominator) for p in polys for a in p.coeffs])
    return [[int(a.numerator) * (den // int(a.denominator)) for a in p.coeffs] for p in polys], den


def _primitive(ints: list) -> list:
    """A nonzero integer coefficient list divided by its content, signed
    so that the lead is positive."""
    content = gcd(*ints)
    if ints[-1] < 0:
        content = -content
    return [c // content for c in ints]


def _height(cs: list) -> int:
    """Bit length of the largest coefficient."""
    return max(abs(c) for c in cs).bit_length()


def _root_bits(cs: list) -> int:
    """A k with 2**k >= 2 rho + 2, where rho bounds the modulus of every
    complex root of the integer polynomial cs (lowest degree first, degree
    at least 1).

    Fujiwara's bound (Tohoku Math. J. 10 (1916) 167) gives
    rho <= 2 max_i |c_(n-i) / c_n| ** (1/i).  With L the bit length, each
    ratio is below 2 ** (L(c_(n-i)) - L(c_n) + 1), so rho <= 2 ** (e + 1)
    for e = max(0, max_i ceil((L(c_(n-i)) - L(c_n) + 1) / i)), and
    2 rho + 2 <= 2 ** (e + 3).
    """
    n, top = len(cs) - 1, cs[-1].bit_length() - 1
    # the coefficient of degree j has i = n - j; -((top - L) // i) is the
    # ceiling of (L - top) / i, and L - top = L(c_(n-i)) - L(c_n) + 1
    return 3 + max([0] + [-((top - c.bit_length()) // (n - i)) for i, c in enumerate(cs[:-1])])


def _eval_pow2(cs: list, k: int) -> int:
    """The integer polynomial cs (lowest degree first) at x = 2**k."""
    acc = 0
    for c in reversed(cs):
        acc = (acc << k) + c
    return acc


def _digits(gamma: int, k: int) -> list:
    """The symmetric base-2**k digits of gamma > 0, lowest first, each in
    [-2**(k-1), 2**(k-1))."""
    mask, half = (1 << k) - 1, 1 << (k - 1)
    digits = []
    while gamma:
        digit = gamma & mask
        if digit >= half:
            digit -= 1 << k
        digits.append(digit)
        gamma = (gamma - digit) >> k
    return digits


def _divides_int(h: list, a: list) -> bool:
    """Whether h divides a exactly in Z[x] (lists lowest degree first)."""
    rem = a[:]
    dh = len(h) - 1
    lead = h[-1]
    for k in range(len(rem) - 1, dh - 1, -1):
        c, r = divmod(rem[k], lead)
        if r:
            return False
        if c:
            off = k - dh
            for j in range(dh):
                rem[off + j] -= c * h[j]
    return not any(rem[:dh])


#: the largest backward error :func:`roots_numeric` accepts for a root
ROOT_RESIDUAL_BOUND = 1e-8


def horner(coeffs: Sequence, z):
    """p(z) by Horner's rule, coefficients lowest degree first.

    Exact on ints and rationals, floating-point on floats and complex
    numbers; z may also be a numpy array.  The empty list gives 0."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def root_residual(p: UniPoly, roots) -> list:
    """Backward error of each z in ``roots`` as a root of p:
    |p(z)| / sum_k |c_k| |z|^k.

    This is the smallest relative perturbation of the coefficients that
    makes z an exact root, and unlike |p(z)| / max|c_k| it does not grow
    with the size of z.  The coefficients are converted to floats once.
    """
    return _residuals([complex(c) for c in p.coeffs], roots)


def _residuals(pc: list, roots) -> list:
    """``root_residual`` on coefficients already converted to complex."""
    mags = [abs(c) for c in pc]
    out = []
    for z in map(complex, roots):
        magnitude = horner(mags, abs(z))
        out.append(abs(horner(pc, z)) / magnitude if magnitude else 0.0)
    return out


def roots_numeric(p: UniPoly):
    """All complex roots in double precision, via companion-matrix
    eigenvalues plus a few Newton polishing steps.

    Returns roots sorted lexicographically by (real, imag).  Raises
    :class:`NumericFailureError` when some root's backward error
    (:func:`root_residual`) exceeds ``ROOT_RESIDUAL_BOUND`` after polishing.
    Each coefficient is converted to a float once, for the companion
    matrix, the Newton steps and the residuals alike; the derivative's
    coefficients are multiplied exactly and then converted.  Polynomials
    are evaluated in Python complex arithmetic, which rounds as numpy's
    scalar arithmetic does at a fraction of its cost; the Newton step is
    divided in numpy, whose complex division rounds differently from
    Python's, so each root keeps numpy's bits and type.
    """
    if p.degree < 1:
        raise PdTodaError("roots_numeric requires degree >= 1")
    floats = [float(c) for c in p.coeffs]
    pc = [complex(c) for c in floats]
    cs = np.array(floats, dtype=float)
    monic = cs / cs[-1]
    n = p.degree
    comp = np.zeros((n, n))
    comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -monic[:-1]
    roots = np.linalg.eigvals(comp)

    dpc = [complex(float(k * c)) for k, c in enumerate(p.coeffs) if k]
    polished = []
    for z in roots:
        for _ in range(3):
            w = complex(z)
            fz = horner(pc, w)
            dz = horner(dpc, w)
            if dz == 0:
                break
            step = np.complex128(fz) / dz
            if not (isfinite(step.real) and isfinite(step.imag)):
                break
            z2 = z - step
            if abs(horner(pc, complex(z2))) < abs(fz):
                z = z2
            else:
                break
        polished.append(z)

    for residual in _residuals(pc, polished):
        if not residual <= ROOT_RESIDUAL_BOUND:  # NaN from overflow fails too
            raise NumericFailureError(
                f"root residual {residual:.3e} exceeds {ROOT_RESIDUAL_BOUND:.1e}"
            )
    polished.sort(key=lambda z: (z.real, z.imag))
    return polished
