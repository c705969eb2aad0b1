"""Bivariate Laurent polynomials: ordinary in x, Laurent in y.

A value is a finite sum  sum c_{ij} x^i y^j  with exact rational c_{ij},
i >= 0 and j ranging over a finite set of integers (negative powers of y
allowed).  Terms are stored sparsely as {(i, j): c} with no zero
coefficients, so equality is plain dict equality.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, Tuple

from .errors import PdTodaError
from .rationals import ONE, ZERO, Q, as_q, q_str
from .unipoly import UniPoly

Exponent = Tuple[int, int]


def mul_add(acc: Dict[Exponent, object], a: Dict[Exponent, object],
            b: Dict[Exponent, object]) -> Dict[Exponent, object]:
    """acc += a * b on raw term dicts, in place; returns acc.

    The one product kernel of the package: ``BiLaurent.__mul__``, the matrix
    product, the determinant expansion and the transfer-matrix build all
    accumulate through it.  A coefficient that cancels is deleted, so acc
    keeps the no-zero-coefficient invariant that makes equality plain dict
    equality.
    """
    get = acc.get
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            e = (i1 + i2, j1 + j2)
            prev = get(e)
            if prev is None:
                acc[e] = c1 * c2
            else:
                s = prev + c1 * c2
                if s:
                    acc[e] = s
                else:
                    del acc[e]
    return acc


class BiLaurent:
    """Sparse exact polynomial in x and y**(+-1)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Exponent, object] | None = None, *, _clean: bool = True):
        if terms is None:
            self.terms = {}
            return
        if _clean:
            clean = {}
            for (i, j), c in terms.items():
                # a value that is Q already stays the same object
                q = c if type(c) is Q else as_q(c)
                if q != 0:
                    if i < 0:
                        raise PdTodaError("negative x-degree is not representable")
                    clean[(int(i), int(j))] = q
            self.terms = clean
        else:
            self.terms = terms

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "BiLaurent":
        return cls()

    @classmethod
    def const(cls, c) -> "BiLaurent":
        return cls.term(c, 0, 0)

    @classmethod
    def one(cls) -> "BiLaurent":
        return cls({(0, 0): ONE})

    @classmethod
    def x(cls, power: int = 1) -> "BiLaurent":
        return cls({(power, 0): ONE})

    @classmethod
    def y(cls, power: int = 1) -> "BiLaurent":
        return cls({(0, power): ONE})

    @classmethod
    def term(cls, c, i: int, j: int) -> "BiLaurent":
        q = c if type(c) is Q else as_q(c)
        return cls({(i, j): q} if q != 0 else {})

    @classmethod
    def from_unipoly(cls, p: UniPoly) -> "BiLaurent":
        return cls({(i, 0): c for i, c in enumerate(p.coeffs) if c != 0})

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, BiLaurent):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def x_degree(self) -> int:
        return max((i for i, _ in self.terms), default=-1)

    def y_min(self) -> int:
        if not self.terms:
            raise PdTodaError("zero polynomial has no y-degree range")
        return min(j for _, j in self.terms)

    def y_max(self) -> int:
        if not self.terms:
            raise PdTodaError("zero polynomial has no y-degree range")
        return max(j for _, j in self.terms)

    def coeff(self, i: int, j: int):
        return self.terms.get((i, j), ZERO)

    def sorted_items(self):
        return sorted(self.terms.items())

    # -- arithmetic ----------------------------------------------------

    def __neg__(self) -> "BiLaurent":
        return BiLaurent({e: -c for e, c in self.terms.items()}, _clean=False)

    def __add__(self, other) -> "BiLaurent":
        if not isinstance(other, BiLaurent):
            other = BiLaurent.const(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, ZERO) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return BiLaurent(out, _clean=False)

    __radd__ = __add__

    def __sub__(self, other) -> "BiLaurent":
        return self + -other

    def __mul__(self, other) -> "BiLaurent":
        if not isinstance(other, BiLaurent):
            q = as_q(other)
            if q == 0:
                return BiLaurent()
            return BiLaurent({e: c * q for e, c in self.terms.items()}, _clean=False)
        return BiLaurent(mul_add({}, self.terms, other.terms), _clean=False)

    __rmul__ = __mul__

    def mul_y(self, k: int) -> "BiLaurent":
        """Multiply by y**k (k may be negative)."""
        return BiLaurent({(i, j + k): c for (i, j), c in self.terms.items()}, _clean=False)

    def clear_y(self) -> "BiLaurent":
        """Multiply by the minimal y-power making all y-degrees >= 0."""
        if not self.terms:
            return self
        m = self.y_min()
        return self.mul_y(-m) if m < 0 else self

    # -- conversions ----------------------------------------------------

    def y_coeff(self, j: int) -> UniPoly:
        """The coefficient of y**j, as a polynomial in x."""
        out = {}
        for (i, jj), c in self.terms.items():
            if jj == j:
                out[i] = c
        if not out:
            return UniPoly()
        coeffs = [ZERO] * (max(out) + 1)
        for i, c in out.items():
            coeffs[i] = c
        return UniPoly(coeffs)

    def y_coefficients(self):
        """Map j -> UniPoly over the full y-support."""
        return {j: self.y_coeff(j) for j in sorted({jj for _, jj in self.terms})}

    # -- calculus / evaluation ------------------------------------------

    def dx(self) -> "BiLaurent":
        return BiLaurent(
            {(i - 1, j): i * c for (i, j), c in self.terms.items() if i > 0}, _clean=False
        )

    def dy(self) -> "BiLaurent":
        return BiLaurent(
            {(i, j - 1): j * c for (i, j), c in self.terms.items() if j != 0}, _clean=False
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "BiLaurent(0)"
        parts = [f"({q_str(c)})*x^{i}*y^{j}" for (i, j), c in self.sorted_items()]
        return "BiLaurent(" + " + ".join(parts) + ")"


def integral_multiple(p: BiLaurent) -> BiLaurent:
    """c * p with c the lcm of the coefficient denominators: the least
    positive multiple of p with integer coefficients, and p itself when its
    coefficients are integers already.  An elimination whose result is used
    only up to a nonzero constant can run on it."""
    # int() because gmpy2's numerator and denominator are mpz
    den = lcm(*[int(c.denominator) for c in p.terms.values()])
    if den == 1:
        return p
    return BiLaurent({e: Q(int(c.numerator) * (den // int(c.denominator)))
                      for e, c in p.terms.items()}, _clean=False)


def newton_interior(p: BiLaurent) -> int:
    """Number of integer lattice points strictly inside the convex hull of
    the exponent support.

    By Pick's theorem a lattice polygon of area A with B lattice points on
    its boundary has I = (2A - B + 2) / 2 interior points.  2A is the
    shoelace sum over the hull edges and B the sum of gcd(|dx|, |dy|) over
    them, all exact integers.  A degenerate hull (a point or a segment)
    has no interior points.
    """
    if p.is_zero():
        raise PdTodaError("newton_interior requires a nonzero polynomial")
    hull = _convex_hull(p.terms)
    if len(hull) < 3:
        return 0
    twice_area = boundary = 0
    for (ax, ay), (bx, by) in zip(hull, hull[1:] + hull[:1]):
        twice_area += ax * by - bx * ay
        boundary += gcd(bx - ax, by - ay)
    return (twice_area - boundary + 2) // 2


def _convex_hull(points):
    """Monotone-chain convex hull, counterclockwise, no collinear vertices."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for q in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], q) <= 0:
            lower.pop()
        lower.append(q)
    upper = []
    for q in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], q) <= 0:
            upper.pop()
        upper.append(q)
    return lower[:-1] + upper[:-1]

