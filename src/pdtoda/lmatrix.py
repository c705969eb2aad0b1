"""Matrices over bivariate Laurent polynomials, exact determinants, signed
minors and Sylvester resultants.

Determinants are taken by one strategy: dynamic-programming expansion by
minors over column subsets, which avoids Laurent division entirely and
costs O(2^n n) multiplications.  Its partial minors are raw term dicts,
accumulated in place by the package's one product kernel
``bilaurent.mul_add``; the permutation sign is folded in by taking each
entry in the sign its column position asks for, and the result is wrapped
in a BiLaurent once, at the end.  ``corner_minors`` reads the two corner
minors D_NN and D_1N off one table of partial minors over the rows they
share.  Naive Laplace expansion is kept as the test oracle.

Resultants are Sylvester-matrix determinants.  The convention is

    res(p, q) = lead(p)^deg(q) * prod q(root of p),

equivalently the determinant of the Sylvester matrix whose first deg(q)
rows carry the coefficients of p.  For speed the determinant in y with
x-polynomial entries is computed over the integers (Collins' evaluation
scheme): denominators are cleared once, the integer polynomials P and Q
are evaluated at x = 0, 1, ..., b, the value of each sample is taken
exactly, and the samples are interpolated by integer forward
differences.  The degree bound b is the assignment bound, the largest sum
of entry degrees over the permutations of the Sylvester matrix that avoid
zero entries, which no term of Leibniz's expansion exceeds.

A sample is not the (dp+dq)-square Sylvester determinant but its
reduction modulo P, the norm form res(P, Q) = c^dq det Q(C_P) with c the
lead of P and C_P its companion matrix.  With formal degrees dp and dq,
pseudo-reduce

    c^(e_j) y^j Q = A_j P + r_j,   deg r_j < dp,   j = 0..dp-1.

Scaling a Q-row of the Sylvester matrix by c^(e_j) and subtracting the
P-row multiples A_j P turns it block triangular, the P block triangular
with c on its diagonal, so

    Syl(P, Q) = c^dq det[r_(dp-1); ...; r_0] / c^(e_0 + ... + e_(dp-1)).

The division is exact because the quotient is the integer Syl(P, Q); it
is checked anyway.  When lead P vanishes at a sample the roles swap,
Syl(P, Q) = (-1)^(dp dq) Syl(Q, P) reduced modulo Q; when both leads
vanish the first Sylvester column is zero and so is the sample.  The dp x
dp determinant, dp = M + 1 on the corner resultants, is a division-free
expansion for dp <= 4 and fraction-free Bareiss elimination from dp = 5
(``_int_det``): at dp = 3 and 4 the expansion takes a quarter to a half
of Bareiss's time, which pays exact big-integer divisions.  Every step
is exact, so no moduli or coefficient bounds are involved.  The Laplace
expansion of the Sylvester matrix over x-polynomials is kept as the test
oracle.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .bilaurent import BiLaurent, mul_add
from .errors import DimensionError, PdTodaError
from .rationals import ONE, Q
from .unipoly import UniPoly, cleared, horner


class LaurentMatrix:
    """Immutable rectangular matrix with BiLaurent entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[BiLaurent]]):
        rows = tuple(map(tuple, entries))
        width = len(rows[0]) if rows else 0
        if any(len(row) != width for row in rows):
            raise DimensionError("ragged rows")
        if not width:
            raise DimensionError("empty matrix")
        self.entries = rows
        self.rows = len(rows)
        self.cols = width

    @classmethod
    def identity(cls, n: int) -> "LaurentMatrix":
        return cls(
            [[BiLaurent.one() if i == j else BiLaurent.zero() for j in range(n)] for i in range(n)]
        )

    def entry(self, i: int, j: int) -> BiLaurent:
        """1-based access."""
        return self.entries[i - 1][j - 1]

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentMatrix):
            return self.entries == other.entries
        return NotImplemented

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = list(zip(*other.entries))
        out = []
        for row in self.entries:
            cells = []
            for col in cols:
                acc = {}
                for a, b in zip(row, col):
                    mul_add(acc, a.terms, b.terms)
                cells.append(BiLaurent(acc, _clean=False))
            out.append(cells)
        return LaurentMatrix(out)

    def submatrix(self, drop_row: int, drop_col: int) -> "LaurentMatrix":
        """Delete 1-based row and column."""
        return LaurentMatrix(
            [
                [self.entries[i][j] for j in range(self.cols) if j != drop_col - 1]
                for i in range(self.rows)
                if i != drop_row - 1
            ]
        )


def antitranspose(m: LaurentMatrix) -> LaurentMatrix:
    """Reflection about the antidiagonal: J m^T J with J the reversal matrix."""
    if m.rows != m.cols:
        raise DimensionError("antitranspose requires a square matrix")
    n = m.rows
    return LaurentMatrix(
        [[m.entries[n - 1 - j][n - 1 - i] for j in range(n)] for i in range(n)]
    )


def det(m: LaurentMatrix) -> BiLaurent:
    """Exact determinant.

    Square matrices only; intended scale is dimension <= 12.
    """
    if m.rows != m.cols:
        raise DimensionError(f"determinant of {m.rows}x{m.cols} matrix")
    return BiLaurent(_minor_table(m.entries).get((1 << m.rows) - 1, {}), _clean=False)


def det_cofactor(m: LaurentMatrix) -> BiLaurent:
    """Naive recursive Laplace expansion; the independent oracle for det."""
    if m.rows != m.cols:
        raise DimensionError("determinant of non-square matrix")
    return _det_laplace(m.entries)


def _det_laplace(rows) -> BiLaurent:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = BiLaurent.zero()
    for j in range(n):
        if not rows[0][j].terms:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * _det_laplace(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _minor_table(rows) -> dict:
    """Expansion by minors with memoization on column subsets: column
    bitmask -> term dict of the minor over all of ``rows`` and those
    columns, for every column set that ``rows`` fills.  ``det`` reads the
    full mask.

    The minors over rows 0..k-1 are built bottom up; O(2^n) subproblems
    instead of n! cofactor paths.  Partial minors are raw term dicts
    accumulated by ``mul_add``; a minor that cancels to nothing stays in
    the table as an empty dict, which adds nothing to the next row.
    """
    current = {0: {(0, 0): ONE}}
    for row in rows:
        # each entry in both signs, so the permutation sign costs no product
        signed = [(a.terms, {e: -c for e, c in a.terms.items()}) if a.terms else None
                  for a in row]
        nxt = {}
        for mask, sub in current.items():
            # walking columns from the top keeps `parity` equal to the
            # number of already-used columns above j: the inversions the
            # permutation gains by placing this row in column j
            parity = 0
            for j in range(len(row) - 1, -1, -1):
                bit = 1 << j
                if mask & bit:
                    parity ^= 1
                    continue
                a = signed[j]
                if a is not None:
                    key = mask | bit
                    acc = nxt.get(key)
                    if acc is None:
                        acc = nxt[key] = {}
                    mul_add(acc, a[parity], sub)
        current = nxt
    return current


def corner_minors(m: LaurentMatrix) -> tuple:
    """The signed minors (D_NN, D_1N) of a square matrix, equal to
    ``minor_signed(m, N, N)`` and ``minor_signed(m, 1, N)``.

    Both delete column N and keep rows 2..N-1, so one table of the minors
    over those rows serves both: D_NN is one Laplace step along row 1,
    D_1N one along row N.  Column j (0-based) of the table's complement
    carries the sign (-1)^j in D_NN and -(-1)^j in D_1N.
    """
    if m.rows != m.cols:
        raise DimensionError("corner minors of non-square matrix")
    n = m.rows
    if n == 1:
        return BiLaurent.one(), BiLaurent.one()
    rows = m.entries
    table = _minor_table([row[:-1] for row in rows[1:-1]])
    full = (1 << (n - 1)) - 1
    out = []
    for row, sign in ((rows[0], 0), (rows[-1], 1)):
        acc = {}
        for j, a in enumerate(row[:-1]):
            sub = table.get(full ^ (1 << j))
            if a.terms and sub:
                mul_add(acc, a.terms if (j + sign) % 2 == 0 else (-a).terms, sub)
        out.append(BiLaurent(acc, _clean=False))
    return tuple(out)


def minor_signed(m: LaurentMatrix, i: int, j: int) -> BiLaurent:
    """(-1)^(i+j) times the (i, j) minor (1-based); the empty minor of a
    1x1 matrix is 1."""
    if m.rows != m.cols:
        raise DimensionError("signed minor of non-square matrix")
    if not (1 <= i <= m.rows and 1 <= j <= m.cols):
        raise PdTodaError(f"minor index ({i}, {j}) out of range for {m.rows}x{m.cols}")
    if m.rows == 1:
        return BiLaurent.one()
    value = det(m.submatrix(i, j))
    return value if (i + j) % 2 == 0 else -value


# ---------------------------------------------------------------------------
# Sylvester resultants
# ---------------------------------------------------------------------------


def _y_poly(p: BiLaurent):
    """View p as a polynomial in y: list of UniPoly, lowest y-degree first."""
    if p.is_zero():
        raise PdTodaError("resultant of the zero polynomial")
    if p.y_min() < 0:
        raise PdTodaError("resultant_y requires nonnegative y-degrees; clear y first")
    degs = p.y_coefficients()
    top = max(degs)
    return [degs.get(j, UniPoly()) for j in range(top + 1)]


def _sylvester(pc, qc, zero):
    """Sylvester matrix rows for coefficient lists in y (lowest degree
    first); ``zero`` fills the band's outside."""
    dp = len(pc) - 1
    dq = len(qc) - 1
    n = dp + dq
    rows = []
    prow = list(reversed(pc))  # descending degree
    qrow = list(reversed(qc))
    for k in range(dq):
        rows.append([zero] * k + prow + [zero] * (n - dp - 1 - k))
    for k in range(dp):
        rows.append([zero] * k + qrow + [zero] * (n - dq - 1 - k))
    return rows


#: the last ``p`` of ``resultant_y``, held strongly so that identity is a
#: safe key, with its integer y-coefficients, their common denominator,
#: their degrees and their values at the samples taken so far: a divisor
#: track eliminates y against the same phi at every step
_last_p = [None]


def _cleared_p(p: BiLaurent) -> tuple:
    entry = _last_p[0]
    if entry is None or entry[0] is not p:
        ints, den = cleared(_y_poly(p))
        entry = (p, ints, den, [len(c) - 1 if c else None for c in ints], [])
        _last_p[0] = entry
    return entry


def resultant_y(p: BiLaurent, q: BiLaurent) -> UniPoly:
    """Resultant in y of two polynomials with nonnegative y-degrees.

    Equals lead(p)^deg(q) * prod_i q(y_i) over the y-roots of p.  With
    p = P / Dp and q = Q / Dq for integer polynomials P, Q, the Sylvester
    determinant of (P, Q) is an integer polynomial in x of degree at most
    the assignment bound: the largest sum of entry degrees over the
    permutations that avoid zero entries.  It is sampled at bound + 1
    integer points and divided once by Dp^deg(q) * Dq^deg(p); when no
    permutation avoids the zero entries the resultant is zero.

    Each sample reduces Q modulo P (``_int_resultant``):
    Syl(P, Q) = c^dq det[r_(dp-1); ...; r_0] / c^(e_0 + ... + e_(dp-1))
    with c = lead P and c^(e_j) y^j Q = A_j P + r_j, deg r_j < dp.  The
    division is exact, as the quotient is the integer Syl(P, Q), and it is
    checked.  Where lead P vanishes, Syl(P, Q) = (-1)^(dp dq) Syl(Q, P) is
    reduced modulo Q instead, and a sample where both leads vanish is
    zero.  A y-degree 0 takes the same path: the reduced block is q_0
    times the identity at dq = 0, ``_int_resultant`` returns p_0^dq at
    dp = 0, and at dp = dq = 0 the bound is 0 and the one sample is 1.
    P's cleared coefficients and their values at the samples are kept for
    the next call with the same ``p`` object.
    """
    _, pi, dp_den, p_degrees, p_values = _cleared_p(p)
    qc = _y_poly(q)
    dp, dq = len(pi) - 1, len(qc) - 1
    qi, dq_den = cleared(qc)
    q_degrees = [len(c) - 1 if c else None for c in qi]
    bound = _degree_bound(tuple(map(tuple, _sylvester(p_degrees, q_degrees, None))))
    if bound is None:
        return UniPoly()
    while len(p_values) <= bound:
        p_values.append([horner(c, len(p_values)) for c in pi])
    samples = [_int_resultant(p_values[s], [horner(c, s) for c in qi])
               for s in range(bound + 1)]
    den = dp_den ** dq * dq_den ** dp
    return UniPoly(Q(c, den) for c in _int_interpolate(samples))


def _int_resultant(pv: list, qv: list) -> int:
    """Syl(P, Q) of integer coefficient lists (lowest degree first, formal
    degrees len - 1) by reduction modulo P.

    r_0 is the pseudo-remainder of Q by P and r_(j+1) that of y r_j; each
    step multiplies by c = lead P only when the top term it cancels is
    nonzero, and e_j counts those steps up to r_j.  Then
    Syl(P, Q) = c^dq det[r_0 .. r_(dp-1)] / c^(sum e_j): reversing both
    the row order and the column order of the block leaves its
    determinant unchanged.
    """
    dp, dq = len(pv) - 1, len(qv) - 1
    if dp == 0:
        return pv[0] ** dq
    c = pv[-1]
    if not c:
        if not qv[-1]:
            return 0
        value = _int_resultant(qv, pv)
        return -value if dp * dq % 2 else value
    low = pv[:-1]
    r = list(qv)
    e = 0
    while len(r) > dp:
        t = r.pop()
        if t:
            off = len(r) - dp
            r = [a * c for a in r]
            for i, b in enumerate(low):
                r[off + i] -= t * b
            e += 1
    r += [0] * (dp - len(r))
    rows = [r]
    total = e
    for _ in range(dp - 1):
        t = r[-1]
        r = [0] + r[:-1]
        if t:
            r = [a * c - t * b for a, b in zip(r, low)]
            e += 1
        rows.append(r)
        total += e
    value = _int_det(rows)
    k = total - dq
    if k <= 0:
        return value * c ** -k
    quotient, remainder = divmod(value, c ** k)
    if remainder:
        raise ArithmeticError("reduced Sylvester determinant is not divisible "
                              "by the lead power")
    return quotient


@lru_cache(maxsize=256)
def _degree_bound(degrees: tuple):
    """Largest sum of entry degrees over the permutations of a square
    matrix that avoid its zero entries (``None`` in ``degrees``), or None
    when every permutation meets a zero.  ``degrees`` is a tuple of row
    tuples: a divisor track meets only a few degree patterns, so the
    bound is memoised on the pattern.

    By Leibniz's expansion the determinant has no higher degree.  The
    maximum is taken by the column-subset recursion of ``_minor_table``:
    the best partial sum over rows 0..k-1 for each set of used columns.
    """
    best = {0: 0}
    for row in degrees:
        nxt = {}
        for mask, total in best.items():
            for j, d in enumerate(row):
                bit = 1 << j
                if d is not None and not mask & bit and nxt.get(mask | bit, -1) < total + d:
                    nxt[mask | bit] = total + d
        best = nxt
    return best.get((1 << len(degrees)) - 1)


def _int_det(a) -> int:
    """Determinant of an integer matrix.

    Up to n = 4 it is a division-free expansion: the 3 x 3 rule, and at
    n = 4 the six 2 x 2 minors of rows 1-2 against the complementary
    minors of rows 3-4.  From n = 5 it is fraction-free Bareiss
    elimination, whose every division is exact by the Bareiss identity.

    Measured on 64-, 400- and 2000-bit entries (2-core x86_64, CPython
    3.11), the expansion takes 0.8 / 3.4 / 45 us at n = 3 against
    Bareiss's 3.1 / 8.6 / 84, and 3.2 / 13 / 170 us at n = 4 against 7.6 /
    30 / 388: Bareiss pays an exact big-integer division for every entry
    it updates.  At n = 5 a looped two-row expansion loses to Bareiss on
    word-size entries (22 us against 15), and only one written out term
    by term (10 pairs of minors) wins; Bareiss is kept there and beyond,
    one loop for every n.
    """
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        (p, q), (r, s) = a
        return p * s - q * r
    if n == 3:
        (p, q, r), (s, t, u), (v, w, x) = a
        return p * (t * x - u * w) - q * (s * x - u * v) + r * (s * w - t * v)
    if n == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = a
        return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
                - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
                + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
                + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
                - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
                + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))
    a = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = a[i]
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def _int_interpolate(values) -> list:
    """Integer coefficients (lowest degree first) of the polynomial f with
    f(k) = values[k] for k = 0..n-1, assuming f has integer coefficients.

    Newton's forward differences: f(x) = sum_k (Delta^k f(0) / k!) x^(k),
    with x^(k) = x (x - 1) ... (x - k + 1) the falling factorial; the
    divisions by k! are exact for integer polynomials.  The falling
    factorial form is then expanded by Horner's rule in the nodes.
    """
    diffs = list(values)
    newton = []
    fact = 1
    for k in range(len(diffs)):
        if k:
            fact *= k
        newton.append(diffs[0] // fact)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    out = []
    for k in range(len(newton) - 1, -1, -1):
        # out <- out * (x - k) + newton[k]
        shifted = [0] + out
        for i, c in enumerate(out):
            shifted[i] -= k * c
        shifted[0] += newton[k]
        out = shifted
    return out


def resultant_y_direct(p: BiLaurent, q: BiLaurent) -> UniPoly:
    """Sylvester determinant by Laplace expansion over x-polynomials
    (oracle path)."""
    pc = _y_poly(p)
    qc = _y_poly(q)
    if len(pc) == 1 and len(qc) == 1:
        return UniPoly.one()
    if len(qc) == 1:
        return qc[0] ** (len(pc) - 1)
    if len(pc) == 1:
        return pc[0] ** (len(qc) - 1)
    rows = _sylvester([BiLaurent.from_unipoly(c) for c in pc],
                      [BiLaurent.from_unipoly(c) for c in qc], BiLaurent.zero())
    return det_cofactor(LaurentMatrix(rows)).y_coeff(0)

