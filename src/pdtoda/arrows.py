"""First-row products of the I-factors and the arrow-sequence calculus.

Let U_k = R_(k-1) ... R_(1) R_(0) be the product of the first k I-factor
matrices (k <= M) and u^(k) its first row (the part free of y).  The
entries obey the corner/shift recurrence

    u_j^(k+1) = shift(u_(j-1)^(k)) + I_1^(k) u_j^(k),        u_0 = 0,

where ``shift`` bumps every lattice site index by one.  Each entry is also
a sum over arrow sequences of fixed composition: appending SW multiplies by
the current corner value, appending SE applies the site shift.  The
identities of this calculus (the prefix-swap rule, the two alternating
first-row sums, and the second-row band coefficients) are exactly the
ingredients that force the one-step transfer determinant identity
det H = (-1)^(M+1) I_1 x; ``verify`` states them.

They are verified on concrete rational states rather than in a free
polynomial ring: a nonzero polynomial identity would fail at random
rational points with probability ~1, and small arrow lengths are checked
exhaustively as well.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .errors import PdTodaError
from .lax import r_matrix
from .lmatrix import LaurentMatrix
from .rationals import ONE, ZERO
from .toda import TodaState

#: arrow symbols: SW multiplies by the corner value of the current layer,
#: SE shifts every lattice index by one site.
SW = "SW"
SE = "SE"


def u_row(state: TodaState, k: int) -> tuple:
    """First row of U_k = R_(k-1)...R_(0) at y-degree zero, length N.

    Computed by the corner/shift recurrence.  Within the first window the
    entry at column k+1 is 1 and later columns vanish (for k < N).
    """
    if not 1 <= k <= state.M:
        raise PdTodaError(f"u_row needs 1 <= k <= M, got k={k}")
    N = state.N
    memo = {}

    def row(shift_by: int, level: int) -> tuple:
        key = (shift_by, level)
        if key in memo:
            return memo[key]
        if level == 1:
            base = [state.i(1 + shift_by)] + ([ONE] + [ZERO] * (N - 2) if N >= 2 else [])
        else:
            prev = row(shift_by, level - 1)
            shifted = row(shift_by + 1, level - 1)
            corner = state.i(1 + shift_by, level - 1)
            base = [
                (shifted[j - 1] if j >= 1 else ZERO) + corner * prev[j]
                for j in range(N)
            ]
        memo[key] = tuple(base)
        return memo[key]

    return row(0, k)


def u_row_matrix_oracle(state: TodaState, k: int) -> tuple:
    """First row of the explicit product R_(k-1)...R_(0) at y-degree zero;
    the independent oracle for :func:`u_row`.

    The row is swept through the factors, e_1^T R_(k-1), then times
    R_(k-2), ..., then times R_(0): by associativity that is the first row
    of the product, at O(N^2) per factor instead of a dense O(N^3) matrix
    product.  It stays independent of :func:`u_row`: it multiplies the
    factor matrices ``lax.r_matrix`` builds (y corner included) with the
    general matrix product, and uses neither the corner/shift recurrence
    nor site shifts.
    """
    if not 1 <= k <= state.M:
        raise PdTodaError(f"need 1 <= k <= M, got k={k}")
    row = LaurentMatrix(r_matrix(state, k - 1).entries[:1])
    for layer in range(k - 2, -1, -1):
        row = row @ r_matrix(state, layer)
    out = []
    for e in row.entries[0]:
        if e.x_degree() > 0:
            raise PdTodaError("first row of the I-factor product is not scalar")
        out.append(e.coeff(0, 0))
    return tuple(out)


def arrow_eval(state: TodaState, seq: Sequence[str]):
    """Evaluate an arrow sequence on a state.

    The empty sequence is 1; peeling from the right, with the shift taken
    as a site offset (as in :func:`u_row`),

        eval(prefix + [SW], s) = I_1^(len prefix)(s) * eval(prefix, s),
        eval(prefix + [SE], s) = eval(prefix, shift(s)).
    """
    seq = tuple(seq)
    if len(seq) > state.M:
        raise PdTodaError("arrow sequence longer than the number of layers")
    if any(a not in (SW, SE) for a in seq):
        raise PdTodaError(f"unknown arrow in {seq!r}")
    value, site = ONE, 1
    for layer in range(len(seq) - 1, -1, -1):
        if seq[layer] == SW:
            value = state.i(site, layer) * value
        else:
            site += 1
    return value


def arrow_sum(state: TodaState, k: int, j: int):
    """Sum over all length-k sequences with j-1 SE and k-j+1 SW arrows;
    equals entry j of u^(k)."""
    if not (1 <= j <= k + 1):
        return ZERO
    total = ZERO
    for se_pos in combinations(range(k), j - 1):
        seq = [SW] * k
        for p in se_pos:
            seq[p] = SE
        total += arrow_eval(state, seq)
    return total
