"""First-row products of the I-factors and the arrow-sequence calculus.

Let U_k = R_(k-1) ... R_(1) R_(0) be the product of the first k I-factor
matrices (k <= M) and u^(k) its first row (the part free of y).  The
entries obey the corner/shift recurrence

    u_j^(k+1) = shift(u_(j-1)^(k)) + I_1^(k) u_j^(k),        u_0 = 0,

where ``shift`` bumps every lattice site index by one.  Each entry is also
a sum over arrow sequences of fixed composition: appending SW multiplies by
the current corner value, appending SE applies the site shift.  The
identities implemented here (the prefix-swap rule, the two alternating
first-row sums, and the second-row band coefficients) are exactly the
ingredients that force the one-step transfer determinant identity
det H = (-1)^(M+1) I_1 x.

Identities are verified on concrete rational states rather than in a free
polynomial ring: a nonzero polynomial identity would fail at random
rational points with probability ~1, and small arrow lengths are checked
exhaustively as well.  A ``*_check`` returns the two sides of its claim and
never decides it; the caller compares them.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .errors import PdTodaError
from .lax import band_params, r_matrix
from .rationals import ONE, ZERO
from .toda import TodaState, index_shift

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
    the independent oracle for :func:`u_row`."""
    if not 1 <= k <= state.M:
        raise PdTodaError(f"need 1 <= k <= M, got k={k}")
    prod = r_matrix(state, k - 1)
    for layer in range(k - 2, -1, -1):
        prod = prod @ r_matrix(state, layer)
    out = []
    for j in range(1, state.N + 1):
        e = prod.entry(1, j)
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


def prefix_swap_check(state: TodaState, tail: Sequence[str]) -> tuple:
    """Exchange rule for the leading arrow:

        {SW, a_2..a_k} = I_(l+1) * {SE, a_2..a_k},

    where l counts the SE arrows among a_2..a_k.  Returns (lhs, rhs)."""
    tail = tuple(tail)
    if len(tail) + 1 > state.M:
        raise PdTodaError("sequence too long for this state")
    l = sum(1 for a in tail if a == SE)
    return arrow_eval(state, (SW,) + tail), state.i(l + 1, 0) * arrow_eval(state, (SE,) + tail)


def alternating_row_sum_check(state: TodaState) -> tuple:
    """u_1^(M) + sum_(j=1..M) (-1)^j u_(j+1)^(M) I_1...I_j = 0 exactly.
    Returns (the sum, 0)."""
    if not state.M < state.N:
        raise PdTodaError("requires M < N")
    row = u_row(state, state.M)
    total = row[0]
    prefix = ONE
    for j in range(1, state.M + 1):
        prefix = prefix * state.i(j, 0)
        term = row[j] * prefix
        total = total - term if j % 2 else total + term
    return total, ZERO


def shifted_alternating_row_sum_check(state: TodaState) -> tuple:
    """sum_(j=1..M) (-1)^j shift(u_j^(M)) I_1...I_j = (-1)^M I_1...I_(M+1).
    Returns (the sum, the product)."""
    if not state.M < state.N:
        raise PdTodaError("requires M < N")
    M = state.M
    shifted_row = u_row(index_shift(state, 1), M)
    total = ZERO
    prefix = ONE
    for j in range(1, M + 1):
        prefix = prefix * state.i(j, 0)
        term = shifted_row[j - 1] * prefix
        total = total - term if j % 2 else total + term
    expected = prefix * state.i(M + 1, 0)
    if M % 2:
        expected = -expected
    return total, expected


def second_row_check(state: TodaState) -> tuple:
    """The second row of X in band coefficients:

        beta_1 = V_1 u_1^(M),
        alpha^(j)_(j+1) = shift(u_j^(M)) + V_1 u_(j+1)^(M),   j = 1..M.

    Returns (beta_1, alpha^(1)_2, ..., alpha^(M)_(M+1)) read off the built X
    and the same tuple from the closed forms."""
    if not state.M < state.N:
        raise PdTodaError("second-row check requires M < N")
    M, v1 = state.M, state.v(1)
    params = band_params(state)
    row = u_row(state, M)
    shifted_row = u_row(index_shift(state, 1), M)
    read = (params.b(1),) + tuple(params.a(j, j + 1) for j in range(1, M + 1))
    closed = (v1 * row[0],) + tuple(shifted_row[j - 1] + v1 * row[j] for j in range(1, M + 1))
    return read, closed
