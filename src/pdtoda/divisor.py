"""Divisor tracking on the spectral curve via minors, resultants and gcds.

For a transfer matrix X the signed minors D_ij of X - xE cut out the
eigenvector components.  Eliminating y between phi = y det(X - xE) and the
corner minors yields univariate resultants whose common part is the monic
degree-g polynomial U(x) carrying the x-coordinates of the finite divisor:

    R(x) = res_y(phi, y*D_NN),   S(x) = res_y(phi, y*D_1N),
    U(x) = gcd_monic(R, S),      deg R = 2g,   deg U = g.

Four related operators share the same spectral curve: X itself, its
antitranspose X* = J X^T J, the index-shifted sigma^-1 X, and
(sigma^-1 X)*.  Each comes with its own divisor polynomial, and the four
corner resultants of X factor into pairs of them (up to a nonzero scalar):

    res(phi, y*D_NN)  ~  U_X       * U_((sigma^-1 X)*),
    res(phi, y*D_11)  ~  U_(sigma X) * U_(X*),
    res(phi, y*D_1N)  ~  U_X       * U_(X*),
    res(phi, y*D_N1)  ~  U_(sigma X) * U_((sigma^-1 X)*).

The first and third rows are the classical statements.  The second
follows from the exact minor identity D_11(X) = D_NN(sigma X), obtained by
conjugating the adjugate with the cyclic-shift matrix (note the forward
shift: tables that place sigma^-1 X here fail in exact arithmetic), and
the fourth is then forced by the on-curve determinant identity
D_11 D_NN = D_1N D_N1.

"Up to a scalar" means both sides are compared after stripping x-powers
and making them monic: the statements are about root multisets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bilaurent import BiLaurent
from .errors import NonGenericDataError, PdTodaError
from .lax import SpectralData, char_poly, spectral_data, transfer_matrix
from .lmatrix import LaurentMatrix, antitranspose, det, minor_signed, resultant_y
from .rationals import q_str
from .toda import TodaState, evolve, index_shift, require_valid
from .unipoly import UniPoly, gcd_monic, roots_numeric

#: the four operators sharing one spectral curve ("shift" is sigma^-1 X);
#: "shiftup" (sigma X) additionally appears in two factorization rows
VARIANTS = ("X", "Xstar", "shift", "shiftstar")


def operator_matrix(state: TodaState, variant: str = "X") -> LaurentMatrix:
    """Build X, X*, sigma^-1 X, (sigma^-1 X)* or sigma X from the state."""
    if variant == "X":
        return transfer_matrix(state)
    if variant == "Xstar":
        return antitranspose(transfer_matrix(state))
    if variant == "shift":
        return transfer_matrix(index_shift(state, -1))
    if variant == "shiftstar":
        return antitranspose(transfer_matrix(index_shift(state, -1)))
    if variant == "shiftup":
        return transfer_matrix(index_shift(state, 1))
    raise PdTodaError(f"unknown operator variant {variant!r}")


def shift_conjugation_matrix(N: int, inverse: bool = False) -> LaurentMatrix:
    """The cyclic-shift conjugator C with C v = (v_N / y, v_1, ..., v_(N-1)):
    building X from the down-shifted state equals C X C^-1."""
    def fill(i, j):
        if i == 1 and j == N:
            return BiLaurent.y(-1)
        if i >= 2 and j == i - 1:
            return BiLaurent.one()
        return BiLaurent.zero()

    def fill_inv(i, j):
        if i == N and j == 1:
            return BiLaurent.y()
        if j == i + 1:
            return BiLaurent.one()
        return BiLaurent.zero()

    return LaurentMatrix.build(N, N, fill_inv if inverse else fill)


def char_matrix(X: LaurentMatrix) -> LaurentMatrix:
    """X - xE."""
    return X - LaurentMatrix.identity(X.rows).scale(BiLaurent.x())


def corner_minor(X: LaurentMatrix, i: int, j: int) -> BiLaurent:
    """Signed minor D_ij of X - xE."""
    return minor_signed(char_matrix(X), i, j)


def _normalized(p: UniPoly) -> UniPoly:
    """Strip x-power content and make monic; used for root-multiset
    comparisons up to nonzero scalars."""
    if p.is_zero():
        return p
    _, stripped = p.strip_x_power()
    return stripped.monic()


def minor_resultant(phi_cleared: BiLaurent, minor: BiLaurent) -> UniPoly:
    """res_y(phi, y^k * minor) with the minimal k >= 1 clearing 1/y terms,
    followed by x-power stripping.  The y-clearing multiplies the resultant
    by a nonzero constant and possibly a power of x, neither of which
    matters for the root multiset away from x = 0."""
    if minor.is_zero():
        raise NonGenericDataError("corner minor vanishes identically")
    cleared = minor.mul_y(max(1, -minor.y_min()))
    res = resultant_y(phi_cleared, cleared)
    if res.is_zero():
        raise NonGenericDataError("resultant vanishes identically")
    _, stripped = res.strip_x_power()
    return stripped


def _corner_resultants(X: LaurentMatrix, phi_cleared: BiLaurent, N: int):
    """R = res_y(phi, y D_NN) and S = res_y(phi, y D_1N) of X - xE, each
    x-content stripped."""
    R = minor_resultant(phi_cleared, corner_minor(X, N, N))
    S = minor_resultant(phi_cleared, corner_minor(X, 1, N))
    return R, S


def compute_R_S(state_or_matrix, N: int | None = None, M: int | None = None, g: int | None = None):
    """The two corner resultants (R, S) of an operator, x-content stripped.

    Raises :class:`NonGenericDataError` unless deg R = deg S = 2g.
    """
    if isinstance(state_or_matrix, TodaState):
        require_valid(state_or_matrix)
        X = transfer_matrix(state_or_matrix)
        sd = char_poly(X, state_or_matrix.N, state_or_matrix.M)
        N, g = sd.N, sd.g
    else:
        X = state_or_matrix
        if N is None or M is None or g is None:
            raise PdTodaError("matrix input needs explicit N, M, g")
        sd = char_poly(X, N, M)
    R, S = _corner_resultants(X, sd.phi_cleared, N)
    for name, poly in (("R", R), ("S", S)):
        if poly.degree != 2 * g:
            raise NonGenericDataError(
                f"deg {name} = {poly.degree}, expected 2g = {2 * g}; non-generic data"
            )
    return R, S


@dataclass(frozen=True)
class DivisorPoly:
    """Monic degree-g polynomial whose roots are the x-coordinates of the
    finite divisor of one operator variant."""

    poly: UniPoly
    t: int
    variant: str

    @property
    def degree(self) -> int:
        return self.poly.degree

    def x_sum(self):
        """Sum of divisor x-coordinates (coefficient a_1 in
        x^g - a_1 x^(g-1) + ...)."""
        g = self.poly.degree
        if g == 0:
            return 0
        return -self.poly.coeff(g - 1)


def divisor_poly(state: TodaState, variant: str = "X") -> DivisorPoly:
    """U = gcd_monic(R, S) for the chosen operator; monic of degree g."""
    require_valid(state)
    X = transfer_matrix(state)
    sd = char_poly(X, state.N, state.M)
    if sd.g and variant != "X":
        X = operator_matrix(state, variant)
    return _divisor_of(X, sd, variant, state.t)


def _divisor_of(X: LaurentMatrix, sd: SpectralData, variant: str, t: int,
                corners=None) -> DivisorPoly:
    """U of the operator X on the curve of ``sd``; ``corners`` is X's (R, S)
    when the caller already has them."""
    if sd.g == 0:
        return DivisorPoly(poly=UniPoly.one(), t=t, variant=variant)
    ups = gcd_monic(*(corners or _corner_resultants(X, sd.phi_cleared, sd.N)))
    if ups.degree != sd.g:
        raise NonGenericDataError(
            f"gcd degree {ups.degree} != genus {sd.g} for variant {variant}"
        )
    return DivisorPoly(poly=ups, t=t, variant=variant)


def zeros_factorization_check(state: TodaState) -> dict:
    """The four corner-resultant factorizations, each side monic-normalized.

    Also checks the determinant identity
    D_11 D_NN - D_1N D_N1 = phi_tilde * (inner double minor), which forces
    the corner minors to share their zeros on the curve.  Returns a dict of
    named booleans; raises on non-generic data.
    """
    require_valid(state)
    X = transfer_matrix(state)
    sd = char_poly(X, state.N, state.M)
    N = sd.N
    phi = sd.phi_cleared

    # one curve serves all five operators; only the shifted ones need a new X
    X_down = transfer_matrix(index_shift(state, -1))
    operators = {
        "X": X,
        "Xstar": antitranspose(X),
        "shift": X_down,
        "shiftstar": antitranspose(X_down),
        "shiftup": transfer_matrix(index_shift(state, 1)),
    }
    R, S = _corner_resultants(X, phi, N)
    ups = {
        v: _divisor_of(op, sd, v, state.t, (R, S) if v == "X" else None).poly
        for v, op in operators.items()
    }
    known = {(N, N): R, (1, N): S}
    pairs = {
        (N, N): ("X", "shiftstar"),
        (1, 1): ("shiftup", "Xstar"),
        (1, N): ("X", "Xstar"),
        (N, 1): ("shiftup", "shiftstar"),
    }
    results = {}
    for (i, j), (va, vb) in pairs.items():
        res = known[i, j] if (i, j) in known else minor_resultant(phi, corner_minor(X, i, j))
        results[f"D{i}{j}"] = _normalized(res) == _normalized(ups[va] * ups[vb])

    cm = char_matrix(X)
    d11 = minor_signed(cm, 1, 1)
    dnn = minor_signed(cm, N, N)
    d1n = minor_signed(cm, 1, N)
    dn1 = minor_signed(cm, N, 1)
    if N == 2:
        inner = BiLaurent.one()
    else:
        inner = det(cm.submatrix(1, 1).submatrix(N - 1, N - 1))
    results["double_minor_identity"] = d11 * dnn - d1n * dn1 == sd.phi * inner
    return results


def rel_eval(p: BiLaurent, x0: complex, y0: complex) -> float:
    """|p(x0, y0)| divided by the sum of term magnitudes: the natural
    relative residual for 'vanishes at this point' screens."""
    num = 0j
    mag = 1.0
    for (i, j), c in p.sorted_items():
        term = complex(c) * (x0 ** i) * (y0 ** j)
        num += term
        mag += abs(term)
    return abs(num) / mag


def fiber_roots(p: BiLaurent, x0: complex):
    """All nonzero y with p(x0, y) = 0, from the fiber polynomial in y."""
    coeffs = np.array(
        [complex(p.y_coeff(j)(complex(x0))) for j in range(p.y_min(), p.y_max() + 1)],
        dtype=complex,
    )
    coeffs = np.trim_zeros(coeffs, "b")
    if coeffs.size < 2:
        raise NonGenericDataError("degenerate fiber")
    return [y for y in np.roots(coeffs[::-1]) if abs(y) > 1e-13]


def common_zero_support_check(state: TodaState, tol: float = 1e-8) -> bool:
    """At each common zero of {D_N1, D_NN} on the curve, every D_Nk
    (k = 1..N) vanishes as well; numeric screen at the sampled roots."""
    require_valid(state)
    sd = spectral_data(state)
    if sd.g == 0:
        return True
    N = sd.N
    X = transfer_matrix(state)
    phi = sd.phi_cleared
    r_n1 = minor_resultant(phi, corner_minor(X, N, 1))
    r_nn = minor_resultant(phi, corner_minor(X, N, N))
    common = gcd_monic(r_n1, r_nn)
    if common.degree < 1:
        raise NonGenericDataError("no common zeros found")
    minors = [corner_minor(X, N, k) for k in range(1, N + 1)]
    for x0 in roots_numeric(common):
        ys = fiber_roots(phi, x0)
        # the divisor point is the y on the curve killing both corner minors
        best = min(ys, key=lambda y: rel_eval(minors[0], x0, y) + rel_eval(minors[N - 1], x0, y))
        for m in minors:
            if rel_eval(m, x0, best) > tol:
                return False
    return True


def track_divisor(state: TodaState, steps: int) -> list:
    """U_t for t = 0..steps along the exact trajectory."""
    out = []
    s = state
    for k in range(steps + 1):
        try:
            out.append(divisor_poly(s, "X"))
        except NonGenericDataError as exc:
            raise NonGenericDataError(f"at step {k}: {exc}") from exc
        if k < steps:
            s = evolve(s)
    return out


def divisor_report(track: list, g: int) -> dict:
    """JSON-ready divisor trajectory."""
    steps = []
    for dp in track:
        entry = {
            "t": dp.t,
            "upsilon": [q_str(c) for c in dp.poly.coeffs],
        }
        if dp.poly.degree >= 1:
            entry["roots"] = [[z.real, z.imag] for z in roots_numeric(dp.poly)]
        else:
            entry["roots"] = []
        steps.append(entry)
    return {"g": g, "steps": steps}


def smoothness_probe(sd: SpectralData, tol: float = 1e-8) -> dict:
    """Screen for affine singular points, where phi = dphi/dx = dphi/dy = 0
    simultaneously.  Advisory only.

    Candidate x-values are the common roots of the two eliminations
    res_y(phi, phi_y) and res_y(phi, phi_x); their gcd is computed exactly,
    so a trivial gcd is an exact certificate that no affine singular point
    exists.  A nontrivial gcd is confirmed numerically at tolerance ``tol``
    with y taken from the phi_y fiber (a simple root there, immune to the
    sqrt-of-epsilon noise that double roots inject).
    """
    phi = sd.phi_cleared
    phi_y = phi.dy()
    phi_x = phi.dx()
    if phi_y.is_zero() or phi_x.is_zero():
        return {"likely_smooth": False, "witnesses": [], "note": "degenerate polynomial"}
    if sd.g == 0:
        return {"likely_smooth": True, "witnesses": [], "note": "rational curve (g = 0)"}
    r_a = resultant_y(phi, phi_y.clear_y())
    r_b = resultant_y(phi, phi_x.clear_y())
    if r_a.is_zero() or r_b.is_zero():
        return {"likely_smooth": False, "witnesses": [],
                "note": "vanishing elimination: non-squarefree spectral polynomial"}
    _, r_a = r_a.strip_x_power()
    _, r_b = r_b.strip_x_power()
    common = gcd_monic(r_a, r_b)
    if common.degree < 1:
        return {"likely_smooth": True, "witnesses": [], "note": "exact: resultants coprime"}
    witnesses = []
    for x0 in roots_numeric(common):
        for y0 in fiber_roots(phi_y, x0):
            vals = (rel_eval(phi, x0, y0), rel_eval(phi_y, x0, y0), rel_eval(phi_x, x0, y0))
            if all(v <= tol for v in vals):
                witnesses.append(((x0.real, x0.imag), (y0.real, y0.imag)))
    return {"likely_smooth": not witnesses, "witnesses": witnesses}
