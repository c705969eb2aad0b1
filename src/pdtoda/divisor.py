"""Divisor tracking on the spectral curve via minors, resultants and gcds.

For a transfer matrix X the signed minors D_ij of X - xE cut out the
eigenvector components.  Eliminating y between phi = y det(X - xE) and the
corner minors yields univariate resultants whose common part is the monic
degree-g polynomial U(x) carrying the x-coordinates of the finite divisor:

    R(x) ~ res_y(phi, y*D_NN),   S(x) ~ res_y(phi, y*D_1N),
    U(x) = gcd_monic(R, S),      deg R = 2g,   deg U = g.

y is eliminated between integer forms: ``SpectralData.phi_integral``, the
least positive integer multiple of y*phi, built once per curve, and each
y-shifted minor cleared to integers the same way.  So R and S are defined
only up to a nonzero constant (the ~ above), which U, being monic, does
not see.  Between rational forms ``resultant_y`` would divide each of its
2g+1 coefficients by Dp^dq Dq^dp, a big-integer gcd each, and
``gcd_monic`` would at once clear them back to integers; on integer forms
the denominator is 1.  On the divisor-track benchmark (10-step tracks of
(4,2), (5,2) and (4,3) states; 2-core x86_64, CPython 3.11.7, the
LeanFraction backend) this took the median pass from 0.575 to 0.512 s
over 12 pairs of runs, and ``resultant_y``'s 7810 rational coefficients
per pass from 0.085 to 0.023 s under cProfile.

The operators on one spectral curve are named in ``OPERATORS``, each by
the index shift of the state it is built from and whether it is
antitransposed (X* = J X^T J): "X" is X, "Xstar" is X*, "shift" is
sigma^-1 X, "shiftstar" is (sigma^-1 X)* and "shiftup" is sigma X.
``operators`` builds one X per index shift and antitransposes it for the
starred name, and ``divisor_of`` takes U of any of them on the shared
curve.  That curve is ``lax.curve_of`` of the state, which ``evolve`` and
``index_shift`` hand on, so ``track_divisor`` builds it once, at t = 0.
The four corner resultants of X factor into pairs of these divisor
polynomials (up to a nonzero scalar):

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

``zeros_factorization_check`` returns the two sides of each of these
claims and never decides them; ``verify`` compares them and states the
other structural claims on these objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bilaurent import BiLaurent, integral_multiple
from .errors import NonGenericDataError, PdTodaError
from .lax import SpectralData, char_matrix, curve_of, transfer_matrix
from .lmatrix import LaurentMatrix, antitranspose, corner_minors, det, minor_signed, resultant_y
from .rationals import q_str
from .toda import TodaState, evolve, index_shift, require_valid
from .unipoly import UniPoly, gcd_monic, horner, roots_numeric

#: operator name -> (index shift of the state, antitransposed?)
OPERATORS = {"X": (0, False), "Xstar": (0, True), "shift": (-1, False),
             "shiftstar": (-1, True), "shiftup": (1, False)}
#: the four operators whose divisors are the paper's; "shiftup" (sigma X)
#: additionally appears in two factorization rows
VARIANTS = ("X", "Xstar", "shift", "shiftstar")
#: rel_eval bound at which smoothness_probe confirms a singular point
SMOOTHNESS_TOL = 1e-8


def operators(state: TodaState, variants) -> dict:
    """The named operators of ``OPERATORS``, built with one X per index
    shift; a starred name antitransposes the X of its shift."""
    built, out = {}, {}
    for v in variants:
        if v not in OPERATORS:
            raise PdTodaError(f"unknown operator variant {v!r}")
        shift, star = OPERATORS[v]
        if shift not in built:
            built[shift] = transfer_matrix(index_shift(state, shift) if shift else state)
        out[v] = antitranspose(built[shift]) if star else built[shift]
    return out


def shift_conjugation_matrix(N: int) -> LaurentMatrix:
    """The cyclic-shift conjugator C with C v = (v_N / y, v_1, ..., v_(N-1)):
    building X from the down-shifted state equals C X C^-1."""
    def fill(i, j):
        if i == 1 and j == N:
            return BiLaurent.y(-1)
        if i >= 2 and j == i - 1:
            return BiLaurent.one()
        return BiLaurent.zero()

    return LaurentMatrix.build(N, N, fill)


def _normalized(p: UniPoly) -> UniPoly:
    """Strip x-power content and make monic; used for root-multiset
    comparisons up to nonzero scalars."""
    if p.is_zero():
        return p
    _, stripped = p.strip_x_power()
    return stripped.monic()


def minor_resultant(phi_integral: BiLaurent, minor: BiLaurent) -> UniPoly:
    """res_y(phi, y^k * minor) up to a nonzero constant, with the minimal
    k >= 1 clearing 1/y terms, followed by x-power stripping.

    Both arguments of ``resultant_y`` are integer forms: ``phi_integral``
    is ``SpectralData.phi_integral`` and y^k * minor is cleared to its
    least integer multiple, so the resultant's denominator is 1 and no
    coefficient is reduced as a rational.  The scalings and the y-clearing
    multiply the resultant by a nonzero constant and possibly a power of
    x, neither of which matters for the root multiset away from x = 0."""
    if minor.is_zero():
        raise NonGenericDataError("corner minor vanishes identically")
    res = resultant_y(phi_integral, integral_multiple(minor.mul_y(max(1, -minor.y_min()))))
    if res.is_zero():
        raise NonGenericDataError("resultant vanishes identically")
    _, stripped = res.strip_x_power()
    return stripped


def corner_resultants(X: LaurentMatrix, sd: SpectralData):
    """R ~ res_y(phi, y D_NN) and S ~ res_y(phi, y D_1N) of X - xE on the
    curve of ``sd``, each defined up to a nonzero constant and x-content
    stripped: y is eliminated between integer forms (``minor_resultant``),
    and U = gcd_monic(R, S) does not see the constants.  Both minors come
    from one table of the minors they share."""
    phi = sd.phi_integral
    return tuple(minor_resultant(phi, m) for m in corner_minors(char_matrix(X)))


def _genus_gcd(R: UniPoly, S: UniPoly, g: int, variant: str) -> UniPoly:
    """U = gcd_monic(R, S), which must have degree g on generic data."""
    ups = gcd_monic(R, S)
    if ups.degree != g:
        raise NonGenericDataError(
            f"gcd degree {ups.degree} != genus {g} for variant {variant}"
        )
    return ups


@dataclass(frozen=True)
class DivisorPoly:
    """Monic degree-g polynomial whose roots are the x-coordinates of the
    finite divisor of one operator variant."""

    poly: UniPoly
    t: int

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
    """U = gcd_monic(R, S) for the chosen operator; monic of degree g.

    The curve is ``curve_of(state, op)``: the phi of every operator
    equals that of X.
    """
    require_valid(state)
    op = operators(state, (variant,))[variant]
    return divisor_of(op, curve_of(state, op), state.t, variant)


def divisor_of(X: LaurentMatrix, sd: SpectralData, t: int, variant: str = "X") -> DivisorPoly:
    """U of the operator X on the curve of ``sd``."""
    poly = UniPoly.one() if sd.g == 0 else _genus_gcd(*corner_resultants(X, sd), sd.g, variant)
    return DivisorPoly(poly=poly, t=t)


def zeros_factorization_check(state: TodaState) -> dict:
    """The four corner-resultant factorizations, each side monic-normalized.

    Also checks the determinant identity
    D_11 D_NN - D_1N D_N1 = phi_tilde * (inner double minor), which forces
    the corner minors to share their zeros on the curve.  The four corner
    minors of X are taken once and serve both.  Returns {label: (lhs, rhs)};
    raises on non-generic data.
    """
    require_valid(state)
    ops = operators(state, OPERATORS)
    X = ops["X"]
    sd = curve_of(state, X)
    N = sd.N
    pairs = {
        (N, N): ("X", "shiftstar"),
        (1, 1): ("shiftup", "Xstar"),
        (1, N): ("X", "Xstar"),
        (N, 1): ("shiftup", "shiftstar"),
    }
    cm = char_matrix(X)
    minors = {ij: minor_signed(cm, *ij) for ij in pairs}
    res = {ij: minor_resultant(sd.phi_integral, m) for ij, m in minors.items()}
    ups = {v: divisor_of(op, sd, state.t, v).poly for v, op in ops.items() if v != "X"}
    ups["X"] = _genus_gcd(res[N, N], res[1, N], sd.g, "X")
    results = {f"D{i}{j}": (_normalized(res[i, j]), _normalized(ups[va] * ups[vb]))
               for (i, j), (va, vb) in pairs.items()}

    if N == 2:
        inner = BiLaurent.one()
    else:
        inner = det(cm.submatrix(1, 1).submatrix(N - 1, N - 1))
    results["double_minor_identity"] = (
        minors[1, 1] * minors[N, N] - minors[1, N] * minors[N, 1], sd.phi * inner)
    return results


def rel_eval(p: BiLaurent, x0: complex, y0: complex) -> float:
    """|p(x0, y0)| divided by 1 + the sum of term magnitudes: the residual
    for 'vanishes at this point' screens, relative when the terms are large.
    The 1 keeps the quotient defined when p has no terms, and makes it an
    absolute residual when every term is small, where a plain ratio would
    turn the rounding noise of tiny terms into a residual of order 1."""
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
        [horner([complex(c) for c in p.y_coeff(j).coeffs], complex(x0))
         for j in range(p.y_min(), p.y_max() + 1)],
        dtype=complex,
    )
    coeffs = np.trim_zeros(coeffs, "b")
    if coeffs.size < 2:
        raise NonGenericDataError("degenerate fiber")
    return [y for y in np.roots(coeffs[::-1]) if abs(y) > 1e-13]


def fiber_point(phi: BiLaurent, x0: complex, a: BiLaurent, b: BiLaurent) -> complex:
    """The root y of phi(x0, y) where the minors ``a`` and ``b`` are
    smallest together: the divisor point over x0."""
    return min(fiber_roots(phi, x0), key=lambda y: rel_eval(a, x0, y) + rel_eval(b, x0, y))


def track_divisor(state: TodaState, steps: int) -> list:
    """U_t for t = 0..steps along the exact trajectory.

    ``evolve`` hands the state's curve on, so every step takes U on the
    curve of the t = 0 state.  Each step still validates its state and
    builds its own X_t for the corner minors.  Isospectrality has its own
    exact check in ``verify``.
    """
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


def smoothness_probe(sd: SpectralData) -> dict:
    """Screen for affine singular points, where phi = dphi/dx = dphi/dy = 0
    simultaneously.  Advisory only.

    Candidate x-values are the common roots of the two eliminations
    res_y(phi, phi_y) and res_y(phi, phi_x); their gcd is computed exactly,
    so a trivial gcd is an exact certificate that no affine singular point
    exists.  A nontrivial gcd is confirmed numerically at ``SMOOTHNESS_TOL``
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
    # the eliminations run on the integer form, whose derivatives are
    # integral too; the numeric confirmation below keeps phi's own scale
    phi_int = sd.phi_integral
    r_a = resultant_y(phi_int, phi_int.dy().clear_y())
    r_b = resultant_y(phi_int, phi_int.dx().clear_y())
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
            if all(v <= SMOOTHNESS_TOL for v in vals):
                witnesses.append(((x0.real, x0.imag), (y0.real, y0.imag)))
    return {"likely_smooth": not witnesses, "witnesses": witnesses}
