"""Genus-1 numeric validation of the theta-function solution formula.

For N = 2, M = 1 the spectral polynomial reduces to y^2 - q(x) y + c with
q = A_1 monic quadratic and c = prod(V) prod(I) > 0, so w = 2y - q(x) puts
the curve in hyperelliptic form w^2 = f(x), f = q^2 - 4c, a real quartic
whose four branch points are real and distinct for every valid generic
state (the discriminant bound is an AM-GM inequality).  With the points
ordered e1 < e2 < e3 < e4 the cuts are [e1, e2] and [e3, e4]; the curve
carries two points over x = infinity: P on the sheet with w/x^2 -> +1
(where y grows like x^2) and Q on the other (where y -> 0).

Every quantity below is a closed form in the branch points, themselves
-q1/2 -+ sqrt(q1^2/4 - q0 +- 2 sqrt c) because f = (q - 2 sqrt c)(q + 2 sqrt c)
for q = x^2 + q1 x + q0.  The global sheet is the boundary value of w on
the real axis from above,

    w(x + i0) = -i^k sqrt|f(x)|,   k = #{e_j > x}:

    x < e1: -sqrt f,   [e1, e2]: +i sqrt|f|,   [e2, e3]: +sqrt f,
    [e3, e4]: -i sqrt|f|,   x > e4: -sqrt f.

So each integral along the real axis splits into one interval per gap
between breakpoints, and on an interval [a, b] with no branch point inside

    I(a, b) = int_a^b dx / sqrt|f| = 2 R_F(U12^2, U13^2, U14^2)

(DLMF 19.29.4), U_ij = (X_i X_j Y_k Y_l + Y_i Y_j X_k X_l) / (b - a) with
X_j = sqrt|b - e_j|, Y_j = sqrt|a - e_j|, and Carlson's R_F taken by
duplication (Carlson, Numer. Algorithms 10 (1995) 13; DLMF 19.36.1).
The validated objects:

* periods A = -2i I(e1, e2) and B = 2 I(e2, e3), normalized differential
  omega = dx / (A w), modulus tau = +-B/A with Im tau > 0; the loop around
  the other cut gives I(e3, e4) = I(e1, e2), the period consistency;
* the Abel map A(p) = int_{e1}^{p} omega along the real axis from above,
  reduced mod Z + tau Z, with the hyperelliptic involution giving
  A((x, -w)) = -A((x, w)); for P the ray left of e1 gives
  int_{-inf}^{e1} dx / sqrt f
  = 2 R_F((e3 - e1)(e4 - e1), (e2 - e1)(e4 - e1), (e2 - e1)(e3 - e1)),
  and w < 0 there, so that ray ends at Q and A(P) is its negative;
* residue constants Res_P(x omega) = -1/A and Res_Q(x omega) = +1/A: in
  the chart t = 1/x, x omega = -dt / (A t W(t)) with W = w t^2 analytic
  at t = 0 and W(0) = +1 at P, -1 at Q;
* oint_a x omega = -q1/2 + pi i / A: since w dw = q q' dx,
  d log(q + w) = q' dx / w = (2x + q1) dx / w, and on the cut q + w = 2y
  with |y|^2 = c, so q + w winds once around 0 along a;
* the Jacobi theta series theta(z) = sum exp(i pi tau n^2 + 2 pi i n z),
  whose zero locus is the half-period (1 + tau)/2 mod the lattice; one
  loop sums theta and its termwise derivative together, to the radius
  where the Gaussian tail falls below ``THETA_TAIL`` of the leading term.

For a degree-1 positive divisor D the function
F(p) = theta(A(p) - A(D) - K) with K = (1 + tau)/2 vanishes exactly at D;
the residue theorem applied to x dlog F then yields the prediction

    x(D_{n,t}) = int_a x omega - c dlogtheta(z_P) - c' dlogtheta(z_Q),

with z_Q(n, t) = A(Q) - A(D_{n,t}) - K and z_P = z_Q + A(P - Q).  The
time action moves A(D) by +-(A(A_1) - A(Q)) per step (A_1 = (0, prod I));
the orientation is measured once from the exact divisor track at t = 0..1
and is itself a verified output.  The only calibrated quantity is
c_0 = A(Q) - A(D_0) - K, fixed at t = 0; all t > 0 and site-shifted
predictions are parameter-free and compared against the exact divisor
polynomial to 1e-6.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .divisor import (_genus_gcd, divisor_poly, fiber_point, minor_resultant, rel_eval,
                      track_divisor)
from .errors import NumericFailureError, PdTodaError, SingularCurveError
from .lax import char_matrix, curve_of, transfer_matrix
from .lmatrix import corner_minors
from .toda import TodaState, evolve, index_shift, require_valid
from .unipoly import UniPoly, horner

_GL_CACHE: dict = {}
#: bound on the two principal-divisor residuals of theta_check (lattice units)
PRINCIPAL_DIVISOR_TOL = 1e-8
#: w(x + i0) / sqrt|f(x)| when k branch points lie above x
_W_PHASE = (-1, -1j, 1, 1j, -1)
#: theta series tail, relative to the leading term, left out of the sums
THETA_TAIL = 1e-16
#: the largest theta summation radius; a larger one means Im tau is too small
THETA_MAX_CUTOFF = 20000
#: |theta| below which dlog theta is refused: the point is on the zero locus
THETA_FLOOR = 1e-8


def _gl(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson's R_F(x, y, z) for nonnegative x, y, z with at most one zero.

    Duplication x -> (x + lam) / 4 with lam = sqrt(xy) + sqrt(yz) + sqrt(zx)
    leaves R_F unchanged and shrinks the spread of the arguments fourfold;
    once it is below 1e-3 of their mean, the fifth-order Taylor series in
    the relative deviations is exact to rounding (DLMF 19.36.1).
    """
    for _ in range(100):
        mean = (x + y + z) / 3
        if max(abs(mean - x), abs(mean - y), abs(mean - z)) <= 1e-3 * mean:
            break
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x, y, z = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4
    else:
        raise NumericFailureError(f"R_F duplication did not converge at {(x, y, z)}")
    dx, dy = 1 - x / mean, 1 - y / mean
    dz = -(dx + dy)
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    return (1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) / math.sqrt(mean)


def interval_integral(branch, a: float, b: float) -> float:
    """int_a^b dx / sqrt|f| for a < b with no branch point inside (a or b
    may be one), f monic with the four real roots ``branch``."""
    X = [math.sqrt(abs(b - e)) for e in branch]
    Y = [math.sqrt(abs(a - e)) for e in branch]

    def u2(i, j, k, l):
        return ((X[i] * X[j] * Y[k] * Y[l] + Y[i] * Y[j] * X[k] * X[l]) / (b - a)) ** 2

    return 2 * carlson_rf(u2(0, 1, 2, 3), u2(0, 2, 1, 3), u2(0, 3, 1, 2))


# ---------------------------------------------------------------------------
# theta series
# ---------------------------------------------------------------------------


def theta_cutoff(z: complex, tau: complex) -> int:
    """Summation radius making the Gaussian tail < THETA_TAIL * leading term."""
    im_t = tau.imag
    if im_t <= 0:
        raise PdTodaError("theta requires Im tau > 0")
    b = abs(z.imag)
    # need exp(-pi im_t n^2 + 2 pi b n) < THETA_TAIL for all |n| > R
    disc = b * b + im_t * (-math.log(THETA_TAIL)) / math.pi
    return int(math.ceil((b + math.sqrt(disc)) / im_t)) + 2


def _theta_sums(z: complex, tau: complex) -> tuple:
    """(theta(z), theta'(z)): the series and its termwise derivative,
    summed together to |n| <= theta_cutoff(z, tau)."""
    R = theta_cutoff(z, tau)
    if R > THETA_MAX_CUTOFF:
        raise NumericFailureError("theta cutoff exceeds sane bounds; Im tau too small")
    val = 1 + 0j
    der = 0j
    for n in range(1, R + 1):
        phase = cmath.exp(1j * math.pi * tau * n * n)
        ep = cmath.exp(2j * math.pi * n * z)
        em = cmath.exp(-2j * math.pi * n * z)
        val += phase * (ep + em)
        der += phase * (2j * math.pi * n) * (ep - em)
    return val, der


def riemann_theta(z: complex, tau: complex) -> complex:
    """theta(z, tau) = sum_n exp(i pi tau n^2 + 2 pi i n z), genus 1."""
    return _theta_sums(z, tau)[0]


def theta_dlog(z: complex, tau: complex) -> complex:
    """d/dz log theta via the termwise-differentiated series."""
    val, der = _theta_sums(z, tau)
    if abs(val) < THETA_FLOOR:
        raise NumericFailureError("theta vanishes at the evaluation point")
    return der / val


# ---------------------------------------------------------------------------
# elliptic model
# ---------------------------------------------------------------------------


@dataclass
class EllipticModel:
    """Curve data, periods and the Abel map for one N=2, M=1 state."""

    prods: tuple             # conserved products (prod V, prod I), from validation
    q: UniPoly
    c: object
    f: UniPoly
    branch: tuple            # e1 < e2 < e3 < e4
    a_period: complex
    b_period: complex
    tau: complex
    _qc: list = field(init=False, repr=False)
    _fc: list = field(init=False, repr=False)

    def __post_init__(self):
        self._qc = [complex(c) for c in self.q.coeffs]
        self._fc = [complex(c) for c in self.f.coeffs]

    # -- lattice helpers -------------------------------------------------

    def lattice_reduce(self, z: complex) -> complex:
        """z mod Z + tau Z, with the 1-part in [-1/2, 1/2) and the tau-part
        in [0, 1).  Re A(P) is 0 on these lattices, so it must not sit on
        an edge of the 1-part; the tau-part of k_vec enters the prediction
        (only z_P picks it up, and dlogtheta(z + tau) = dlogtheta(z) - 2 pi i)."""
        u, v = self._components(z)
        return (u - math.floor(u + 0.5)) + (v - math.floor(v)) * self.tau

    def lattice_distance(self, z: complex) -> float:
        u, v = self._components(z)
        du = u - round(u)
        dv = v - round(v)
        return abs(du + dv * self.tau)

    def _components(self, z: complex):
        v = z.imag / self.tau.imag
        u = z.real - v * self.tau.real
        return u, v

    # -- curve geometry --------------------------------------------------

    def w_from_y(self, x: complex, y: complex) -> complex:
        return 2 * y - horner(self._qc, x)

    def fval(self, x: complex) -> complex:
        return horner(self._fc, x)

    # -- Abel map ----------------------------------------------------------

    def abel_finite(self, x0: float, w0: complex) -> complex:
        """A((x0, w0)) for a real x0 in a region where f > 0: the integral of
        dx / w(x + i0) along the real axis from e1, one interval per gap."""
        es = self.branch
        if min(abs(x0 - e) for e in es) < 1e-9 * (es[3] - es[0]):
            raise NumericFailureError("target too close to a branch point")
        above = sum(e > x0 for e in es)
        if above % 2:
            raise NumericFailureError("abel_finite expects a target off the cuts")
        if x0 < es[0]:
            # walked backwards, where w = -sqrt f
            total = interval_integral(es, x0, es[0])
        else:
            pts = [e for e in es if e < x0] + [x0]
            total = sum(interval_integral(es, a, b) / _W_PHASE[3 - k]
                        for k, (a, b) in enumerate(zip(pts, pts[1:])))
        total /= self.a_period
        w_end = _W_PHASE[above] * math.sqrt(abs(self.fval(x0)))
        # involution: landing on the opposite sheet negates the map
        if abs(w_end - w0) > abs(w_end + w0):
            total, w_end = -total, -w_end
        if abs(w_end - w0) > 1e-6 * (1 + abs(w0)):
            raise NumericFailureError("w0 is not a square root of f(x0)")
        return self.lattice_reduce(total)

    def abel_infinity(self) -> complex:
        """A(P), the point over x = infinity with w/x^2 -> +1."""
        e1, e2, e3, e4 = self.branch
        ray = 2 * carlson_rf((e3 - e1) * (e4 - e1), (e2 - e1) * (e4 - e1), (e2 - e1) * (e3 - e1))
        # int_{e1}^{-inf} dx/w with w = -sqrt f reaches Q = -P
        return self.lattice_reduce(-ray / self.a_period)

    # -- residues and the a-cycle x-integral --------------------------------

    def residue_at_infinity(self, sheet: int) -> complex:
        """Res(x omega) at the point over infinity on the given sheet
        (sheet=+1 is P)."""
        return -sheet / self.a_period

    def a_cycle_x_integral(self) -> complex:
        """oint_a x omega, by the a-cycle integral of d log(q + w)."""
        return -float(self.q.coeff(1)) / 2 + math.pi * 1j / self.a_period

    def period_consistency(self) -> float:
        """The loops around the two cuts are homologous with opposite
        orientation, so I(e3, e4) = I(e1, e2)."""
        e1, e2, e3, e4 = self.branch
        i12 = interval_integral(self.branch, e1, e2)
        return abs(interval_integral(self.branch, e3, e4) - i12) / i12


def elliptic_model(state: TodaState) -> EllipticModel:
    """Build the genus-1 curve model for an N=2, M=1 state."""
    prods = require_valid(state)
    if state.N != 2 or state.M != 1:
        raise PdTodaError("elliptic model requires N=2, M=1")
    sd = curve_of(state)
    a0 = sd.A[0]
    if a0.degree != 0 or a0.coeffs[0] != -1:
        raise PdTodaError("unexpected leading y-coefficient")
    q = sd.A[1]
    c = -sd.A[2].coeff(0)
    if c != prods[0] * prods[1]:
        raise PdTodaError("constant term does not equal prod(V) prod(I)")
    f = q * q - UniPoly.const(4 * c)
    # f = (q - 2 sqrt c)(q + 2 sqrt c), so the branch points are
    # -q1/2 -+ sqrt(d +- 2 sqrt c) with d = q1^2/4 - q0
    q1 = q.coeff(1)
    d = float(q1 * q1 / 4 - q.coeff(0))
    s = 2 * math.sqrt(float(c))
    if d <= s:
        raise SingularCurveError("branch points are not real; data too close to singular")
    mid, outer, inner = -float(q1) / 2, math.sqrt(d + s), math.sqrt(d - s)
    es = (mid - outer, mid - inner, mid + inner, mid + outer)
    gaps = [es[i + 1] - es[i] for i in range(3)]
    if min(gaps) < 1e-7 * max(es[3] - es[0], 1.0):
        raise SingularCurveError("coincident branch points: singular spectral curve")

    # w = +i sqrt|f| on [e1, e2] and +sqrt f on [e2, e3]
    a_per = -2j * interval_integral(es, es[0], es[1])
    b_per = complex(2 * interval_integral(es, es[1], es[2]))
    tau = b_per / a_per
    if tau.imag < 0:
        b_per = -b_per
        tau = -tau
    if tau.imag <= 0:
        raise NumericFailureError("failed to orient the period lattice")
    return EllipticModel(prods=prods, q=q, c=c, f=f, branch=es,
                         a_period=a_per, b_period=b_per, tau=tau)


# ---------------------------------------------------------------------------
# divisor points and the theta context
# ---------------------------------------------------------------------------


def divisor_point(state: TodaState) -> tuple:
    """The finite divisor point (x, y) of an N=2, M=1 state, located by the
    corner minors of one X: x is the root of the divisor polynomial and y
    the fiber root killing both D_NN and D_1N, on ``curve_of(state, X)``."""
    require_valid(state)
    if (state.N, state.M) != (2, 1):
        raise PdTodaError("divisor points need an N=2, M=1 state")
    X = transfer_matrix(state)
    sd = curve_of(state, X)
    # one table gives both corner minors, for U and for the fiber point
    d_nn, d_1n = corner_minors(char_matrix(X))
    ups = _genus_gcd(minor_resultant(sd.phi_integral, d_nn),
                     minor_resultant(sd.phi_integral, d_1n), sd.g, "X")
    x0 = -ups.coeff(0)  # g = 1, so U = x - x0
    xf = float(x0)
    best = fiber_point(sd.phi_cleared, xf, d_nn, d_1n)
    if rel_eval(d_nn, xf, best) > 1e-7 or rel_eval(d_1n, xf, best) > 1e-7:
        raise NumericFailureError("could not locate the divisor point on the curve")
    return x0, best


@dataclass
class ThetaContext:
    """Everything needed to evaluate the divisor-coordinate prediction."""

    model: EllipticModel
    k_vec: complex          # A(P - Q)
    nu_step: complex        # measured per-time-step Abel increment
    time_mode: str          # which fiber point over x=0 drives the step
    time_sign: int          # orientation of nu_step vs A(point - Q)
    c0: complex             # A(Q) - A(D_0) - K (the t = 0 calibration)
    c_res: complex          # Res_P(x omega)
    cprime_res: complex     # Res_Q(x omega)
    a_integral: complex     # oint_a x omega
    abel_A1: complex        # A((0, prod I))
    abel_AV: complex        # A((0, prod V))
    abel_D0: complex


def theta_context(state: TodaState) -> ThetaContext:
    """Assemble periods, Abel images, residues and the t=0 calibration.

    The per-step translation on the Jacobian is the class of (fiber point
    over x = 0) - (point over x = infinity).  Which of the two fiber points
    (y = prod I or y = prod V) pairs with which infinity point depends on
    the eigenvector normalization, and by principality of the divisor of x
    the two readings differ only by an overall sign:
    A((0, prodV)) - A(Q) = -(A((0, prodI)) - A(P)).  The increment is
    therefore *measured* against the exact divisor track over one step and
    matched to +-A((0, prodI or prodV) - Q); the match itself is a verified
    output (it is the executable content of the time-shift linearization).
    """
    model = elliptic_model(state)
    K = (1 + model.tau) / 2  # genus-1 theta zero locus

    abel_P = model.abel_infinity()
    abel_Q = model.lattice_reduce(-abel_P)
    k_vec = model.lattice_reduce(abel_P - abel_Q)

    prods = model.prods
    w_I = model.w_from_y(0.0, complex(prods[1]))
    abel_A1 = model.abel_finite(0.0, w_I)
    w_V = model.w_from_y(0.0, complex(prods[0]))
    abel_AV = model.abel_finite(0.0, w_V)

    x0, y0 = divisor_point(state)
    w0 = model.w_from_y(float(x0), y0)
    abel_D0 = model.abel_finite(float(x0), w0)

    # measure the per-step Abel increment from the exact divisor track
    s1 = evolve(state)
    x1, y1 = divisor_point(s1)
    w1 = model.w_from_y(float(x1), y1)
    abel_D1 = model.abel_finite(float(x1), w1)
    measured = abel_D1 - abel_D0

    best = None
    for mode, base in (("I", abel_A1 - abel_Q), ("V", abel_AV - abel_Q)):
        for sign in (1, -1):
            d = model.lattice_distance(measured - sign * base)
            if best is None or d < best[0]:
                best = (d, mode, sign, sign * base)
    dist, time_mode, time_sign, nu_step = best
    if dist > 1e-6:
        raise NumericFailureError(
            f"divisor track increment does not match any +-A(fiber - Q): {dist:.2e}"
        )

    c_res = model.residue_at_infinity(+1)
    cprime_res = model.residue_at_infinity(-1)
    a_integral = model.a_cycle_x_integral()

    c0 = abel_Q - abel_D0 - K
    return ThetaContext(
        model=model,
        k_vec=k_vec,
        nu_step=nu_step,
        time_mode=time_mode,
        time_sign=time_sign,
        c0=c0,
        c_res=c_res,
        cprime_res=cprime_res,
        a_integral=a_integral,
        abel_A1=abel_A1,
        abel_AV=abel_AV,
        abel_D0=abel_D0,
    )


def predicted_divisor_x(ctx: ThetaContext, n: int, t: int) -> complex:
    """The theta-function prediction for the divisor x-coordinate after n
    site shifts and t time steps:

        x = oint_a x omega - c dlogtheta(z_P) - c' dlogtheta(z_Q),

    z_Q = c_0 - n A(P-Q) - t nu_step and z_P = z_Q + A(P-Q)."""
    zQ = ctx.c0 - n * ctx.k_vec - t * ctx.nu_step
    zP = zQ + ctx.k_vec
    tau = ctx.model.tau
    return ctx.a_integral - ctx.c_res * theta_dlog(zP, tau) - ctx.cprime_res * theta_dlog(zQ, tau)


def theta_check(state: TodaState, steps: int = 10, tol: float = 1e-6) -> dict:
    """Full genus-1 validation for one state: principal-divisor identities,
    time predictions t = 0..steps and the one-site shift, all against the
    exact divisor track.  Returns a JSON-ready report."""
    ctx = theta_context(state)
    model = ctx.model

    # principal divisor checks: N (A(P) - A(Q)) and the divisor of x
    torsion = model.lattice_distance(2 * ctx.k_vec)
    x_div = model.lattice_distance(ctx.abel_A1 + ctx.abel_AV)

    track = track_divisor(state, steps)
    entries = []
    max_err = 0.0
    skipped = 0

    def add_entry(n, t, exact):
        nonlocal max_err, skipped
        try:
            pred = predicted_divisor_x(ctx, n, t)
        except NumericFailureError as exc:
            # the divisor met the theta zero locus: report and skip
            skipped += 1
            entries.append({"n": n, "t": t, "a1_exact": [exact.real, exact.imag],
                            "skipped": str(exc)})
            return
        err = abs(pred - exact)
        max_err = max(max_err, err)
        entries.append(
            {"n": n, "t": t, "a1_exact": [exact.real, exact.imag],
             "a1_theta": [pred.real, pred.imag], "abs_err": err}
        )

    for t, dp in enumerate(track):
        add_entry(0, t, complex(float(dp.x_sum())))
    shifted = index_shift(state, 1)
    add_entry(1, 0, complex(float(divisor_poly(shifted, "X").x_sum())))

    return {
        "tau": [model.tau.real, model.tau.imag],
        "time_mode": ctx.time_mode,
        "time_sign": ctx.time_sign,
        "torsion_residual": torsion,
        "x_divisor_residual": x_div,
        "period_consistency": model.period_consistency(),
        "entries": entries,
        "skipped": skipped,
        "max_abs_err": max_err,
        "pass": bool(max_err <= tol and torsion <= PRINCIPAL_DIVISOR_TOL
                     and x_div <= PRINCIPAL_DIVISOR_TOL),
    }
