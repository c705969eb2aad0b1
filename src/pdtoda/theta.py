"""Genus-1 numeric validation of the theta-function solution formula.

For N = 2, M = 1 the spectral polynomial reduces to y^2 - q(x) y + c with
q = A_1 monic quadratic and c = prod(V) prod(I) > 0, so w = 2y - q(x) puts
the curve in hyperelliptic form w^2 = f(x), f = q^2 - 4c, a real quartic
whose four branch points are real and distinct for every valid generic
state (the discriminant bound is an AM-GM inequality).  With the points
ordered e1 < e2 < e3 < e4 the cuts are [e1, e2] and [e3, e4]; the curve
carries two points over x = infinity: P on the sheet with w/x^2 -> +1
(where y grows like x^2) and Q on the other (where y -> 0).

Everything is anchored to one global sheet, fixed on the first path leg
out of the base branch point e1 and transported by numerical analytic
continuation; integrals are Gauss-Legendre with substitutions that remove
the sqrt endpoint singularities.  The validated objects:

* periods A = 2 int_{e1}^{e2} dx/w and B = 2 int_{e2}^{e3} dx/w,
  normalized differential omega = dx / (A w), modulus tau = +-B/A with
  Im tau > 0;
* the Abel map A(p) = int_{e1}^{p} omega, reduced mod Z + tau Z, with the
  hyperelliptic involution giving A((x, -w)) = -A((x, w));
* residue constants c = Res_P(x omega), c' = Res_Q(x omega) by contour
  integration in the chart t = 1/x (they satisfy c + c' = 0);
* the Jacobi theta series theta(z) = sum exp(i pi tau n^2 + 2 pi i n z),
  whose zero locus is the half-period (1 + tau)/2 mod the lattice.

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
from itertools import count

import numpy as np

from .divisor import corner_minor, divisor_poly, fiber_roots, rel_eval, track_divisor
from .errors import NumericFailureError, PdTodaError, SingularCurveError
from .lax import spectral_data, transfer_matrix
from .toda import TodaState, evolve, index_shift, require_valid
from .unipoly import UniPoly, horner, roots_numeric

_GL_CACHE: dict = {}
#: refinement stops with an error beyond this many panels on one path
_MAX_PANELS = 2 ** 16
#: panels evaluated per numpy batch, which keeps the node arrays small
_CHUNK = 1024
#: bound on the two principal-divisor residuals of theta_check (lattice units)
PRINCIPAL_DIVISOR_TOL = 1e-8


def _gl(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _track(roots, w0: complex):
    """Continue a square root along an ordered array of its principal
    values: roots[k] is negated when the cumulative parity of nearest-root
    flips up to k is odd, where step k flips when -roots[k] lies nearer
    than roots[k] to roots[k - 1] (to w0 for k = 0).  Up to exact ties these
    are the signs that stepping from w0 to the nearer of +-roots[k] at each
    point picks."""
    prev = np.concatenate(([w0], roots[:-1]))
    flips = (roots * prev.conj()).real < 0
    return np.where(np.cumsum(flips) % 2 == 1, -roots, roots)


def _uniform(a: float, b: float):
    """Panel edges on [a, b]: 8 equal panels, doubled at each level."""
    return lambda level: np.linspace(a, b, 8 * 2 ** level + 1)


# ---------------------------------------------------------------------------
# theta series
# ---------------------------------------------------------------------------


def theta_cutoff(z: complex, tau: complex, tail: float = 1e-16) -> int:
    """Summation radius making the Gaussian tail < tail * leading term."""
    im_t = tau.imag
    if im_t <= 0:
        raise PdTodaError("theta requires Im tau > 0")
    b = abs(z.imag)
    # need exp(-pi im_t n^2 + 2 pi b n) < tail for all |n| > R
    disc = b * b + im_t * (-math.log(tail)) / math.pi
    return int(math.ceil((b + math.sqrt(disc)) / im_t)) + 2


def riemann_theta(z: complex, tau: complex, cutoff: int | None = None) -> complex:
    """theta(z, tau) = sum_n exp(i pi tau n^2 + 2 pi i n z), genus 1."""
    R = theta_cutoff(z, tau) if cutoff is None else cutoff
    if R > 20000:
        raise NumericFailureError("theta cutoff exceeds sane bounds; Im tau too small")
    if cutoff is not None and cutoff < theta_cutoff(z, tau, tail=1e-14):
        raise NumericFailureError("requested theta cutoff below the tail bound")
    total = 1 + 0j
    for n in range(1, R + 1):
        phase = cmath.exp(1j * math.pi * tau * n * n)
        total += phase * (cmath.exp(2j * math.pi * n * z) + cmath.exp(-2j * math.pi * n * z))
    return total


def theta_dlog(z: complex, tau: complex, floor: float = 1e-8) -> complex:
    """d/dz log theta via the termwise-differentiated series."""
    R = theta_cutoff(z, tau)
    if R > 20000:
        raise NumericFailureError("theta cutoff exceeds sane bounds")
    val = 1 + 0j
    der = 0j
    for n in range(1, R + 1):
        phase = cmath.exp(1j * math.pi * tau * n * n)
        ep = cmath.exp(2j * math.pi * n * z)
        em = cmath.exp(-2j * math.pi * n * z)
        val += phase * (ep + em)
        der += phase * (2j * math.pi * n) * (ep - em)
    if abs(val) < floor:
        raise NumericFailureError("theta vanishes at the evaluation point")
    return der / val


# ---------------------------------------------------------------------------
# elliptic model
# ---------------------------------------------------------------------------


@dataclass
class EllipticModel:
    """Curve data, periods and the Abel map for one N=2, M=1 state."""

    state: TodaState
    prods: tuple             # conserved products (prod V, prod I), from validation
    q: UniPoly
    c: object
    f: UniPoly
    branch: tuple            # e1 < e2 < e3 < e4
    a_period: complex
    b_period: complex
    tau: complex
    quad_tol: float
    _span: float = field(default=0.0, repr=False)
    _w_mid12: complex = field(default=0j, repr=False)
    _w_mid23: complex = field(default=0j, repr=False)
    _w_mid34: complex = field(default=0j, repr=False)
    _abel_cache: dict = field(default_factory=dict, repr=False)
    _up: complex = field(default=0j, repr=False)     # int dx/w over the first leg
    _w_top: complex = field(default=0j, repr=False)  # w at its top, e1 + i span
    _qc: list = field(init=False, repr=False)
    _fc: list = field(init=False, repr=False)

    def __post_init__(self):
        self._qc = [complex(c) for c in self.q.coeffs]
        self._fc = [complex(c) for c in self.f.coeffs]

    # -- lattice helpers -------------------------------------------------

    def lattice_reduce(self, z: complex) -> complex:
        u, v = self._components(z)
        return (u - math.floor(u)) + (v - math.floor(v)) * self.tau

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

    # -- integration core --------------------------------------------------

    def _integrate(self, path, edges, w0: complex, with_x: bool = False):
        """Composite 16-point Gauss-Legendre integral along a path s -> x(s).

        ``path(s)`` returns (x, jac, radicand) on an array of s.  The
        integrand is [x] jac / r, where r = sqrt(radicand) is continued from
        w0 by :func:`_track` through every node and panel edge in order, so
        jac is dx/ds times whatever factor of w the tracked root leaves out.
        ``edges(level)`` gives the panel edges in s at each refinement
        level; levels rise until two successive values agree to quad_tol.
        Returns (integral, r at the last edge).
        """
        nodes, weights = _gl(16)
        prev = None
        for level in count():
            s_edges = edges(level)
            if len(s_edges) > _MAX_PANELS + 1:
                raise NumericFailureError("path integral did not converge")
            total, r_end = 0j, w0
            for k in range(0, len(s_edges) - 1, _CHUNK):
                a = s_edges[k:k + _CHUNK + 1]
                lo, hi = a[:-1, None], a[1:, None]
                half = (hi - lo) / 2
                # each row: the panel's nodes, then its right edge
                s = np.hstack((lo + half + half * nodes, hi))
                x, jac, radicand = path(s)
                r = _track(np.sqrt(np.asarray(radicand, dtype=complex)).ravel(), r_end)
                r_end = r[-1]
                vals = jac / r.reshape(s.shape)
                if with_x:
                    vals = vals * x
                total += np.sum((vals[:, :-1] @ weights) * half[:, 0])
            if prev is not None and abs(total - prev) <= self.quad_tol * (1 + abs(total)):
                return complex(total), complex(r_end)
            prev = total

    def _leg_edges(self, z0: complex, z1: complex, level: int):
        """Graded panel edges in s for x = z0 + (z1 - z0) s: each panel
        spans a quarter of the distance from its start to the nearest branch
        point, halved at every level."""
        dz = z1 - z0
        scale = 4 * 2 ** level * abs(dz)
        # abel_finite keeps its targets this far out; the floor only rules
        # out a zero step
        floor = 1e-9 * self._span
        edges = [0.0]
        while edges[-1] < 1.0 and len(edges) <= _MAX_PANELS + 1:
            x = z0 + dz * edges[-1]
            d = max(min(abs(x - e) for e in self.branch), floor)
            edges.append(min(1.0, edges[-1] + d / scale))
        return np.array(edges)

    def _leg(self, z0: complex, z1: complex, w0: complex):
        """int dx / w along the straight leg z0 -> z1 and the continued w at
        z1, starting from w = w0 at z0."""
        if z0 == z1:
            return 0j, w0
        dz = z1 - z0

        def path(s):
            x = z0 + dz * s
            return x, dz, self.fval(x)

        return self._integrate(path, lambda level: self._leg_edges(z0, z1, level), w0)

    def _first_leg(self):
        """e1 -> e1 + iH with x = e1 + iH s^2, so w = s sqrt(iH) sqrt(rest(x))
        with rest = f / (x - e1); the principal sqrt(rest(e1)) at s = 0
        defines the global sheet.  Returns (int dx/w, w at the top)."""
        e1, e2, e3, e4 = self.branch
        iH = 1j * self._span
        sq_iH = cmath.sqrt(iH)

        def path(s):
            x = e1 + iH * s * s
            # dx = 2 iH s ds; the factor s sqrt(iH) of w is not tracked
            return x, 2 * iH / sq_iH, (x - e2) * (x - e3) * (x - e4)

        up, r_top = self._integrate(path, _uniform(0.0, 1.0),
                                    cmath.sqrt((e1 - e2) * (e1 - e3) * (e1 - e4)))
        return up, sq_iH * r_top

    def _cut_integral(self, ea: float, eb: float, w_mid: complex, with_x: bool = False) -> complex:
        """int_{ea}^{eb} [x] dx / w across a segment whose endpoints are
        branch points; x = m + h sin(theta) removes both singularities.

        On the segment f factors as -h^2 cos^2(theta) * rest(x) with rest
        carried by the two remaining branch points, so w = s h cos(theta)
        sqrt(-rest(x)) with a constant phase s: -rest keeps one sign on the
        segment, so the tracked root never flips.  ``w_mid``, the continued
        w at the midpoint, anchors s.
        """
        m = (ea + eb) / 2
        h = (eb - ea) / 2
        others = [e for e in self.branch if not (abs(e - ea) < 1e-14 or abs(e - eb) < 1e-14)]
        if len(others) != 2:
            raise NumericFailureError("cut endpoints must be two distinct branch points")
        o1, o2 = others

        def path(th):
            x = m + h * np.sin(th)
            # dx = h cos(theta) dtheta cancels the factor h cos(theta) of w
            return x, 1.0, -(x - o1) * (x - o2)

        return self._integrate(path, _uniform(-math.pi / 2, math.pi / 2), w_mid, with_x)[0]

    # -- Abel map ----------------------------------------------------------

    def abel_finite(self, x0: float, w0: complex) -> complex:
        """A((x0, w0)) for a real x0 in a region where f > 0."""
        key = ("fin", complex(x0), complex(w0))
        if key in self._abel_cache:
            return self._abel_cache[key]
        if min(abs(x0 - e) for e in self.branch) < 1e-9 * self._span:
            raise NumericFailureError("target too close to a branch point")
        if self.fval(complex(x0)).real <= 0:
            raise NumericFailureError("abel_finite expects a target off the cuts")
        H = self._span
        e1 = complex(self.branch[0])
        over, w_over = self._leg(e1 + 1j * H, x0 + 1j * H, self._w_top)
        down, w_end = self._leg(x0 + 1j * H, complex(x0), w_over)
        total = (self._up + over + down) / self.a_period
        # involution: landing on the opposite sheet negates the map
        if abs(w_end - w0) > abs(w_end + w0):
            total = -total
            w_reached = -w_end
        else:
            w_reached = w_end
        if abs(w_reached - w0) > 1e-6 * (1 + abs(w0)):
            raise NumericFailureError("sheet tracking failed to reach the target point")
        out = self.lattice_reduce(total)
        self._abel_cache[key] = out
        return out

    def abel_infinity(self) -> complex:
        """A(P), the point over x = infinity with w/x^2 -> +1."""
        if "P" in self._abel_cache:
            return self._abel_cache["P"]
        H = self._span
        e1 = complex(self.branch[0])
        T = -(abs(self.branch[0]) + abs(self.branch[3]) + 10.0) * 3
        over, w_over = self._leg(e1 + 1j * H, T + 1j * H, self._w_top)
        down, w_end = self._leg(T + 1j * H, complex(T), w_over)
        if abs(w_end.imag) > 1e-6 * abs(w_end):
            raise NumericFailureError("w should be real on the far real axis")

        tail = self._tail_integral(T, w_end)
        total = (self._up + over + down + tail) / self.a_period
        # w > 0 at T means the path runs on to P; otherwise it reaches Q = -P
        value = total if w_end.real > 0 else -total
        out = self.lattice_reduce(value)
        self._abel_cache["P"] = out
        return out

    def _tail_integral(self, T: float, w_T: complex) -> complex:
        """int_{T}^{-inf} dx/w for T < 0 left of every branch point, with
        x = T / s for s from 0 to 1 and the orientation flipped.  f > 0 on
        the whole ray, so w keeps the sign of w_T there."""
        def path(s):
            x = T / s
            return x, -T / (s * s), self.fval(x)

        return -self._integrate(path, _uniform(0.0, 1.0), w_T)[0]

    # -- residues and the a-cycle x-integral --------------------------------

    def residue_at_infinity(self, sheet: int, rho_scale: float = 0.05, nodes: int = 256) -> complex:
        """Res(x omega) at the point over infinity on the given sheet
        (sheet=+1 is P), via a trapezoid contour in the chart t = 1/x."""
        emax = max(abs(e) for e in self.branch)
        rho = rho_scale / max(emax, 1.0)
        total = 0j
        for k in range(nodes):
            th = 2 * math.pi * k / nodes
            t = rho * cmath.exp(1j * th)
            F = 1 + 0j
            for e in self.branch:
                F *= (1 - complex(e) * t)
            W = sheet * cmath.sqrt(F)  # W(0) = sheet; F stays near 1
            total += 1 / W
        avg = total / nodes
        return -avg / self.a_period

    def a_cycle_x_integral(self) -> complex:
        """oint_a x omega = (2/A) int_{e1}^{e2} x dx / w."""
        return 2 * self._cut_integral(self.branch[0], self.branch[1], self._w_mid12, with_x=True) / self.a_period

    def period_consistency(self) -> float:
        """The loops around the two cuts are homologous with opposite
        orientation: 2 int_{e1}^{e2} dx/w + 2 int_{e3}^{e4} dx/w = 0."""
        other = 2 * self._cut_integral(self.branch[2], self.branch[3], self._w_mid34)
        return abs(self.a_period + other) / abs(self.a_period)


def elliptic_model(state: TodaState, quad_tol: float = 1e-12) -> EllipticModel:
    """Build the genus-1 curve model for an N=2, M=1 state."""
    prods = require_valid(state)
    if state.N != 2 or state.M != 1:
        raise PdTodaError("elliptic model requires N=2, M=1")
    sd = spectral_data(state)
    a0 = sd.A[0]
    if a0.degree != 0 or a0.coeffs[0] != -1:
        raise PdTodaError("unexpected leading y-coefficient")
    q = sd.A[1]
    c = -sd.A[2].coeff(0)
    if c != prods[0] * prods[1]:
        raise PdTodaError("constant term does not equal prod(V) prod(I)")
    f = q * q - UniPoly.const(4 * c)
    roots = roots_numeric(f)
    if max(abs(r.imag) for r in roots) > 1e-9 * max(1.0, max(abs(r) for r in roots)):
        raise SingularCurveError("branch points are not real; data too close to singular")
    es = sorted(r.real for r in roots)
    span = es[3] - es[0]
    gaps = [es[i + 1] - es[i] for i in range(3)]
    if min(gaps) < 1e-7 * max(span, 1.0):
        raise SingularCurveError("coincident branch points: singular spectral curve")

    model = EllipticModel(
        state=state,
        prods=prods,
        q=q,
        c=c,
        f=f,
        branch=tuple(es),
        a_period=0j,
        b_period=0j,
        tau=0j,
        quad_tol=quad_tol,
        _span=span,
    )

    # anchor the three midpoint sheets by continuation from the first leg,
    # over at height span and then down with geometrically graded steps, so
    # each step stays a small fraction of the height even near narrow gaps
    model._up, model._w_top = model._first_leg()
    top = complex(es[0], span)
    for attr, mid in (("_w_mid12", (es[0] + es[1]) / 2),
                      ("_w_mid23", (es[1] + es[2]) / 2),
                      ("_w_mid34", (es[2] + es[3]) / 2)):
        _, w_over = model._leg(top, complex(mid, span), model._w_top)
        descent = mid + 1j * span * np.geomspace(1.0, 1e-7, 601)
        setattr(model, attr, complex(_track(np.sqrt(model.fval(descent)), w_over)[-1]))

    a_per = 2 * model._cut_integral(es[0], es[1], model._w_mid12)
    b_per = 2 * model._cut_integral(es[1], es[2], model._w_mid23)
    if abs(a_per) < 1e-14:
        raise NumericFailureError("degenerate a-period")
    tau = b_per / a_per
    if tau.imag < 0:
        b_per = -b_per
        tau = -tau
    if tau.imag <= 0:
        raise NumericFailureError("failed to orient the period lattice")
    model.a_period = a_per
    model.b_period = b_per
    model.tau = tau
    return model


# ---------------------------------------------------------------------------
# divisor points and the theta context
# ---------------------------------------------------------------------------


def divisor_point(state: TodaState) -> tuple:
    """The finite divisor point (x, y) of an N=2, M=1 state, located by the
    corner minors: x is the root of the divisor polynomial and y the fiber
    root killing both D_NN and D_1N."""
    dp = divisor_poly(state, "X")
    if dp.degree != 1:
        raise PdTodaError("expected a degree-1 divisor")
    x0 = dp.x_sum()
    sd = spectral_data(state)
    X = transfer_matrix(state)
    d_nn = corner_minor(X, 2, 2)
    d_1n = corner_minor(X, 1, 2)
    xf = float(x0)
    ys = fiber_roots(sd.phi_cleared, xf)
    best = min(ys, key=lambda y: rel_eval(d_nn, xf, y) + rel_eval(d_1n, xf, y))
    if rel_eval(d_nn, xf, best) > 1e-7 or rel_eval(d_1n, xf, best) > 1e-7:
        raise NumericFailureError("could not locate the divisor point on the curve")
    return x0, best


@dataclass
class ThetaContext:
    """Everything needed to evaluate the divisor-coordinate prediction."""

    model: EllipticModel
    tau: complex
    k_vec: complex          # A(P - Q)
    nu_step: complex        # measured per-time-step Abel increment
    time_mode: str          # which fiber point over x=0 drives the step
    time_sign: int          # orientation of nu_step vs A(point - Q)
    c0: complex             # A(Q) - A(D_0) - K (the t = 0 calibration)
    c_res: complex          # Res_P(x omega)
    cprime_res: complex     # Res_Q(x omega)
    a_integral: complex     # oint_a x omega
    abel_P: complex
    abel_A1: complex
    abel_D0: complex

    def z_args(self, n: int, t: int):
        zQ = self.c0 - n * self.k_vec - t * self.nu_step
        zP = zQ + self.k_vec
        return zP, zQ


def theta_context(state: TodaState, quad_tol: float = 1e-12) -> ThetaContext:
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
    model = elliptic_model(state, quad_tol=quad_tol)
    tau = model.tau
    K = (1 + tau) / 2  # genus-1 theta zero locus

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
        tau=tau,
        k_vec=k_vec,
        nu_step=nu_step,
        time_mode=time_mode,
        time_sign=time_sign,
        c0=c0,
        c_res=c_res,
        cprime_res=cprime_res,
        a_integral=a_integral,
        abel_P=abel_P,
        abel_A1=abel_A1,
        abel_D0=abel_D0,
    )


def predicted_divisor_x(ctx: ThetaContext, n: int, t: int) -> complex:
    """The theta-function prediction for the divisor x-coordinate after n
    site shifts and t time steps:

        x = oint_a x omega - c dlogtheta(z_P) - c' dlogtheta(z_Q),

    z_Q = c_0 - n A(P-Q) - t nu_step and z_P = z_Q + A(P-Q)."""
    zP, zQ = ctx.z_args(n, t)
    return (
        ctx.a_integral
        - ctx.c_res * theta_dlog(zP, ctx.tau)
        - ctx.cprime_res * theta_dlog(zQ, ctx.tau)
    )


def theta_check(state: TodaState, steps: int = 10, tol: float = 1e-6) -> dict:
    """Full genus-1 validation for one state: principal-divisor identities,
    time predictions t = 0..steps and the one-site shift, all against the
    exact divisor track.  Returns a JSON-ready report."""
    prods = require_valid(state)
    ctx = theta_context(state)
    model = ctx.model

    # principal divisor checks: N (A(P) - A(Q)) and the divisor of x
    w_V = model.w_from_y(0.0, complex(prods[0]))
    abel_V = model.abel_finite(0.0, w_V)
    torsion = model.lattice_distance(2 * ctx.k_vec)
    x_div = model.lattice_distance(ctx.abel_A1 + abel_V)

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
        "tau": [ctx.tau.real, ctx.tau.imag],
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
