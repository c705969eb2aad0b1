import cmath
import math
import random

import numpy as np
import pytest

from pdtoda import divisor, lax, lmatrix, theta, toda
from pdtoda.errors import NumericFailureError, PdTodaError, SingularCurveError
from pdtoda.rationals import Q
from pdtoda.theta import (
    carlson_rf,
    divisor_point,
    elliptic_model,
    riemann_theta,
    theta_check,
    theta_context,
    theta_cutoff,
    theta_dlog,
)
from pdtoda.toda import TodaState, conserved_products, evolve, random_state


def test_theta_symmetry_and_periodicity():
    rng = random.Random(91)
    for _ in range(50):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.4, 2.0))
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
        t0 = riemann_theta(z, tau)
        assert abs(riemann_theta(-z, tau) - t0) < 1e-12
        assert abs(riemann_theta(z + 1, tau) - t0) < 1e-12
        quasi = cmath.exp(-1j * math.pi * tau - 2j * math.pi * z) * t0
        assert abs(riemann_theta(z + tau, tau) - quasi) <= 1e-10 * max(1.0, abs(quasi))


def test_theta_zero_locus_half_period():
    tau = 0.2 + 1.3j
    assert abs(riemann_theta((1 + tau) / 2, tau)) < 1e-12


def test_theta_cutoff_guard():
    # a tiny Im tau needs a summation radius past the sane bound
    tau = 0.1 + 1e-6j
    with pytest.raises(NumericFailureError):
        riemann_theta(0.3 + 0.1j, tau)
    with pytest.raises(NumericFailureError):
        theta_dlog(0.3 + 0.1j, tau)


def test_theta_stable_under_cutoff_doubling():
    tau = 0.1 + 0.8j
    z = 0.4 + 0.3j
    wide = 2 * theta_cutoff(z, tau)
    total = sum(cmath.exp(1j * math.pi * tau * n * n + 2j * math.pi * n * z)
                for n in range(-wide, wide + 1))
    assert abs(riemann_theta(z, tau) - total) < 1e-12


def test_theta_dlog_is_odd():
    tau = 0.1 + 0.9j
    z = 0.23 + 0.11j
    assert abs(theta_dlog(z, tau) + theta_dlog(-z, tau)) < 1e-10


def test_elliptic_model_example_constants():
    s = TodaState(N=2, M=1, V=(1, 1), I=((2, 3),))
    m = elliptic_model(s)
    assert m.c == Q(6)
    assert len(m.branch) == 4
    assert m.tau.imag > 0
    assert m.period_consistency() < 1e-9


def test_symmetric_states_have_symmetric_branch_points_and_are_singular():
    # I1 = I2, V1 = V2 puts the vertex of q exactly on the lower branch
    # level: the branch multiset is symmetric about the vertex and two
    # points coincide, so the model must reject the curve as singular
    s = TodaState(N=2, M=1, V=(1, 1), I=((2, 2),))
    from pdtoda.lax import spectral_data
    from pdtoda.unipoly import UniPoly, roots_numeric

    sd = spectral_data(s)
    q = sd.A[1]
    c = -sd.A[2].coeff(0)
    f = q * q - UniPoly.const(4 * c)
    roots = sorted(r.real for r in roots_numeric(f))
    vertex = 3.0
    sym = sorted(2 * vertex - r for r in roots)
    assert max(abs(a - b) for a, b in zip(roots, sym)) < 1e-7
    with pytest.raises(SingularCurveError):
        elliptic_model(s)


def test_im_tau_positive_across_random_states():
    rng = random.Random(92)
    count = 0
    while count < 20:
        s = random_state(2, 1, rng)
        try:
            m = elliptic_model(s)
        except (SingularCurveError, NumericFailureError):
            continue
        assert m.tau.imag > 0
        assert m.period_consistency() < 1e-9
        count += 1


def test_model_requires_2_1():
    rng = random.Random(93)
    s = random_state(3, 1, rng)
    with pytest.raises(PdTodaError):
        elliptic_model(s)
    with pytest.raises(PdTodaError):
        divisor_point(s)


def test_divisor_point_matches_closed_form():
    rng = random.Random(94)
    s = random_state(2, 1, rng)
    x0, y0 = divisor_point(s)
    assert x0 == s.i(1) + s.v(2)
    assert abs(y0 - complex(float(-s.v(1) * s.i(1)))) < 1e-9 * (1 + abs(y0))


def test_residue_constants_cancel():
    s = TodaState(N=2, M=1, V=(1, 1), I=((2, 3),))
    m = elliptic_model(s)
    c = m.residue_at_infinity(+1)
    cp = m.residue_at_infinity(-1)
    assert abs(c + cp) < 1e-12 * max(1.0, abs(c))


def test_abel_involution_negates():
    # the base point is a branch point, so swapping the sheet of the target
    # negates the Abel image mod the lattice
    s = TodaState(N=2, M=1, V=(1, 1), I=((2, 3),))
    m = elliptic_model(s)
    x0, y0 = divisor_point(s)
    w0 = m.w_from_y(float(x0), y0)
    plus = m.abel_finite(float(x0), w0)
    minus = m.abel_finite(float(x0), -w0)
    assert m.lattice_distance(plus + minus) < 1e-9


def test_theta_context_reuses_the_validated_products(monkeypatch):
    # theta_context makes one conserved_products pass, the model's
    # validation: evolve and index_shift hand the products on, so every
    # later state of the class reads them
    calls = []
    original = toda.conserved_products

    def spy(state):
        calls.append(state)
        return original(state)

    monkeypatch.setattr(toda, "conserved_products", spy)

    def passes(fn, *args):
        del calls[:]
        fn(*args)
        return len(calls)

    def fresh():
        return TodaState(N=2, M=1, V=(1, 1), I=((2, 3),))

    assert [passes(fn, fresh()) for fn in (elliptic_model, divisor_point, evolve)] == [1, 1, 1]
    assert passes(theta_context, fresh()) == 1
    assert passes(theta_check, fresh()) == 1
    s = fresh()
    assert elliptic_model(s).prods == original(s)


def test_principal_divisor_identities():
    s = TodaState(N=2, M=1, V=(1, 1), I=((2, 3),))
    m = elliptic_model(s)
    AP = m.abel_infinity()
    assert m.lattice_distance(2 * (AP - (-AP))) < 1e-8
    prods = conserved_products(s)
    AI = m.abel_finite(0.0, m.w_from_y(0.0, complex(prods[1])))
    AV = m.abel_finite(0.0, m.w_from_y(0.0, complex(prods[0])))
    # (x) = A1 + V-point - P - Q and A(Q) = -A(P): the finite images cancel
    assert m.lattice_distance(AI + AV) < 1e-8


def test_context_time_increment_is_verified_translation():
    s = TodaState(N=2, M=1, V=(1, 1), I=((2, 3),))
    ctx = theta_context(s)
    # the measured increment equals +-A(fiber - Q) by construction; check
    # that three further steps continue the same translation
    m = ctx.model
    cur = evolve(evolve(s))
    x2, y2 = divisor_point(cur)
    A2 = m.abel_finite(float(x2), m.w_from_y(float(x2), y2))
    drift = m.lattice_distance(A2 - (ctx.abel_D0 + 2 * ctx.nu_step))
    assert drift < 1e-8


def test_prediction_matches_exact_track():
    s = TodaState(N=2, M=1, V=(1, 1), I=((2, 3),))
    rep = theta_check(s, steps=10)
    assert rep["pass"]
    assert rep["max_abs_err"] < 1e-8
    assert rep["torsion_residual"] < 1e-8
    assert rep["x_divisor_residual"] < 1e-8
    # entry list covers t = 0..10 plus the site shift
    assert len(rep["entries"]) == 12


def test_prediction_site_shift_value():
    s = TodaState(N=2, M=1, V=(Q(1, 2), Q(2, 3)), I=((3, 2),))
    rep = theta_check(s, steps=4)
    assert rep["pass"]
    shifted_entry = rep["entries"][-1]
    assert shifted_entry["n"] == 1
    # site shift swaps the labels: x-sum becomes I_2 + V_1
    assert abs(shifted_entry["a1_exact"][0] - float(s.i(2) + s.v(1))) < 1e-12


def test_theta_check_rejects_wrong_shape():
    rng = random.Random(95)
    with pytest.raises(PdTodaError):
        theta_check(random_state(3, 1, rng))


def test_theta_dlog_matches_finite_differences():
    tau = 0.15 + 1.1j
    for z in (0.31 + 0.07j, -0.42 + 0.55j, 0.11 - 0.6j):
        h = 1e-6
        fd = (riemann_theta(z + h, tau) - riemann_theta(z - h, tau)) / (
            2 * h * riemann_theta(z, tau)
        )
        assert abs(fd - theta_dlog(z, tau)) < 1e-7


@pytest.mark.parametrize("seed, draw", [(2, 1), (5, 9), (11, 16)])
def test_theta_check_with_abel_target_near_a_branch_point(seed, draw):
    # D_0 or D_1 lies within 1e-6 * span of a branch point, where the Abel
    # value is most sensitive to the branch points' accuracy
    rng = random.Random(seed)
    for _ in range(draw):
        s = random_state(2, 1, rng)
    m = elliptic_model(s)
    xs = [float(divisor_point(p)[0]) for p in (s, evolve(s))]
    assert min(abs(x - e) for x in xs for e in m.branch) < 1e-6 * (m.branch[3] - m.branch[0])
    rep = theta_check(s, steps=10)
    assert rep["pass"]


def _count_builds(count_calls):
    """Count transfer_matrix and char_poly calls in lax, divisor and theta,
    whichever of them import the name."""
    return count_calls([(lax, "transfer_matrix"), (lax, "char_poly")], also=(divisor, theta))


def test_theta_check_builds_the_curve_once(count_calls):
    # phi is conserved by evolve and index_shift, so the model's curve
    # serves both divisor points, the divisor track and the site shift;
    # X is built once by the model, once per divisor point, once per track
    # step (t = 0..10) and once for the shifted state
    calls = _count_builds(count_calls)
    theta_check(TodaState(N=2, M=1, V=(1, 1), I=((2, 3),)))
    assert calls == {"char_poly": 1, "transfer_matrix": 1 + 2 + 11 + 1}


def test_theta_check_takes_each_abel_image_once(monkeypatch):
    # A((0, prod I)), A((0, prod V)) and the divisor points at t = 0 and
    # t = 1; the x-divisor residual reuses the context's A((0, prod V))
    calls = []
    abel_finite = theta.EllipticModel.abel_finite
    monkeypatch.setattr(theta.EllipticModel, "abel_finite",
                        lambda self, x0, w0: calls.append(x0) or abel_finite(self, x0, w0))
    report = theta_check(TodaState(N=2, M=1, V=(1, 1), I=((2, 3),)))
    assert report["pass"] and len(calls) == 4


def test_divisor_point_builds_x_once(count_calls):
    # the divisor polynomial and the corner minors come from the same X
    s = TodaState(N=2, M=1, V=(1, 1), I=((2, 3),))
    elliptic_model(s)
    calls = _count_builds(count_calls)
    point = divisor_point(s)
    assert calls == {"transfer_matrix": 1}
    # a state without a curve takes it from the same X
    assert divisor_point(TodaState(N=2, M=1, V=(1, 1), I=((2, 3),))) == point
    assert calls == {"transfer_matrix": 2, "char_poly": 1}


def test_divisor_point_takes_each_corner_minor_once(monkeypatch, count_calls):
    # D_NN and D_1N come from one table over one X - xE and serve both U
    # and the fiber point
    s = TodaState(N=2, M=1, V=(1, 1), I=((2, 3),))
    elliptic_model(s)
    calls = count_calls([(lmatrix, "minor_signed"), (lmatrix, "corner_minors"), (lax, "char_matrix")],
                        also=(divisor, theta))
    x0, y0 = divisor_point(s)
    assert calls == {"char_matrix": 1, "corner_minors": 1}
    monkeypatch.undo()
    cm = lax.char_matrix(lax.transfer_matrix(s))
    for i in (2, 1):
        assert divisor.rel_eval(lmatrix.minor_signed(cm, i, 2), float(x0), y0) < 1e-7


def _corpus():
    """(2,1) states with a smooth curve: fixed ones, draws of Random(108)
    and the near-branch-point draws above."""
    states = [TodaState(N=2, M=1, V=(1, 1), I=((2, 3),)),
              TodaState(N=2, M=1, V=(Q(1, 2), Q(2, 3)), I=((3, 2),)),
              TodaState(N=2, M=1, V=(Q(1, 2), Q(3, 4)), I=((2, 3),))]
    rng = random.Random(108)
    states += [random_state(2, 1, rng) for _ in range(24)]
    for seed, draw in ((2, 1), (5, 9), (11, 16)):
        rng = random.Random(seed)
        for _ in range(draw):
            s = random_state(2, 1, rng)
        states.append(s)
    models = []
    for s in states:
        try:
            models.append(elliptic_model(s))
        except SingularCurveError:
            pass
    return models


def test_abel_infinity_is_on_the_imaginary_axis():
    # A(P) is purely imaginary, and the reduction keeps its 1-part near 0
    # instead of moving it between 0 and 1 on a last-bit change
    models = _corpus()
    assert len(models) > 25
    for m in models:
        assert abs(m.abel_infinity().real) <= 1e-12


def test_carlson_rf_known_values():
    assert abs(carlson_rf(0, 1, 2) - math.gamma(0.25) ** 2 / (4 * math.sqrt(2 * math.pi))) < 1e-15
    assert abs(carlson_rf(4, 4, 4) - 0.5) < 1e-16
    with pytest.raises(NumericFailureError):
        carlson_rf(math.nan, 1, 1)


def test_branch_points_are_accurate_to_an_ulp():
    # the exact Newton correction f(e) / f'(e) at each float branch point
    # is within rounding; every period and Abel value inherits this error
    for m in _corpus():
        fp = m.f.derivative()
        ulp = math.ulp(max(abs(e) for e in m.branch))
        for e in m.branch:
            exact = Q(*e.as_integer_ratio())
            assert abs(float(m.f(exact) / fp(exact))) <= 2 * ulp


_GL_400 = np.polynomial.legendre.leggauss(400)


def _gl_oracle(branch, a, b, g=lambda x: 1.0):
    """int_a^b g(x) dx / sqrt|f(x)|, f = prod (x - e), by Gauss-Legendre in
    theta with x = m + h sin(theta): h cos(theta) absorbs a square-root zero
    of f at either end, whose distances are taken without cancellation."""
    t, wts = _GL_400
    sin, cos = np.sin(np.pi * t / 2), np.cos(np.pi * t / 2)
    m, h = (a + b) / 2, (b - a) / 2
    x = m + h * sin
    to_a = h * np.where(sin < 0, cos * cos / (1 - sin), 1 + sin)
    to_b = h * np.where(sin > 0, cos * cos / (1 + sin), 1 - sin)
    dist = [to_a if e == a else to_b if e == b else np.abs(x - e) for e in branch]
    return np.pi / 2 * np.sum(wts * g(x) * h * cos / np.sqrt(np.prod(dist, axis=0)))


def test_closed_forms_match_a_quadrature_oracle():
    for m in _corpus():
        e1, e2, e3, e4 = es = m.branch
        A = m.a_period
        i12 = _gl_oracle(es, e1, e2)
        assert abs(A - (-2j * i12)) <= 1e-12 * abs(A)
        assert abs(m.b_period - 2 * _gl_oracle(es, e2, e3)) <= 1e-12 * abs(m.b_period)
        ix = _gl_oracle(es, e1, e2, g=lambda x: x)
        ax = m.a_cycle_x_integral()
        assert abs(ax - 2 * ix / (1j * A)) <= 1e-12 * (1 + abs(ax))
        # Abel targets left of e1, in the gap (e2, e3) and right of e4,
        # integrated along the real axis with w(x + i0) from the sign table
        span = e4 - e1
        for x0, w_sign, integral in (
            (e1 - span / 3, -1, lambda x0: _gl_oracle(es, x0, e1)),
            ((e2 + e3) / 2, 1, lambda x0: i12 / 1j + _gl_oracle(es, e2, x0)),
            (e4 + span / 3, -1, lambda x0: (i12 / 1j + _gl_oracle(es, e2, e3)
                                            + _gl_oracle(es, e3, e4) / -1j
                                            - _gl_oracle(es, e4, x0))),
        ):
            w0 = w_sign * math.sqrt(abs(m.fval(x0)))
            expected = integral(x0) / A
            assert m.lattice_distance(m.abel_finite(x0, w0) - expected) <= 1e-12
            assert m.lattice_distance(m.abel_finite(x0, -w0) + expected) <= 1e-12
