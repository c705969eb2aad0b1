import cmath
import math
import random

import numpy as np
import pytest

from pdtoda import lax, toda
from pdtoda.errors import NumericFailureError, PdTodaError, SingularCurveError
from pdtoda.rationals import Q
from pdtoda.theta import (
    _track,
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
    tau = 0.0 + 1.0j
    with pytest.raises(NumericFailureError):
        riemann_theta(0.3 + 0.1j, tau, cutoff=1)


def test_theta_stable_under_cutoff_doubling():
    tau = 0.1 + 0.8j
    z = 0.4 + 0.3j
    base = theta_cutoff(z, tau)
    assert abs(riemann_theta(z, tau, cutoff=base) - riemann_theta(z, tau, cutoff=2 * base)) < 1e-12


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
    with pytest.raises(PdTodaError):
        elliptic_model(random_state(3, 1, rng))


def test_divisor_point_matches_closed_form():
    rng = random.Random(94)
    s = random_state(2, 1, rng)
    x0, y0 = divisor_point(s)
    assert x0 == s.i(1) + s.v(2)
    assert abs(y0 - complex(float(-s.v(1) * s.i(1)))) < 1e-9 * (1 + abs(y0))


def test_residue_constants_cancel_and_refine():
    s = TodaState(N=2, M=1, V=(1, 1), I=((2, 3),))
    m = elliptic_model(s)
    c = m.residue_at_infinity(+1)
    cp = m.residue_at_infinity(-1)
    assert abs(c + cp) < 1e-12 * max(1.0, abs(c))
    # stability under contour and node refinement
    c2 = m.residue_at_infinity(+1, rho_scale=0.025, nodes=512)
    assert abs(c - c2) < 1e-9 * max(1.0, abs(c))


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
    # theta_context makes no conserved_products pass beyond those of the
    # calls it is built from: it reads the products off the model
    calls = []
    original = toda.conserved_products

    def spy(state):
        calls.append(state)
        return original(state)

    for module in (toda, lax):
        monkeypatch.setattr(module, "conserved_products", spy)

    def passes(fn, *args):
        del calls[:]
        fn(*args)
        return len(calls)

    s = TodaState(N=2, M=1, V=(1, 1), I=((2, 3),))
    parts = (passes(elliptic_model, s) + passes(divisor_point, s) + passes(evolve, s)
             + passes(divisor_point, evolve(s)))
    assert passes(theta_context, s) == parts
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


def test_abel_map_is_path_independent_mod_lattice():
    # run to the same target along the standard upper rectangle and along a
    # detour through the lower half plane; the two values may differ only
    # by a lattice vector
    s = TodaState(N=2, M=1, V=(1, 1), I=((2, 3),))
    m = elliptic_model(s)
    x0, y0 = divisor_point(s)
    w0 = m.w_from_y(float(x0), y0)
    direct = m.abel_finite(float(x0), w0)

    H = m._span
    e1 = complex(m.branch[0])
    left = e1 - H
    legs = [
        (e1 + 1j * H, left + 1j * H),
        (left + 1j * H, left - 1j * H),
        (left - 1j * H, float(x0) - 1j * H),
        (float(x0) - 1j * H, complex(float(x0))),
    ]
    total = m._up
    w = m._w_top
    for z0, z1 in legs:
        val, w = m._leg(z0, z1, w)
        total += val
    total /= m.a_period
    if abs(w - w0) > abs(w + w0):
        total = -total
        w = -w
    assert abs(w - w0) < 1e-6 * (1 + abs(w0))
    assert m.lattice_distance(total - direct) < 1e-9


@pytest.mark.parametrize("seed, draw", [(2, 1), (5, 9), (11, 16)])
def test_theta_check_with_abel_target_near_a_branch_point(seed, draw):
    # D_0 or D_1 lies within 1e-6 * span of a branch point: the straight
    # legs must grade their panels toward it to converge
    rng = random.Random(seed)
    for _ in range(draw):
        s = random_state(2, 1, rng)
    m = elliptic_model(s)
    xs = [float(divisor_point(p)[0]) for p in (s, evolve(s))]
    assert min(abs(x - e) for x in xs for e in m.branch) < 1e-6 * m._span
    rep = theta_check(s, steps=10)
    assert rep["pass"]


def test_unconverged_quadrature_raises():
    # a negative tolerance can never be met, so refinement runs into the cap
    s = TodaState(N=2, M=1, V=(1, 1), I=((2, 3),))
    with pytest.raises(NumericFailureError, match="did not converge"):
        elliptic_model(s, quad_tol=-1.0)


def test_track_matches_sequential_nearest_root_rule():
    # twice around e2 alone: w changes sign after each loop; the vectorized
    # tracker must pick the signs of stepping from point to point
    m = elliptic_model(TodaState(N=2, M=1, V=(1, 1), I=((2, 3),)))
    e1, e2, e3 = m.branch[:3]
    radius = min(e2 - e1, e3 - e2) / 2
    pts = e2 + radius * np.exp(1j * np.linspace(0.0, 4 * np.pi, 401))
    roots = np.sqrt(m.fval(pts))
    w0 = -roots[0]
    w, expected = w0, []
    for root in roots:
        w = root if abs(root - w) <= abs(-root - w) else -root
        expected.append(w)
    tracked = _track(roots, w0)
    assert np.array_equal(tracked, np.array(expected))
    assert abs(tracked[200] + w0) < 1e-9 * abs(w0)
    assert abs(tracked[400] - w0) < 1e-9 * abs(w0)


def test_numeric_quantities_stable_under_refinement():
    # tightening the quadrature target by two orders moves nothing that
    # matters at the 1e-9 level
    s = TodaState(N=2, M=1, V=(Q(1, 2), Q(3, 4)), I=((2, 3),))
    coarse = elliptic_model(s, quad_tol=1e-10)
    fine = elliptic_model(s, quad_tol=1e-13)
    assert abs(coarse.a_period - fine.a_period) < 1e-9 * abs(fine.a_period)
    assert abs(coarse.tau - fine.tau) < 1e-9
    assert abs(coarse.abel_infinity() - fine.abel_infinity()) < 1e-9
    assert abs(coarse.a_cycle_x_integral() - fine.a_cycle_x_integral()) < 1e-9 * (
        1 + abs(fine.a_cycle_x_integral())
    )
