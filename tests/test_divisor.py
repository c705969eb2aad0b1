import random

import pytest

from pdtoda.divisor import (
    VARIANTS,
    common_zero_support_check,
    compute_R_S,
    corner_minor,
    divisor_poly,
    divisor_report,
    operator_matrix,
    rel_eval,
    shift_conjugation_matrix,
    smoothness_probe,
    track_divisor,
    zeros_factorization_check,
)
from pdtoda.lax import band_params_of_matrix, char_poly, spectral_data, transfer_matrix
from pdtoda.lmatrix import antitranspose
from pdtoda.toda import TodaState, index_shift, random_state
from pdtoda.unipoly import UniPoly, roots_numeric


def test_antitranspose_preserves_spectrum():
    rng = random.Random(71)
    s = random_state(3, 2, rng)
    X = transfer_matrix(s)
    assert char_poly(antitranspose(X), 3, 2).phi == char_poly(X, 3, 2).phi
    assert antitranspose(antitranspose(X)) == X


def test_star_display_4_2():
    rng = random.Random(72)
    s = random_state(4, 2, rng)
    X = transfer_matrix(s)
    p = band_params_of_matrix(X, 4, 2)
    q = band_params_of_matrix(antitranspose(X), 4, 2)
    # the antitranspose reverses both band labels: alpha^(k)_i -> alpha^(k)_(N+k-i)
    assert all(q.a(1, i) == p.a(1, 5 - i) for i in range(1, 5))
    assert all(q.a(2, i) == p.a(2, 6 - i) for i in range(1, 5))
    assert all(q.b(i) == p.b(4 - i) for i in range(1, 5))


def test_star_matrix_entry_by_entry_4_2():
    from pdtoda.bilaurent import BiLaurent
    from pdtoda.lmatrix import LaurentMatrix

    rng = random.Random(70)
    s = random_state(4, 2, rng)
    X = transfer_matrix(s)
    p = band_params_of_matrix(X, 4, 2)
    C = BiLaurent.const
    one = BiLaurent.one()
    ym = BiLaurent.y(-1)
    yy = BiLaurent.y()
    reference = LaurentMatrix([
        [C(p.a(1, 4)), C(p.a(2, 4)), one, ym * p.b(4)],
        [C(p.b(3)), C(p.a(1, 3)), C(p.a(2, 3)), one],
        [yy, C(p.b(2)), C(p.a(1, 2)), C(p.a(2, 2))],
        [yy * p.a(2, 1), yy, C(p.b(1)), C(p.a(1, 1))],
    ])
    assert antitranspose(X) == reference


def test_shift_conjugation_identity():
    rng = random.Random(73)
    for (N, M) in [(2, 1), (3, 2), (4, 2)]:
        s = random_state(N, M, rng)
        X = transfer_matrix(s)
        C = shift_conjugation_matrix(N)
        Ci = shift_conjugation_matrix(N, inverse=True)
        assert (C @ X) @ Ci == operator_matrix(s, "shift")
        assert spectral_data(index_shift(s, -1)).phi == spectral_data(s).phi


def test_shift_correspondence_4_2():
    rng = random.Random(74)
    s = random_state(4, 2, rng)
    p = band_params_of_matrix(transfer_matrix(s), 4, 2)
    q = band_params_of_matrix(operator_matrix(s, "shiftstar"), 4, 2)
    assert all(q.a(1, i) == p.a(1, 4 - i) for i in range(1, 5))
    assert all(q.a(2, i) == p.a(2, 1 - i) for i in range(1, 5))
    assert all(q.b(i) == p.b(3 - i) for i in range(1, 5))


def test_corner_resultant_degrees():
    rng = random.Random(75)
    for (N, M), g in [((2, 1), 1), ((3, 1), 2)]:
        s = random_state(N, M, rng)
        R, S = compute_R_S(s)
        assert R.degree == 2 * g
        assert S.degree == 2 * g


def test_corner_resultant_roots_are_common_zeros():
    # numeric oracle: at each root of R, the spectral polynomial and the
    # corner minor share a y-root on the curve
    rng = random.Random(76)
    s = random_state(3, 1, rng)
    sd = spectral_data(s)
    X = transfer_matrix(s)
    R, _ = compute_R_S(s)
    minor = corner_minor(X, 3, 3)
    phi = sd.phi_cleared
    import numpy as np

    for x0 in roots_numeric(R):
        coeffs = np.trim_zeros(
            np.array([complex(phi.y_coeff(j)(x0)) for j in range(sd.M + 2)], dtype=complex), "b"
        )
        ys = [y for y in np.roots(coeffs[::-1]) if abs(y) > 1e-12]
        assert min(rel_eval(minor, x0, y) for y in ys) < 1e-8


def test_divisor_poly_2_1_closed_form():
    rng = random.Random(77)
    for _ in range(5):
        s = random_state(2, 1, rng)
        dp = divisor_poly(s, "X")
        assert dp.degree == 1
        assert dp.x_sum() == s.i(1) + s.v(2)


def test_divisor_poly_other_variants_2_1():
    rng = random.Random(78)
    s = random_state(2, 1, rng)
    # the antitransposed operator swaps the site labels in the closed form
    assert divisor_poly(s, "Xstar").x_sum() == s.i(2) + s.v(1)
    for variant in VARIANTS:
        assert divisor_poly(s, variant).degree == 1


def test_divisor_poly_trivial_genus_zero():
    s = TodaState(N=1, M=1, V=(1,), I=((2,),))
    dp = divisor_poly(s, "X")
    assert dp.degree == 0 and dp.poly == UniPoly.one()


def test_divisor_poly_3_1_degree_two():
    rng = random.Random(79)
    dp = divisor_poly(random_state(3, 1, rng), "X")
    assert dp.degree == 2
    assert dp.poly.lead == 1


@pytest.mark.parametrize("N,M", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_zeros_factorizations(N, M):
    rng = random.Random(80 + N * 10 + M)
    res = zeros_factorization_check(random_state(N, M, rng))
    assert all(res.values()), res


def test_double_minor_identity_is_part_of_report():
    rng = random.Random(81)
    res = zeros_factorization_check(random_state(3, 2, rng))
    assert res["double_minor_identity"]


def test_factorizations_beyond_banded_regime():
    # the corner factorizations also hold when M >= N, where the banded
    # template is unavailable and only the product/determinant machinery runs
    rng = random.Random(85)
    for (N, M) in [(2, 2), (2, 3)]:
        res = zeros_factorization_check(random_state(N, M, rng))
        assert all(res.values()), (N, M, res)


def test_track_divisor_moves_while_spectrum_frozen():
    rng = random.Random(82)
    s = random_state(2, 1, rng)
    track = track_divisor(s, 10)
    sums = [dp.x_sum() for dp in track]
    assert all(dp.degree == 1 for dp in track)
    assert len(set(sums)) > 1
    report = divisor_report(track, 1)
    assert report["g"] == 1 and len(report["steps"]) == 11
    assert all(len(step["roots"]) == 1 for step in report["steps"])


def test_track_divisor_constant_at_genus_zero():
    s = TodaState(N=1, M=1, V=(1,), I=((2,),))
    track = track_divisor(s, 4)
    assert all(dp.degree == 0 for dp in track)


def test_common_zero_support():
    rng = random.Random(83)
    for (N, M) in [(2, 1), (3, 1), (3, 2)]:
        assert common_zero_support_check(random_state(N, M, rng))


def test_smoothness_generic_exact_certificate():
    rng = random.Random(84)
    probe = smoothness_probe(spectral_data(random_state(3, 1, rng)))
    assert probe["likely_smooth"]


def test_smoothness_planted_double_point():
    planted = TodaState(N=2, M=1, V=(1, 1), I=((2, 2),))
    probe = smoothness_probe(spectral_data(planted))
    assert not probe["likely_smooth"]
    (x, _), (y, _) = probe["witnesses"][0]
    assert abs(x - 3) < 1e-6 and abs(y + 2) < 1e-6


def test_smoothness_trivial_rational_curve():
    s = TodaState(N=1, M=1, V=(1,), I=((2,),))
    assert smoothness_probe(spectral_data(s))["likely_smooth"]


@pytest.mark.parametrize("N, M", [(4, 2), (5, 2), (4, 3)])
def test_exact_core_matches_oracles_on_grown_heights(N, M):
    # (phi, y D_NN) at t = 10, where the rational heights have grown; the
    # integer resultant and the multimodular gcd must equal the
    # expansion over Q[x] and the Euclidean gcd over Q exactly
    from pdtoda.lmatrix import resultant_y, resultant_y_direct
    from pdtoda.toda import evolve
    from pdtoda.unipoly import gcd_monic, gcd_monic_euclid

    s = random_state(N, M, random.Random(7))
    for _ in range(10):
        s = evolve(s)
    X = transfer_matrix(s)
    phi = spectral_data(s).phi_cleared
    for i, j in ((N, N), (1, N)):
        cleared = corner_minor(X, i, j).mul_y(1)
        assert resultant_y(phi, cleared) == resultant_y_direct(phi, cleared)
    R, S = compute_R_S(s)
    U = gcd_monic(R, S)
    assert U == gcd_monic_euclid(R, S)
    assert U == divisor_poly(s).poly and U.degree == spectral_data(s).g
