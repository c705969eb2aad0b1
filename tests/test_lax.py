import random

import pytest

from pdtoda.bilaurent import BiLaurent
from pdtoda.errors import PdTodaError
from pdtoda.lax import (
    BandParams,
    band_params,
    banded_template,
    bloch_basis,
    char_poly,
    check_degree_profile,
    det_x_factorization_check,
    genus,
    l_matrix,
    newton_genus_check,
    r_matrix,
    refactorization_check,
    spectral_data,
    time_step_det_check,
    time_step_matrix,
    transfer_matrix,
)
from pdtoda.lmatrix import det
from pdtoda.rationals import Q
from pdtoda.toda import TodaState, evolve, random_state
from pdtoda.unipoly import UniPoly

CORPUS = [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2)]


def test_l_matrix_display_n2():
    s = TodaState(N=2, M=1, V=(Q(5), Q(7)), I=((2, 3),))
    L = l_matrix(s)
    assert L.entry(1, 1) == BiLaurent.one()
    assert L.entry(2, 2) == BiLaurent.one()
    assert L.entry(2, 1) == BiLaurent.const(5)
    assert L.entry(1, 2) == BiLaurent.term(7, 0, -1)


def test_r_matrix_display_n2():
    s = TodaState(N=2, M=1, V=(1, 1), I=((2, 3),))
    R = r_matrix(s, 0)
    assert R.entry(1, 1) == BiLaurent.const(2)
    assert R.entry(2, 2) == BiLaurent.const(3)
    assert R.entry(1, 2) == BiLaurent.one()
    assert R.entry(2, 1) == BiLaurent.y()


def test_n1_collapsed_factors():
    s = TodaState(N=1, M=1, V=(3,), I=((5,),))
    assert l_matrix(s).entry(1, 1) == BiLaurent.one() + BiLaurent.term(3, 0, -1)
    assert r_matrix(s, 0).entry(1, 1) == BiLaurent.const(5) + BiLaurent.y()
    # consistency: the one-step refactorization identity holds at N=1
    ok, _ = refactorization_check(s)
    assert ok


def test_transfer_matrix_is_plain_product():
    rng = random.Random(31)
    s = random_state(2, 1, rng)
    assert transfer_matrix(s) == l_matrix(s) @ r_matrix(s, 0)
    s2 = random_state(3, 2, rng)
    assert transfer_matrix(s2) == (l_matrix(s2) @ r_matrix(s2, 1)) @ r_matrix(s2, 0)


def test_transfer_entries_have_small_y_range():
    rng = random.Random(32)
    s = random_state(4, 2, rng)
    X = transfer_matrix(s)
    for i in range(1, 5):
        for j in range(1, 5):
            e = X.entry(i, j)
            if e.terms:
                assert -1 <= e.y_min() and e.y_max() <= 1


def test_banded_shape_4_2():
    rng = random.Random(33)
    s = random_state(4, 2, rng)
    X = transfer_matrix(s)
    p = band_params(s, X)  # raises unless X matches the template exactly
    assert banded_template(p) == X
    # corner carries only the 1/y term
    corner = X.entry(1, 4)
    assert set(j for _, j in corner.terms) == {-1}
    # lower-left block is proportional to y
    assert X.entry(3, 1).y_min() == 1
    assert X.entry(4, 2).y_min() == 1


@pytest.mark.parametrize("N,M", [(2, 1), (3, 2), (5, 3)])
def test_banded_template_detects_a_corrupted_beta(N, M):
    rng = random.Random(34 + N)
    s = random_state(N, M, rng)
    X = transfer_matrix(s)
    p = band_params(s, X)
    beta = (p.beta[0] + 1,) + p.beta[1:]
    assert banded_template(BandParams(N=N, M=M, alpha=p.alpha, beta=beta)) != X


def test_char_poly_hand_expansion_n1m1():
    s = TodaState(N=1, M=1, V=(3,), I=((5,),))
    sd = spectral_data(s)
    x = UniPoly.x()
    assert sd.A[0] == UniPoly.one()
    assert sd.A[1] == UniPoly([8, -1])  # I + V - x
    assert sd.A[2] == UniPoly.const(15)


def test_isospectrality_over_corpus():
    rng = random.Random(34)
    for (N, M) in CORPUS:
        s = random_state(N, M, rng)
        sd = spectral_data(s)
        cur = s
        for _ in range(3):
            cur = evolve(cur)
        assert spectral_data(cur).phi == sd.phi


def test_refactorization_identity():
    rng = random.Random(35)
    for (N, M) in CORPUS:
        ok, nxt = refactorization_check(random_state(N, M, rng))
        assert ok and nxt.t == 1


def test_det_x_factorization_even_and_odd_periods():
    rng = random.Random(36)
    for (N, M) in [(1, 1), (2, 1), (3, 1), (3, 2), (4, 2), (5, 2)]:
        ok, d, e = det_x_factorization_check(random_state(N, M, rng))
        assert ok, (N, M, d, e)


def test_genus_formula_values():
    assert genus(2, 1) == 1
    assert genus(3, 1) == 2
    assert genus(4, 2) == 4
    assert genus(4, 3) == 6
    assert genus(5, 2) == 6
    assert genus(1, 1) == 0


def test_genus_matches_newton_interior():
    rng = random.Random(37)
    for (N, M) in CORPUS:
        ok, interior = newton_genus_check(spectral_data(random_state(N, M, rng)))
        assert ok, (N, M, interior)


def test_degree_profile_4_2():
    rng = random.Random(38)
    sd = spectral_data(random_state(4, 2, rng))
    # m=2, N1=2, M1=1: degrees 0, 2, 4 and constant tail
    assert [a.degree for a in sd.A] == [0, 2, 4, 0]
    assert sd.A[0].coeffs[0] == 1          # (-1)^(2*2) * C(2,0)
    assert sd.A[1].lead == -2              # (-1)^(4+1) * C(2,1)
    assert sd.A[2].lead == 1               # (-1)^(4+2) * C(2,2)
    assert check_degree_profile(sd) == []


def test_degree_profile_3_2_strict_bound():
    rng = random.Random(39)
    sd = spectral_data(random_state(3, 2, rng))
    assert sd.A[1].degree == 1  # bound 3/2 is not an integer, so strict
    assert check_degree_profile(sd) == []


def test_degree_profile_2_1_sign():
    rng = random.Random(40)
    sd = spectral_data(random_state(2, 1, rng))
    assert sd.A[0] == UniPoly.const(-1)  # (-1)^(M(N-M)) = -1
    assert check_degree_profile(sd) == []


def test_degree_profile_detects_corruption():
    rng = random.Random(41)
    sd = spectral_data(random_state(4, 2, rng))
    broken = sd.__class__(
        N=sd.N, M=sd.M, m=sd.m, N1=sd.N1, M1=sd.M1, g=sd.g, phi=sd.phi,
        A=(sd.A[0], sd.A[1] + UniPoly.x(3), sd.A[2], sd.A[3]),
    )
    assert check_degree_profile(broken)


def test_bloch_window_identity_pattern_and_relation():
    rng = random.Random(42)
    s = random_state(4, 2, rng)
    params = band_params(s)
    basis = bloch_basis(s, upto=9, params=params)
    for j, vec in enumerate(basis.vectors, start=1):
        for n in range(1, s.M + 2):
            expected = UniPoly.one() if n == j else UniPoly.zero()
            assert vec[n - 1] == expected
    x = UniPoly.x()
    for vec in basis.vectors:
        for n in range(2, 9 - s.M + 1):
            rhs = x * vec[n - 1] - params.b(n - 1) * vec[n - 2]
            for k in range(1, s.M + 1):
                rhs = rhs - params.a(k, n + k - 1) * vec[n + k - 2]
            assert vec[n + s.M - 1] == rhs


def test_bloch_vectors_independent_at_sample():
    rng = random.Random(43)
    s = random_state(4, 2, rng)
    basis = bloch_basis(s, upto=9)
    from pdtoda.lmatrix import LaurentMatrix

    x0 = Q(13, 7)
    window = LaurentMatrix(
        [
            [BiLaurent.const(vec[s.M + 1 + i](x0)) for vec in basis.vectors]
            for i in range(s.M + 1)
        ]
    )
    assert not det(window).is_zero()


def test_time_step_matrix_closed_substitutions():
    # the extension values entering the last row collapse to
    # (-beta_1, x - alpha^(1)_2, -alpha^(j)_(j-1) ...)
    rng = random.Random(44)
    s = random_state(5, 3, rng)
    params = band_params(s)
    basis = bloch_basis(s, upto=s.M + 2, params=params)
    x = UniPoly.x()
    vals = [vec[s.M + 1] for vec in basis.vectors]
    assert vals[0] == UniPoly.const(-params.b(1))
    assert vals[1] == x - UniPoly.const(params.a(1, 2))
    for j in range(3, s.M + 2):
        assert vals[j - 1] == UniPoly.const(-params.a(j - 1, j))


@pytest.mark.parametrize("N,M", [(3, 1), (4, 2), (5, 3), (2, 1), (4, 3)])
def test_time_step_det_identity(N, M):
    rng = random.Random(45 + N * 10 + M)
    for _ in range(3):
        s = random_state(N, M, rng)
        ok, d, e = time_step_det_check(s)
        assert ok, (d, e)


def test_single_site_multilayer_spectrum():
    # N=1 with several layers: the transfer matrix is scalar and the
    # spectrum still freezes under the evolution
    rng = random.Random(47)
    s = random_state(1, 2, rng)
    sd = spectral_data(s)
    assert sd.g == 0
    assert sd.A[0].degree == 0
    cur = evolve(s)
    assert spectral_data(cur).phi == sd.phi


def test_banded_ops_require_m_below_n():
    rng = random.Random(46)
    s = random_state(2, 3, rng)
    with pytest.raises(PdTodaError):
        band_params(s)
    with pytest.raises(PdTodaError):
        time_step_matrix(s)
    # the product and its spectrum still work
    sd = spectral_data(s)
    assert sd.g == genus(2, 3)
    cur = evolve(s)
    assert spectral_data(cur).phi == sd.phi
