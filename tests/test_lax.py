import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdtoda.bilaurent import BiLaurent
from pdtoda.errors import PdTodaError
from pdtoda.lax import (
    BandParams,
    band_params,
    banded_template,
    bloch_basis,
    char_poly,
    curve_of,
    genus,
    l_matrix,
    r_matrix,
    spectral_data,
    time_step_matrix,
    transfer_matrix,
)
from pdtoda.lmatrix import LaurentMatrix, det
from pdtoda.rationals import Q
from pdtoda import toda, verify
from pdtoda.toda import TodaState, evolve, index_shift, random_state, state_to_json, validate
from pdtoda.unipoly import UniPoly
from pdtoda.verify import Comparer

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


def test_n1_collapsed_factors(check_on):
    s = TodaState(N=1, M=1, V=(3,), I=((5,),))
    assert l_matrix(s).entry(1, 1) == BiLaurent.one() + BiLaurent.term(3, 0, -1)
    assert r_matrix(s, 0).entry(1, 1) == BiLaurent.const(5) + BiLaurent.y()
    # consistency: the one-step refactorization identity holds at N=1
    check_on("refactorization", [s])


def dense_transfer(s):
    """L R_(M-1) ... R_(0) as a chain of dense matrix products."""
    out = l_matrix(s)
    for layer in range(s.M - 1, -1, -1):
        out = out @ r_matrix(s, layer)
    return out


@given(st.integers(1, 7), st.integers(1, 4), st.integers(0, 3), st.integers(0, 10 ** 6))
@example(1, 1, 0, 0)
@example(1, 4, 3, 1)
@example(7, 4, 0, 2)
@settings(max_examples=40, deadline=None)
def test_transfer_matrix_is_plain_product(N, M, steps, seed):
    # the column-update build against the dense chain, on random and on
    # 0-3 times evolved states
    s = random_state(N, M, random.Random(seed))
    for _ in range(steps):
        s = evolve(s)
    assert transfer_matrix(s) == dense_transfer(s)


def test_transfer_matrix_makes_no_dense_product(monkeypatch):
    calls = []
    original = LaurentMatrix.__matmul__

    def spy(self, other):
        calls.append((self.rows, other.cols))
        return original(self, other)

    monkeypatch.setattr(LaurentMatrix, "__matmul__", spy)
    rng = random.Random(34)
    for N, M in ((1, 1), (3, 2), (5, 3)):
        transfer_matrix(random_state(N, M, rng))
    assert calls == []
    dense_transfer(random_state(3, 2, rng))
    assert len(calls) == 2


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


def test_refactorization_identity(check_on):
    rng = random.Random(35)
    states = [random_state(N, M, rng) for (N, M) in CORPUS]
    check_on("refactorization", states)
    assert all(evolve(s).t == 1 for s in states)


def test_det_x_factorization_even_and_odd_periods():
    rng = random.Random(36)
    for (N, M) in [(1, 1), (2, 1), (3, 1), (3, 2), (4, 2), (5, 2)]:
        verify.detx_factorization(Comparer(), random_state(N, M, rng))


def test_genus_formula_values():
    assert genus(2, 1) == 1
    assert genus(3, 1) == 2
    assert genus(4, 2) == 4
    assert genus(4, 3) == 6
    assert genus(5, 2) == 6
    assert genus(1, 1) == 0


def test_degree_profile_4_2():
    rng = random.Random(38)
    s = random_state(4, 2, rng)
    sd = spectral_data(s)
    # m=2, N1=2, M1=1: degrees 0, 2, 4 and constant tail
    assert [a.degree for a in sd.A] == [0, 2, 4, 0]
    assert sd.A[0].coeffs[0] == 1          # (-1)^(2*2) * C(2,0)
    assert sd.A[1].lead == -2              # (-1)^(4+1) * C(2,1)
    assert sd.A[2].lead == 1               # (-1)^(4+2) * C(2,2)
    verify.degree_profile(Comparer(), s)


def test_degree_profile_3_2_strict_bound():
    rng = random.Random(39)
    s = random_state(3, 2, rng)
    assert spectral_data(s).A[1].degree == 1  # bound 3/2 is not an integer, so strict
    verify.degree_profile(Comparer(), s)


def test_degree_profile_2_1_sign():
    rng = random.Random(40)
    s = random_state(2, 1, rng)
    assert spectral_data(s).A[0] == UniPoly.const(-1)  # (-1)^(M(N-M)) = -1
    verify.degree_profile(Comparer(), s)


def test_degree_profile_detects_corruption(monkeypatch):
    rng = random.Random(41)
    s = random_state(4, 2, rng)
    sd = spectral_data(s)
    broken = sd.__class__(
        N=sd.N, M=sd.M, m=sd.m, N1=sd.N1, M1=sd.M1, g=sd.g, phi=sd.phi,
        A=(sd.A[0], sd.A[1] + UniPoly.x(3), sd.A[2], sd.A[3]),
    )
    monkeypatch.setattr(verify, "spectral_data", lambda state: broken)
    with pytest.raises(verify._Mismatch) as exc:
        verify.degree_profile(Comparer(), s)
    assert exc.value.details["lhs"] == ["deg A_1 = 3, expected 2"]


def test_bloch_window_identity_pattern_and_relation():
    rng = random.Random(42)
    s = random_state(4, 2, rng)
    params = band_params(s)
    basis = bloch_basis(s, upto=9, params=params)
    for j, vec in enumerate(basis, start=1):
        for n in range(1, s.M + 2):
            expected = UniPoly.one() if n == j else UniPoly.zero()
            assert vec[n - 1] == expected
    x = UniPoly.x()
    for vec in basis:
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
            [BiLaurent.const(vec[s.M + 1 + i](x0)) for vec in basis]
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
    vals = [vec[s.M + 1] for vec in basis]
    assert vals[0] == UniPoly.const(-params.b(1))
    assert vals[1] == x - UniPoly.const(params.a(1, 2))
    for j in range(3, s.M + 2):
        assert vals[j - 1] == UniPoly.const(-params.a(j - 1, j))


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


def test_evolve_and_index_shift_hand_the_curve_on():
    s = random_state(4, 2, random.Random(33))
    sd = curve_of(s)
    assert sd.phi == spectral_data(s).phi
    assert curve_of(s) is sd and curve_of(evolve(s)) is sd
    for k in (-1, 1, s.N):
        assert curve_of(index_shift(s, k)) is sd


def test_curve_of_builds_from_the_operator_in_hand_once():
    s = random_state(3, 2, random.Random(34))
    X = transfer_matrix(s)
    sd = curve_of(s, X)
    assert sd.phi == char_poly(X, 3, 2).phi
    # once set, the slot answers and the operator is not read
    assert curve_of(s, "not an operator") is sd


def test_curve_slot_is_private():
    s = random_state(4, 2, random.Random(35))
    fresh = TodaState(N=s.N, M=s.M, V=s.V, I=s.I, t=s.t)
    curve_of(s)
    assert s._curve is not None and fresh._curve is None
    assert s == fresh and hash(s) == hash(fresh)
    assert repr(s) == repr(fresh) and "_curve" not in repr(s)
    assert state_to_json(s) == state_to_json(fresh)
    with pytest.raises(TypeError):
        TodaState(N=1, M=1, V=(1,), I=((2,),), _curve=None)


def test_index_shift_hands_the_validated_products_on(count_calls):
    s = random_state(4, 3, random.Random(36))
    validate(s)
    original = toda.conserved_products
    calls = count_calls([(toda, "conserved_products")])
    shifted = index_shift(s, 1)
    assert validate(shifted).products == original(shifted)
    assert calls == {}


def test_spectral_data_ignores_a_planted_curve():
    rng = random.Random(37)
    s, other = random_state(3, 2, rng), random_state(3, 2, rng)
    planted = spectral_data(other)
    object.__setattr__(s, "_curve", planted)
    assert curve_of(s) is planted
    own = spectral_data(s)
    assert own is not planted and own.phi != planted.phi
    assert own.phi == char_poly(transfer_matrix(s), 3, 2).phi
