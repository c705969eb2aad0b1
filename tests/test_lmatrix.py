import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdtoda import lmatrix
from pdtoda.bilaurent import BiLaurent
from pdtoda.errors import DimensionError, PdTodaError
from pdtoda.lax import char_matrix, transfer_matrix
from pdtoda.lmatrix import (
    LaurentMatrix,
    antitranspose,
    corner_minors,
    det,
    det_cofactor,
    minor_signed,
    resultant_y,
    resultant_y_direct,
)
from pdtoda.rationals import Q
from pdtoda.toda import evolve, random_state
from pdtoda.unipoly import UniPoly, roots_numeric


def rand_entry(rng, ydegs=(-1, 0, 1), span=5):
    return BiLaurent(
        {(0, j): Q(rng.randint(-span, span)) for j in ydegs if rng.random() < 0.7}
    )


def rand_matrix(rng, n, **kw):
    return LaurentMatrix([[rand_entry(rng, **kw) for _ in range(n)] for _ in range(n)])


def test_det_identity():
    assert det(LaurentMatrix.identity(3)) == BiLaurent.one()


def test_det_offdiagonal_laurent_pair():
    m = LaurentMatrix([[BiLaurent.zero(), BiLaurent.y(-1)], [BiLaurent.y(), BiLaurent.zero()]])
    assert det(m) == BiLaurent.const(-1)


def test_det_matches_cofactor_oracle():
    rng = random.Random(12)
    for _ in range(25):
        m = rand_matrix(rng, 4)
        assert det(m) == det_cofactor(m)


def test_det_multiplicative():
    rng = random.Random(13)
    for _ in range(10):
        a = rand_matrix(rng, 3)
        b = rand_matrix(rng, 3)
        assert det(a @ b) == det(a) * det(b)


@given(st.integers(0, 10 ** 6), st.integers(3, 4))
@settings(max_examples=25, deadline=None)
def test_property_det_multiplicative(seed, n):
    rng = random.Random(seed)
    a = rand_matrix(rng, n)
    b = rand_matrix(rng, n)
    assert det(a @ b) == det(a) * det(b)


def test_det_yfree_path_agrees_with_generic():
    rng = random.Random(14)
    for _ in range(10):
        m = LaurentMatrix(
            [
                [BiLaurent({(i, 0): Q(rng.randint(-4, 4)) for i in range(2)}) for _ in range(4)]
                for _ in range(4)
            ]
        )
        assert det(m) == det_cofactor(m)


def test_det_rejects_non_square():
    m = LaurentMatrix([[BiLaurent.one(), BiLaurent.zero()]])
    with pytest.raises(DimensionError):
        det(m)


def test_minor_of_1x1_is_empty_determinant():
    m = LaurentMatrix([[BiLaurent.const(5)]])
    assert minor_signed(m, 1, 1) == BiLaurent.one()


def test_minor_sign_definition():
    a, b, c, d = (BiLaurent.const(k) for k in (2, 3, 7, 11))
    m = LaurentMatrix([[a, b], [c, d]])
    assert minor_signed(m, 1, 2) == -c


def test_minor_index_bounds():
    m = LaurentMatrix.identity(2)
    with pytest.raises(PdTodaError):
        minor_signed(m, 0, 1)


def test_desnanot_jacobi_identity():
    # Delta_11 Delta_nn - Delta_1n Delta_n1 = det * (inner double minor),
    # checked exactly on 100 random matrices (50 of each size)
    rng = random.Random(15)
    for n, count in ((4, 50), (5, 50)):
        for _ in range(count):
            m = rand_matrix(rng, n)
            lhs = (
                minor_signed(m, 1, 1) * minor_signed(m, n, n)
                - minor_signed(m, 1, n) * minor_signed(m, n, 1)
            )
            inner = det(m.submatrix(1, 1).submatrix(n - 1, n - 1))
            assert lhs == det(m) * inner


def test_det_matches_cofactor_on_characteristic_matrices():
    # X - xE and its (N, N) and (1, N) submatrices, the matrices whose
    # determinants give phi and the corner minors of the divisor
    rng = random.Random(17)
    for N in range(1, 7):
        for M in (1, 2, 3):
            s = evolve(random_state(N, M, rng))
            cm = char_matrix(transfer_matrix(s))
            assert det(cm) == det_cofactor(cm)
            if N > 1:
                for i in (N, 1):
                    sub = cm.submatrix(i, N)
                    assert det(sub) == det_cofactor(sub)


def test_det_of_cancelling_entries_stores_no_zero():
    # rows (y, 1/y) and (y, 1/y + 1): det = y, the 1 and -1 products cancel
    y, yinv = BiLaurent.y(), BiLaurent.y(-1)
    m = LaurentMatrix([[y, yinv], [y, yinv + BiLaurent.one()]])
    d = det(m)
    assert d.terms == {(0, 1): 1}
    singular = LaurentMatrix([[y, yinv], [y, yinv]])
    assert det(singular).terms == {}


def test_antitranspose_involution_and_shape():
    rng = random.Random(16)
    m = rand_matrix(rng, 4)
    assert antitranspose(antitranspose(m)) == m


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------


def _poly_in_y(coeffs):
    """coeffs: list of UniPoly, lowest y-degree first."""
    out = BiLaurent.zero()
    for j, p in enumerate(coeffs):
        out = out + BiLaurent.from_unipoly(p) * BiLaurent.y(j)
    return out


def test_resultant_linear_pair_convention():
    # res(y - a, y - b) = lead(p)^deg(q) * q(a) = a - b under the fixed
    # convention (the product runs over the roots of the first argument)
    a = UniPoly([2, 1])
    b = UniPoly([5])
    p = _poly_in_y([-1 * a, UniPoly.one()])
    q = _poly_in_y([-1 * b, UniPoly.one()])
    assert resultant_y(p, q) == a - b


def test_resultant_constant_second_argument():
    p = _poly_in_y([UniPoly([1]), UniPoly([0, 2]), UniPoly.one()])  # deg_y = 2
    c = _poly_in_y([UniPoly([3, 1])])
    assert resultant_y(p, c) == UniPoly([3, 1]) ** 2


def test_resultant_rejects_negative_y():
    p = BiLaurent.y(-1)
    with pytest.raises(PdTodaError):
        resultant_y(p, BiLaurent.y())


def test_resultant_antisymmetry():
    rng = random.Random(17)
    for _ in range(10):
        p = _poly_in_y([UniPoly([rng.randint(-4, 4) for _ in range(2)]) for _ in range(3)])
        q = _poly_in_y([UniPoly([rng.randint(-4, 4) for _ in range(2)]) for _ in range(4)])
        if p.is_zero() or q.is_zero() or p.y_max() != 2 or q.y_max() != 3:
            continue
        sign = (-1) ** (p.y_max() * q.y_max())
        assert resultant_y(p, q) == sign * resultant_y(q, p)


def test_resultant_interpolated_equals_direct():
    rng = random.Random(18)
    for _ in range(8):
        p = _poly_in_y([UniPoly([rng.randint(-3, 3) for _ in range(3)]) for _ in range(3)])
        q = _poly_in_y([UniPoly([rng.randint(-3, 3) for _ in range(2)]) for _ in range(4)])
        if p.is_zero() or q.is_zero():
            continue
        assert resultant_y(p, q) == resultant_y_direct(p, q)


def test_resultant_matches_root_product_oracle():
    # random cubic x quadratic in y: res evaluated at a float x equals
    # lead(p)^deg(q) * prod q(y_i) over numeric y-roots of p, to 1e-9
    rng = random.Random(19)
    for _ in range(5):
        pc = [UniPoly([rng.randint(-3, 3) for _ in range(2)]) for _ in range(3)] + [UniPoly.one()]
        qc = [UniPoly([rng.randint(-3, 3) for _ in range(2)]) for _ in range(2)] + [UniPoly.one()]
        p = _poly_in_y(pc)
        q = _poly_in_y(qc)
        res = resultant_y(p, q)
        x0 = 1.375
        p_at = UniPoly([c(Q(11, 8)) for c in pc])
        q_at = [complex(c(Q(11, 8))) for c in qc]
        roots = roots_numeric(p_at)
        prod_val = complex(p_at.lead) ** 2
        for r in roots:
            prod_val *= q_at[0] + q_at[1] * r + q_at[2] * r * r
        expected = complex(res(Q(11, 8)))
        assert abs(prod_val - expected) <= 1e-9 * max(1.0, abs(expected))


_rationals = st.builds(Q, st.integers(-40, 40), st.integers(1, 12))
_x_polys = st.lists(_rationals, min_size=0, max_size=4).map(UniPoly)
# y-degree 0 gives the dp = 0 and dq = 0 edge cases
_y_polys = st.lists(_x_polys, min_size=1, max_size=4).map(_poly_in_y).filter(
    lambda p: not p.is_zero()
)


# x-polynomials with zero constant terms and zero y-coefficients anywhere
# (the middle ones included): there the assignment bound of the Sylvester
# degrees falls below the row and the column sums
_sparse_x_polys = st.one_of(
    st.just(UniPoly()),
    st.lists(st.one_of(st.just(Q(0)), _rationals), min_size=1, max_size=4).map(UniPoly),
)
_sparse_y_polys = st.lists(_sparse_x_polys, min_size=1, max_size=5).map(_poly_in_y).filter(
    lambda p: not p.is_zero()
)


@given(st.one_of(_y_polys, _sparse_y_polys), st.one_of(_y_polys, _sparse_y_polys))
@settings(max_examples=300, deadline=None)
def test_integer_resultant_matches_direct_expansion(p, q):
    # resultant_y interpolates through bound + 1 samples, so equality also
    # shows that the assignment bound is at least the true degree
    assert resultant_y(p, q) == resultant_y_direct(p, q)


def test_resultant_is_zero_when_no_permutation_avoids_zeros(monkeypatch):
    # p and q share the root y = 0, so the last Sylvester column is zero:
    # no sample is taken and the result is the zero polynomial
    p = _poly_in_y([UniPoly(), UniPoly([1, 2]), UniPoly([0, 3])])
    q = _poly_in_y([UniPoly(), UniPoly([5]), UniPoly([1, 0, 1])])
    evaluated = []
    monkeypatch.setattr(lmatrix, "_int_det", lambda a: evaluated.append(a))
    assert resultant_y(p, q) == UniPoly() == resultant_y_direct(p, q)
    assert evaluated == []


def test_assignment_bound_is_below_row_and_column_sums(monkeypatch):
    # Sylvester degrees [[2, 0], [0, -]]: the row and the column sums are 2,
    # but the one permutation avoiding the zero entry has degree 0, so one
    # sample suffices
    p = _poly_in_y([UniPoly([1]), UniPoly([0, 0, 1])])       # x^2 y + 1
    q = _poly_in_y([UniPoly(), UniPoly([1])])                # y
    calls = []
    int_det = lmatrix._int_det
    monkeypatch.setattr(lmatrix, "_int_det", lambda a: calls.append(a) or int_det(a))
    assert resultant_y(p, q) == resultant_y_direct(p, q) == UniPoly([-1])
    assert len(calls) == 1


_int_coeffs = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=7)


@given(_int_coeffs, _int_coeffs, st.sampled_from(["none", "p", "q", "both"]))
@settings(max_examples=400, deadline=None)
def test_reduced_sample_matches_sylvester_determinant(pv, qv, zero_lead):
    # formal degrees 0-6 with the lead of P, of Q or of both forced to 0:
    # the lead swap and the zero first column are exercised
    if len(pv) + len(qv) == 2:
        pv = pv + [1]  # the 0 x 0 Sylvester matrix has no Bareiss value
    if zero_lead in ("p", "both"):
        pv = pv[:-1] + [0]
    if zero_lead in ("q", "both"):
        qv = qv[:-1] + [0]
    assert lmatrix._int_resultant(pv, qv) == lmatrix._int_det(lmatrix._sylvester(pv, qv, 0))


def _det_laplace(a):
    """Laplace expansion along the first row: the oracle for _int_det."""
    if len(a) == 1:
        return a[0][0]
    return sum((-1) ** j * a[0][j] * _det_laplace([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)) if a[0][j])


@st.composite
def _int_matrices(draw):
    n = draw(st.integers(1, 6))
    bits = draw(st.sampled_from([4, 64, 3000]))
    entry = st.one_of(st.just(0), st.integers(-2 ** bits, 2 ** bits))
    a = [[draw(entry) for _ in range(n)] for _ in range(n)]
    zeros = draw(st.sampled_from(["none", "first-pivot", "first-column", "repeated-row"]))
    if zeros == "first-pivot":
        a[0][0] = 0
    elif zeros == "first-column":
        for row in a:
            row[0] = 0
    elif zeros == "repeated-row":
        a[-1] = a[0][:]
    return a


@given(_int_matrices())
@settings(max_examples=300, deadline=None)
def test_int_det_matches_laplace_expansion(a):
    # n <= 4 takes the division-free expansion and n >= 5 Bareiss, whose
    # row swap a zero first pivot drives
    assert lmatrix._int_det(a) == _det_laplace(a)


def test_reduced_sample_division_is_checked(monkeypatch):
    # a wrong reduced determinant is caught by the exact division
    monkeypatch.setattr(lmatrix, "_int_det", lambda rows: 1)
    with pytest.raises(ArithmeticError):
        lmatrix._int_resultant([1, 1, 2], [1, 1, 1])


def test_resultant_clears_a_repeated_p_once(monkeypatch):
    # the same p object in consecutive calls is cleared to integers once
    rng = random.Random(23)
    p = _poly_in_y([UniPoly([rng.randint(-5, 5) for _ in range(3)]) for _ in range(3)]
                   + [UniPoly([Q(1, 7)])])
    qs = [_poly_in_y([UniPoly([Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2)])
                      for _ in range(3)]) for _ in range(3)]
    calls = []
    cleared = lmatrix.cleared
    monkeypatch.setattr(lmatrix, "cleared", lambda polys: calls.append(polys) or cleared(polys))
    results = [resultant_y(p, q) for q in qs]
    assert len(calls) == 1 + len(qs)
    assert results == [resultant_y_direct(p, q) for q in qs]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_corner_minors_match_signed_minors(n):
    rng = random.Random(40 + n)
    m = LaurentMatrix([[rand_entry(rng) for _ in range(n)] for _ in range(n)])
    assert corner_minors(m) == (minor_signed(m, n, n), minor_signed(m, 1, n))


@pytest.mark.parametrize("dp, dq", [(0, 0), (0, 2), (2, 0), (1, 1), (3, 2)])
def test_integer_resultant_degree_edges_with_large_denominators(dp, dq):
    rng = random.Random(100 * dp + dq)

    def draw(deg):
        coeffs = [UniPoly([Q(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
                           for _ in range(3)]) for _ in range(deg + 1)]
        return _poly_in_y(coeffs)

    p, q = draw(dp), draw(dq)
    assert resultant_y(p, q) == resultant_y_direct(p, q)


@pytest.mark.parametrize("dp, dq", [(0, 0)] + [(0, k) for k in (1, 2, 3)] + [(k, 0) for k in (1, 2, 3)])
def test_resultant_at_y_degree_zero_matches_direct(dp, dq):
    # a y-degree 0 takes the general path: the reduced block is q_0 times
    # the identity at dq = 0, _int_resultant returns p_0^dq at dp = 0, and
    # at dp = dq = 0 one sample of value 1 is taken.  Small coefficients
    # make leads vanish at some samples, which swaps the roles of P and Q
    rng = random.Random(60 + 10 * dp + dq)

    def draw(deg):
        while True:
            coeffs = [UniPoly([Q(rng.randint(-3, 3), rng.randint(1, 4))
                               for _ in range(rng.randint(1, 4))]) for _ in range(deg + 1)]
            if not coeffs[-1].is_zero():
                return _poly_in_y(coeffs)

    for _ in range(25):
        p, q = draw(dp), draw(dq)
        assert resultant_y(p, q) == resultant_y_direct(p, q)
