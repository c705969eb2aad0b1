import random
from itertools import product as iproduct

import pytest

from pdtoda import verify
from pdtoda.arrows import SE, SW, arrow_eval, u_row, u_row_matrix_oracle
from pdtoda.errors import PdTodaError
from pdtoda.lax import band_params, r_matrix
from pdtoda.rationals import ONE
from pdtoda.toda import TodaState, index_shift, random_state
from pdtoda.verify import Comparer


def test_u_row_level_one():
    rng = random.Random(51)
    s = random_state(4, 2, rng)
    assert u_row(s, 1) == (s.i(1), ONE, 0, 0)


def test_u_row_matches_matrix_product():
    rng = random.Random(53)
    for (N, M) in [(2, 1), (4, 2), (5, 3), (7, 6)]:
        s = random_state(N, M, rng)
        for k in range(1, M + 1):
            assert u_row(s, k) == u_row_matrix_oracle(s, k)


@pytest.mark.parametrize("N,M", [(2, 1), (3, 2), (4, 3), (5, 3), (7, 6), (3, 4)])
def test_u_row_oracle_is_the_first_row_of_the_dense_product(N, M):
    # the oracle sweeps a row through the factors; here the whole product
    # R_(k-1) ... R_(0) is formed and its first row read at y-degree zero
    s = random_state(N, M, random.Random(70 + N + 10 * M))
    for k in range(1, M + 1):
        prod = r_matrix(s, k - 1)
        for layer in range(k - 2, -1, -1):
            prod = prod @ r_matrix(s, layer)
        first_row = tuple(prod.entry(1, j).coeff(0, 0) for j in range(1, N + 1))
        assert u_row_matrix_oracle(s, k) == first_row, k


def test_u_row_level_bounds():
    rng = random.Random(54)
    s = random_state(3, 2, rng)
    with pytest.raises(PdTodaError):
        u_row(s, 0)
    with pytest.raises(PdTodaError):
        u_row(s, 3)


def test_arrow_eval_base_cases():
    rng = random.Random(55)
    s = random_state(4, 3, rng)
    assert arrow_eval(s, []) == ONE
    assert arrow_eval(s, [SW]) == s.i(1)
    assert arrow_eval(s, [SW, SW]) == s.i(1) * s.i(1, 1)
    assert arrow_eval(s, [SW, SE]) == s.i(2)
    assert arrow_eval(s, [SE, SW]) == s.i(1, 1)


def _arrow_eval_recursive(state, seq):
    """The defining recursion, peeling from the right:
    eval(prefix + [SW], s) = I_1^(len prefix)(s) * eval(prefix, s) and
    eval(prefix + [SE], s) = eval(prefix, shift(s))."""
    if not seq:
        return ONE
    head, last = seq[:-1], seq[-1]
    if last == SW:
        return state.i(1, len(head)) * _arrow_eval_recursive(state, head)
    return _arrow_eval_recursive(index_shift(state, 1), head)


def test_arrow_eval_matches_the_recursive_definition_exhaustively():
    s = random_state(7, 6, random.Random(58))
    for k in range(7):
        for seq in iproduct((SW, SE), repeat=k):
            assert arrow_eval(s, seq) == _arrow_eval_recursive(s, seq), seq


def test_arrow_eval_rejects_long_or_bad_sequences():
    rng = random.Random(56)
    s = random_state(3, 1, rng)
    with pytest.raises(PdTodaError):
        arrow_eval(s, [SW, SE])
    with pytest.raises(PdTodaError):
        arrow_eval(s, ["NE"])


def test_prefix_swap_random_longer():
    rng = random.Random(59)
    s = random_state(7, 6, rng)
    tails = []
    for _ in range(30):
        k = rng.randint(1, 6)
        tails.append(tuple(rng.choice((SW, SE)) for _ in range(k - 1)))
    verify.arrow_prefix_swap(Comparer(), s, tails)


@pytest.mark.parametrize("N,M", [(4, 2), (3, 1), (5, 3)])
def test_second_row_detects_a_corrupted_i(N, M):
    # beta_1 = V_1 u_1^(M) holds for the state X was built from, and breaks
    # once I_1^(0) is moved
    rng = random.Random(64 + N)
    s = random_state(N, M, rng)
    params = band_params(s)
    rows = [list(r) for r in s.I]
    rows[0][0] += 1
    broken = TodaState(N=s.N, M=s.M, V=s.V, I=tuple(tuple(r) for r in rows), t=s.t)
    assert params.b(1) == s.v(1) * u_row(s, M)[0]
    assert params.b(1) != broken.v(1) * u_row(broken, M)[0]


def test_row_sum_checks_demand_banded_regime():
    rng = random.Random(63)
    s = random_state(2, 2, rng)
    with pytest.raises(PdTodaError, match="requires M < N"):
        verify.arrow_row_sums(Comparer(), s)
    with pytest.raises(PdTodaError, match="requires M < N"):
        verify.second_row(Comparer(), s)
