import random
from itertools import product as iproduct

import pytest

from pdtoda.arrows import (
    SE,
    SW,
    alternating_row_sum_check,
    arrow_eval,
    arrow_sum,
    prefix_swap_check,
    second_row_check,
    shifted_alternating_row_sum_check,
    u_row,
    u_row_matrix_oracle,
)
from pdtoda.errors import PdTodaError
from pdtoda.lax import band_params
from pdtoda.rationals import ONE
from pdtoda.toda import TodaState, random_state


def test_u_row_level_one():
    rng = random.Random(51)
    s = random_state(4, 2, rng)
    assert u_row(s, 1) == (s.i(1), ONE, 0, 0)


def test_u_row_triangle_values_level_three():
    rng = random.Random(52)
    s = random_state(5, 3, rng)
    i = s.i
    row = u_row(s, 3)
    assert row[0] == i(1) * i(1, 1) * i(1, 2)
    assert row[1] == i(2) * i(2, 1) + i(2) * i(1, 2) + i(1, 1) * i(1, 2)
    assert row[2] == i(3) + i(2, 1) + i(1, 2)
    assert row[3] == ONE
    assert row[4] == 0


def test_u_row_matches_matrix_product():
    rng = random.Random(53)
    for (N, M) in [(2, 1), (4, 2), (5, 3), (7, 6)]:
        s = random_state(N, M, rng)
        for k in range(1, M + 1):
            assert u_row(s, k) == u_row_matrix_oracle(s, k)


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


def test_arrow_eval_rejects_long_or_bad_sequences():
    rng = random.Random(56)
    s = random_state(3, 1, rng)
    with pytest.raises(PdTodaError):
        arrow_eval(s, [SW, SE])
    with pytest.raises(PdTodaError):
        arrow_eval(s, ["NE"])


def test_arrow_sum_reproduces_u_row_exhaustively():
    rng = random.Random(57)
    s = random_state(7, 6, rng)
    for k in range(1, 7):
        row = u_row(s, k)
        for j in range(1, k + 2):
            assert arrow_sum(s, k, j) == row[j - 1]
        assert arrow_sum(s, k, k + 2) == 0


def test_prefix_swap_exhaustive_small():
    rng = random.Random(58)
    s = random_state(7, 6, rng)
    for k in range(1, 5):
        for tail in iproduct((SW, SE), repeat=k - 1):
            assert prefix_swap_check(s, tail)


def test_prefix_swap_random_longer():
    rng = random.Random(59)
    s = random_state(7, 6, rng)
    for _ in range(30):
        k = rng.randint(1, 6)
        tail = tuple(rng.choice((SW, SE)) for _ in range(k - 1))
        assert prefix_swap_check(s, tail)


@pytest.mark.parametrize("N,M", [(2, 1), (4, 2), (5, 3), (4, 3)])
def test_alternating_row_sums(N, M):
    rng = random.Random(60 + N + 10 * M)
    for _ in range(5):
        s = random_state(N, M, rng)
        assert alternating_row_sum_check(s)
        assert shifted_alternating_row_sum_check(s)


def test_alternating_sum_two_term_case():
    # M = 1 collapses to I_1 - I_1 = 0 and -I_2 I_1 = -I_1 I_2
    rng = random.Random(61)
    s = random_state(3, 1, rng)
    assert alternating_row_sum_check(s)
    assert shifted_alternating_row_sum_check(s)


@pytest.mark.parametrize("N,M", [(4, 2), (3, 1), (5, 3)])
def test_second_row_band_coefficients(N, M):
    rng = random.Random(62 + N)
    for _ in range(3):
        assert second_row_check(random_state(N, M, rng))


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
    with pytest.raises(PdTodaError):
        alternating_row_sum_check(s)
    with pytest.raises(PdTodaError):
        second_row_check(s)
