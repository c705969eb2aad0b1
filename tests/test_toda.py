import inspect
import math
import random
import typing
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pdtoda
from pdtoda import rationals, toda
from pdtoda.errors import DegenerateEvolutionError, PdTodaError, StateValidationError
from pdtoda.rationals import ONE, Q
from pdtoda.toda import (
    TodaState,
    conserved_products,
    evolve,
    index_shift,
    random_state,
    require_valid,
    state_from_json,
    state_to_json,
    validate,
)


def test_validate_minimal_ok():
    assert validate(TodaState(N=1, M=1, V=(1,), I=((2,),))).ok


def test_validate_product_violation():
    rep = validate(TodaState(N=2, M=1, V=(2, 2), I=((1, 3),)))
    assert not rep.ok
    assert any("prod(V) = 4" in v for v in rep.violations)


def test_validate_last_row_strictness():
    # equality of products in the newest row is excluded
    rep = validate(TodaState(N=2, M=2, V=(1, 1), I=((2, 3), (1, 1))))
    assert not rep.ok
    assert any("row 1" in v for v in rep.violations)


def test_validate_checks_middle_rows():
    # middle rows become the oldest row after one step, so they obey the
    # same strict bound
    rep = validate(TodaState(N=1, M=3, V=(1,), I=((3,), (Q(1, 2),), (2,))))
    assert not rep.ok


def test_validate_positivity():
    rep = validate(TodaState(N=2, M=1, V=(1, -1), I=((2, 3),)))
    assert not rep.ok
    assert any("not positive" in v for v in rep.violations)


def test_evolve_requires_valid_state():
    # a product violation, two non-positive entries, a middle-row violation
    for state in (
        TodaState(N=2, M=1, V=(2, 2), I=((1, 3),)),
        TodaState(N=2, M=2, V=(1, -1), I=((2, 3), (0, 5))),
        TodaState(N=1, M=3, V=(1,), I=((3,), (Q(1, 2),), (1,))),
    ):
        with pytest.raises(StateValidationError) as info:
            evolve(state)
        assert info.value.violations == validate(state).violations != ()


def test_require_valid_returns_the_validated_products():
    s = random_state(4, 2, random.Random(27))
    assert require_valid(s) == validate(s).products == conserved_products(s)
    assert validate(TodaState(N=2, M=1, V=(1, -1), I=((2, 3),))).products == ()


def evolve_us_reference(state: TodaState) -> TodaState:
    """The closed-form u/s solve that ``evolve`` replaced, kept verbatim as
    its test oracle: u_n = prod_{k<n} I_k/V_k, s_0 = sum u_j / (lam - 1)."""
    require_valid(state)
    N = state.N
    V = state.V
    I0 = state.I[0]

    # u_n = prod_{k<=n} I_k/V_k;  s_n = s_0 + sum_{j<n} u_j with the
    # Bloch closure s_{n+N} = lam*s_n, lam = prod(I)/prod(V) > 1.
    u = [ONE]
    for n in range(N):
        u.append(u[-1] * I0[n] / V[n])
    lam = u[N]
    if lam == 1:
        raise DegenerateEvolutionError("prod(I) equals prod(V)")
    s = [prod_sum(u, N) / (lam - 1)]
    for n in range(N + 1):
        s.append(s[-1] + u[n])
    if any(x == 0 for x in s):
        raise DegenerateEvolutionError("zero pivot in the cyclic solve")

    new_I = tuple(V[n] * s[n + 2] / s[n + 1] for n in range(N))
    new_V = tuple(I0[(n + 1) % N] * s[n + 1] / s[n + 2] for n in range(N))
    if any(x == 0 for x in new_I):
        raise DegenerateEvolutionError("zero I-value produced")

    return TodaState(
        N=N,
        M=state.M,
        V=new_V,
        I=state.I[1:] + (new_I,),
        t=state.t + 1,
    )


def prod_sum(u, N):
    acc = u[0]
    for j in range(1, N):
        acc += u[j]
    return acc


@given(
    st.integers(1, 7),
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(0, 10 ** 6),
)
@example(1, 1, 6, 0)
@example(1, 3, 6, 1)
@settings(max_examples=60, deadline=None)
def test_evolve_matches_the_us_reference(N, M, steps, seed):
    cur = random_state(N, M, random.Random(seed))
    for _ in range(steps):
        nxt = evolve(cur)
        assert nxt == evolve_us_reference(cur)
        cur = nxt


def test_evolve_frozen_example():
    # expected values computed with the float fixed-point oracle, then
    # confirmed as the exact solution by back-substitution
    s = TodaState(N=2, M=1, V=(1, 1), I=((2, 3),))
    nxt = evolve(s)
    assert nxt.V == (Q(4, 3), Q(3, 4))
    assert nxt.I == ((Q(9, 4), Q(8, 3)),)
    assert nxt.t == 1


def test_evolve_exact_closure():
    rng = random.Random(21)
    for N in (1, 2, 3, 4, 5):
        for M in (1, 2, 3):
            s = random_state(N, M, rng)
            nxt = evolve(s)
            for n in range(1, N + 1):
                new_i = nxt.i(n, M - 1)
                assert new_i == s.i(n) + s.v(n) - nxt.v(n - 1)
                assert nxt.v(n) == s.i(n + 1) * s.v(n) / new_i
            # untouched rows just shift down
            assert nxt.I[: M - 1] == s.I[1:]


def test_fixed_point_at_period_one():
    s = TodaState(N=1, M=1, V=(1,), I=((2,),))
    nxt = evolve(s)
    assert nxt.V == s.V and nxt.I == s.I


def test_positivity_propagates():
    rng = random.Random(22)
    count = 0
    for N in (1, 2, 3, 4, 5):
        for M in (1, 2, 3):
            for _ in range(14):
                s = random_state(N, M, rng)
                assert validate(evolve(s)).ok
                count += 1
    assert count >= 200


@given(
    st.integers(1, 7),
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(0, 10 ** 6),
)
@settings(max_examples=40, deadline=None)
def test_evolve_certifies_the_products_it_carries(N, M, steps, seed):
    # every product after the first validation comes from a slot: cached
    # by validate or proved by evolve's closure; both match the entries
    cur = random_state(N, M, random.Random(seed))
    base = sorted(conserved_products(cur))
    for _ in range(steps):
        cur = evolve(cur)
        assert cur._products is not None
        assert validate(cur).products == conserved_products(cur)
        assert sorted(conserved_products(cur)) == base


def test_product_slot_is_private():
    s = random_state(4, 2, random.Random(28))
    nxt = evolve(s)
    fresh = TodaState(N=nxt.N, M=nxt.M, V=nxt.V, I=nxt.I, t=nxt.t)
    assert nxt._products is not None and fresh._products is None
    assert nxt == fresh and hash(nxt) == hash(fresh)
    assert repr(nxt) == repr(fresh) and "_products" not in repr(nxt)
    assert state_to_json(nxt) == state_to_json(fresh)
    with pytest.raises(TypeError):
        TodaState(N=1, M=1, V=(1,), I=((2,),), _products=(1, 2))


def _tamper(state, products):
    object.__setattr__(state, "_products", products)
    return state


def test_evolve_rejects_a_wrong_product_ratio():
    s = evolve(random_state(4, 2, random.Random(29)))
    pv, pi0, pi1 = s._products
    # the inequalities still hold, so only the closure can catch it
    _tamper(s, (pv / 2, pi0, pi1))
    assert validate(s).ok
    with pytest.raises(DegenerateEvolutionError, match="closure"):
        evolve(s)


def test_a_tampered_slot_leaves_the_product_checks_independent(capsys):
    from pdtoda.cli import main

    s = random_state(3, 2, random.Random(30))
    true = conserved_products(s)
    _tamper(s, (true[0] / 3,) + true[1:])
    assert validate(s).products != true
    assert conserved_products(s) == true
    assert main(["verify", "--suite", "core", "--inject-fault", "product-conservation"]) == 1
    capsys.readouterr()


def test_conserved_products_examples():
    assert conserved_products(TodaState(N=1, M=1, V=(1,), I=((2,),))) == (1, 2)
    s = TodaState(N=2, M=2, V=(1, 1), I=((2, 3), (3, 2)))
    assert conserved_products(s) == (1, 6, 6)


@pytest.mark.parametrize("V,I,want", [
    ((1, 2), ((3, 4),), (Q(1), Q(2), Q(3), Q(4))),
    (("1/2", "2/3"), (("3", "-4/6"),), (Q(1, 2), Q(2, 3), Q(3), Q(-2, 3))),
    ((Fraction(1, 2), Fraction(4, 6)), ((Fraction(3), 4),), (Q(1, 2), Q(2, 3), Q(3), Q(4))),
    ([1, "1/3"], [[Fraction(3, 1), "4"]], (Q(1), Q(1, 3), Q(3), Q(4))),
], ids=["ints", "strings", "fractions", "lists"])
def test_state_coerces_its_entries_to_tuples_of_q(V, I, want):
    s = TodaState(N=2, M=1, V=V, I=I)
    assert type(s.V) is tuple and type(s.I) is tuple and type(s.I[0]) is tuple
    assert all(type(x) is Q for x in (*s.V, *s.I[0]))
    assert (*s.V, *s.I[0]) == want


@pytest.mark.parametrize("V,I", [((1,), ((3, 4),)), ((1, 2), ((3,),)), ((1, 2), ((3, 4), (5, 6)))],
                         ids=["short-V", "short-I-row", "extra-I-row"])
def test_state_rejects_wrong_lengths(V, I):
    with pytest.raises(PdTodaError):
        TodaState(N=2, M=1, V=V, I=I)


def test_state_keeps_q_entries_as_the_same_objects(count_calls):
    calls = count_calls([(rationals, "as_q")], also=(toda,))
    V = (Q(1, 2), Q(2, 3))
    I = ((Q(3), Q(4, 5)), (Q(7, 2), Q(1)))
    s = TodaState(N=2, M=2, V=V, I=I)
    assert all(a is b for a, b in zip(s.V, V))
    assert all(a is b for row, orig in zip(s.I, I) for a, b in zip(row, orig))
    # entries that are Q already are not coerced again
    assert calls == {}
    TodaState(N=2, M=2, V=(1, 2), I=I)
    assert calls == {"as_q": 2}


def test_json_roundtrip_lossless():
    rng = random.Random(25)
    s = random_state(4, 2, rng)
    assert state_from_json(state_to_json(s)) == s


def test_json_malformed_raises():
    with pytest.raises(PdTodaError):
        state_from_json("{not json")
    with pytest.raises(PdTodaError):
        state_from_json('{"N": 2}')


def test_index_shift_order_and_values():
    rng = random.Random(26)
    s = random_state(4, 2, rng)
    shifted = index_shift(s, 1)
    assert shifted.v(1) == s.v(2)
    assert shifted.i(4, 1) == s.i(5, 1) == s.i(1, 1)
    cur = s
    for _ in range(s.N):
        cur = index_shift(cur, 1)
    assert cur == s
    assert index_shift(index_shift(s, 1), -1) == s


def test_random_state_deterministic_and_bounded():
    a = random_state(3, 2, random.Random(99))
    b = random_state(3, 2, random.Random(99))
    assert a == b
    for v in a.V:
        assert 1 <= v.numerator <= 20 and 1 <= v.denominator <= 20
    for row in a.I:
        for x in row:
            assert 1 <= x.numerator <= 20 and 1 <= x.denominator <= 20
    assert validate(a).ok


@given(
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(0, 10 ** 6),
)
@settings(max_examples=30, deadline=None)
def test_property_evolution_preserves_products_and_validity(N, M, seed):
    s = random_state(N, M, random.Random(seed))
    nxt = evolve(s)
    assert validate(nxt).ok
    assert conserved_products(nxt)[0] == conserved_products(s)[0]
    assert sorted(conserved_products(nxt)) == sorted(conserved_products(s))
    # the spurious branch is never taken: the new I-row keeps the old product
    assert math.prod(nxt.I[-1]) == math.prod(s.I[0])


def test_every_export_has_resolvable_type_hints():
    exported = [obj for name, obj in vars(pdtoda).items() if not name.startswith("_")
                and (inspect.isclass(obj) or inspect.isfunction(obj))]
    assert pdtoda.TodaState in exported and pdtoda.random_state in exported
    for obj in exported:
        typing.get_type_hints(obj)
