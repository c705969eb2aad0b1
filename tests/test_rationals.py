import copy
import math
import operator
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdtoda import rationals
from pdtoda.errors import PdTodaError
from pdtoda.rationals import LeanFraction, Q, as_q, q_from_str, q_str


def test_reduction_and_positive_denominator():
    q = Q(4, -6)
    assert q.numerator == -2 and q.denominator == 3
    assert Q(0, 5) == Q(0, 1)


def test_parse_and_format_roundtrip():
    for text in ["3/4", "-7/2", "5", "0", "-12"]:
        assert q_str(q_from_str(text)) == text
    assert q_str(Q(10, 5)) == "2"


def test_parse_accepts_signs_and_leading_zeros():
    assert q_from_str("+3/4") == Q(3, 4)
    assert q_from_str("-007/14") == Q(-1, 2)
    assert q_from_str("-0") == 0


@pytest.mark.parametrize(
    "text", ["1/0", "-5/00", "0.5", "1e3", "1_000", " 3/4 ", "3/4\n", "3/-4", "+-3", "/3", "3/", "", "\u0663"]
)
def test_parse_rejects_everything_else(text):
    with pytest.raises(PdTodaError):
        q_from_str(text)
    with pytest.raises(PdTodaError):
        as_q(text)


def test_as_q_rejects_floats():
    with pytest.raises(TypeError):
        as_q(0.5)


def test_as_q_accepts_fractions():
    assert as_q(Fraction(3, 9)) == Q(1, 3)


# ---------------------------------------------------------------------------
# LeanFraction against fractions.Fraction
# ---------------------------------------------------------------------------

_BIG = st.integers(4000, 4100).flatmap(lambda n: st.integers(2 ** (n - 1), 2**n - 1))
#: multiples of 2000+-bit factors that independent draws share, so the
#: gcds the operators take of two operands' parts are large
_FACTORS = (3**1300, 5**900, 3**1300 * 5**900)
_SHARED = st.builds(operator.mul, st.sampled_from(_FACTORS), st.integers(1, 2**64))
_ints = st.one_of(
    st.sampled_from((0, 1, -1)),
    st.integers(-50, 50),
    st.tuples(st.one_of(_BIG, _SHARED), st.sampled_from((1, -1))).map(lambda t: t[0] * t[1]),
)
_dens = st.one_of(st.sampled_from((1, 2)), st.integers(1, 50), _BIG, _SHARED)
_lean = st.builds(LeanFraction, _ints, _dens)
#: every kind of operand the package or a caller may mix with a rational
_operands = st.one_of(
    _lean,
    _ints,
    st.booleans(),
    st.builds(Fraction, _ints, _dens),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from((0.0, -0.5, math.inf, math.nan)),
)

_BINARY = [operator.add, operator.sub, operator.mul, operator.truediv,
           operator.eq, operator.lt, operator.le, operator.gt, operator.ge]


def _plain(x):
    return Fraction(x) if type(x) is LeanFraction else x


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc)


def _assert_same(got, want):
    """``got`` (from LeanFraction operands) is what Fraction gave: the same
    exception class, the same float or complex, or the same rational as a
    reduced LeanFraction."""
    if isinstance(want, Fraction):
        assert type(got) is LeanFraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert got.denominator > 0 and math.gcd(got.numerator, got.denominator) == 1
    elif isinstance(want, float) and math.isnan(want):
        assert isinstance(got, float) and math.isnan(got)
    else:
        assert type(got) is type(want) and got == want


@given(_lean, _operands)
@settings(max_examples=400, deadline=None)
def test_lean_binary_operators_match_fraction(q, other):
    for op in _BINARY:
        _assert_same(_outcome(op, q, other), _outcome(op, Fraction(q), _plain(other)))
        _assert_same(_outcome(op, other, q), _outcome(op, _plain(other), Fraction(q)))


@given(_lean, st.one_of(st.integers(-4, 4), st.booleans(),
                        st.sampled_from((LeanFraction(2), Fraction(-3), Fraction(1, 2), 0.5))))
@settings(max_examples=200, deadline=None)
def test_lean_power_matches_fraction(q, exponent):
    _assert_same(_outcome(operator.pow, q, exponent), _outcome(operator.pow, Fraction(q), _plain(exponent)))


@given(_lean)
@settings(max_examples=200, deadline=None)
def test_lean_unary_operators_and_hash_match_fraction(q):
    f = Fraction(q)
    for op in (operator.neg, operator.pos, abs):
        _assert_same(op(q), op(f))
    assert bool(q) is bool(f)
    assert hash(q) == hash(f)
    if q.denominator == 1:
        assert hash(q) == hash(q.numerator) and q == q.numerator
    assert {q: 1}[f] == 1


@given(st.one_of(_ints, st.booleans(), st.builds(Fraction, _ints, _dens)),
       st.one_of(st.none(), st.integers(-50, 50).filter(bool), _BIG))
@settings(max_examples=200, deadline=None)
def test_lean_constructor_matches_fraction(numerator, denominator):
    _assert_same(LeanFraction(numerator, denominator), Fraction(numerator, denominator))


def test_lean_constructor_takes_strings_and_other_rationals():
    _assert_same(LeanFraction("-6/4"), Fraction(-3, 2))
    _assert_same(LeanFraction(Fraction(4, -6)), Fraction(-2, 3))
    _assert_same(LeanFraction(LeanFraction(5, 10)), Fraction(1, 2))
    _assert_same(LeanFraction(), Fraction(0))


@given(_lean)
@settings(max_examples=50, deadline=None)
def test_lean_pickle_and_copy_round_trip(q):
    for twin in (pickle.loads(pickle.dumps(q)), copy.copy(q), copy.deepcopy(q)):
        _assert_same(twin, Fraction(q))


@pytest.mark.parametrize("make", [
    lambda: LeanFraction(1, 0),
    lambda: LeanFraction(1) / 0,
    lambda: LeanFraction(1) / LeanFraction(0),
    lambda: 1 / LeanFraction(0),
    lambda: LeanFraction(0) ** -1,
    lambda: LeanFraction(-3, 7) / False,
])
def test_lean_zero_division_raises(make):
    with pytest.raises(ZeroDivisionError):
        make()


def test_fraction_still_has_the_slots_lean_fraction_writes():
    assert set(Fraction.__slots__) == {"_numerator", "_denominator"}
    assert LeanFraction.__slots__ == ()
    assert not hasattr(LeanFraction(1, 2), "__dict__")


def test_fallback_backend_is_lean_fraction():
    code = ("import sys; sys.modules['gmpy2'] = None\n"
            "from pdtoda.rationals import Q, LeanFraction\n"
            "print(Q is LeanFraction, Q.__module__, Q.__name__)")
    env = dict(os.environ, PYTHONPATH=str(Path(rationals.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split() == ["True", "pdtoda.rationals", "LeanFraction"]


# ---------------------------------------------------------------------------
# closure: every rational the pipeline makes is exactly Q
# ---------------------------------------------------------------------------


def _all_q(values):
    values = list(values)
    return bool(values) and all(type(v) is Q for v in values)


def test_pipeline_outputs_are_exactly_q():
    from pdtoda.divisor import track_divisor
    from pdtoda.lax import char_matrix, spectral_data, transfer_matrix
    from pdtoda.lmatrix import corner_minors, resultant_y
    from pdtoda.toda import evolve, random_state

    s = random_state(3, 2, random.Random(5))
    chain = [s]
    for _ in range(5):
        chain.append(evolve(chain[-1]))
    assert _all_q(v for state in chain for v in (*state.V, *(x for row in state.I for x in row)))

    sd = spectral_data(s)
    assert _all_q(sd.phi.terms.values())

    track = track_divisor(s, 3)
    assert len(track) == 4 and _all_q(c for dp in track for c in dp.poly.coeffs)

    d_nn, _ = corner_minors(char_matrix(transfer_matrix(s)))
    res = resultant_y(sd.phi_cleared, d_nn.mul_y(max(1, -d_nn.y_min())))
    assert not res.is_zero() and _all_q(res.coeffs)
