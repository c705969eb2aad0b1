from pdtoda.errors import PdTodaError
from pdtoda.rationals import Q, as_q, q_from_str, q_str

import pytest


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
    from fractions import Fraction

    assert as_q(Fraction(3, 9)) == Q(1, 3)
