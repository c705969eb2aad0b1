import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdtoda import divisor, unipoly
from pdtoda.divisor import track_divisor
from pdtoda.errors import PdTodaError
from pdtoda.rationals import Q
from pdtoda.toda import random_state
from pdtoda.unipoly import (
    UniPoly,
    gcd_monic,
    gcd_monic_euclid,
    horner,
    root_residual,
    roots_numeric,
)


def rand_poly(rng, deg, span=6):
    return UniPoly([Q(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(deg + 1)])


def test_basic_arithmetic_and_normalization():
    p = UniPoly([1, 2, 0, 0])
    assert p.degree == 1
    assert (p - p).is_zero()
    x = UniPoly.x()
    assert (x + 1) * (x - 1) == x * x - 1
    assert (x ** 3).coeffs == (0, 0, 0, 1)


def test_evaluation_is_exact_only():
    p = UniPoly([Q(1, 3), 0, 2])
    assert p(Q(1, 2)) == Q(5, 6)
    assert p(3) == Q(55, 3)
    with pytest.raises(TypeError):
        p(0.5)
    assert horner([complex(c) for c in p.coeffs], 0.5) == complex(float(Q(1, 3)) + 0.5)


def test_horner_is_exact_on_ints_and_rationals():
    value = horner([1, 2, 3], 5)
    assert value == 86 and type(value) is int
    rng = random.Random(3)
    for _ in range(10):
        p = rand_poly(rng, rng.randint(1, 5))
        x = Q(rng.randint(-9, 9), rng.randint(1, 7))
        value = horner(p.coeffs, x)
        assert value == p(x) == sum(c * x ** k for k, c in enumerate(p.coeffs))
        assert isinstance(value, Q)


def test_divmod_exact_and_remainder():
    x = UniPoly.x()
    p = (x - 1) * (x - 2) * (x + 3)
    q, r = p.divmod(x - 2)
    assert r.is_zero()
    assert q == (x - 1) * (x + 3)
    q2, r2 = p.divmod(x * x)
    assert q2 * (x * x) + r2 == p


def test_gcd_trivial_zero_case():
    x = UniPoly.x()
    p = 3 * (x - 1)
    assert gcd_monic(p, UniPoly.zero()) == (x - 1)
    with pytest.raises(PdTodaError):
        gcd_monic(UniPoly.zero(), UniPoly.zero())


def test_gcd_constructed_factorization():
    x = UniPoly.x()
    assert gcd_monic((x - 1) * (x - 2), (x - 2) * (x - 3)) == x - 2


def test_gcd_recovers_planted_factor():
    rng = random.Random(9)
    for g_deg in (1, 2, 3):
        h = rand_poly(rng, g_deg)
        while h.degree != g_deg:
            h = rand_poly(rng, g_deg)
        p = rand_poly(rng, 3)
        q = rand_poly(rng, 2)
        # coprime cofactors with probability 1; redraw if not
        got = gcd_monic(p * h, q * h)
        if got.degree != g_deg:
            continue
        assert got == h.monic()


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=40, deadline=None)
def test_gcd_divides_common_multiple(a, b, c):
    x = UniPoly.x()
    h = x - a
    p = (x - b) * h
    q = (x - c) * h
    g = gcd_monic(p, q)
    _, r = g.divmod(h)
    assert r.is_zero() or g.degree >= h.degree
    _, rp = p.divmod(g)
    assert rp.is_zero()


def test_roots_simple_pair():
    x = UniPoly.x()
    roots = roots_numeric(x * x - 1)
    assert abs(roots[0] - (-1)) < 1e-12 and abs(roots[1] - 1) < 1e-12


def test_roots_triple_zero():
    x = UniPoly.x()
    roots = roots_numeric(x ** 3)
    assert len(roots) == 3
    assert max(abs(r) for r in roots) < 1e-5


def test_roots_wilkinson_five():
    x = UniPoly.x()
    p = UniPoly.one()
    for k in range(1, 6):
        p = p * (x - k)
    roots = roots_numeric(p)
    for k, r in enumerate(roots, start=1):
        assert abs(r - k) < 1e-8


def test_roots_rejects_constants():
    with pytest.raises(PdTodaError):
        roots_numeric(UniPoly.const(3))


def test_strip_x_power():
    x = UniPoly.x()
    k, rest = ((x ** 3) * (x - 2)).strip_x_power()
    assert k == 3 and rest == x - 2


# ---------------------------------------------------------------------------
# heuristic gcd, certified in Z[x], against the Euclidean oracle
# ---------------------------------------------------------------------------


_rationals = st.builds(Q, st.integers(-10**6, 10**6), st.integers(1, 10**4))
_polys = st.lists(_rationals, min_size=1, max_size=6).map(UniPoly)


@given(_polys, _polys, _polys)
@settings(max_examples=150, deadline=None)
def test_multimodular_gcd_matches_euclid_on_planted_factor(p, q, h):
    a, b = p * h, q * h
    if a.is_zero() and b.is_zero():
        return
    assert gcd_monic(a, b) == gcd_monic_euclid(a, b)


@pytest.mark.parametrize("p, q", [
    (UniPoly([3, -6]), UniPoly.zero()),
    (UniPoly.zero(), UniPoly([Q(1, 2), 0, 5])),
    (UniPoly.const(Q(-7, 3)), UniPoly([1, 2, 3])),
    (UniPoly([1, 2, 3]), UniPoly.const(4)),
    (UniPoly([2, 0, 1]), UniPoly([4, 0, 2])),
])
def test_gcd_degenerate_arguments_match_euclid(p, q):
    assert gcd_monic(p, q) == gcd_monic_euclid(p, q)


def test_gcd_skips_prime_dividing_both_leads():
    # a word-size prime dividing both leads: the common factor is tall at
    # the top and short at the bottom
    x = UniPoly.x()
    ell = 2**62 - 57
    p = (ell * x + 1) * (x - 2)
    q = (ell * x + 1) * (x + 3)
    assert gcd_monic(p, q) == x + Q(1, ell) == gcd_monic_euclid(p, q)
    # only one lead divisible
    r = (ell * x - 1) * (x - 2)
    assert gcd_monic(r, (x + 1) * (x - 2)) == x - 2


def test_gcd_rejects_unlucky_primes_by_degree():
    # inputs that agree modulo word-size primes but have a smaller gcd
    x = UniPoly.x()
    ell0, ell1 = 2**62 - 57, 2**62 - 87
    assert gcd_monic(x - 5, x - (5 + ell0)) == UniPoly.one()
    assert gcd_monic(x - 5, x - (5 + 3 * ell0 * ell1)) == UniPoly.one()
    assert gcd_monic((x - 1) * (x - 5), (x - 1) * (x - 5 - ell0)) == x - 1
    assert gcd_monic((x - 1) * (x - 5), (x - 1) * (x - 5 - ell1)) == x - 1


def test_gcd_is_certified_by_trial_division_in_zx(monkeypatch):
    calls = []
    original = unipoly._divides_int

    def spy(h, a):
        ok = original(h, a)
        calls.append((tuple(h), ok))
        return ok

    monkeypatch.setattr(unipoly, "_divides_int", spy)
    x = UniPoly.x()
    h = x * x - Q(3, 7) * x + 11
    got = gcd_monic(h * (x - 2), h * (x + Q(1, 3)))
    assert got == h
    certified = {hs for hs, ok in calls if ok}
    assert len(calls) >= 2 and len(certified) == 1
    (hs,) = certified
    assert UniPoly(Q(c, hs[-1]) for c in hs) == got


def _spy(monkeypatch, name):
    """Record the result of every call of unipoly.<name>."""
    results = []
    original = getattr(unipoly, name)

    def spy(*args):
        out = original(*args)
        results.append(out)
        return out

    monkeypatch.setattr(unipoly, name, spy)
    return results


def test_gcd_doubles_the_evaluation_point_for_a_tall_factor(monkeypatch):
    # (x - 1)**80 has 77-bit coefficients but small roots: the first
    # xi = 2**(78 // 2 + 32) is below twice its height, so its digits are
    # wrong and rejected, and only the height makes xi grow
    divides = _spy(monkeypatch, "_divides_int")
    values = _spy(monkeypatch, "_eval_pow2")
    x = UniPoly.x()
    h = (x - 1) ** 80
    p, q = h * (x - 2), h * (x + 3)
    assert gcd_monic(p, q) == h == gcd_monic_euclid(p, q)
    assert len(divides) > 2 and not divides[0]
    assert len(values) > 2


def test_gcd_skips_a_common_root_at_the_evaluation_point(monkeypatch):
    # the heights alone give xi = 2**66, where gcd(xi - 2, xi + 3) = 1 and
    # the constant candidate divides both inputs; the root bound puts xi
    # beyond the common root, so no evaluation is 0 and the gcd is found
    values = _spy(monkeypatch, "_eval_pow2")
    x = UniPoly.x()
    root = 2**66 + 1
    p, q = (x - root) * (x - 2), (x - root) * (x + 3)
    assert gcd_monic(p, q) == x - root == gcd_monic_euclid(p, q)
    assert 0 not in values


def _fujiwara_extremal(n, m):
    """x**n - sum_i lam**i x**(n-i) - 2 lam**n with lam = 2**m, which has
    the root 2 lam: Fujiwara's bound is attained there."""
    lam = 2**m
    return [-2 * lam**n] + [-(lam ** (n - j)) for j in range(1, n)] + [1]


@pytest.mark.parametrize("seed", range(4))
def test_root_bits_bounds_twice_every_root_plus_two(seed):
    rng = random.Random(seed)
    polys = [_fujiwara_extremal(n, m) for n in range(2, 9) for m in (0, 5, 30)]
    for _ in range(60):
        n = rng.randint(1, 8)
        cs = [rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 300)) for _ in range(n)]
        lead = rng.choice((1, 2**299 + rng.getrandbits(299), rng.getrandbits(rng.randint(1, 300)) or 1))
        polys.append(cs + [rng.choice((1, -1)) * lead])
    for cs in polys:
        k = unipoly._root_bits(cs)
        rho = max(abs(z) for z in np.roots([float(c) for c in reversed(cs)]))
        assert 2.0**k >= (2 * rho + 2) * (1 - 1e-9), (cs, k, rho)


def test_gcd_evaluates_each_workload_input_at_one_point(monkeypatch, count_calls):
    # ten-step tracks of the first (4,2), (5,2) and (4,3) states of
    # random.Random(0): every gcd evaluates a and b once, at the xi that the
    # heights alone choose, so the root bound never raises k there and every
    # first candidate is accepted
    calls = count_calls([(unipoly, "gcd_monic")], also=(divisor,))
    points = []
    original = unipoly._eval_pow2

    def spy(cs, k):
        points.append((unipoly._height(cs), k))
        return original(cs, k)

    monkeypatch.setattr(unipoly, "_eval_pow2", spy)
    rng = random.Random(0)
    for N, M in ((4, 2), (5, 2), (4, 3)):
        track_divisor(random_state(N, M, rng), 10)
    assert calls["gcd_monic"] == 33 and len(points) == 2 * 33
    for (height_a, k), (height_b, k_b) in zip(points[::2], points[1::2]):
        assert k == k_b == min(height_a, height_b) // 2 + 32


# nonzero integers of exactly 200 to 2000 bits, either sign
_tall = st.builds(
    lambda magnitude, sign: sign * magnitude,
    st.integers(200, 2000).flatmap(lambda n: st.integers(2 ** (n - 1), 2**n - 1)),
    st.sampled_from((1, -1)),
)
_tall_polys = st.lists(_tall, min_size=1, max_size=5).map(UniPoly)


@given(_tall_polys, _tall_polys, _tall_polys)
@settings(max_examples=60, deadline=None)
def test_gcd_matches_euclid_on_tall_coefficients(p, q, h):
    a, b = p * h, q * h
    if a.is_zero() and b.is_zero():
        return
    assert gcd_monic(a, b) == gcd_monic_euclid(a, b)


# ---------------------------------------------------------------------------
# root residual
# ---------------------------------------------------------------------------


def test_root_residual_accepts_large_accurate_roots():
    roots = [2149, -250, 4]
    p = UniPoly.from_roots(roots)
    assert all(res <= 1e-8 for res in root_residual(p, [complex(r) for r in roots]))
    assert all(res > 1e-8 for res in root_residual(p, [complex(r * (1 + 1e-6)) for r in roots]))


def test_roots_numeric_no_false_alarm_on_mixed_root_sizes():
    # |p(z)| / max|c_k| flags these accurate roots at about 1e-7
    roots = [2149, -250, 4, Q(1, 3), Q(-1, 7)]
    got = roots_numeric(UniPoly.from_roots(roots))
    want = sorted(float(r) for r in roots)
    assert max(abs(z - w) / abs(w) for z, w in zip(got, want)) < 1e-12
