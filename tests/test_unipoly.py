import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdtoda import unipoly
from pdtoda.errors import PdTodaError
from pdtoda.rationals import Q
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
    x = UniPoly.x()
    ell = unipoly._prime(0)
    # the common factor vanishes mod the first prime except for its constant
    p = (ell * x + 1) * (x - 2)
    q = (ell * x + 1) * (x + 3)
    assert gcd_monic(p, q) == x + Q(1, ell) == gcd_monic_euclid(p, q)
    # only one lead divisible: the prime is kept, the degree drop is harmless
    r = (ell * x - 1) * (x - 2)
    assert gcd_monic(r, (x + 1) * (x - 2)) == x - 2


def test_gcd_rejects_unlucky_primes_by_degree():
    x = UniPoly.x()
    ell0, ell1 = unipoly._prime(0), unipoly._prime(1)
    # x - a and x - b agree mod the first prime, but are coprime
    assert gcd_monic(x - 5, x - (5 + ell0)) == UniPoly.one()
    assert gcd_monic(x - 5, x - (5 + 3 * ell0 * ell1)) == UniPoly.one()
    # a first prime with too high a degree is replaced by a later one ...
    assert gcd_monic((x - 1) * (x - 5), (x - 1) * (x - 5 - ell0)) == x - 1
    # ... and a later prime with too high a degree is skipped
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
    # a 200-bit factor over tiny cofactors: the first xi = 2**(200 // 2 + 32)
    # is below the factor's height, so its digits are wrong and rejected
    divides = _spy(monkeypatch, "_divides_int")
    rng = random.Random(11)
    x = UniPoly.x()
    h = x * x + rng.getrandbits(200) * x - rng.getrandbits(200)
    got = gcd_monic(h * (x - 1), h * (x + 1))
    assert got == h == gcd_monic_euclid(h * (x - 1), h * (x + 1))
    assert len(divides) > 2 and not divides[0]


def test_gcd_skips_a_common_root_at_the_evaluation_point(monkeypatch):
    # both inputs have height 65 bits, so the first xi is 2**(65 // 2 + 32),
    # a common root: gcd(a(xi), b(xi)) = 0 and xi must move on
    values = _spy(monkeypatch, "_eval_pow2")
    x = UniPoly.x()
    root = 2**64
    p, q = (x - root) * (x - 1), (x - root) * (x + 1)
    assert gcd_monic(p, q) == x - root == gcd_monic_euclid(p, q)
    assert values[:2] == [0, 0] and len(values) > 2


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


def _miller_rabin(n):
    # deterministic for n < 3.3e24 with the first twelve prime bases
    if n % 2 == 0:
        return n == 2
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def test_prime_table_entries_are_62_bit_primes():
    primes = [unipoly._prime(i) for i in range(64)]
    assert all(2**61 < p < 2**62 and _miller_rabin(p) for p in primes)
    assert primes == sorted(set(primes), reverse=True)
    # consecutive: no prime is skipped between the first few entries
    for hi, lo in zip(primes[:4], primes[1:5]):
        assert not any(_miller_rabin(n) for n in range(lo + 2, hi, 2))


def test_prime_table_is_not_built_at_import():
    code = "import pdtoda, pdtoda.unipoly as u; print(len(u._PRIMES))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


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
