import random

import pytest

from pdtoda.bilaurent import BiLaurent, _convex_hull, mul_add, newton_interior
from pdtoda.divisor import rel_eval
from pdtoda.errors import PdTodaError
from pdtoda.rationals import Q, as_q
from pdtoda.toda import random_state
from pdtoda.unipoly import UniPoly


def test_term_storage_invariants():
    p = BiLaurent({(0, -1): 2, (1, 0): 0, (2, 3): 1})
    assert (1, 0) not in p.terms
    assert p.y_min() == -1 and p.y_max() == 3
    with pytest.raises(PdTodaError):
        BiLaurent({(-1, 0): 1})


def test_arithmetic_and_y_clearing():
    x = BiLaurent.x()
    y = BiLaurent.y()
    yinv = BiLaurent.y(-1)
    p = x * y + 2 * yinv
    assert p - p == BiLaurent.zero()
    cleared = p.clear_y()
    assert cleared.y_min() == 0
    assert cleared == x * y * y + BiLaurent.const(2)


def test_products_store_no_cancelled_coefficient():
    # (x + y)(x - y) = x^2 - y^2: the two xy terms cancel and must leave no
    # zero entry behind, since equality is plain dict equality
    x = BiLaurent.x()
    y = BiLaurent.y()
    p = (x + y) * (x - y)
    assert p.terms == {(2, 0): 1, (0, 2): -1}
    assert 0 not in p.terms.values()
    assert p == x * x - y * y
    # a product that cancels completely is the zero polynomial
    q = (y + BiLaurent.y(-1)) * (y - BiLaurent.y(-1)) - (y * y - BiLaurent.y(-2))
    assert q.terms == {}
    acc = {(1, 1): Q(2)}
    mul_add(acc, {(1, 0): Q(1)}, {(0, 1): Q(-2)})
    assert acc == {}


def test_y_coefficients_roundtrip():
    x = BiLaurent.x()
    y = BiLaurent.y()
    p = (x * x + 1) * y + BiLaurent.from_unipoly(UniPoly([1, 2])) * BiLaurent.y(-1)
    cs = p.y_coefficients()
    assert cs[1] == UniPoly([1, 0, 1])
    assert cs[-1] == UniPoly([1, 2])


def subs_exact(p: BiLaurent, xv, yv):
    """Exact rational evaluation of p at (xv, yv): the oracle for rel_eval."""
    acc = Q(0)
    for (i, j), c in p.sorted_items():
        term = c * (as_q(xv) ** i)
        term = term * (as_q(yv) ** j) if j >= 0 else term / (as_q(yv) ** (-j))
        acc += term
    return acc


def test_eval_matches_exact_substitution():
    rng = random.Random(4)
    p = BiLaurent({(i, j): Q(rng.randint(-3, 3)) for i in range(3) for j in range(-1, 2)})
    xv, yv = Q(3, 2), Q(-5, 3)
    # rel_eval is |p| over 1 + the sum of the term magnitudes
    exact = abs(subs_exact(p, xv, yv))
    mag = 1 + sum(abs(subs_exact(BiLaurent({k: c}), xv, yv)) for k, c in p.sorted_items())
    assert abs(rel_eval(p, float(xv), float(yv)) - float(exact / mag)) < 1e-15


def test_newton_interior_monomial():
    assert newton_interior(BiLaurent.term(3, 2, 5)) == 0


def test_newton_interior_standard_triangle():
    # fully supported triangle with vertices (0,0), (3,0), (0,3)
    terms = {(i, j): 1 for i in range(4) for j in range(4 - i)}
    assert newton_interior(BiLaurent(terms)) == 1


def test_newton_interior_matches_genus_for_3_1():
    # brute-force-lattice oracle value for the (3,1) spectral polynomial: 2
    rng = random.Random(7)
    from pdtoda.lax import spectral_data

    s = random_state(3, 1, rng)
    assert newton_interior(spectral_data(s).phi) == 2


def test_degenerate_hulls_have_no_interior():
    segment = BiLaurent({(0, 0): 1, (3, 0): 1, (1, 0): 1})
    assert newton_interior(segment) == 0


def _interior_by_scan(points):
    """Lattice points strictly inside the convex hull of ``points``, by a
    scan of the hull's bounding box with exact cross-product tests."""
    hull = _convex_hull(points)
    if len(hull) < 3:
        return 0
    edges = list(zip(hull, hull[1:] + hull[:1]))
    xs = [px for px, _ in hull]
    ys = [py for _, py in hull]
    return sum(
        all((bx - ax) * (gy - ay) - (by - ay) * (gx - ax) > 0 for (ax, ay), (bx, by) in edges)
        for gx in range(min(xs) + 1, max(xs))
        for gy in range(min(ys) + 1, max(ys))
    )


def test_newton_interior_matches_a_scan_of_the_hull():
    # Pick's theorem against the bounding-box scan, on random supports:
    # single points, segments (collinear supports) and polygons, with
    # negative y-degrees
    rng = random.Random(53)
    kinds = {"point": 0, "segment": 0, "polygon": 0}
    for _ in range(300):
        shape = rng.choice(("point", "segment", "polygon", "polygon"))
        if shape == "point":
            pts = [(rng.randint(0, 9), rng.randint(-5, 5))]
        elif shape == "segment":
            x0, y0 = rng.randint(0, 4), rng.randint(-5, 5)
            dx, dy = rng.randint(0, 3), rng.randint(-3, 3)
            pts = [(x0 + k * dx, y0 + k * dy) for k in range(rng.randint(2, 4))]
        else:
            pts = [(rng.randint(0, 9), rng.randint(-5, 5)) for _ in range(rng.randint(3, 9))]
        kinds[shape] += 1
        p = BiLaurent({e: 1 for e in pts})
        want = _interior_by_scan(pts)
        assert newton_interior(p) == want, pts
    assert min(kinds.values()) > 50


def test_q_coefficients_are_kept_as_they_are():
    # a coefficient that is Q already is stored as the same object
    c = Q(3, 7)
    assert BiLaurent({(1, 2): c}).terms[(1, 2)] is c
    assert BiLaurent.term(c, 1, 2).terms[(1, 2)] is c
    assert BiLaurent.term(2, 0, 0).terms[(0, 0)] == Q(2)
