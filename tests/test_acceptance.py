"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured margin.  Each test writes out the tolerance it applies; the
``verify`` checks hold the same bounds (1e-10 for the evolution oracle,
1e-6 for the theta reproduction, ``theta.PRINCIPAL_DIVISOR_TOL`` = 1e-8
for the principal-divisor residuals), so a change to one is a change to
both.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is also exercised by `pdtoda verify`.
"""

import json
import random
import subprocess
import sys
import time
from itertools import product as iproduct

from pdtoda.arrows import (
    SE,
    SW,
    alternating_row_sum_check,
    arrow_sum,
    prefix_swap_check,
    second_row_check,
    shifted_alternating_row_sum_check,
    u_row,
    u_row_matrix_oracle,
)
from pdtoda.bilaurent import newton_interior
from pdtoda.divisor import divisor_poly, zeros_factorization_check
from pdtoda.errors import NonGenericDataError, NumericFailureError, SingularCurveError
from pdtoda.lax import (
    check_degree_profile,
    det_x_factorization_check,
    genus,
    spectral_data,
    time_step_det_check,
)
from pdtoda.rationals import ONE
from pdtoda.theta import theta_check
from pdtoda.toda import (
    conserved_products,
    evolve,
    evolve_float_oracle,
    random_state,
)

CORPUS = [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2)]
STATES_PER_SHAPE = 20
EVOLUTION_STEPS = 10


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_isospectrality():
    rng = random.Random(101)
    t0 = time.time()
    for (N, M) in CORPUS:
        for _ in range(STATES_PER_SHAPE):
            s = random_state(N, M, rng)
            phi0 = spectral_data(s).phi
            cur = s
            for _ in range(EVOLUTION_STEPS):
                cur = evolve(cur)
                assert spectral_data(cur).phi == phi0, (N, M)
    elapsed = time.time() - t0
    _report(
        "criterion 1: isospectrality, 6 shapes x 20 states x 10 steps, exact",
        elapsed < 60.0,
        f"runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_2_conservation_and_det_factorization():
    rng = random.Random(102)
    for (N, M) in CORPUS:
        for _ in range(STATES_PER_SHAPE):
            s = random_state(N, M, rng)
            base = sorted(conserved_products(s))
            lhs, rhs = det_x_factorization_check(s)
            assert lhs == rhs, (N, M)
            cur = s
            for _ in range(EVOLUTION_STEPS):
                cur = evolve(cur)
                prods = conserved_products(cur)
                assert prods[0] == conserved_products(s)[0]
                assert sorted(prods) == base, (N, M)
            lhs, rhs = det_x_factorization_check(cur)
            assert lhs == rhs, (N, M, "after evolution")
    _report("criterion 2: product conservation + det X factorization, exact", True,
            "V-product invariant, I-row multiset invariant, factorization at t=0 and t=10")


def test_criterion_3_degree_profile():
    rng = random.Random(103)
    for (N, M) in CORPUS:
        for _ in range(STATES_PER_SHAPE):
            problems = check_degree_profile(spectral_data(random_state(N, M, rng)))
            assert problems == [], (N, M, problems)
    _report("criterion 3: degree bounds + integrality-equality rule + signed binomial leads",
            True, f"{len(CORPUS) * STATES_PER_SHAPE} states")


def test_criterion_4_genus_newton_polygon():
    rng = random.Random(104)
    counts = {}
    for (N, M) in CORPUS:
        sd = spectral_data(random_state(N, M, rng))
        counts[(N, M)] = interior = newton_interior(sd.phi)
        assert interior == sd.g, (N, M, interior, genus(N, M))
    assert counts[(4, 2)] == 4
    _report("criterion 4: genus formula = Newton-polygon interior count",
            True, f"counts {sorted(counts.items())}")


def test_criterion_5_time_step_determinant():
    rng = random.Random(105)
    shapes = {1: [(2, 1), (3, 1), (4, 1)], 2: [(3, 2), (4, 2), (5, 2)], 3: [(4, 3), (5, 3)]}
    for M, shape_list in shapes.items():
        done = 0
        while done < 50:
            N = shape_list[done % len(shape_list)][0]
            s = random_state(N, M, rng)
            lhs, rhs = time_step_det_check(s)
            assert lhs == rhs, (N, M, lhs, rhs)
            done += 1
    _report("criterion 5: det H = (-1)^(M+1) I_1 x symbolically, M in {1,2,3} x 50 states", True)


def test_criterion_6_appendix_suite():
    rng = random.Random(106)
    shapes = [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 3), (5, 2)]
    count = 0
    while count < 100:
        N, M = shapes[count % len(shapes)]
        s = random_state(N, M, rng)
        total, zero = alternating_row_sum_check(s)
        assert total == zero, (N, M, total)
        total, expected = shifted_alternating_row_sum_check(s)
        assert total == expected, (N, M, total, expected)
        read, closed = second_row_check(s)
        assert read == closed, (N, M, read, closed)
        for k in range(1, M + 1):
            assert u_row(s, k) == u_row_matrix_oracle(s, k)
        tail = tuple(rng.choice((SW, SE)) for _ in range(rng.randint(0, M - 1)))
        lhs, rhs = prefix_swap_check(s, tail)
        assert lhs == rhs, (N, M, tail)
        count += 1
    # triangle row values on a fresh state
    s = random_state(5, 3, rng)
    i = s.i
    assert u_row(s, 1) == (i(1), ONE, 0, 0, 0)
    assert u_row(s, 2) == (i(1) * i(1, 1), i(2) + i(1, 1), ONE, 0, 0)
    assert u_row(s, 3)[1] == i(2) * i(2, 1) + i(2) * i(1, 2) + i(1, 1) * i(1, 2)
    # arrow-sum formula, exhaustive for k <= 6
    big = random_state(7, 6, rng)
    for k in range(1, 7):
        row = u_row(big, k)
        for j in range(1, k + 2):
            assert arrow_sum(big, k, j) == row[j - 1]
    # prefix-swap rule, exhaustive for short sequences
    for k in range(1, 5):
        for tail in iproduct((SW, SE), repeat=k - 1):
            lhs, rhs = prefix_swap_check(big, tail)
            assert lhs == rhs, tail
    _report("criterion 6: arrow calculus (row sums, second row, triangle rows, "
            "arrow-sum exhaustive to k=6)", True, "100 states + exhaustive enumerations")


def test_criterion_7_divisor_structure():
    rng = random.Random(107)
    per_shape = {(2, 1): 9, (3, 1): 9, (3, 2): 8, (4, 2): 8, (4, 3): 8, (5, 2): 8}
    total = 0
    for (N, M), count in per_shape.items():
        g = genus(N, M)
        done = 0
        attempts = 0
        while done < count:
            attempts += 1
            assert attempts < count + 20, f"too many non-generic draws at {(N, M)}"
            s = random_state(N, M, rng)
            try:
                results = zeros_factorization_check(s)
            except NonGenericDataError:
                continue
            for label, (lhs, rhs) in results.items():
                assert lhs == rhs, (N, M, label)
            dp = divisor_poly(s, "X")
            assert dp.degree == g
            done += 1
            total += 1
    assert total >= 50
    _report("criterion 7: deg R = 2g, deg U = g, four corner factorizations, "
            "double-minor identity", True, f"{total} states across {len(per_shape)} shapes")


def test_criterion_8_theta_reproduction():
    rng = random.Random(108)
    t0 = time.time()
    done = 0
    attempts = 0
    worst = 0.0
    while done < 5:
        attempts += 1
        assert attempts < 25, "too many non-generic draws"
        s = random_state(2, 1, rng)
        try:
            rep = theta_check(s, steps=10, tol=1e-6)
        except (NumericFailureError, SingularCurveError, NonGenericDataError):
            continue
        assert rep["pass"], rep
        assert rep["torsion_residual"] <= 1e-8
        assert rep["x_divisor_residual"] <= 1e-8
        assert all(e["abs_err"] <= 1e-6 for e in rep["entries"])
        assert any(e["n"] == 1 for e in rep["entries"])
        worst = max(worst, rep["max_abs_err"])
        done += 1
    elapsed = time.time() - t0
    _report(
        "criterion 8: theta-predicted divisor coordinate, t=1..10 and n=1, "
        "calibrated at t=0 only",
        elapsed < 300.0,
        f"5 states, max |err| = {worst:.2e} <= 1e-6, principal residuals <= 1e-8, "
        f"runtime {elapsed:.1f}s < 300s",
    )


def test_criterion_9_evolution_oracle_agreement():
    rng = random.Random(109)
    worst = 0.0
    for count in range(100):
        N = rng.randint(1, 5)
        M = rng.randint(1, 3)
        s = random_state(N, M, rng)
        nxt = evolve(s)
        fi, fv = evolve_float_oracle(s)
        for a, b in zip(fi, nxt.I[-1]):
            worst = max(worst, abs(a - float(b)) / abs(a))
        for a, b in zip(fv, nxt.V):
            worst = max(worst, abs(a - float(b)) / abs(a))
    _report("criterion 9: exact evolution vs float fixed-point oracle",
            worst <= 1e-10, f"max rel err {worst:.2e} <= 1e-10 on 100 states")


def test_criterion_10_verify_determinism():
    cmd = [sys.executable, "-m", "pdtoda.cli", "verify", "--suite", "all", "--seed", "42"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    assert r1.returncode == 0, r1.stdout.decode()[-2000:]
    ok = r1.stdout == r2.stdout and r1.returncode == r2.returncode
    report = json.loads(r1.stdout)
    _report("criterion 10: verify --suite all --seed 42 byte-reproducible",
            ok and report["passed"],
            f"{report['counts']['total']} checks, byte-identical across runs")
