"""Acceptance suite: one test per criterion, each printing a PASS line;
run `pytest tests/test_acceptance.py -v -s` to see them.

Each criterion runs claims of ``pdtoda.verify``, with their labels and
tolerances, through a ``Comparer()`` on a larger corpus than the ``verify``
check's, so a failed claim raises verify's counterexample dump and every
claim stated here is a `pdtoda verify` check too.
"""

import json
import random
import subprocess
import sys
import time

from pdtoda import verify
from pdtoda.arrows import SE, SW
from pdtoda.errors import NonGenericDataError, NumericFailureError, SingularCurveError
from pdtoda.toda import random_state
from pdtoda.verify import Comparer

CORPUS = [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2)]
STATES_PER_SHAPE = 20
EVOLUTION_STEPS = 10


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}  ({detail})")
    assert ok, f"{name}: {detail}"


def _corpus(rng):
    return [random_state(N, M, rng) for (N, M) in CORPUS for _ in range(STATES_PER_SHAPE)]


def test_criterion_1_isospectrality():
    t0 = time.time()
    for s in _corpus(random.Random(101)):
        verify.isospectrality(Comparer(), s, EVOLUTION_STEPS)
    elapsed = time.time() - t0
    _report("criterion 1: isospectrality, 6 shapes x 20 states x 10 steps, exact",
            elapsed < 60.0, f"runtime {elapsed:.1f}s < 60s")


def test_criterion_2_conservation_and_det_factorization():
    ck = Comparer()
    for s in _corpus(random.Random(102)):
        verify.detx_factorization(ck, s)
        verify.detx_factorization(ck, verify.product_conservation(ck, s, EVOLUTION_STEPS))
    _report("criterion 2: product conservation + det X factorization, exact", True,
            "V-product invariant, I-row multiset invariant, factorization at t=0 and t=10")


def test_criterion_3_degree_profile():
    for s in _corpus(random.Random(103)):
        verify.degree_profile(Comparer(), s)
    _report("criterion 3: degree bounds + integrality-equality rule + signed binomial leads",
            True, f"{len(CORPUS) * STATES_PER_SHAPE} states")


def test_criterion_4_genus_newton_polygon():
    rng = random.Random(104)
    counts = {(N, M): verify.genus_newton(Comparer(), random_state(N, M, rng)) for (N, M) in CORPUS}
    _report("criterion 4: genus formula = Newton-polygon interior count",
            True, f"counts {sorted(counts.items())}")


def test_criterion_5_time_step_determinant():
    rng = random.Random(105)
    periods = {1: (2, 3, 4), 2: (3, 4, 5), 3: (4, 5)}
    for M, Ns in periods.items():
        for done in range(50):
            verify.time_step_det(Comparer(), random_state(Ns[done % len(Ns)], M, rng))
    _report("criterion 5: det H = (-1)^(M+1) I_1 x symbolically", True, "M in {1,2,3} x 50 states")


def test_criterion_6_appendix_suite():
    rng = random.Random(106)
    ck = Comparer()
    shapes = [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 3), (5, 2)]
    for count in range(100):
        N, M = shapes[count % len(shapes)]
        s = random_state(N, M, rng)
        verify.arrow_row_sums(ck, s)
        verify.second_row(ck, s)
        verify.u_row_product(ck, s)
        tail = tuple(rng.choice((SW, SE)) for _ in range(rng.randint(0, M - 1)))
        verify.arrow_prefix_swap(ck, s, [tail])
    verify.u_row_values(ck, random_state(5, 3, rng))
    big = random_state(7, 6, rng)
    verify.arrow_composition_sum(ck, big)
    verify.arrow_prefix_swap(ck, big, verify.SHORT_TAILS)
    _report("criterion 6: arrow calculus (row sums, second row, triangle rows, "
            "arrow-sum exhaustive to k=6)", True, "100 states + exhaustive enumerations")


def test_criterion_7_divisor_structure():
    rng = random.Random(107)
    ck = Comparer()
    per_shape = {(2, 1): 9, (3, 1): 9, (3, 2): 8, (4, 2): 8, (4, 3): 8, (5, 2): 8}
    for (N, M), count in per_shape.items():
        done = attempts = 0
        while done < count:
            attempts += 1
            assert attempts < count + 20, f"too many non-generic draws at {(N, M)}"
            s = random_state(N, M, rng)
            try:
                verify.corner_factorizations(ck, s)
            except NonGenericDataError:
                continue
            verify.divisor_degree(ck, s)
            done += 1
    _report("criterion 7: deg R = 2g, deg U = g, four corner factorizations, double-minor identity",
            True, f"{sum(per_shape.values())} states across {len(per_shape)} shapes")


def test_criterion_8_theta_reproduction():
    rng = random.Random(108)
    ck = Comparer()
    t0 = time.time()
    done = attempts = 0
    worst = 0.0
    while done < 5:
        attempts += 1
        assert attempts < 25, "too many non-generic draws"
        s = random_state(2, 1, rng)
        try:
            rep = verify.theta_reproduction(ck, s, 10)
        except (NumericFailureError, SingularCurveError, NonGenericDataError):
            continue
        # every entry, the one-site shift (n = 1) included, is scored
        ck.eq("theta predictions skipped", s, rep["skipped"], 0)
        worst = max(worst, rep["max_abs_err"])
        done += 1
    elapsed = time.time() - t0
    _report("criterion 8: theta-predicted divisor coordinate, t=1..10 and n=1, calibrated at t=0 only",
            elapsed < 300.0, f"5 states, max |err| = {worst:.2e} <= 1e-6, "
            f"principal residuals <= 1e-8, runtime {elapsed:.1f}s < 300s")


def test_criterion_9_evolution_oracle_agreement():
    rng = random.Random(109)
    states = [random_state(rng.randint(1, 5), rng.randint(1, 3), rng) for _ in range(100)]
    worst = verify.evolution_float_oracle(Comparer(), states)
    _report("criterion 9: exact evolution vs float fixed-point oracle",
            True, f"max rel err {worst:.2e} <= 1e-10 on 100 states")


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
