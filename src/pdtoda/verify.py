"""Named verification checks and suite assembly for the CLI.

Every check draws its own deterministic RNG from (seed, check name), so
the report for a given seed is byte-stable regardless of execution order.

A check is ``fn(rng, ck)``: it states each claim once, through the
comparer ``ck`` that :func:`run_suite` passes in, and returns its pass
details.  ``ck.eq(label, witness, lhs, rhs)`` is an exact comparison,
``ck.le(label, witness, residual, tol)`` a numeric one; the witness is the
state the claim is made about (or None).  The first failed comparison ends
the check, and the report carries its counterexample dump: the label,
lhs/rhs or residual/tol, and the witness under ``"state"``.

``inject_fault=NAME`` corrupts the first comparison of check NAME: an
exact comparison gets an expected side that equals nothing, a numeric one
a residual pushed past its tolerance.  So every check must fail under it,
which shows that the harness detects violations.  ``tol`` (``--tol``)
overrides the tolerance of the two numeric screens that read ``ck.tol``:
``theta-reproduction`` and ``common-zero-support``.
"""

from __future__ import annotations

import cmath
import math
import random
from itertools import product

from .arrows import (
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
from .bilaurent import BiLaurent
from .divisor import (
    VARIANTS,
    common_zero_support_check,
    divisor_poly,
    compute_R_S,
    operator_matrix,
    shift_conjugation_matrix,
    smoothness_probe,
    track_divisor,
    zeros_factorization_check,
)
from .errors import NonGenericDataError, NumericFailureError, PdTodaError, SingularCurveError
from .lax import (
    band_params,
    band_params_of_matrix,
    banded_template,
    bloch_basis,
    char_poly,
    check_degree_profile,
    det_x_factorization_check,
    genus,
    newton_genus_check,
    refactorization_check,
    spectral_data,
    time_step_det_check,
    transfer_matrix,
)
from .lmatrix import LaurentMatrix, antitranspose, det
from .rationals import Q, q_str
from .toda import (
    TodaState,
    conserved_products,
    evolve,
    evolve_float_oracle,
    index_shift,
    random_state,
    state_from_json,
    state_to_json,
    validate,
)
from .theta import PRINCIPAL_DIVISOR_TOL, riemann_theta, theta_check
from .unipoly import UniPoly

SMALL_CORPUS = ((2, 1), (3, 1), (3, 2), (4, 2))
CHECKS = {}


def check(name, *suites):
    def wrap(fn):
        CHECKS[name] = (fn, suites)
        return fn

    return wrap


class _Mismatch(Exception):
    """A failed comparison; ``details`` is its counterexample dump."""

    def __init__(self, details: dict):
        super().__init__(details["label"])
        self.details = details


class _Nothing:
    """The expected side of an exact comparison under fault injection."""

    def __eq__(self, other):
        return False

    def __repr__(self):
        return "<injected fault>"


class Comparer:
    """The one place where a check's claims are compared and dumped."""

    def __init__(self, corrupt: bool = False, tol: float | None = None):
        self._corrupt = corrupt
        self._tol = tol

    def tol(self, default: float) -> float:
        """The ``--tol`` override, or ``default`` when none is set."""
        return default if self._tol is None else self._tol

    def eq(self, label: str, witness: TodaState | None, lhs, rhs) -> None:
        if self._corrupt:
            rhs = _Nothing()
        if lhs != rhs:
            raise _Mismatch(_dump(label, witness, lhs=lhs, rhs=rhs))

    def le(self, label: str, witness: TodaState | None, residual: float, tol: float) -> None:
        if self._corrupt:
            residual = residual + tol + 1.0
        if not residual <= tol:
            raise _Mismatch(_dump(label, witness, residual=residual, tol=tol))


def _dump(label, witness, **sides) -> dict:
    details = {"label": label, **sides}
    if witness is not None:
        details["state"] = witness
    return details


def _states(rng, shapes, per_shape, generic=None):
    out = []
    for (N, M) in shapes:
        for _ in range(per_shape):
            out.append(random_state(N, M, rng, generic=generic))
    return out


# ---------------------------------------------------------------------------
# core suite
# ---------------------------------------------------------------------------


@check("evolution-closure", "core")
def _evolution_closure(rng, ck):
    for s in _states(rng, [(n, m) for n in (1, 2, 3, 4, 5) for m in (1, 2, 3)], 2):
        nxt = evolve(s)
        for n in range(1, s.N + 1):
            new_i = nxt.i(n, s.M - 1)
            ck.eq(f"I'^(M-1)_{n} = I_{n} + V_{n} - V'_{n - 1}", s,
                  new_i, s.i(n) + s.v(n) - nxt.v(n - 1))
            ck.eq(f"V'_{n} = I_{n + 1} V_{n} / I'^(M-1)_{n}", s, nxt.v(n), s.i(n + 1) * s.v(n) / new_i)
        ck.eq("violations of the evolved state", s, validate(nxt).violations, ())
    return {"states": 30}


@check("product-conservation", "core")
def _product_conservation(rng, ck):
    for s in _states(rng, [(2, 1), (3, 2), (4, 3), (5, 2)], 2):
        base = sorted(conserved_products(s))
        cur = s
        for _ in range(5):
            cur = evolve(cur)
            ck.eq(f"conserved products at t={cur.t}", s, sorted(conserved_products(cur)), base)
    return {"states": 8, "steps": 5}


@check("evolution-float-oracle", "core")
def _evolution_float_oracle(rng, ck):
    worst = 0.0
    for s in _states(rng, [(n, m) for n in (1, 2, 3, 4, 5) for m in (1, 2)], 2):
        nxt = evolve(s)
        fi, fv = evolve_float_oracle(s)
        for a, b in zip(fi, nxt.I[-1]):
            worst = max(worst, abs(a - float(b)) / abs(a))
        for a, b in zip(fv, nxt.V):
            worst = max(worst, abs(a - float(b)) / abs(a))
    ck.le("max relative error of the float step", None, worst, 1e-10)
    return {"max_rel_err": worst}


@check("state-roundtrip", "core")
def _state_roundtrip(rng, ck):
    for s in _states(rng, SMALL_CORPUS, 2):
        ck.eq("state_from_json(state_to_json(s)) = s", s, state_from_json(state_to_json(s)), s)
    return {}


# ---------------------------------------------------------------------------
# lax suite
# ---------------------------------------------------------------------------


@check("isospectrality", "lax")
def _isospectrality(rng, ck):
    for s in _states(rng, SMALL_CORPUS, 2):
        sd = spectral_data(s)
        cur = s
        for _ in range(3):
            cur = evolve(cur)
            ck.eq(f"phi at t={cur.t} = phi at t=0", s, spectral_data(cur).phi, sd.phi)
    return {"shapes": list(SMALL_CORPUS), "steps": 3}


@check("refactorization", "lax")
def _refactorization(rng, ck):
    for s in _states(rng, SMALL_CORPUS, 2):
        ck.eq("L' R'_(M-1) = R_(0) L", s, refactorization_check(s)[0], True)
    return {}


@check("detx-factorization", "lax")
def _detx(rng, ck):
    for s in _states(rng, [(1, 1), (2, 1), (3, 1), (3, 2), (4, 2), (5, 2)], 2):
        _, d, e = det_x_factorization_check(s)
        ck.eq("det X = y^-1 (y - e prod V) prod_k (prod I_k - e y)", s, d, e)
    return {}


@check("degree-profile", "lax")
def _profile(rng, ck):
    for s in _states(rng, SMALL_CORPUS + ((4, 3), (5, 2)), 2):
        ck.eq("degree-profile violations", s, check_degree_profile(spectral_data(s)), [])
    return {}


@check("genus-newton", "lax")
def _genus_newton(rng, ck):
    values = {}
    for (N, M) in SMALL_CORPUS + ((4, 3), (5, 2)):
        s = random_state(N, M, rng)
        _, interior = newton_genus_check(spectral_data(s))
        values[f"{N},{M}"] = interior
        ck.eq("Newton polygon interior points = genus formula", s, interior, genus(N, M))
    return {"interior_counts": values}


@check("banded-template", "lax")
def _banded(rng, ck):
    for s in _states(rng, [(2, 1), (3, 2), (4, 2), (5, 3)], 2):
        X = transfer_matrix(s)
        ck.eq("banded template of the band coefficients = X", s, banded_template(band_params(s, X)), X)
    return {}


@check("bloch-window", "lax")
def _bloch(rng, ck):
    for s in _states(rng, [(3, 1), (4, 2), (5, 3)], 2):
        params = band_params(s)
        upto = 2 * s.N + 2
        basis = bloch_basis(s, upto=upto, params=params)
        x = UniPoly.x()
        for vec in basis.vectors:
            for n in range(2, upto - s.M + 1):
                rhs = x * vec[n - 1] - params.b(n - 1) * vec[n - 2]
                for k in range(1, s.M + 1):
                    rhs = rhs - params.a(k, n + k - 1) * vec[n + k - 2]
                ck.eq(f"Bloch recurrence at n={n}", s, vec[n + s.M - 1], rhs)
        # windows at a shifted offset stay independent at random rational x
        x0 = Q(rng.randint(1, 40), rng.randint(1, 7))
        window = [[vec[s.M + 1 + i](x0) for vec in basis.vectors] for i in range(s.M + 1)]
        wdet = det(LaurentMatrix([[BiLaurent.const(c) for c in row] for row in window]))
        ck.eq(f"shifted window at x={q_str(x0)} is degenerate", s, wdet.is_zero(), False)
    return {}


@check("time-step-det", "lax")
def _tstep(rng, ck):
    shapes = [(2, 1), (3, 1), (4, 2), (3, 2), (4, 3), (5, 3)]
    for s in _states(rng, shapes, 2):
        _, d, e = time_step_det_check(s)
        ck.eq("det H = (-1)^(M+1) I_1 x", s, d, e)
    return {"shapes": shapes}


# ---------------------------------------------------------------------------
# appendix suite
# ---------------------------------------------------------------------------


@check("u-row-product", "appendix")
def _u_row_product(rng, ck):
    for s in _states(rng, [(3, 2), (4, 3), (5, 3), (7, 6)], 2):
        for k in range(1, s.M + 1):
            ck.eq(f"u_row(k={k}) = first row of the matrix product", s,
                  u_row(s, k), u_row_matrix_oracle(s, k))
    return {}


@check("u-row-values", "appendix")
def _u_row_values(rng, ck):
    s = random_state(5, 3, rng)
    i = s.i
    expect = {
        1: (i(1), 1, 0, 0, 0),
        2: (i(1) * i(1, 1), i(2) + i(1, 1), 1, 0, 0),
        3: (
            i(1) * i(1, 1) * i(1, 2),
            i(2) * i(2, 1) + i(2) * i(1, 2) + i(1, 1) * i(1, 2),
            i(3) + i(2, 1) + i(1, 2),
            1,
            0,
        ),
    }
    for k, row in expect.items():
        ck.eq(f"u_row(k={k}) = closed form", s, tuple(u_row(s, k)), tuple(Q(v) for v in row))
    return {}


@check("arrow-composition-sum", "appendix")
def _arrow_sum_check(rng, ck):
    s = random_state(7, 6, rng)
    for k in range(1, 7):
        for j in range(1, k + 2):
            ck.eq(f"arrow_sum(k={k}, j={j}) = u_row(k)[{j - 1}]", s, arrow_sum(s, k, j), u_row(s, k)[j - 1])
    base = random_state(3, 2, rng)
    ck.eq("{SW} = I_1", base, arrow_eval(base, [SW]), base.i(1))
    ck.eq("{SW, SE} = I_2", base, arrow_eval(base, [SW, SE]), base.i(2))
    ck.eq("{SE, SW} = I_1^(1)", base, arrow_eval(base, [SE, SW]), base.i(1, 1))
    return {"exhaustive_upto": 6}


@check("arrow-prefix-swap", "appendix")
def _arrow_swap(rng, ck):
    s = random_state(7, 6, rng)
    exhaustive = [tail for k in range(1, 5) for tail in product((SW, SE), repeat=k - 1)]
    drawn = [tuple(rng.choice((SW, SE)) for _ in range(rng.randint(1, 6) - 1)) for _ in range(20)]
    for tail in exhaustive + drawn:
        ck.eq(f"prefix swap on tail {list(tail)}", s, prefix_swap_check(s, tail), True)
    return {"exhaustive_upto": 4}


@check("arrow-row-sums", "appendix")
def _arrow_rows(rng, ck):
    for s in _states(rng, [(2, 1), (4, 2), (4, 3), (5, 3)], 3):
        ck.eq("alternating first-row sum", s, alternating_row_sum_check(s), True)
        ck.eq("shifted alternating first-row sum", s, shifted_alternating_row_sum_check(s), True)
    return {}


@check("second-row", "appendix")
def _second_row(rng, ck):
    for s in _states(rng, [(3, 1), (4, 2), (5, 3)], 2):
        ck.eq("second row of X in band coefficients", s, second_row_check(s), True)
    return {}


# ---------------------------------------------------------------------------
# divisor suite
# ---------------------------------------------------------------------------


@check("antitranspose", "divisor")
def _antitr(rng, ck):
    for s in _states(rng, [(2, 1), (4, 2), (3, 2)], 2):
        X = transfer_matrix(s)
        ck.eq("X** = X", s, antitranspose(antitranspose(X)), X)
        ck.eq("phi of X* = phi of X", s,
              char_poly(antitranspose(X), s.N, s.M).phi, char_poly(X, s.N, s.M).phi)
    return {}


@check("shift-conjugation", "divisor")
def _shift_conj(rng, ck):
    for s in _states(rng, [(2, 1), (3, 2), (4, 2), (5, 2)], 2):
        X = transfer_matrix(s)
        C = shift_conjugation_matrix(s.N)
        Ci = shift_conjugation_matrix(s.N, inverse=True)
        ck.eq("C X C^-1 = X of sigma^-1 s", s, (C @ X) @ Ci, operator_matrix(s, "shift"))
        cur = s
        for _ in range(s.N):
            cur = index_shift(cur, 1)
        ck.eq("sigma^N s = s", s, cur, s)
        ck.eq("phi of sigma s = phi of s", s, spectral_data(index_shift(s, 1)).phi, spectral_data(s).phi)
    return {}


@check("display-correspondence-n4m2", "divisor")
def _example_display(rng, ck):
    s = random_state(4, 2, rng)
    p = band_params(s, transfer_matrix(s))
    q = band_params_of_matrix(antitranspose(transfer_matrix(index_shift(s, -1))), 4, 2)
    cols = range(1, 5)
    ck.eq("alpha^(1)_i of (sigma^-1 X)* = alpha^(1)_(4-i) of X", s,
          [q.a(1, i) for i in cols], [p.a(1, 4 - i) for i in cols])
    ck.eq("alpha^(2)_i of (sigma^-1 X)* = alpha^(2)_(1-i) of X", s,
          [q.a(2, i) for i in cols], [p.a(2, 1 - i) for i in cols])
    ck.eq("beta_i of (sigma^-1 X)* = beta_(3-i) of X", s, [q.b(i) for i in cols], [p.b(3 - i) for i in cols])
    return {}


@check("corner-resultants", "divisor")
def _corner_res(rng, ck):
    degs = {}
    for (N, M) in SMALL_CORPUS:
        s = random_state(N, M, rng)
        g = genus(N, M)
        R, S = compute_R_S(s)
        ck.eq("[deg R, deg S] = [2g, 2g]", s, [R.degree, S.degree], [2 * g, 2 * g])
        degs[f"{N},{M}"] = [R.degree, S.degree, 2 * g]
    return {"degrees": degs}


@check("divisor-degree", "divisor")
def _div_deg(rng, ck):
    for (N, M) in SMALL_CORPUS:
        s = random_state(N, M, rng)
        g = genus(N, M)
        for variant in VARIANTS:
            ck.eq(f"deg U of {variant} = g", s, divisor_poly(s, variant).degree, g)
    return {}


@check("corner-factorizations", "divisor")
def _factorizations(rng, ck):
    for (N, M) in SMALL_CORPUS:
        s = random_state(N, M, rng)
        res = zeros_factorization_check(s)
        ck.eq("corner-resultant factorizations", s, res, dict.fromkeys(res, True))
    return {}


@check("divisor-track", "divisor")
def _div_track(rng, ck):
    s = random_state(2, 1, rng)
    track = track_divisor(s, 6)
    sums = [q_str(dp.x_sum()) for dp in track]
    ck.eq("deg U along the track", s, [dp.degree for dp in track], [1] * len(track))
    ck.eq("the divisor x-sum moves", s, len(set(sums)) > 1, True)
    one = TodaState(N=1, M=1, V=(Q(1),), I=((Q(2),),))
    ck.eq("deg U along a g=0 track", one, [dp.degree for dp in track_divisor(one, 3)], [0] * 4)
    return {"sums": sums}


@check("common-zero-support", "divisor")
def _common_zero(rng, ck):
    for (N, M) in ((2, 1), (3, 1), (3, 2)):
        s = random_state(N, M, rng)
        ck.eq("every D_Nk vanishes at the common zeros of D_N1 and D_NN", s,
              common_zero_support_check(s, tol=ck.tol(1e-8)), True)
    return {}


@check("smoothness-probe", "divisor")
def _smooth(rng, ck):
    s = random_state(2, 1, rng, generic=lambda st: st.i(1) * st.i(2) != st.v(1) * st.v(2))
    ck.eq("generic curve likely smooth", s, smoothness_probe(spectral_data(s))["likely_smooth"], True)
    planted = TodaState(N=2, M=1, V=(Q(1), Q(1)), I=((Q(2), Q(2)),))
    probe = smoothness_probe(spectral_data(planted))
    ck.eq("planted double point found", planted, probe["likely_smooth"], False)
    return {"witnesses": len(probe["witnesses"])}


# ---------------------------------------------------------------------------
# theta suite
# ---------------------------------------------------------------------------


@check("theta-series", "theta")
def _theta_series(rng, ck):
    worst = 0.0
    for _ in range(50):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.4, 2.0))
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
        t0 = riemann_theta(z, tau)
        worst = max(worst, abs(riemann_theta(-z, tau) - t0))
        worst = max(worst, abs(riemann_theta(z + 1, tau) - t0))
        quasi = cmath.exp(-1j * math.pi * tau - 2j * math.pi * z) * t0
        worst = max(worst, abs(riemann_theta(z + tau, tau) - quasi) / max(1.0, abs(quasi)))
    ck.le("theta parity and quasi-periodicity residual", None, worst, 1e-10)
    return {"max_residual": worst}


@check("theta-reproduction", "theta")
def _theta_repro(rng, ck):
    tol = ck.tol(1e-6)
    for _ in range(6):
        s = random_state(2, 1, rng)
        try:
            rep = theta_check(s, steps=6, tol=tol)
        except (NumericFailureError, SingularCurveError, NonGenericDataError):
            continue
        ck.le("max_abs_err", s, rep["max_abs_err"], tol)
        ck.le("torsion_residual", s, rep["torsion_residual"], PRINCIPAL_DIVISOR_TOL)
        ck.le("x_divisor_residual", s, rep["x_divisor_residual"], PRINCIPAL_DIVISOR_TOL)
        return {
            "state": state_to_json(s),
            "max_abs_err": rep["max_abs_err"],
            "torsion_residual": rep["torsion_residual"],
            "x_divisor_residual": rep["x_divisor_residual"],
            "time_mode": f"{rep['time_mode']}{rep['time_sign']:+d}",
        }
    raise NonGenericDataError("no generic (2,1) state in 6 draws")


SUITES = {"core", "lax", "appendix", "divisor", "theta"}


def run_suite(suite: str, seed: int, inject_fault: str | None = None,
              tol: float | None = None) -> dict:
    """Run one suite (or "all"), returning a JSON-ready deterministic report.

    ``inject_fault`` names a check whose first comparison is corrupted;
    ``tol`` overrides the tolerance of the numeric screens that read it.
    """
    if suite != "all" and suite not in SUITES:
        raise PdTodaError(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or 'all'")
    if inject_fault is not None and inject_fault not in CHECKS:
        raise PdTodaError(f"unknown check {inject_fault!r}; choose from {sorted(CHECKS)}")
    selected = sorted(
        name for name, (_, suites) in CHECKS.items() if suite == "all" or suite in suites
    )
    checks = []
    for name in selected:
        fn, _ = CHECKS[name]
        ck = Comparer(corrupt=inject_fault == name, tol=tol)
        try:
            passed, details = True, fn(random.Random(f"{seed}:{name}"), ck)
        except _Mismatch as exc:
            passed, details = False, exc.details
        except PdTodaError as exc:
            passed, details = False, {"error": str(exc)}
        checks.append({"name": name, "passed": passed, "details": _jsonable(details)})
    failed = sum(1 for c in checks if not c["passed"])
    return {
        "suite": suite,
        "seed": seed,
        "passed": failed == 0,
        "counts": {"total": len(checks), "failed": failed},
        "checks": checks,
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, TodaState):
        return state_to_json(obj)
    if isinstance(obj, LaurentMatrix):
        obj = obj.entries
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return str(obj)
