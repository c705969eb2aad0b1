import inspect
import math
import random

import pytest
import test_acceptance

from pdtoda import lax, verify
from pdtoda.lax import curve_of
from pdtoda.toda import TodaState, index_shift, random_state
from pdtoda.verify import CHECKS, Comparer, run_suite

#: checks whose claim is not about one state, so their dump names none
NO_STATE_WITNESS = {"evolution-float-oracle", "theta-series"}

#: the checks that no acceptance criterion runs, each with the reason
VERIFY_ONLY = {
    "evolution-closure": "the step equations entry by entry; criterion 9 scores the step",
    "state-roundtrip": "JSON serialization, not a claim about the lattice",
    "refactorization": "the Lax pair behind criterion 1, which states isospectrality itself",
    "banded-template": "the band layout of X that criteria 3, 5 and 6 read",
    "bloch-window": "the Bloch recurrence that builds criterion 5's time-step matrix",
    "antitranspose": "a symmetry of X that criterion 7's starred operators rest on",
    "shift-conjugation": "a symmetry of X that criterion 7's shifted operators rest on",
    "display-correspondence-n4m2": "one displayed (4,2) example of the band relabelling",
    "corner-resultants": "deg R = 2g follows from criterion 7's factorizations into two U of degree g",
    "divisor-track": "that U moves on a g=1 track; criterion 8 scores such tracks",
    "common-zero-support": "a float screen with its own --tol override, not an exact claim",
    "smoothness-probe": "a heuristic smoothness screen with a planted double point",
    "theta-series": "properties of the theta series that criterion 8 evaluates",
}


def _failed(report):
    return [c for c in report["checks"] if not c["passed"]]


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_inject_fault_fails_exactly_that_check(name):
    _, suites = CHECKS[name]
    report = run_suite(suites[0], 42, inject_fault=name)
    failed = _failed(report)
    assert [c["name"] for c in failed] == [name]
    assert report["counts"]["failed"] == 1 and not report["passed"]
    details = failed[0]["details"]
    assert details["label"]
    assert ("state" in details) == (name not in NO_STATE_WITNESS)
    if "rhs" in details:
        assert details["rhs"] == "<injected fault>"
    else:
        assert details["residual"] > details["tol"]


def _claims(fn):
    """The public functions of ``pdtoda.verify`` that ``fn`` names, in its
    comprehensions too."""
    code = fn.__code__
    names = set(code.co_names).union(*(c.co_names for c in code.co_consts if inspect.iscode(c)))
    return {n for n in names if not n.startswith("_") and inspect.isfunction(getattr(verify, n, None))
            and getattr(verify, n).__module__ == verify.__name__}


def test_every_check_is_run_by_a_criterion_or_is_verify_only():
    # a check is run by the criteria when each claim it calls is called by one
    criteria = [fn for name, fn in vars(test_acceptance).items() if name.startswith("test_criterion_")]
    stated = set().union(*map(_claims, criteria))
    run = {name for name, (fn, _) in CHECKS.items() if set() < _claims(fn) <= stated}
    assert sorted(run & VERIFY_ONLY.keys()) == []
    assert sorted(run | VERIFY_ONLY.keys()) == sorted(CHECKS)


def test_tol_reaches_exactly_the_two_numeric_screens():
    failed = _failed(run_suite("all", 42, tol=0.0))
    assert {c["name"] for c in failed} == {"common-zero-support", "theta-reproduction"}


def _details(report, name):
    (entry,) = [c for c in report["checks"] if c["name"] == name]
    assert not entry["passed"]
    return entry["details"]


def test_second_row_failure_dumps_both_sides(monkeypatch):
    # band coefficients read off the X of the shifted state break the claim;
    # the dump carries the two coefficient tuples, not a verdict
    monkeypatch.setattr(verify, "band_params",
                        lambda state, X=None: lax.band_params(index_shift(state, 1)))
    details = _details(run_suite("appendix", 42), "second-row")
    lhs, rhs = details["lhs"], details["rhs"]
    assert not isinstance(lhs, bool) and not isinstance(rhs, bool)
    assert isinstance(lhs, list) and len(lhs) == len(rhs) and lhs != rhs
    assert "state" in details


def test_common_zero_support_failure_dumps_residual_and_tol():
    first = run_suite("divisor", 42, tol=1e-30)
    details = _details(first, "common-zero-support")
    assert details["tol"] == 1e-30
    assert details["residual"] > 1e-30
    assert run_suite("divisor", 42, tol=1e-30) == first


def test_nan_residual_fails_common_zero_support(monkeypatch):
    monkeypatch.setattr(verify, "rel_eval", lambda p, x0, y0: math.nan)
    details = _details(run_suite("divisor", 42), "common-zero-support")
    assert math.isnan(details["residual"])


def _run_check(name, seed=42):
    fn, _ = CHECKS[name]
    return fn(random.Random(f"{seed}:{name}"), Comparer())


def _impostor(state, rng, t):
    """A valid state of the same shape at time t, off the isospectral class
    of ``state``, that carries the curve of ``state``'s class."""
    drawn = random_state(state.N, state.M, rng)
    out = TodaState(N=drawn.N, M=drawn.M, V=drawn.V, I=drawn.I, t=t)
    object.__setattr__(out, "_curve", curve_of(state))
    return out


def test_isospectrality_recomputes_phi_past_a_handed_on_curve(monkeypatch):
    rng = random.Random(41)
    monkeypatch.setattr(verify, "evolve", lambda state: _impostor(state, rng, state.t + 1))
    with pytest.raises(verify._Mismatch) as exc:
        _run_check("isospectrality")
    assert exc.value.details["label"] == "phi at t=1 = phi at t=0"


def test_shift_conjugation_recomputes_phi_past_a_handed_on_curve(monkeypatch):
    # only the shift whose phi is compared, the one after the sigma^N loop
    # on the first state, is replaced
    rng = random.Random(42)
    calls = []

    def shift(state, step=1):
        calls.append(step)
        if len(calls) == state.N + 2:
            return _impostor(state, rng, state.t)
        return index_shift(state, step)

    monkeypatch.setattr(verify, "index_shift", shift)
    with pytest.raises(verify._Mismatch) as exc:
        _run_check("shift-conjugation")
    assert exc.value.details["label"] == "phi of sigma s = phi of s"


def test_divisor_degree_builds_one_curve_per_state(count_calls):
    # the four variants of each of the four states share the state's curve
    calls = count_calls([(lax, "char_poly")])
    _run_check("divisor-degree")
    assert calls == {"char_poly": 4}
