import math

import pytest

from pdtoda import arrows, divisor, lax
from pdtoda.toda import index_shift
from pdtoda.verify import CHECKS, run_suite

#: checks whose claim is not about one state, so their dump names none
NO_STATE_WITNESS = {"evolution-float-oracle", "theta-series"}


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
    monkeypatch.setattr(arrows, "band_params",
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
    monkeypatch.setattr(divisor, "rel_eval", lambda p, x0, y0: math.nan)
    details = _details(run_suite("divisor", 42), "common-zero-support")
    assert math.isnan(details["residual"])
