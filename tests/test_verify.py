import pytest

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
