"""Tests of the benchmark itself (not of pdtoda).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection; they take under a minute.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pdtoda  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _traced(workload, jobs):
    tracer = spans.Tracer()
    tracer.install()
    try:
        outcomes = [workload.run(job) for job in jobs]
    finally:
        tracer.uninstall()
    return tracer, outcomes


def test_self_time_of_nested_calls():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()
        inner()

    tracer.wrap("outer", body)()
    stats = tracer.layer_stats()
    assert stats["inner"]["calls"] == 2 and stats["outer"]["calls"] == 1
    assert stats["inner"]["self_s"] >= 0.04
    assert stats["outer"]["self_s"] >= 0.01
    total = stats["outer"]["total_s"]
    assert abs(stats["outer"]["self_s"] + stats["inner"]["self_s"] - total) < 1e-9
    outer_id = next(s[0] for s in tracer.spans if s[2] == "outer")
    assert [s[1] for s in tracer.spans if s[2] == "inner"] == [outer_id, outer_id]


def test_wrappers_reach_call_sites_and_are_removed(tmp_path):
    workload = workloads.WORKLOADS["divisor-track"]
    jobs = workload.make_jobs(0, tmp_path)[:1]
    original = pdtoda.divisor.resultant_y
    tracer, _ = _traced(workload, jobs)
    stats = tracer.layer_stats()
    for layer in ("cli.main", "divisor.track_divisor", "divisor.divisor_poly",
                  "lmatrix.resultant_y", "unipoly.gcd_monic", "toda.evolve"):
        assert stats[layer]["calls"] > 0, layer
    assert pdtoda.divisor.resultant_y is original
    assert pdtoda.verify.CHECKS["divisor-track"][0].__name__ == "_div_track"


def test_traced_and_untraced_outputs_match(tmp_path):
    for name, count in (("divisor-track", 1), ("theta-genus1", 1), ("evolve-long", 2)):
        workload = workloads.WORKLOADS[name]
        jobs = workload.make_jobs(0, tmp_path)[:count]
        plain = [workloads.fingerprint(workload.run(job)) for job in jobs]
        _, outcomes = _traced(workload, jobs)
        assert [workloads.fingerprint(o) for o in outcomes] == plain, name


def test_verify_checks_keep_their_signature():
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = pdtoda.verify.run_suite("divisor", 3)
    finally:
        tracer.uninstall()
    assert report["passed"]
    assert tracer.suite_seconds()["divisor"] > 0
    assert tracer.layer_stats()["divisor.zeros_factorization_check"]["calls"] > 0


def test_deterministic_counters_repeat(tmp_path):
    runs = []
    for _ in range(2):
        counters = {}
        for name in ("divisor-track", "theta-genus1"):
            workload = workloads.WORKLOADS[name]
            tracer, _ = _traced(workload, workload.make_jobs(0, tmp_path)[:1])
            counters.update(tracer.counters)
        runs.append(counters)
    assert set(runs[0]) == {"toda.state_bits_max", "divisor.U_bits_max", "theta.max_abs_err"}
    assert runs[0] == runs[1]


def test_inputs_follow_the_seed_and_have_digests(tmp_path):
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    for name in ("divisor-track", "evolve-long"):
        workload = workloads.WORKLOADS[name]
        assert sorted(map(int, digests[name])) == list(range(workloads.RECORDED_SEEDS))
        jobs = workload.make_jobs(5, tmp_path)
        assert {len(d) for d in digests[name].values()} == {len(jobs)}
        again = workload.make_jobs(5 + workloads.RECORDED_SEEDS, tmp_path)
        assert [j.state for j in again] == [j.state for j in jobs]
    verify = workloads.WORKLOADS["verify-all"]
    first, second = (verify.make_jobs(seed, tmp_path) for seed in (1, 2))
    assert sorted(j.argv for j in first) == sorted(j.argv for j in second)
    assert [j.argv for j in first] != [j.argv for j in second]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "divisor-track", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
