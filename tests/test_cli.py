import json
import subprocess
import sys

import pytest

from pdtoda.cli import main

RUN = [sys.executable, "-m", "pdtoda.cli"]


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


@pytest.fixture
def state_file(tmp_path):
    path = tmp_path / "state.json"
    r = run_cli("random-state", "--nm", "2,1", "--seed", "7", "--output", str(path))
    assert r.returncode == 0
    return path


def test_random_state_deterministic(tmp_path):
    a = run_cli("random-state", "--nm", "3,2", "--seed", "11")
    b = run_cli("random-state", "--nm", "3,2", "--seed", "11")
    assert a.returncode == 0 and a.stdout == b.stdout
    c = run_cli("random-state", "--nm", "3,2", "--seed", "12")
    assert c.stdout != a.stdout


def test_random_state_is_valid(tmp_path):
    from pdtoda.toda import state_from_json, validate

    r = run_cli("random-state", "--nm", "4,2", "--seed", "3")
    assert validate(state_from_json(r.stdout)).ok


def test_simulate_writes_trajectory_with_conserved_column(state_file, tmp_path):
    out = tmp_path / "traj.json"
    r = run_cli("simulate", "--input", str(state_file), "--steps", "6", "--output", str(out))
    assert r.returncode == 0
    data = json.loads(out.read_text())
    assert len(data["steps"]) == 7
    conserved = {tuple(sorted(step["conserved"])) for step in data["steps"]}
    assert len(conserved) == 1


def test_simulate_replay_matches_direct_run(state_file, tmp_path):
    out = tmp_path / "traj.json"
    run_cli("simulate", "--input", str(state_file), "--steps", "10", "--output", str(out))
    steps = json.loads(out.read_text())["steps"]
    mid = tmp_path / "mid.json"
    step5 = {k: v for k, v in steps[5].items() if k != "conserved"}
    mid.write_text(json.dumps(step5))
    out2 = tmp_path / "tail.json"
    run_cli("simulate", "--input", str(mid), "--steps", "5", "--output", str(out2))
    tail = json.loads(out2.read_text())["steps"]
    assert tail == steps[5:]


def test_simulate_fixed_point(tmp_path):
    src = tmp_path / "one.json"
    src.write_text('{"N":1,"M":1,"t":0,"V":["1"],"I":[["2"]]}')
    r = run_cli("simulate", "--input", str(src), "--steps", "4")
    states = json.loads(r.stdout)["steps"]
    assert all(s["V"] == ["1"] and s["I"] == [["2"]] for s in states)


def test_spectrum_report_shape(state_file):
    r = run_cli("spectrum", "--input", str(state_file))
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["genus"] == 1 and rep["m"] == 1
    assert rep["degrees"] == [0, 2, 0]


def test_divisor_report(state_file):
    r = run_cli("divisor", "--input", str(state_file), "--steps", "5")
    rep = json.loads(r.stdout)
    assert rep["g"] == 1
    assert len(rep["steps"]) == 6
    assert all(len(s["upsilon"]) == 2 for s in rep["steps"])


def test_theta_check_command(state_file):
    r = run_cli("theta-check", "--input", str(state_file), "--steps", "5")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["pass"] and rep["max_abs_err"] < 1e-6


def test_theta_check_wrong_shape_is_usage_error(tmp_path):
    src = tmp_path / "s31.json"
    run_cli("random-state", "--nm", "3,1", "--seed", "5", "--output", str(src))
    r = run_cli("theta-check", "--input", str(src))
    assert r.returncode == 2


@pytest.mark.parametrize("command", ["simulate", "divisor", "theta-check"])
def test_negative_steps_is_usage_error(state_file, command):
    r = run_cli(command, "--input", str(state_file), "--steps", "-3")
    assert r.returncode == 2
    assert r.stdout == ""


def test_exit_code_on_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    r = run_cli("simulate", "--input", str(bad), "--steps", "1")
    assert r.returncode == 2


def test_exit_code_on_invalid_state(tmp_path):
    bad = tmp_path / "invalid.json"
    bad.write_text('{"N":2,"M":1,"t":0,"V":["2","2"],"I":[["1","3"]]}')
    r = run_cli("simulate", "--input", str(bad), "--steps", "1")
    assert r.returncode == 2


@pytest.mark.parametrize("entry", ["1/0", "0.5", "1e3", "1_000", " 3/4 "])
def test_exit_code_on_malformed_rational(tmp_path, entry):
    bad = tmp_path / "rational.json"
    bad.write_text(json.dumps({"N": 2, "M": 1, "t": 0, "V": [entry, "1/2"], "I": [["3", "4"]]}))
    r = run_cli("spectrum", "--input", str(bad))
    assert r.returncode == 2
    assert "malformed rational" in r.stderr and "Traceback" not in r.stderr


def test_exit_code_on_missing_file():
    r = run_cli("spectrum", "--input", "/nonexistent/state.json")
    assert r.returncode == 2


def test_verify_suite_dispatch():
    r = run_cli("verify", "--suite", "appendix", "--seed", "5")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    names = {c["name"] for c in rep["checks"]}
    assert "arrow-prefix-swap" in names and "isospectrality" not in names


def test_verify_unknown_suite():
    r = run_cli("verify", "--suite", "nope")
    assert r.returncode == 2


def test_verify_fault_injection_fails_named_check():
    r = run_cli("verify", "--suite", "appendix", "--seed", "5", "--inject-fault", "second-row")
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    failed = [c for c in rep["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["second-row"]
    assert "state" in failed[0]["details"]


def test_verify_fault_injection_banded_template():
    r = run_cli("verify", "--suite", "lax", "--seed", "5", "--inject-fault", "banded-template")
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    failed = {c["name"] for c in rep["checks"] if not c["passed"]}
    assert failed == {"banded-template"}


def test_verify_unknown_fault_name_is_usage_error():
    r = run_cli("verify", "--suite", "core", "--seed", "1", "--inject-fault", "no-such-check")
    assert r.returncode == 2
    assert "no-such-check" in r.stderr and "second-row" in r.stderr
    assert r.stdout == ""


def test_exit_code_on_singular_curve(tmp_path):
    # symmetric data gives coincident branch points: numeric error path
    src = tmp_path / "sym.json"
    src.write_text('{"N":2,"M":1,"t":0,"V":["1","1"],"I":[["2","2"]]}')
    r = run_cli("theta-check", "--input", str(src))
    assert r.returncode == 3


def test_verify_tol_override_still_passes():
    r = run_cli("verify", "--suite", "theta", "--seed", "9", "--tol", "1e-4")
    assert r.returncode == 0


def test_random_state_batch_passes_degree_profile():
    # 100 seeds at (4,2): every state generic for the spectral profile
    from pdtoda.lax import check_degree_profile, spectral_data
    from pdtoda.toda import random_state as rstate
    import random as _random

    for seed in range(100):
        s = rstate(4, 2, _random.Random(seed))
        assert check_degree_profile(spectral_data(s)) == []


def test_main_entry_callable():
    assert main(["verify", "--suite", "core", "--seed", "1"]) == 0


def test_module_invocation():
    r = subprocess.run([sys.executable, "-m", "pdtoda", "verify", "--suite", "core", "--seed", "2"],
                       capture_output=True, text=True)
    assert r.returncode == 0
