import hashlib
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
    assert r.stderr == "error: invalid state: prod(V) = 4 not < prod(I-row 0) = 3\n"
    assert r.stdout == ""


#: sha256 of ``simulate --steps 25`` on ``random-state --nm N,M --seed 1``,
#: recorded with the closed-form u/s solver that the sigma recurrence replaced
PINNED_TRAJECTORIES = {
    "3,1": "421b97fb80f30229c36b8d44e2e737ef1f3e8f6170cef042953fee8730f2f61f",
    "4,2": "855f3b424b839f90ff99e07ffea4da76a33f83c64f2bec89c0dca83cb502c837",
    "6,2": "9a3277ddf994af25236284571355ae8af9739588a7ed09bcc94718665e61ee34",
}


@pytest.mark.parametrize("nm", sorted(PINNED_TRAJECTORIES))
def test_simulate_trajectory_is_pinned(nm, tmp_path, capsys):
    path = tmp_path / "state.json"
    assert main(["random-state", "--nm", nm, "--seed", "1", "--output", str(path)]) == 0
    assert main(["simulate", "--steps", "25", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_TRAJECTORIES[nm]


#: sha256 of ``spectrum`` on ``random-state --nm N,M --seed 1``, recorded
#: with X built as the dense product L R_(M-1) ... R_(0)
PINNED_SPECTRA = {
    "4,2": "84ede3fb1ad91f7c101d33592c5d9b6349d35b3f6b6c278ac0d1547d67fa1559",
    "5,2": "dbe652311afa21889095ccdb6f6643ac888cba956906239e74e986d49e1ad660",
    "4,3": "4046ef4d608ca9aa76faeb145f2ce668bb5394fd88e9e546eca8dd1b302d7a6c",
}


@pytest.mark.parametrize("nm", sorted(PINNED_SPECTRA))
def test_spectrum_is_pinned(nm, tmp_path, capsys):
    path = tmp_path / "state.json"
    assert main(["random-state", "--nm", nm, "--seed", "1", "--output", str(path)]) == 0
    assert main(["spectrum", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SPECTRA[nm]


#: sha256 of ``divisor --steps 10`` on ``random-state --nm N,M --seed 1``,
#: recorded with U from Brown's multimodular gcd; (3,1), (2,2) and (3,3)
#: add M = 1 and M >= N, whose resultant degree patterns differ, recorded
#: with every resultant sample a full Sylvester determinant; (5,4), whose
#: reduced blocks are 5 x 5 (Bareiss, where smaller blocks take the
#: division-free expansion), recorded with every block taken by Bareiss;
#: (2,1), the genus-1 path, recorded with the corner resultants taken
#: between rational forms
PINNED_DIVISOR = {
    "2,1": "61b726802fc7d95392ae034ce7f60597881621c8c8528eeb72c9690e5a73a9aa",
    "3,1": "b6fca7bcfd027ae88a8056521a90f69d7b5d77a0bcb6b6d58aead87124e33b34",
    "2,2": "dde82562e23309f6a44fab71f3d992f7e25c652eb66a0a156721b32373376439",
    "3,3": "c525bedf3e61cf0c0798bd982b3723b97d373b65411597700a1b701b5ed3b262",
    "4,2": "a7bc313ea66130d1c302985b5e4ffb605824522203f2cbcc2d2442c8c1a2b019",
    "5,2": "27601a16a1153c171a1cbb94d82bdfb4cbb47160266ce67c27651363c85a06fb",
    "4,3": "c656f5818d1a432dc73035243ea68f9a0c420e2c1c40ba80efc97309f8addb51",
    "5,4": "7957014e4f30134c8c3a48155ea0a41a83bfaf58f6e88117b5019c1236585ab6",
}


@pytest.mark.parametrize("nm", sorted(PINNED_DIVISOR))
def test_divisor_track_is_pinned(nm, tmp_path, capsys):
    path = tmp_path / "state.json"
    assert main(["random-state", "--nm", nm, "--seed", "1", "--output", str(path)]) == 0
    assert main(["divisor", "--steps", "10", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIVISOR[nm]


#: sha256 of ``verify --suite S --seed K``: these suites report no floats,
#: so their reports compare byte for byte across platforms; recorded with
#: the divisor operators built by a five-way if chain, and core with the
#: conserved products recomputed at every step
PINNED_VERIFY = {
    ("core", 0): "f90f0c2edf96532bcf0e1b8c2fd18c541eb50016d08ecddaf524bfb9b66efeec",
    ("core", 42): "d262951e81168db023ab195599e8bd9c0733ec47729cb86af263eea78a589aad",
    ("divisor", 0): "3ff638989043cf27c091db543ab6cc8068775f3e9634330ae2424140ff60ae46",
    ("divisor", 42): "3e14c6078b981b6de81e0a94e7720380937f72498e78f07f63c6dae8e90229c9",
    ("lax", 0): "cda95b6e58b2a249743c26e879ec3a07ea55a04745c79212c77f9af0cde83730",
    ("lax", 42): "6c4e9affd8d8b938e31e22862a6507adc1c53e2689e8ac6df306e877e83df6fe",
    ("appendix", 0): "fe2a711f5ec4a9cb63317adbaefdd79a11e532f05af9b1ff8d2b21bc36c34dee",
    ("appendix", 42): "c15e6003634ffd41c8a6c288bb286d1ad6d3856745a387085b7110f70e66f472",
}


@pytest.mark.parametrize("suite, seed", sorted(PINNED_VERIFY))
def test_exact_verify_suites_are_pinned(suite, seed, capsys):
    assert main(["verify", "--suite", suite, "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_VERIFY[suite, seed]


def _product_passes(monkeypatch, argv):
    """conserved_products calls made by one ``main(argv)``, counted in
    every pdtoda module that binds the name."""
    from pdtoda import toda

    calls = []
    original = toda.conserved_products

    def spy(state):
        calls.append(state)
        return original(state)

    for name, module in list(sys.modules.items()):
        if name.startswith("pdtoda") and getattr(module, "conserved_products", None) is original:
            monkeypatch.setattr(module, "conserved_products", spy)
    assert main(argv) == 0
    return len(calls)


def test_simulate_takes_one_product_pass(monkeypatch, tmp_path, capsys):
    # the read computes the products; the conserved column and every step
    # take them from the state's cache or from evolve's closure certificate
    path = tmp_path / "state.json"
    assert main(["random-state", "--nm", "3,2", "--seed", "1", "--output", str(path)]) == 0
    assert _product_passes(monkeypatch, ["simulate", "--steps", "5", "--input", str(path)]) == 1
    steps = json.loads(capsys.readouterr().out)["steps"]
    assert len({tuple(sorted(step["conserved"])) for step in steps}) == 1


def test_divisor_takes_one_product_pass(monkeypatch, tmp_path, capsys):
    path = tmp_path / "state.json"
    assert main(["random-state", "--nm", "4,2", "--seed", "1", "--output", str(path)]) == 0
    assert _product_passes(monkeypatch, ["divisor", "--steps", "10", "--input", str(path)]) == 1


@pytest.mark.parametrize("entry", ["1/0", "0.5", "1e3", "1_000", " 3/4 "])
def test_exit_code_on_malformed_rational(tmp_path, entry):
    bad = tmp_path / "rational.json"
    bad.write_text(json.dumps({"N": 2, "M": 1, "t": 0, "V": [entry, "1/2"], "I": [["3", "4"]]}))
    r = run_cli("spectrum", "--input", str(bad))
    assert r.returncode == 2
    assert "malformed rational" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("key,value", [("N", 2.9), ("M", True), ("t", 1.5), ("N", "2")])
def test_exit_code_on_malformed_shape(tmp_path, key, value):
    # N, M and t are JSON integers; a float, a bool or a string is not
    # truncated or coerced into one
    data = {"N": 2, "M": 1, "t": 0, "V": ["1/2", "1/3"], "I": [["3", "4"]]}
    good = tmp_path / "good.json"
    good.write_text(json.dumps(data))
    assert run_cli("spectrum", "--input", str(good)).returncode == 0
    bad = tmp_path / "shape.json"
    bad.write_text(json.dumps({**data, key: value}))
    r = run_cli("spectrum", "--input", str(bad))
    assert r.returncode == 2
    assert r.stderr.startswith("error: malformed state JSON: ") and "Traceback" not in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("key,value", [("V", "23"), ("I", ["34"]), ("V", [True, "1/3"])],
                         ids=["V-string", "I-row-string", "V-bool"])
def test_exit_code_on_malformed_rows(tmp_path, key, value):
    # V, I and each I-row are JSON lists and a rational is a string or a
    # JSON integer: a string is not iterated, and true is not taken as 1
    data = {"N": 2, "M": 1, "t": 0, "V": [1, "1/3"], "I": [["3", 4]]}
    good = tmp_path / "good.json"
    good.write_text(json.dumps(data))
    assert run_cli("spectrum", "--input", str(good)).returncode == 0
    bad = tmp_path / "rows.json"
    bad.write_text(json.dumps({**data, key: value}))
    r = run_cli("spectrum", "--input", str(bad))
    assert r.returncode == 2
    assert r.stderr.startswith("error: malformed state JSON: ") and "Traceback" not in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("text,kind", [("[1,2]", "list"), ("3", "int"), ('"N"', "str")])
def test_exit_code_on_a_state_file_that_is_not_an_object(tmp_path, text, kind):
    bad = tmp_path / "top.json"
    bad.write_text(text)
    r = run_cli("spectrum", "--input", str(bad))
    assert r.returncode == 2
    assert r.stderr == f"error: malformed state JSON: expected a JSON object, got {kind}\n"
    assert r.stdout == ""


def test_exit_code_on_oversized_json_integer(tmp_path):
    # json.loads refuses an integer past the int-string limit (4300 digits)
    bad = tmp_path / "big.json"
    bad.write_text('{"N":1,"M":1,"V":[1],"I":[[' + "9" * 5000 + ']]}')
    r = run_cli("spectrum", "--input", str(bad))
    assert r.returncode == 2
    assert r.stderr.startswith("error: invalid JSON: ") and "Traceback" not in r.stderr
    assert r.stdout == ""


def test_exit_code_on_missing_file():
    r = run_cli("spectrum", "--input", "/nonexistent/state.json")
    assert r.returncode == 2


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_is_usage_error(where, tmp_path, capsys):
    target = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    assert main(["random-state", "--nm", "2,1", "--seed", "1", "--output", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot write {target}: ")
    assert not (tmp_path / "missing").exists()


def test_unwritable_output_is_reported_before_the_work(monkeypatch, tmp_path, capsys):
    from pdtoda import cli

    calls = []
    monkeypatch.setattr(cli, "run_suite", lambda *a, **kw: calls.append(a))
    target = tmp_path / "missing" / "x.json"
    assert main(["verify", "--suite", "all", "--output", str(target)]) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "new"])
def test_failed_run_leaves_the_output_as_it_was(existing, monkeypatch, tmp_path, capsys):
    # the output is claimed before the work and written only after it
    from pdtoda import cli
    from pdtoda.errors import NonGenericDataError

    state = tmp_path / "state.json"
    assert main(["random-state", "--nm", "2,1", "--seed", "1", "--output", str(state)]) == 0
    out = tmp_path / "out.json"
    if existing:
        out.write_bytes(b"earlier report\n")

    def fail(state, steps):
        raise NonGenericDataError("forced")

    monkeypatch.setattr(cli, "track_divisor", fail)
    assert main(["divisor", "--input", str(state), "--output", str(out)]) == 3
    assert capsys.readouterr().err == "error: forced\n"
    if existing:
        assert out.read_bytes() == b"earlier report\n"
    else:
        assert not out.exists()


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


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
@pytest.mark.parametrize("command", ["verify", "theta-check"])
def test_meaningless_tol_is_usage_error(state_file, command, value):
    # a tolerance is a finite number >= 0; nan passes no screen and inf
    # passes every one
    where = ["--suite", "divisor"] if command == "verify" else ["--input", str(state_file)]
    r = run_cli(command, *where, "--tol", value)
    assert r.returncode == 2
    assert "--tol" in r.stderr
    assert r.stdout == ""


def test_random_state_batch_passes_degree_profile():
    # 100 seeds at (4,2): every state generic for the spectral profile
    from pdtoda.toda import random_state as rstate
    from pdtoda.verify import Comparer, degree_profile
    import random as _random

    for seed in range(100):
        degree_profile(Comparer(), rstate(4, 2, _random.Random(seed)))


def test_main_entry_callable():
    assert main(["verify", "--suite", "core", "--seed", "1"]) == 0


def test_module_invocation():
    r = subprocess.run([sys.executable, "-m", "pdtoda", "verify", "--suite", "core", "--seed", "2"],
                       capture_output=True, text=True)
    assert r.returncode == 0


def test_main_builds_the_parser_once(monkeypatch, tmp_path):
    from pdtoda import cli

    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    for seed in ("1", "2"):
        argv = ["random-state", "--nm", "2,1", "--seed", seed, "--output", str(tmp_path / "s.json")]
        assert main(argv) == 0
    assert built == [1]


def test_main_runs_the_command_bound_at_call_time(monkeypatch, tmp_path):
    # the parser is built before the patch and still dispatches to it
    from pdtoda import cli

    assert main(["random-state", "--nm", "2,1", "--seed", "1", "--output",
                 str(tmp_path / "s.json")]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_divisor", lambda args: seen.append(args.steps) or 7)
    assert main(["divisor", "--input", str(tmp_path / "s.json"), "--steps", "3"]) == 7
    assert seen == [3]
