"""pdtoda benchmark: one workload (or all four) from a single process.

    python3 perfbench/run.py --workload divisor-track --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Jobs run one after another, with no threads.  The job set of a workload is
fixed by the seed; it runs once, and again while another pass is expected
to end within ``--seconds`` (at 36 seconds only verify-all, whose job set
takes about 6 s, runs more than once).  With ``--trace 1`` it runs once
untraced and once traced, and the per-layer metrics come from the traced
pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those listed in BENCHMARK.json.  A fuller record (machine,
every job with its error class, failed_frac) is printed just before it and
written under ``.bench_work/``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: Set-up probes taken before the timed passes, and again after them: the
#: host's speed for import-heavy work shifts over seconds, so the probes are
#: spread over the run instead of taken back to back.
SETUP_PROBES = 3


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "pdtoda" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
    fail(f"run from a pdtoda checkout: {SRC / 'pdtoda'} or BENCHMARK.json is missing")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import pdtoda  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

if Path(pdtoda.__file__).resolve().parent != SRC / "pdtoda":
    fail(f"imported pdtoda from {pdtoda.__file__}, not from {SRC}")


def setup(workload, seed, workdir):
    """Input generation and one-time lazy work; returns the job list."""
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = workload.make_jobs(seed, workdir)
    workloads.warm_caches()
    return jobs


def probe_setup(name, seed, workdir):
    """Set-up time of a fresh process, from the first statement of this
    script: imports, input generation and lazy caches."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--setup-probe", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def machine():
    git = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        git = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "pdtoda").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "rational_backend": pdtoda.rationals.Q.__module__,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git,
        "source_sha256": source.hexdigest(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "machine": platform.machine(),
    }


def run_pass(workload, jobs, tracer=None):
    outcomes = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.label
        outcomes.append(workload.run(job))
    return outcomes


def load_digests():
    path = Path(__file__).resolve().parent / "digests.json"
    return json.loads(path.read_text(encoding="utf-8"))


def run_workload(name, seed, seconds, traced, contract):
    workload = workloads.WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        setup_samples = [probe_setup(name, seed, workdir / f"probe{k}")
                         for k in range(SETUP_PROBES)]
        jobs = setup(workload, seed, workdir / "inputs")
        recorded = None
        if workload.recorded:
            recorded = load_digests().get(name, {}).get(str(seed % workloads.RECORDED_SEEDS))
            if recorded is None or len(recorded) != len(jobs):
                fail(f"perfbench/digests.json has no digest for each of the {len(jobs)} "
                     f"{name} jobs of seed {seed}")

        passes, pass_seconds = [], []
        begin = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(workload, jobs))
            pass_seconds.append(time.perf_counter() - t0)
            used = time.perf_counter() - begin
            if traced or used + statistics.median(pass_seconds) > seconds:
                break
        setup_samples += [probe_setup(name, seed, workdir / f"probe{k}")
                          for k in range(SETUP_PROBES, 2 * SETUP_PROBES)]

        tracer = None
        if traced:
            tracer = spans.Tracer()
            tracer.install()
            try:
                t0 = time.perf_counter()
                traced_outcomes = run_pass(workload, jobs, tracer)
                traced_seconds = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            passes.append(traced_outcomes)
        elif name == "verify-all" and len(passes) == 1:
            # the report must be byte-identical on a second run in one process
            passes.append(run_pass(workload, jobs[:1]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    entries, wrong = [], []
    failed = attempted = 0
    for k, outcomes in enumerate(passes):
        for j, (job, outcome) in enumerate(zip(jobs, outcomes)):
            digest = recorded[j] if recorded else None
            reason, is_wrong = workload.check(job, outcome, digest)
            if workloads.fingerprint(outcome) != workloads.fingerprint(passes[0][j]):
                reason, is_wrong = "output differs from the first run of this job", True
            if is_wrong:
                wrong.append(f"{job.label}: {reason}")
            timed = k < len(pass_seconds)
            attempted += timed
            failed += timed and reason is not None
            if k == 0:
                entries.append({"job": job.label, "seconds": outcome.seconds,
                                "exit_code": outcome.exit_code, "error_class": outcome.error,
                                "failure": reason})

    job_seconds = [o.seconds for outcomes in passes[:len(pass_seconds)] for o in outcomes]
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(pass_seconds),
        "job_p50_s": statistics.median(job_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        values.update(layer_values(tracer, traced_seconds / pass_seconds[0] - 1))
        tracer.write(WORK / f"trace-{name}-{seed}.jsonl")
    listed = contract["per_layer" if traced else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    record = {
        "workload": name, "seed": seed, "trace": int(traced), "machine": machine(),
        "jobs": len(jobs), "passes": len(pass_seconds),
        "timed_jobs": len(job_seconds), "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "wrong_outputs": wrong, "setup_samples_s": setup_samples, "pass_seconds": pass_seconds,
        "metrics": metrics, "job_entries": entries,
    }
    (WORK / f"result-{name}-{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_summary(record, values)
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_values(tracer, overhead):
    stats = tracer.layer_stats()
    values = {}
    for layer in spans.LAYERS:
        entry = stats.get(layer, {"calls": 0, "self_s": 0.0})
        values[f"{layer}.calls"] = entry["calls"]
        values[f"{layer}.self_s"] = entry["self_s"]
    for suite, seconds in tracer.suite_seconds().items():
        values[f"verify.suite.{suite}.s"] = seconds
    for counter in ("toda.state_bits_max", "divisor.U_bits_max", "theta.max_abs_err"):
        values[counter] = tracer.counters.get(counter, 0)
    values["trace.overhead_frac"] = overhead
    return values


def print_summary(record, values):
    print(json.dumps({k: record[k] for k in ("workload", "seed", "machine", "wrong_outputs")}))
    errors = sorted({e["error_class"] for e in record["job_entries"] if e["failure"]}, key=str)
    print(f"{record['workload']} seed={record['seed']} jobs={record['jobs']} "
          f"passes={record['passes']}: setup_s={values['setup_s']:.4f} s  "
          f"wall_s={values['wall_s']:.4f} s  job_p50_s={values['job_p50_s']:.4f} s "
          f"(n={record['timed_jobs']})  "
          f"failed_frac={record['failed_frac']:.4f} ({record['failed']}/{record['attempted']}, "
          f"{', '.join(map(str, errors)) or 'none'})  peak_rss_mb={values['peak_rss_mb']:.1f} MB")
    if record["trace"]:
        for name, metric in record["metrics"].items():
            print(f"  {name} = {metric['value']} {metric['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        setup(workloads.WORKLOADS[args.workload], args.seed, Path(args.setup_probe))
        print(time.perf_counter() - START)
        return
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), contract)
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
