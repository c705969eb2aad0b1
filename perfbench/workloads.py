"""The benchmark's workloads: seeded inputs, one job runner and the output
checks of each.

Inputs are ``pdtoda.random_state`` draws from ``random.Random(seed)``, made
before timing starts.  A job fails when it raises, exits nonzero or
produces a wrong output; a wrong output also makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pdtoda
from pdtoda import cli, theta

DIVISOR_STEPS = 10
THETA_STEPS = 10
EVOLVE_STEPS = 40
#: Seeded states are drawn with seed n mod RECORDED_SEEDS: the exact outputs
#: of divisor-track and evolve-long are recorded in digests.json for seeds
#: 0 .. RECORDED_SEEDS - 1, so every run of them is checked against a digest.
RECORDED_SEEDS = 64


@dataclass
class Job:
    label: str
    state: object = None    # input TodaState (state workloads)
    argv: tuple = ()        # arguments of cli.main (CLI workloads)
    handler: str = ""       # cli command function that argv dispatches to


@dataclass
class Outcome:
    seconds: float
    exit_code: int
    error: str | None       # class of the exception that ended the job
    message: str
    output: str             # stdout of a CLI job, JSON of an evolved state
    final: object = None    # evolved state (evolve-long)


def _digest(ints) -> str:
    """Digest of a sequence of integers, hashed as bytes: the heights here
    exceed the interpreter's limit on int-to-str conversion."""
    h = hashlib.sha256()
    for n in ints:
        raw = int(n).to_bytes(int(n).bit_length() // 8 + 1, "big", signed=True)
        h.update(len(raw).to_bytes(8, "big") + raw)
    return h.hexdigest()[:16]


def _flat(rationals):
    for q in rationals:
        yield q.numerator
        yield q.denominator


def u_digest(steps) -> str:
    """Digest of a divisor track given as (t, coefficients) pairs."""
    return _digest(n for t, coeffs in steps for n in (t, len(coeffs), *_flat(coeffs)))


def state_digest(state) -> str:
    rows = (state.V,) + state.I
    return _digest((state.N, state.M, state.t, *(n for row in rows for n in _flat(row))))


def conserved_multiset(state) -> list:
    """Sorted (prod V, prod I-row 0, ...), computed independently of pdtoda."""
    return sorted([math.prod(state.V)] + [math.prod(row) for row in state.I])


def _draw(seed, shapes, rounds):
    rng = random.Random(seed % RECORDED_SEEDS)
    return [pdtoda.random_state(N, M, rng) for _ in range(rounds) for (N, M) in shapes]


def _write_states(states, workdir, name):
    paths = []
    for k, state in enumerate(states):
        path = workdir / f"{name}-{k}.json"
        path.write_text(pdtoda.state_to_json(state), encoding="utf-8")
        paths.append(str(path))
    return paths


def _label(k, state):
    return f"{k}:({state.N},{state.M})"


def run_cli(job: Job) -> Outcome:
    """Run ``cli.main(job.argv)`` with stdout captured.  The command
    function is observed so that the class of an exception that cli.main
    turns into an exit code is still recorded."""
    handler = getattr(cli, job.handler)
    raised = []

    def observed(args):
        try:
            return handler(args)
        except Exception as exc:
            raised.append(exc)
            raise

    out, err = io.StringIO(), io.StringIO()
    setattr(cli, job.handler, observed)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(list(job.argv))
            except Exception as exc:  # an exception cli.main does not map
                raised.append(exc)
                code = None
            seconds = time.perf_counter() - start
    finally:
        setattr(cli, job.handler, handler)
    error = type(raised[-1]).__name__ if raised else None
    message = str(raised[-1]) if raised else ""
    return Outcome(seconds, 1 if code is None else code, error, message, out.getvalue())


class DivisorTrack:
    name = "divisor-track"
    shapes = ((4, 2), (5, 2), (4, 3))
    rounds = 10
    recorded = True

    def make_jobs(self, seed, workdir):
        states = _draw(seed, self.shapes, self.rounds)
        paths = _write_states(states, workdir, self.name)
        return [Job(_label(k, s), s, ("divisor", "--input", p, "--steps", str(DIVISOR_STEPS)),
                    "cmd_divisor") for k, (s, p) in enumerate(zip(states, paths))]

    run = staticmethod(run_cli)

    @staticmethod
    def reference(job):
        """Digest of the exact track, computed without the CLI (for recording)."""
        track = pdtoda.track_divisor(job.state, DIVISOR_STEPS)
        return u_digest([(dp.t, dp.poly.coeffs) for dp in track])

    def check(self, job, outcome, digest):
        """(reason the job failed or None, whether the output is wrong)."""
        if outcome.exit_code != 0:
            return f"exit {outcome.exit_code}: {outcome.error}: {outcome.message}", False
        report = json.loads(outcome.output)
        steps = [(e["t"], [Fraction(c) for c in e["upsilon"]]) for e in report["steps"]]
        g = report["g"]
        if [t for t, _ in steps] != list(range(DIVISOR_STEPS + 1)) or any(
                len(coeffs) != g + 1 or coeffs[-1] != 1 for _, coeffs in steps):
            return "U is not monic of degree g at every step", True
        if u_digest(steps) != digest:
            return "U coefficients differ from the recorded digest", True
        return None, False


class EvolveLong:
    name = "evolve-long"
    shapes = ((3, 1), (4, 2), (6, 2))
    rounds = 16
    recorded = True

    def make_jobs(self, seed, workdir):
        return [Job(_label(k, s), s) for k, s in enumerate(_draw(seed, self.shapes, self.rounds))]

    @staticmethod
    def run(job):
        start = time.perf_counter()
        final = job.state
        try:
            for _ in range(EVOLVE_STEPS):
                final = pdtoda.evolve(final)
            text = pdtoda.state_to_json(final)
        except Exception as exc:
            seconds = time.perf_counter() - start
            return Outcome(seconds, 1, type(exc).__name__, str(exc), "", final)
        return Outcome(time.perf_counter() - start, 0, None, "", text, final)

    @staticmethod
    def reference(job):
        final = job.state
        for _ in range(EVOLVE_STEPS):
            final = pdtoda.evolve(final)
        return state_digest(final)

    def check(self, job, outcome, digest):
        final = outcome.final
        if final.t != job.state.t + EVOLVE_STEPS:
            return f"{outcome.error}: {outcome.message}", False
        if conserved_multiset(final) != conserved_multiset(job.state):
            return "conserved products changed", True
        if state_digest(final) != digest:
            return "final state differs from the recorded digest", True
        if outcome.exit_code != 0:
            return f"{outcome.error}: {outcome.message}", False
        if pdtoda.state_from_json(outcome.output) != final:
            return "state_to_json does not round-trip", True
        return None, False


class ThetaGenus1:
    name = "theta-genus1"
    rounds = 16
    recorded = False

    def make_jobs(self, seed, workdir):
        states = _draw(seed, ((2, 1),), self.rounds)
        paths = _write_states(states, workdir, self.name)
        return [Job(_label(k, s), s, ("theta-check", "--input", p, "--steps", str(THETA_STEPS)),
                    "cmd_theta_check") for k, (s, p) in enumerate(zip(states, paths))]

    run = staticmethod(run_cli)

    def check(self, job, outcome, digest):
        if outcome.error is not None or outcome.exit_code not in (0, 1):
            return f"exit {outcome.exit_code}: {outcome.error}: {outcome.message}", False
        report = json.loads(outcome.output)
        if not report["pass"] or outcome.exit_code != 0:
            return f"theta-check reported a failure (max_abs_err {report['max_abs_err']})", True
        return None, False


class VerifyAll:
    """``verify --suite all`` for the fixed verify seeds 0 .. rounds - 1;
    the workload seed only orders them.  Verify seeds differ too much for a
    seeded draw of a few of them to be steady: a quarter of them take 1.7
    times the median job time or more, and about one in 14 takes over ten
    times the median, in ``theta-reproduction``."""

    name = "verify-all"
    rounds = 6
    recorded = False

    def make_jobs(self, seed, workdir):
        seeds = list(range(self.rounds))
        random.Random(seed).shuffle(seeds)
        return [Job(f"{k}:seed={s}", None, ("verify", "--suite", "all", "--seed", str(s)),
                    "cmd_verify") for k, s in enumerate(seeds)]

    run = staticmethod(run_cli)

    def check(self, job, outcome, digest):
        if outcome.error is not None or outcome.exit_code not in (0, 1):
            return f"exit {outcome.exit_code}: {outcome.error}: {outcome.message}", False
        report = json.loads(outcome.output)
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        if not report["passed"] or report["counts"]["failed"] != 0 or outcome.exit_code != 0:
            return f"verify reported failed checks {failed}", True
        return None, False


WORKLOADS = {w.name: w for w in (DivisorTrack(), ThetaGenus1(), VerifyAll(), EvolveLong())}


def warm_caches():
    """One-time lazy work that users pay once per process."""
    theta._gl(16)


def fingerprint(outcome: Outcome) -> tuple:
    """What must repeat exactly between two runs of one job."""
    final = state_digest(outcome.final) if outcome.final is not None else None
    return outcome.exit_code, outcome.error, outcome.output, final
