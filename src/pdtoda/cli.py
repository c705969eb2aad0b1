"""Command-line interface.

Commands:
  simulate      exact trajectory of a state file
  spectrum      spectral-polynomial report for a state
  divisor       divisor-polynomial trajectory for a state
  verify        named check suites, seeded and byte-reproducible
  theta-check   genus-1 theta validation for an N=2, M=1 state
  random-state  deterministic random valid state

Exit codes: 0 pass, 1 check failure, 2 input error, 3 numeric or
degenerate-evolution error.  All rationals are serialized as "p/q"
strings, so files round-trip losslessly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from contextlib import contextmanager, nullcontext
from functools import lru_cache

from .divisor import divisor_report, track_divisor
from .errors import (
    DegenerateEvolutionError,
    NonGenericDataError,
    NumericFailureError,
    PdTodaError,
    SingularCurveError,
    StateValidationError,
)
from .lax import spectral_data, spectral_report
from .rationals import q_str
from .toda import (
    evolve,
    random_state,
    require_valid,
    state_from_json,
    state_to_dict,
)
from .theta import theta_check
from .verify import run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _read_state(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise PdTodaError(f"cannot read {path}: {exc}") from exc
    state = state_from_json(text)
    require_valid(state)
    return state


def _steps(text: str) -> int:
    """argparse type of --steps: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite float >= 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


@contextmanager
def _claim_output(output: str | None):
    """Report an unwritable ``output`` before the command does its work.

    Opening the file for append and closing it at once creates a missing
    file and changes nothing in an existing one; ``_emit`` truncates and
    writes it only once the report is ready.  So a command that raises
    leaves an existing file as it was, and a file the claim created is
    removed."""
    if not output:
        yield
        return
    created = not os.path.lexists(output)
    try:
        open(output, "a", encoding="utf-8").close()
    except OSError as exc:
        raise PdTodaError(f"cannot write {output}: {exc}") from exc
    try:
        yield
    except BaseException:
        if created:
            os.remove(output)
        raise


def _emit(payload: dict, output: str | None) -> None:
    """Stream the report as indented JSON and a newline to ``output`` or
    stdout, chunk by chunk, instead of first building the whole text."""
    try:
        sink = open(output, "w", encoding="utf-8") if output else nullcontext(sys.stdout)
    except OSError as exc:
        raise PdTodaError(f"cannot write {output}: {exc}") from exc
    with sink as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_simulate(args) -> int:
    state = _read_state(args.input)
    steps = []
    cur = state
    for _ in range(args.steps + 1):
        entry = state_to_dict(cur)
        entry["conserved"] = [q_str(p) for p in require_valid(cur)]
        steps.append(entry)
        if len(steps) <= args.steps:
            cur = evolve(cur)
    _emit({"steps": steps}, args.output)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    state = _read_state(args.input)
    _emit(spectral_report(spectral_data(state)), args.output)
    return EXIT_OK


def cmd_divisor(args) -> int:
    state = _read_state(args.input)
    track = track_divisor(state, args.steps)
    # U is monic of degree g at every step
    _emit(divisor_report(track, track[0].degree), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_suite(args.suite, args.seed, inject_fault=args.inject_fault, tol=args.tol)
    _emit(report, args.output)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def cmd_theta_check(args) -> int:
    report = theta_check(_read_state(args.input), steps=args.steps, tol=args.tol)
    _emit(report, args.output)
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def cmd_random_state(args) -> int:
    try:
        n_str, m_str = args.nm.split(",")
        N, M = int(n_str), int(m_str)
    except ValueError as exc:
        raise PdTodaError(f"--nm expects 'N,M', got {args.nm!r}") from exc
    rng = random.Random(args.seed)
    state = random_state(N, M, rng)
    _emit(state_to_dict(state), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdtoda",
        description="Exact simulator and spectral-curve verifier for the "
        "generalized periodic discrete Toda lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the exact evolution")
    p.add_argument("--input", required=True, help="state JSON file")
    p.add_argument("--output", help="trajectory JSON file (stdout if omitted)")
    p.add_argument("--steps", type=_steps, default=10)

    p = sub.add_parser("spectrum", help="spectral polynomial report")
    p.add_argument("--input", required=True)
    p.add_argument("--output")

    p = sub.add_parser("divisor", help="divisor polynomial trajectory")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--steps", type=_steps, default=10)

    p = sub.add_parser("verify", help="run named verification suites")
    p.add_argument("--suite", default="all",
                   help="core, lax, appendix, divisor, theta, or all")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--output")
    p.add_argument("--tol", type=_tolerance, default=None,
                   help="override the tolerance of the numeric screens")
    p.add_argument("--inject-fault", metavar="CHECK",
                   help="deliberately corrupt the named check (self-test)")

    p = sub.add_parser("theta-check", help="genus-1 theta validation (N=2, M=1)")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--steps", type=_steps, default=10)
    p.add_argument("--tol", type=_tolerance, default=1e-6)

    p = sub.add_parser("random-state", help="deterministic random valid state")
    p.add_argument("--nm", required=True, help="period and layer count, e.g. 4,2")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output")

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a replaced cmd_* function is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        with _claim_output(args.output):
            return handler(args)
    except (StateValidationError,) as exc:
        print(f"error: invalid state: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DegenerateEvolutionError, NumericFailureError, SingularCurveError,
            NonGenericDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PdTodaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
