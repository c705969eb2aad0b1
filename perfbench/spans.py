"""Outside-in span tracing of pdtoda's layers.

The tracer wraps public pdtoda functions from outside the package.  A span
is one call of a wrapped function; its self time is its duration minus the
time covered by wrapped calls made inside it.  Every module namespace that
holds the original function object is rebound, because ``divisor``,
``theta``, ``verify`` and ``cli`` import with ``from .x import f`` and
patching only the defining module would miss their call sites.  The checks
of the ``verify.CHECKS`` registry are wrapped as ``verify.check.<name>``.

Spans stay in memory; ``write`` dumps them as JSON lines at the end.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time

#: Wrapped layer functions, as ``module.function`` or ``module.Class.method``.
LAYERS = (
    "toda.evolve",
    "toda.state_to_json",
    "lax.transfer_matrix",
    "lax.char_poly",
    "lax.spectral_data",
    "lmatrix.det",
    "lmatrix.minor_signed",
    "lmatrix.resultant_y",
    "unipoly.gcd_monic",
    "unipoly.roots_numeric",
    "divisor.divisor_poly",
    "divisor.track_divisor",
    "divisor.divisor_report",
    "divisor.zeros_factorization_check",
    "theta.elliptic_model",
    "theta.theta_context",
    "theta.predicted_divisor_x",
    "theta.theta_check",
    "theta.EllipticModel.abel_finite",
    "theta.EllipticModel.residue_at_infinity",
    "cli.main",
)

SUITES = ("core", "lax", "appendix", "divisor", "theta")


def state_bits(state) -> int:
    """Largest numerator or denominator bit length in a TodaState."""
    values = list(state.V) + [x for row in state.I for x in row]
    return max(max(abs(q.numerator).bit_length(), q.denominator.bit_length()) for q in values)


def _poly_bits(dp) -> int:
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in dp.poly.coeffs), default=0)


def _raise_counter(tracer, name, value):
    tracer.counters[name] = max(tracer.counters.get(name, 0), value)


#: Deterministic counters read off a wrapped call's return value.
COUNTERS = {
    "toda.evolve": lambda tr, out: _raise_counter(tr, "toda.state_bits_max", state_bits(out)),
    "divisor.divisor_poly": lambda tr, out: _raise_counter(tr, "divisor.U_bits_max", _poly_bits(out)),
    "theta.theta_check": lambda tr, out: _raise_counter(tr, "theta.max_abs_err", out["max_abs_err"]),
}


class Tracer:
    """Collects spans of wrapped calls; ``install``/``uninstall`` patch pdtoda."""

    def __init__(self):
        self.spans = []      # (id, parent id, name, job, start, end, self seconds)
        self.counters = {}
        self.job = None      # label of the job being run, set by the caller
        self.check_suites = {}
        self._stack = []     # [span id, seconds covered by children]
        self._ids = itertools.count()
        self._patches = []   # (owner, attribute, original value)

    # -- spans -----------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """``fn`` wrapped in a span called ``name``; ``after(tracer, result)``
        runs outside the span."""
        stack = self._stack
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                spans.append((frame[0], parent[0] if parent else None, name, self.job,
                              start, end, end - start - frame[1]))
            if after is not None:
                after(self, out)
            return out

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every entry of LAYERS and the verify check registry."""
        for qualname in LAYERS:
            module_name, _, attr = qualname.partition(".")
            module = importlib.import_module(f"pdtoda.{module_name}")
            *owners, leaf = attr.split(".")
            owner = module
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapped = self.wrap(qualname, original, COUNTERS.get(qualname))
            if owner is module:
                for mod in _pdtoda_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)
            else:
                self._patch(owner, leaf, wrapped)
        checks = importlib.import_module("pdtoda.verify").CHECKS
        for name, (fn, suites) in list(checks.items()):
            self.check_suites[name] = suites
            self._patch(checks, name, (self.wrap(f"verify.check.{name}", fn), suites))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    # -- results -------------------------------------------------------------

    def layer_stats(self) -> dict:
        """name -> {"calls", "self_s", "total_s"} over all recorded spans."""
        stats = {}
        for _, _, name, _, start, end, self_s in self.spans:
            entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["total_s"] += end - start
        return stats

    def suite_seconds(self) -> dict:
        """Inclusive time of the verify checks, summed per suite."""
        stats = self.layer_stats()
        out = {suite: 0.0 for suite in SUITES}
        for name, suites in self.check_suites.items():
            spent = stats.get(f"verify.check.{name}", {}).get("total_s", 0.0)
            for suite in suites:
                out[suite] += spent
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, job, start, end, self_s in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name, "job": job,
                                     "start": start, "end": end, "self_s": self_s}) + "\n")


def _pdtoda_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "pdtoda" or name.startswith("pdtoda."))]
