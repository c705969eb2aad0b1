"""Phase space and exact time evolution of the generalized periodic
discrete Toda lattice.

A state holds one row of V-variables and M rows of I-variables, all
strictly positive rationals with period N.  One time step replaces V by
the next V-row and shifts the I-rows down by one, appending the newly
solved row.  The update equations are

    Inew_n = I_n + V_n - Vnew_{n-1},      Vnew_n = I_{n+1} V_n / Inew_n,

cyclically in n, where I is the oldest stored I-row.  Eliminating Vnew
gives the cyclic recurrence  Inew_n = I_n + V_n - I_n V_{n-1} / Inew_{n-1},
which linearizes: writing Inew_n = V_n s_{n+2} / s_{n+1}, the differences
u_n = s_{n+1} - s_n satisfy u_{n+1} = (I_n / V_n) u_n.  The branch is
fixed by requiring prod(Inew) = prod(I) (the conserved choice), which is
the Bloch closure s_{n+N} = lam s_n, u_{n+N} = lam u_n with
lam = prod(I) / prod(V); the discarded branch has prod(Inew) = prod(V),
excluded by the strict inequality prod(V) < prod(I).

The solver works with the ratio sigma_n = s_n / u_n, which is N-periodic
and obeys the affine recurrence

    sigma_{n+1} = (sigma_n + 1) c_n,      c_n = V_n / I_n.

Composing it once around the period gives sigma_N = P sigma_0 + z, where
P = prod(V) / prod(I) < 1 and z is the Horner chain z <- (z + 1) c_n
started from 0, so the periodic solution is the fixed point

    sigma_0 = z / (1 - P).

The new rows follow from rho_n = s_{n+2} / s_{n+1} = 1 + 1/sigma_{n+1} as
Inew_n = V_n rho_n and Vnew_n = I_{n+1} / rho_n.  P is built from the
products prod(V) and prod(I-row 0) that validation has just computed for
its inequalities; they are conserved, so they stay small while the entries
grow.  For valid states every c_n, z and 1 - P is positive, hence every
sigma_n is positive and rho_n > 1: the update preserves positivity and
never divides by zero.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from .errors import (
    NumericFailureError,
    PdTodaError,
    StateValidationError,
)
from .rationals import ONE, ZERO, Q, as_q, q_str
from functools import reduce


@dataclass(frozen=True)
class TodaState:
    """One phase point: period N, M stored I-rows, exact rationals.

    ``I[k][n]`` is the I-variable of site n at time offset k
    (k = 0 is the oldest row, the one consumed by the next step).
    """

    N: int
    M: int
    V: tuple
    I: tuple
    t: int = 0

    def __post_init__(self):
        if self.N < 1 or self.M < 1:
            raise PdTodaError("N and M must be >= 1")
        object.__setattr__(self, "V", tuple(as_q(v) for v in self.V))
        object.__setattr__(self, "I", tuple(tuple(as_q(x) for x in row) for row in self.I))
        if len(self.V) != self.N:
            raise PdTodaError(f"V has length {len(self.V)}, expected N={self.N}")
        if len(self.I) != self.M or any(len(row) != self.N for row in self.I):
            raise PdTodaError("I must be M rows of length N")

    def v(self, n: int):
        """1-based, cyclic."""
        return self.V[(n - 1) % self.N]

    def i(self, n: int, layer: int = 0):
        """1-based site, 0-based layer, cyclic in the site index."""
        return self.I[layer][(n - 1) % self.N]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple
    #: the conserved products (prod V, prod I-row 0, ..., prod I-row M-1)
    #: computed for the inequalities; empty when an entry is not positive
    products: tuple = ()


def validate(state: TodaState) -> ValidationReport:
    """Check positivity and the strict product inequalities
    prod(V) < prod(I-row) for every stored I-row.

    The first and last rows are the two inequalities usually written out;
    the same bound must hold for intermediate rows as well, since each of
    them becomes the oldest row after a few steps.
    """
    problems = []
    for n, v in enumerate(state.V, start=1):
        if v <= 0:
            problems.append(f"V_{n} = {q_str(v)} is not positive")
    for k, row in enumerate(state.I):
        for n, x in enumerate(row, start=1):
            if x <= 0:
                problems.append(f"I_{n}^(t+{k}) = {q_str(x)} is not positive")
    products = ()
    if not problems:
        products = conserved_products(state)
        pv = products[0]
        for k, pi in enumerate(products[1:]):
            if not pv < pi:
                problems.append(
                    f"prod(V) = {q_str(pv)} not < prod(I-row {k}) = {q_str(pi)}"
                )
    return ValidationReport(ok=not problems, violations=tuple(problems), products=products)


def require_valid(state: TodaState) -> tuple:
    """Raise :class:`StateValidationError` unless the state is valid;
    return its conserved products, as computed by :func:`validate`."""
    report = validate(state)
    if not report.ok:
        raise StateValidationError(report.violations)
    return report.products


def prod(values) -> Q:
    return reduce(lambda a, b: a * b, values, ONE)


def conserved_products(state: TodaState):
    """(prod V, prod I-row 0, ..., prod I-row M-1); the multiset is
    preserved by the evolution, with the I entries cyclically relabeled."""
    return (prod(state.V),) + tuple(prod(row) for row in state.I)


def evolve(state: TodaState) -> TodaState:
    """One exact time step.  Requires a valid state.

    Solves the periodic recurrence sigma_(n+1) = (sigma_n + 1) c_n,
    c_n = V_n / I_n, at its fixed point sigma_0 = z / (1 - P) (module
    docstring), with P = prod(V) / prod(I-row 0) from the validation pass.
    """
    pv, pi = require_valid(state)[:2]
    N = state.N
    V = state.V
    I0 = state.I[0]

    c = [v / x for v, x in zip(V, I0)]
    z = ZERO
    for cn in c:
        z = (z + 1) * cn
    sigma = z / (1 - pv / pi)
    # rho_n = s_(n+2) / s_(n+1) = 1 + 1/sigma_(n+1) > 1
    rho = []
    for cn in c:
        sigma = (sigma + 1) * cn
        rho.append(1 + 1 / sigma)

    return TodaState(
        N=N,
        M=state.M,
        V=tuple(I0[(n + 1) % N] / rho[n] for n in range(N)),
        I=state.I[1:] + (tuple(v * r for v, r in zip(V, rho)),),
        t=state.t + 1,
    )


def evolve_float_oracle(state: TodaState, tol: float = 1e-14, max_sweeps: int = 200000):
    """Double-precision fixed-point iteration for the cyclic solve.

    Sweeps x_n = I_n + V_n - I_n V_{n-1} / x_{n-1} in place (cyclic),
    starting from x_n = I_n + V_n, until the sweep-to-sweep relative change
    is below ``tol``.  Returns (new_I_floats, new_V_floats).  Independent
    of the exact solver; used as its agreement oracle.
    """
    N = state.N
    fI = [float(x) for x in state.I[0]]
    fV = [float(v) for v in state.V]
    x = [fI[n] + fV[n] for n in range(N)]
    for _ in range(max_sweeps):
        delta = 0.0
        for n in range(N):
            new = fI[n] + fV[n] - fI[n] * fV[n - 1] / x[n - 1]
            delta = max(delta, abs(new - x[n]) / abs(new))
            x[n] = new
        if delta < tol:
            break
    else:
        raise NumericFailureError("fixed-point oracle did not converge")
    new_V = [fI[(n + 1) % N] * fV[n] / x[n] for n in range(N)]
    return x, new_V


def index_shift(state: TodaState, step: int = 1) -> TodaState:
    """Cyclic relabeling of every lattice row: site n takes the old value
    of site n+step (so step=+1 is the shift V_n -> V_{n+1})."""
    N = state.N
    k = step % N
    return TodaState(
        N=N,
        M=state.M,
        V=state.V[k:] + state.V[:k],
        I=tuple(row[k:] + row[:k] for row in state.I),
        t=state.t,
    )


# ---------------------------------------------------------------------------
# serialization and random states
# ---------------------------------------------------------------------------


def state_to_dict(state: TodaState) -> dict:
    return {
        "N": state.N,
        "M": state.M,
        "t": state.t,
        "V": [q_str(v) for v in state.V],
        "I": [[q_str(x) for x in row] for row in state.I],
    }


def state_from_dict(data: dict) -> TodaState:
    try:
        return TodaState(
            N=int(data["N"]),
            M=int(data["M"]),
            t=int(data.get("t", 0)),
            V=tuple(as_q(v) for v in data["V"]),
            I=tuple(tuple(as_q(x) for x in row) for row in data["I"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PdTodaError(f"malformed state JSON: {exc}") from exc


def state_to_json(state: TodaState) -> str:
    return json.dumps(state_to_dict(state), sort_keys=True)


def state_from_json(text: str) -> TodaState:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PdTodaError(f"invalid JSON: {exc}") from exc
    return state_from_dict(data)


def random_state(
    N: int,
    M: int,
    rng: random.Random,
    retries: int = 1000,
    generic: "Callable[[TodaState], bool] | None" = None,
) -> TodaState:
    """Random valid state with numerators and denominators <= 20.

    V-entries are drawn below 1 and I-entries above 1, which makes the
    product inequalities hold automatically.  If ``generic`` is given, the
    draw is repeated (up to ``retries``) until the predicate accepts the
    state; this is the redraw policy for the measure-zero non-generic sets.
    """

    def draw():
        V = tuple(Q(rng.randint(1, 9), rng.randint(10, 20)) for _ in range(N))
        I = tuple(
            tuple(Q(rng.randint(10, 20), rng.randint(1, 9)) for _ in range(N)) for _ in range(M)
        )
        return TodaState(N=N, M=M, V=V, I=I)

    for _ in range(retries):
        s = draw()
        if not validate(s).ok:
            continue
        if generic is None or generic(s):
            return s
    raise PdTodaError(f"no generic state found in {retries} draws for N={N}, M={M}")
