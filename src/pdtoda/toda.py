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
Inew_n = V_n rho_n and Vnew_n = I_{n+1} / rho_n.  For valid states every
c_n, z and 1 - P is positive, hence every sigma_n is positive and
rho_n > 1: the update preserves positivity and never divides by zero.

Conserved products, once per trajectory.  P is built from the products
(prod V, prod I-row 0, ..., prod I-row M-1) that validation uses for its
inequalities.  They are conserved, so they stay small while the entries
grow, and a trajectory computes them from the entries only once:

* :func:`validate` caches them in the state's private ``_products`` slot
  (not a constructor argument, and not part of ``==``, the hash, the repr
  or the JSON) and reads the slot on later calls.  Positivity and the
  inequalities are still checked on every call.
* :func:`evolve` proves the products of the state it returns, and stores
  them in that state's slot.  After the sigma loop it requires the
  periodic closure sigma_N = sigma_0 exactly.  With P_true = prod(c_n),
  computed from the entries, the loop gives

      sigma_N - sigma_0 = P_true sigma_0 + z - sigma_0
                        = z (P_true - P) / (1 - P),

  and z > 0, so the closure holds exactly when the P taken from the
  products equals P_true.  Given the closure, sigma_N + 1 = sigma_1 / c_0
  and sigma_n + 1 = sigma_{n+1} / c_n for n < N, so

      prod(rho) = prod_{n=1..N} (sigma_n + 1) / sigma_n = 1 / P_true

  telescopes.  Hence prod(Vnew) = prod(I-row 0) P_true = prod(V) and
  prod(Inew) = prod(V) / P_true = prod(I-row 0), while the other I-rows
  shift down unchanged: the new products are (pV, pI_1, ..., pI_(M-1),
  pI_0).  The closure certifies the ratio pV / pI_0 the step used; the
  products themselves come from one computation from the entries, at the
  first validation of the trajectory.
* :func:`index_shift` hands the slot on: a cyclic relabel keeps every product.
* :func:`conserved_products` always computes from the entries and never
  reads the slot, so checks that compare it along a trajectory stay
  independent recomputations.

The spectral curve, once per isospectral class.  :func:`evolve` and
:func:`index_shift` conserve phi = det(X - xE) and hand on the private
``_curve`` slot that ``lax.curve_of`` fills.  ``lax.spectral_data`` and
``lax.char_poly`` never read it, so conservation checks recompute phi.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from .errors import (
    DegenerateEvolutionError,
    NumericFailureError,
    PdTodaError,
    StateValidationError,
)
from .rationals import ZERO, Q, as_q, q_str


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
    #: the conserved products, once :func:`validate` computed them or
    #: :func:`evolve` proved them (module docstring)
    _products: tuple | None = field(default=None, init=False, repr=False, compare=False)
    #: the curve of the isospectral class, once ``lax.curve_of`` built it
    _curve: "lax.SpectralData | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.N < 1 or self.M < 1:
            raise PdTodaError("N and M must be >= 1")
        # entries that are Q already (every state the package builds) stay
        # the same objects; anything else is coerced
        object.__setattr__(self, "V", tuple(v if type(v) is Q else as_q(v) for v in self.V))
        object.__setattr__(self, "I", tuple(
            tuple(x if type(x) is Q else as_q(x) for x in row) for row in self.I))
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
    them becomes the oldest row after a few steps.  The products are read
    from the state's slot when set, and computed and cached there otherwise.
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
        products = state._products
        if products is None:
            products = conserved_products(state)
            object.__setattr__(state, "_products", products)
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


def conserved_products(state: TodaState):
    """(prod V, prod I-row 0, ..., prod I-row M-1); the multiset is
    preserved by the evolution, with the I entries cyclically relabeled."""
    return (math.prod(state.V),) + tuple(math.prod(row) for row in state.I)


def evolve(state: TodaState) -> TodaState:
    """One exact time step.  Requires a valid state.

    Solves the periodic recurrence sigma_(n+1) = (sigma_n + 1) c_n,
    c_n = V_n / I_n, at its fixed point sigma_0 = z / (1 - P) (module
    docstring), with P = prod(V) / prod(I-row 0) from the validation pass.
    Raises :class:`DegenerateEvolutionError` unless the periodic closure
    sigma_N = sigma_0 holds; given it, the new state's products are the
    old ones relabeled, and are stored in its slot.
    """
    products = require_valid(state)
    pv, pi = products[:2]
    N = state.N
    V = state.V
    I0 = state.I[0]

    c = [v / x for v, x in zip(V, I0)]
    z = ZERO
    for cn in c:
        z = (z + 1) * cn
    sigma0 = sigma = z / (1 - pv / pi)
    # rho_n = s_(n+2) / s_(n+1) = 1 + 1/sigma_(n+1) > 1
    rho = []
    for cn in c:
        sigma = (sigma + 1) * cn
        rho.append(1 + 1 / sigma)
    if sigma != sigma0:
        raise DegenerateEvolutionError(
            "periodic closure sigma_N = sigma_0 fails: prod(V) / prod(I-row 0) "
            "differs from the product of V_n / I_n"
        )

    nxt = TodaState(
        N=N,
        M=state.M,
        V=tuple(I0[(n + 1) % N] / rho[n] for n in range(N)),
        I=state.I[1:] + (tuple(v * r for v, r in zip(V, rho)),),
        t=state.t + 1,
    )
    object.__setattr__(nxt, "_products", (pv,) + products[2:] + (pi,))
    object.__setattr__(nxt, "_curve", state._curve)
    return nxt


#: sweep-to-sweep relative change at which :func:`evolve_float_oracle` stops
ORACLE_TOL = 1e-14
#: sweeps :func:`evolve_float_oracle` makes before it gives up
ORACLE_MAX_SWEEPS = 200000


def evolve_float_oracle(state: TodaState):
    """Double-precision fixed-point iteration for the cyclic solve.

    Sweeps x_n = I_n + V_n - I_n V_{n-1} / x_{n-1} in place (cyclic),
    starting from x_n = I_n + V_n, until the sweep-to-sweep relative change
    is below ``ORACLE_TOL``.  Returns (new_I_floats, new_V_floats).
    Independent of the exact solver; used as its agreement oracle.
    """
    N = state.N
    fI = [float(x) for x in state.I[0]]
    fV = [float(v) for v in state.V]
    x = [fI[n] + fV[n] for n in range(N)]
    for _ in range(ORACLE_MAX_SWEEPS):
        delta = 0.0
        for n in range(N):
            new = fI[n] + fV[n] - fI[n] * fV[n - 1] / x[n - 1]
            delta = max(delta, abs(new - x[n]) / abs(new))
            x[n] = new
        if delta < ORACLE_TOL:
            break
    else:
        raise NumericFailureError("fixed-point oracle did not converge")
    new_V = [fI[(n + 1) % N] * fV[n] / x[n] for n in range(N)]
    return x, new_V


def index_shift(state: TodaState, step: int = 1) -> TodaState:
    """Cyclic relabeling of every lattice row: site n takes the old value
    of site n+step (so step=+1 is the shift V_n -> V_{n+1}).  The products
    and phi are unchanged, so both slots are handed on."""
    k = step % state.N
    out = TodaState(N=state.N, M=state.M, V=state.V[k:] + state.V[:k],
                    I=tuple(row[k:] + row[:k] for row in state.I), t=state.t)
    object.__setattr__(out, "_products", state._products)
    object.__setattr__(out, "_curve", state._curve)
    return out


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


def _json_q(value) -> Q:
    """A rational from its JSON form: a string ``"p/q"`` or a JSON integer."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"a rational must be a string or a JSON integer, got {value!r}")
    return as_q(value)


def state_from_dict(data: dict) -> TodaState:
    try:
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object, got {type(data).__name__}")
        N, M, t = data["N"], data["M"], data.get("t", 0)
        for key, value in (("N", N), ("M", M), ("t", t)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{key} must be a JSON integer, got {value!r}")
        V, I = data["V"], data["I"]
        if not isinstance(V, list):
            raise TypeError(f"V must be a JSON list, got {V!r}")
        if not isinstance(I, list) or not all(isinstance(row, list) for row in I):
            raise TypeError(f"I must be a JSON list of lists, got {I!r}")
        return TodaState(
            N=N,
            M=M,
            t=t,
            V=tuple(_json_q(v) for v in V),
            I=tuple(tuple(_json_q(x) for x in row) for row in I),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PdTodaError(f"malformed state JSON: {exc}") from exc


def state_to_json(state: TodaState) -> str:
    return json.dumps(state_to_dict(state), sort_keys=True)


def state_from_json(text: str) -> TodaState:
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the int-string limit
        raise PdTodaError(f"invalid JSON: {exc}") from exc
    return state_from_dict(data)


def random_state(N: int, M: int, rng: random.Random) -> TodaState:
    """Random valid state with numerators and denominators <= 20.

    V-entries are drawn in [1/20, 9/10] and I-entries in [10/9, 20], so
    every entry is positive and prod(V) < 1 < prod(I-row) for every row:
    every draw is valid, and nothing is redrawn.
    """
    V = tuple(Q(rng.randint(1, 9), rng.randint(10, 20)) for _ in range(N))
    I = tuple(
        tuple(Q(rng.randint(10, 20), rng.randint(1, 9)) for _ in range(N)) for _ in range(M)
    )
    return TodaState(N=N, M=M, V=V, I=I)


# Last, because lax imports this module: here the import finds lax (or the
# part of it that has run) in sys.modules.  It lets typing.get_type_hints
# resolve the hint of TodaState._curve.
from . import lax  # noqa: E402
