"""Lax matrices, the spectral polynomial and its structural checks.

The lattice dynamics is equivalent to the matrix refactorization
L' R'_(M-1) = R_(0) L over Laurent matrices in y, where L carries the
V-variables (unit diagonal, V subdiagonal, V_N/y corner) and R_(k) carries
the k-th I-row (diagonal I, unit superdiagonal, y corner).  The product

    X = L R_(M-1) ... R_(1) R_(0)

evolves by conjugation, so its characteristic polynomial

    phi(x, y) = det(X(y) - x E)
              = A_0(x) y^M + A_1(x) y^(M-1) + ... + A_M(x) + A_(M+1)(x)/y

is conserved.  This module builds these objects exactly: the factors and
X, phi with its coefficient layout A_j and genus, the band coefficients
of X for M < N (read off X and checked against the banded template), the
Bloch vectors and the (M+1)x(M+1) one-step transfer matrix H.  The
structural claims about them (the refactorization, det X, the degree
profile of the A_j, det H = (-1)^(M+1) I_1 x) are stated in ``verify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .bilaurent import BiLaurent, integral_multiple, mul_add
from .errors import PdTodaError
from .lmatrix import LaurentMatrix, det
from .rationals import ONE, ZERO, q_str
from .toda import TodaState, require_valid
from .unipoly import UniPoly


def l_matrix(state: TodaState) -> LaurentMatrix:
    """The V-factor: unit diagonal, V_1..V_(N-1) subdiagonal, V_N/y added
    in the upper-right corner (for N = 1 the single entry is 1 + V_1/y)."""
    N = state.N
    cells = [[BiLaurent.one() if i == j else
              BiLaurent.const(state.V[j]) if i == j + 1 else BiLaurent.zero()
              for j in range(N)] for i in range(N)]
    cells[0][N - 1] = cells[0][N - 1] + BiLaurent.term(state.V[N - 1], 0, -1)
    return LaurentMatrix(cells)


def r_matrix(state: TodaState, layer: int = 0) -> LaurentMatrix:
    """The I-factor for one layer: diagonal I-row, unit superdiagonal, y
    added in the lower-left corner (for N = 1 the entry is I_1 + y)."""
    if not 0 <= layer < state.M:
        raise PdTodaError(f"layer {layer} out of range for M={state.M}")
    row = state.I[layer]
    N = state.N
    cells = [[BiLaurent.const(row[i]) if i == j else
              BiLaurent.one() if j == i + 1 else BiLaurent.zero()
              for j in range(N)] for i in range(N)]
    cells[N - 1][0] = cells[N - 1][0] + BiLaurent.y()
    return LaurentMatrix(cells)


def transfer_matrix(state: TodaState) -> LaurentMatrix:
    """X = L R_(M-1) ... R_(1) R_(0), the conserved-spectrum operator.

    Built by column updates on term dicts, starting from L's entries.
    Right-multiplying by the I-factor with row I maps the columns as

        X[:, j] <- I_j X[:, j] + X[:, j-1]   (j >= 1),
        X[:, 0] <- I_0 X[:, 0] + y X[:, N-1]  (0-based),

    which is O(N^2) scalar-times-Laurent updates per factor instead of a
    dense O(N^3) product.  For N = 1 the rules meet on the single entry, as
    L's diagonal 1 and corner V_1/y do.
    """
    N = state.N
    V = state.V
    # cols[j][i] holds the terms of X[i, j]
    cols = [[{} for _ in range(N)] for _ in range(N)]
    for j in range(N):
        cols[j][j][(0, 0)] = ONE
        if j + 1 < N and V[j]:
            cols[j][j + 1][(0, 0)] = V[j]
    if V[N - 1]:
        cols[N - 1][0][(0, -1)] = V[N - 1]
    for layer in range(state.M - 1, -1, -1):
        scalars = [{(0, 0): c} if c else {} for c in state.I[layer]]
        wrapped = [{(i, j + 1): c for (i, j), c in cell.items()} for cell in cols[N - 1]]
        for j in range(N - 1, 0, -1):
            cols[j] = [mul_add(dict(left), cell, scalars[j])
                       for left, cell in zip(cols[j - 1], cols[j])]
        cols[0] = [mul_add(up, cell, scalars[0]) for up, cell in zip(wrapped, cols[0])]
    return LaurentMatrix(
        [[BiLaurent(cols[j][i], _clean=False) for j in range(N)] for i in range(N)]
    )


def char_matrix(X: LaurentMatrix) -> LaurentMatrix:
    """X - xE, with x subtracted on the diagonal (in a copy of each
    diagonal entry's terms, which keep their order)."""
    rows = []
    for i, row in enumerate(X.entries):
        terms = dict(row[i].terms)
        c = terms.get((1, 0), ZERO) - ONE
        if c:
            terms[(1, 0)] = c
        else:
            del terms[(1, 0)]
        rows.append(row[:i] + (BiLaurent(terms, _clean=False),) + row[i + 1:])
    return LaurentMatrix(rows)


def genus(N: int, M: int) -> int:
    """Genus of the spectral curve: ((N-1)(M+1) - gcd(N,M) + 1) / 2."""
    if N < 1 or M < 1:
        raise PdTodaError("N and M must be >= 1")
    num = (N - 1) * (M + 1) - gcd(N, M) + 1
    if num % 2:
        raise PdTodaError(f"genus formula gives non-integer for N={N}, M={M}")
    return num // 2


@dataclass(frozen=True)
class SpectralData:
    """The spectral polynomial and its coefficient layout."""

    N: int
    M: int
    m: int
    N1: int
    M1: int
    g: int
    phi: BiLaurent          # det(X - xE), Laurent in y
    A: tuple                # A_0..A_(M+1), polynomials in x

    @cached_property
    def phi_cleared(self) -> BiLaurent:
        """y * phi, an ordinary polynomial in y (degree M+1), with phi's own
        rational coefficients: the fiber roots and residuals use it."""
        return self.phi.mul_y(1)

    @cached_property
    def phi_integral(self) -> BiLaurent:
        """The least positive integer multiple of y * phi, which the
        eliminations of y use: their results are wanted only up to a
        nonzero constant.  One object per curve, so ``resultant_y`` takes
        its y-coefficients and their samples once per divisor track."""
        return integral_multiple(self.phi_cleared)


def char_poly(X: LaurentMatrix, N: int, M: int) -> SpectralData:
    """Characteristic polynomial det(X - xE) with coefficients extracted
    into the layout A_0 y^M + ... + A_M + A_(M+1)/y."""
    if X.rows != X.cols or X.rows != N:
        raise PdTodaError("transfer matrix must be N x N")
    phi = det(char_matrix(X))
    by_y = phi.y_coefficients()
    if any(j < -1 or j > M for j in by_y):
        raise PdTodaError(f"unexpected y-degrees {sorted(by_y)} in spectral polynomial")
    A = tuple(phi.y_coeff(M - j) for j in range(M + 1)) + (phi.y_coeff(-1),)
    if A[M + 1].degree > 0:
        raise PdTodaError("the 1/y coefficient must be constant in x")
    m = gcd(N, M)
    return SpectralData(N=N, M=M, m=m, N1=N // m, M1=M // m, g=genus(N, M), phi=phi, A=A)


def spectral_data(state: TodaState) -> SpectralData:
    """The curve from the state's own X; never reads the ``_curve`` slot."""
    require_valid(state)
    return char_poly(transfer_matrix(state), state.N, state.M)


def curve_of(state: TodaState, X: LaurentMatrix | None = None) -> SpectralData:
    """The curve of the state's class: its ``_curve`` slot, else ``char_poly``
    of X (the state's X by default, or any operator with its phi), stored there."""
    sd = state._curve
    if sd is None:
        sd = char_poly(transfer_matrix(state) if X is None else X, state.N, state.M)
        object.__setattr__(state, "_curve", sd)
    return sd


# ---------------------------------------------------------------------------
# banded form (M < N): band coefficients, Bloch vectors, one-step transfer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandParams:
    """Coefficients of the banded form of X for M < N.

    ``alpha[k][j]`` is the weight of the k-th band (k = 1..M) in column j
    (1-based), ``beta[j]`` the subdiagonal weight; bands wrap cyclically
    with a factor y (downward) or 1/y (the single upper corner).
    """

    N: int
    M: int
    alpha: tuple  # alpha[k-1][j-1]
    beta: tuple   # beta[j-1]

    def a(self, k: int, j: int):
        """alpha^(k)_j with cyclic column index."""
        return self.alpha[k - 1][(j - 1) % self.N]

    def b(self, j: int):
        return self.beta[(j - 1) % self.N]


def band_params(state: TodaState, X: LaurentMatrix | None = None) -> BandParams:
    """Read the band coefficients off the built X by position and verify
    that X matches the banded template exactly (the template is a check,
    never the constructor)."""
    if X is None:
        X = transfer_matrix(state)
    return band_params_of_matrix(X, state.N, state.M)


def band_params_of_matrix(X: LaurentMatrix, N: int, M: int) -> BandParams:
    """Band coefficients of any matrix in the banded family (M < N)."""
    if not M < N:
        raise PdTodaError("banded form requires M < N")

    def read(offset: int, j: int):
        i = j - offset
        if i >= 1:
            return X.entry(i, j).coeff(0, 0)
        return X.entry(i + N, j).coeff(0, 1)

    alpha = tuple(
        tuple(read(k - 1, j) for j in range(1, N + 1)) for k in range(1, M + 1)
    )
    beta = tuple(
        X.entry(j + 1, j).coeff(0, 0) if j < N else X.entry(1, N).coeff(0, -1)
        for j in range(1, N + 1)
    )
    params = BandParams(N=N, M=M, alpha=alpha, beta=beta)
    template = banded_template(params)
    if template != X:
        raise PdTodaError("transfer matrix does not match the banded template")
    return params


def banded_template(params: BandParams) -> LaurentMatrix:
    """Rebuild X from band coefficients: offsets -1 (beta), 0..M-1 (alpha),
    M (ones), wrapped entries picking up y (down) or 1/y (up)."""
    N, M = params.N, params.M
    cells = [[BiLaurent.zero() for _ in range(N)] for _ in range(N)]
    for offset in range(-1, M + 1):
        for j in range(1, N + 1):
            if offset == -1:
                coeff = params.beta[j - 1]
            elif offset == M:
                coeff = ONE
            else:
                coeff = params.alpha[offset][j - 1]
            i = j - offset
            if i > N:
                i -= N
                w = -1
            elif i < 1:
                i += N
                w = 1
            else:
                w = 0
            cells[i - 1][j - 1] = cells[i - 1][j - 1] + BiLaurent.term(coeff, 0, w)
    return LaurentMatrix(cells)


def bloch_basis(state: TodaState, upto: int, params: BandParams | None = None) -> tuple:
    """The M+1 formal eigenvector windows, extended by the band recurrence

        v_(n+M) = x v_n - beta_(n-1) v_(n-1) - sum_k alpha^(k)_(n+k-1) v_(n+k-1),

    starting at n = 2; unit leading coefficient makes this division-free.
    ``basis[j-1][n-1]`` is component n of the j-th vector as a polynomial
    in the spectral parameter x; the first M+1 components form the identity
    pattern."""
    M = state.M
    if params is None:
        params = band_params(state)
    if upto < M + 1:
        raise PdTodaError("window must cover the first M+1 components")
    x = UniPoly.x()
    vectors = []
    for j in range(1, M + 2):
        comp = [UniPoly.one() if n == j else UniPoly() for n in range(1, M + 2)]
        for n in range(2, upto - M + 1):
            new = x * comp[n - 1] - comp[n - 2] * params.b(n - 1)
            for k in range(1, M + 1):
                new = new - comp[n + k - 2] * params.a(k, n + k - 1)
            comp.append(new)
        vectors.append(tuple(comp))
    return tuple(vectors)


def time_step_matrix(state: TodaState) -> LaurentMatrix:
    """The (M+1)x(M+1) matrix propagating Bloch coefficients one time step:
    diagonal I_1..I_M with a unit superdiagonal, and the last row built
    from the (M+2)-nd components of the Bloch basis vectors."""
    M = state.M
    basis = bloch_basis(state, upto=M + 2)
    cells = [[BiLaurent.zero() for _ in range(M + 1)] for _ in range(M + 1)]
    for i in range(1, M + 1):
        cells[i - 1][i - 1] = BiLaurent.const(state.i(i))
        cells[i - 1][i] = BiLaurent.one()
    for j in range(1, M + 2):
        cells[M][j - 1] = BiLaurent.from_unipoly(basis[j - 1][M + 1])
    cells[M][M] = cells[M][M] + BiLaurent.const(state.i(M + 1))
    return LaurentMatrix(cells)


def spectral_report(sd: SpectralData) -> dict:
    """JSON-ready summary of the spectral polynomial."""
    return {
        "A": [[q_str(c) for c in a.coeffs] for a in sd.A],
        "degrees": [a.degree for a in sd.A],
        "genus": sd.g,
        "m": sd.m,
    }
