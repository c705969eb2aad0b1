"""Exception hierarchy shared by all pdtoda modules."""


class PdTodaError(Exception):
    """Base class for all library-specific errors."""


class DimensionError(PdTodaError):
    """Matrix operation applied to incompatible or non-square dimensions."""


class StateValidationError(PdTodaError):
    """A lattice state violates positivity or a product inequality."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


class DegenerateEvolutionError(PdTodaError):
    """The cyclic solve for the next time step failed: the periodic
    closure sigma_N = sigma_0 of ``evolve`` does not hold exactly (the
    conserved products the step used disagree with the entries)."""


class NonGenericDataError(PdTodaError):
    """A degree or gcd assertion failed: the data is non-generic (or the
    spectral curve is singular).  Callers normally redraw the state."""


class SingularCurveError(PdTodaError):
    """The spectral curve has coincident branch points."""


class NumericFailureError(PdTodaError):
    """A floating-point routine did not reach its accuracy contract."""
