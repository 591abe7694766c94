"""Exception types shared across the package."""


class SpinsurfError(Exception):
    """Base class for all package errors; exit_code is the CLI exit status."""

    exit_code = 2       # configuration; 3 is numeric failure, 4 bad input file


class GridMismatch(SpinsurfError):
    """Two fields that must share a grid do not."""


class GridTooSmall(SpinsurfError):
    """The requested stencil does not fit on the grid."""


class NearZeroNorm(SpinsurfError):
    """Normalization requested at a node with vanishing vector norm."""

    exit_code = 3

    def __init__(self, i, j, norm):
        self.i, self.j, self.norm = i, j, norm
        super().__init__(f"near-zero norm {norm:.3e} at node ({i}, {j})")


class DegenerateTangent(SpinsurfError):
    """|r_x x r_y| below tolerance; the surface normal is undefined there."""

    exit_code = 3

    def __init__(self, i, j):
        self.i, self.j = i, j
        super().__init__(f"degenerate tangent plane at node ({i}, {j})")


class NonZeroMeanSource(SpinsurfError):
    """Periodic Poisson source violates the zero-mean solvability condition."""

    exit_code = 3


class NonConvergence(SpinsurfError):
    """Iterative solve failed to reach tolerance."""

    exit_code = 3

    def __init__(self, iterations, residual):
        self.iterations, self.residual = iterations, residual
        super().__init__(f"no convergence after {iterations} iterations "
                         f"(residual {residual:.3e})")


class Blowup(SpinsurfError):
    """Time integration produced a non-finite value."""

    exit_code = 3

    def __init__(self, step):
        self.step = step
        super().__init__(f"non-finite value at step {step}")


class NonFiniteResult(SpinsurfError):
    """A computed result that is to be reported is NaN or infinite."""

    exit_code = 3


class UnknownModel(SpinsurfError):
    """Name not present in the model registry."""


class UnimplementedModel(SpinsurfError):
    """Catalog entry exists but is deliberately not implemented."""


class PhononAbsent(SpinsurfError):
    """Phonon right-hand side requested for a model without a phonon equation."""


class FormatError(SpinsurfError):
    """Malformed input file."""

    exit_code = 4

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class NonFiniteValue(SpinsurfError):
    """NaN or infinity where a finite value is required."""

    exit_code = 4


class ConfigError(SpinsurfError):
    """Bad run configuration (unknown key, wrong type, missing value)."""
