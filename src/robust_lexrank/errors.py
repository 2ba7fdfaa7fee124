"""Exception types shared across the package, and the numeric rule that raises them.

Each class carries the process exit code the CLI uses for that error
family, so failures are distinguishable from shell scripts. The rule at the
end reads every public numeric input; each caller names its error class.
"""

import math
import numbers

import numpy as np


class RobustLexRankError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ParseError(RobustLexRankError, ValueError):
    """Malformed input data (bad line, duplicate id, empty corpus)."""

    exit_code = 4


class ParameterError(RobustLexRankError, ValueError):
    """Argument outside its documented domain (threshold, budgets, sizes)."""

    exit_code = 5


class ModelError(RobustLexRankError, ValueError):
    """Ill-formed linear program (dimension mismatch, bad relation, non-finite rhs)."""

    exit_code = 5


class SetDefinitionError(RobustLexRankError, ValueError):
    """Uncertainty-set budgets that admit no feasible perturbation."""

    exit_code = 5


class DegenerateBudgetError(RobustLexRankError, ValueError):
    """Total budget of zero where the scaled decomposition norm is undefined."""

    exit_code = 5


class ConstructionError(RobustLexRankError, ValueError):
    """Matrix that cannot be normalized (zero row) or violates stochasticity."""

    exit_code = 5


class ConvergenceError(RobustLexRankError, RuntimeError):
    """Iteration budget exhausted; carries the last residual seen."""

    exit_code = 6

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NormalizationError(RobustLexRankError, ValueError):
    """Rank vector with no positive entry cannot be max-normalized."""

    exit_code = 6


class NumericError(RobustLexRankError, RuntimeError):
    """Numerical identity or tolerance check failed; carries the gap."""

    exit_code = 6

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class SolverError(RobustLexRankError, RuntimeError):
    """Linear program ended in an unexpected status."""

    exit_code = 7


class SetupError(RobustLexRankError, RuntimeError):
    """Required packaged fixture is missing or unreadable."""

    exit_code = 8


_NESTED = (list, tuple, np.ndarray)

# past this many entries ``real_array`` tests finiteness by the extremes;
# below it one entrywise test is faster and its bool array is small
FINITE_BY_EXTREMES_ENTRIES = 1 << 16


def _is_real_type(kind):
    """Python's and numpy's ints and floats, and other real numbers; not bools."""
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def real_number(value):
    """Whether ``value`` is one real number, not an array or a sequence of them."""
    return _is_real_type(type(value))


def real_entries(values):
    """Whether ``values``, a number or a possibly nested sequence, holds only real numbers."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind != "O":
            return values.dtype.kind in "iuf"  # one dtype test
        values = values.flat
    elif not isinstance(values, _NESTED):
        return real_number(values)
    values = list(values)
    types = set(map(type, values))
    scalars = types.difference(_NESTED)
    if not all(map(_is_real_type, scalars)):
        return False
    return scalars == types or all(map(real_entries, [v for v in values if type(v) in _NESTED]))


def real_array(values, what, error, shape=None, finite=True):
    """``values`` as a float array, else ``error`` naming ``what`` (a plural noun):
    real numbers that form an array, of ``shape`` if one is given, all finite
    unless ``finite`` is false (for callers whose range test rejects them)."""
    if not real_entries(values):
        raise error(f"{what} must be real numbers")
    try:
        array = np.asarray(values, dtype=float)
    except ValueError:
        raise error(f"{what} must not be ragged") from None
    if shape is not None and array.shape != shape:
        raise error(f"{what} have shape {array.shape} where {shape} is needed")
    if not finite:
        return array
    if array.size > FINITE_BY_EXTREMES_ENTRIES:
        # NaN and infinities reach the extremes, so two reductions need no
        # entrywise temporary
        finite = math.isfinite(array.min()) and math.isfinite(array.max())
    else:
        finite = np.isfinite(array).all()
    if not finite:
        raise error(f"{what} must be finite")
    return array


def as_count(value, what):
    """``value`` as an ``int``; ``ParameterError`` unless it is an integer (not a bool)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ParameterError(f"{what} must be an integer, not {value!r}")
    return int(value)
