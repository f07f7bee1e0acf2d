"""Exception types, and the one rule for each kind of input: counts, real
numbers, screen windows and arrays of real numbers."""

import math
import numbers

import numpy as np


class DomainError(ValueError):
    """An input violates a documented precondition or invariant."""


class DegenerateDistributionError(DomainError):
    """A probability density integrates to zero (or is not finite) on the
    requested window, so no distribution can be built from it."""


def _checked_count(name, value, low=None, high=None):
    """``value`` as an int: an integral number (1e4 passes; 2.5, True and '7'
    do not) with low <= value < high where those bounds are given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    count = int(value)
    if low is not None and count < low:
        raise DomainError(f"{name} must be at least {low}, got {value!r}")
    if high is not None and count >= high:
        raise DomainError(f"{name} must be below {high}, got {value!r}")
    return count


def _checked_real(name, value, low=-math.inf, high=math.inf):
    """``value`` as a float: a finite real number (1 and numpy floats pass;
    True, '0.5' and nan do not) with low <= value <= high."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:
        raise DomainError(f"{name} must be within float range") from None
    if not math.isfinite(real):
        raise DomainError(f"{name} must be finite, got {value!r}")
    if not low <= real <= high:
        raise DomainError(f"{name} must lie in [{low!r}, {high!r}], got {value!r}")
    return real


def _checked_window(window):
    """A screen window as floats (x_min, x_max), both finite, x_min < x_max."""
    x_min, x_max = window
    x_min, x_max = _checked_real("window x_min", x_min), _checked_real("window x_max", x_max)
    if not x_min < x_max:
        raise DomainError(f"window must satisfy x_min < x_max, got {window!r}")
    return x_min, x_max


_DIMENSIONS = {(0, 1): "a scalar or 1-D", (1,): "1-D", (2,): "2-D"}


def _checked_array(name, values, ndim=(1,), window=None):
    """``values`` as a float64 array with a dimension count in ``ndim`` and
    every value finite, and inside ``window``, ends included, where one is
    given.  Integer and float arrays pass, a float64 array uncopied; bool,
    text, object and complex arrays do not.  A non-finite value is named by
    its index in the flattened array."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be real numbers, got {array.dtype} values")
    if array.ndim not in ndim:
        raise DomainError(f"{name} must be {_DIMENSIONS[ndim]}, got shape {array.shape}")
    array = array.astype(float, copy=False)
    if array.size:
        # min and max are nan or infinite if any value is, and allocate nothing
        low, high = array.min(), array.max()
        if not (math.isfinite(low) and math.isfinite(high)):
            index = int(np.flatnonzero(~np.isfinite(array))[0])
            raise DomainError(f"{name} must be finite, got {array.flat[index]} at index {index}")
    if window is not None:
        x_min, x_max = _checked_window(window)
        if array.size and not (x_min <= low and high <= x_max):
            raise DomainError(f"{name} must lie inside the window {window!r}")
    return array
