"""Exception hierarchy shared across the toolkit, and its number rules."""

import reprlib
import sys
from itertools import chain

import numpy as np


class DelaySyncError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(DelaySyncError, ValueError):
    """Matrix or vector shapes are inconsistent with the operation."""


class NumericError(DelaySyncError, RuntimeError):
    """A numeric routine failed (non-finite data, iteration breakdown)."""


class ConvergenceError(NumericError):
    """An iterative solver ran out of iterations.

    Carries the last residual so callers can report how close it got.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class AssumptionError(DelaySyncError, ValueError):
    """The model violates a structural assumption (stabilizability,
    detectability, or spectrum outside the closed unit disc)."""


class DegenerateInputError(AssumptionError):
    """The input channel carries no gain (B'PB has zero largest eigenvalue)."""


class DesignError(DelaySyncError, RuntimeError):
    """A protocol design stage failed; the message carries the stage tag."""

    def __init__(self, stage, message):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class ScenarioError(DelaySyncError, ValueError):
    """A scenario config is invalid. Collects every violation, not just the first."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class GridSizeError(DelaySyncError, ValueError):
    """A sweep would exceed the evaluation budget."""


def is_real_type(kind):
    """True iff `kind` is a Python or numpy int or float type, not bool."""
    return (issubclass(kind, (int, float, np.integer, np.floating))
            and not issubclass(kind, bool))


def _entry_types(values, depth):
    """The types of the entries of the nested sequences `values`, `depth`
    levels deep, read row by row (no array of objects is built)."""
    if depth == 0:
        return {type(values)}
    rows = [values]
    for _ in range(depth - 1):
        rows = chain.from_iterable(rows)
    kinds = set()
    for row in rows:
        kinds.update(map(type, row))
    return kinds


def real_array(values, name, dtype=float):
    """`values` as an array of `dtype` (None keeps integer input integer).
    Each entry must be of `is_real_type` (else ScenarioError names the first
    that is not) and rows of one length (else DimensionError); int and float
    ndarrays pass as they are.  Other input is read by numpy first, and
    taken when it reads as numbers whose entries are all of real types;
    anything else is scanned once as objects to name the first bad entry."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return np.asarray(values, dtype=dtype)
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):  # ragged, or no array at all
        arr = None
    if (arr is not None and arr.dtype.kind in "iuf"
            and all(map(is_real_type, _entry_types(values, arr.ndim)))):
        # flags read as numbers by numpy are refused by their types
        if dtype is None and arr.dtype.kind in "iu":
            return arr
        return arr.astype(float, copy=False)
    try:
        items = np.asarray(values, dtype=object)
        kinds = set(map(type, items.flat))
    except ValueError:  # a nesting numpy cannot hold even as objects
        kinds = {list}
    if any(issubclass(k, (list, tuple, np.ndarray)) for k in kinds):
        raise DimensionError(f"{name} has rows of unequal length")
    if not all(map(is_real_type, kinds)):
        first = describe_entry(items, lambda v: not is_real_type(type(v)))
        raise ScenarioError(f"non-numeric or boolean {name}: {first}")
    if dtype is None and (whole := np.asarray(values)).dtype.kind in "iu":
        return whole
    try:
        return items.astype(float)
    except OverflowError:  # an integer too large for a float
        first = describe_entry(items, lambda v: abs(v) > sys.float_info.max)
        raise ScenarioError(f"{name} has an entry beyond the float range: "
                            f"{first}") from None


def whole_array(values, name):
    """`values` as ints.  Each entry must be a real number (`real_array`),
    and a whole one within the int64 range and non-negative (every whole
    number in the package is a delay, a delay bound or a step count): a
    value is never truncated, but whole floats such as 2.0 are accepted."""
    arr = real_array(values, name, dtype=None)
    if arr.dtype.kind not in "iu" and not np.all(
            np.isfinite(arr) & (arr == np.round(arr))):
        raise ScenarioError(f"non-integer {name}: " + describe_entry(
            arr, lambda v: not (np.isfinite(v) and v == np.round(v))))
    with np.errstate(invalid="ignore"):  # a float beyond int64 casts wrong
        whole = arr.astype(int)
    beyond = whole != arr
    if np.any(beyond):
        raise ScenarioError(f"{name} beyond the integer range: "
                            f"{arr[beyond].tolist()}")
    if np.any(whole < 0):
        raise ScenarioError(f"negative {name}: "
                            + describe_entry(whole, lambda v: v < 0))
    return whole


def scalar(value, name, rule=real_array):
    """`value` read by `rule` (`real_array` or `whole_array`) as a Python
    float or int; DimensionError unless it is a single number."""
    arr = rule(value, name)
    if arr.ndim != 0:
        raise DimensionError(f"{name} must be a single number, got shape "
                             f"{arr.shape}")
    return arr.item()


def describe_entry(items, bad):
    """'entry (i, j) is v' for the first entry v of the array `items` with
    bad(v): the index is a number in a vector and absent in a scalar, and
    a long value is shortened."""
    at = next(i for i, v in enumerate(items.flat) if bad(v))
    index = tuple(map(int, np.unravel_index(at, items.shape)))
    value = reprlib.repr(items.ravel()[at:at + 1].tolist()[0])
    where = index[0] if len(index) == 1 else index
    return f"entry {where} is {value}" if index else value
