"""Three-way dataset container: N units, each an r x p matrix, and the gates
that every record and reader passes values from outside through: each
refuses a value of the wrong type instead of casting it."""

import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch

_KINDS = {float: "iuf", int: "iu", bool: "b"}  # the np.array element kinds each dtype takes


def as_number(name, val, kind):
    """val as a Python int or float (kind), so numpy scalars serialize; a
    boolean, or a float for an int (2.0 included), is refused, not cast."""
    if isinstance(val, bool) or not isinstance(
            val, numbers.Integral if kind is int else numbers.Real):
        raise TypeError(f"{name} must be of type {kind.__name__}, got {val!r}")
    return kind(val)


def as_array(val, name, dtype, shape=None):
    """A read-only copy of val as a float, int64 or bool array (dtype), of the
    given shape if one is given (None passes through).  Element types dtype
    does not take are refused, not cast: strings ("1.5" would read as 1.5),
    objects (None, ragged lists), complex numbers (the imaginary part would
    be dropped), booleans for numbers (True would read as 1; numpy types
    [1.5, True] as float, so only an all-boolean float array is refused),
    floats for integers (1.5 as 1) and integers int64 cannot hold (2**63 as
    -2**63)."""
    if val is None:
        return None
    arr = np.array(val)
    if arr.dtype.kind not in _KINDS[dtype]:
        raise ValueError(f"{name} must be of type {dtype.__name__}, got {arr.dtype}")
    if shape is not None and arr.shape != shape:
        raise DimensionMismatch(f"{name} must have shape {shape}, got {arr.shape}")
    if dtype is int and arr.dtype.kind == "u" and (arr > np.iinfo(np.int64).max).any():
        raise ValueError(f"{name} must fit int64, got {arr.max()}")
    if dtype is int and not isinstance(val, np.ndarray) and not {bool, np.bool_}.isdisjoint(
            map(type, val)):  # np.array reads [True, 2] as [1, 2]
        raise ValueError(f"{name} must be integers, not booleans")
    arr = arr.astype(dtype, copy=False)
    arr.setflags(write=False)
    return arr


def as_strings(val, name):
    """val as a tuple of plain str; a bare str or a mapping (whose items would
    each be one string) and any item that is not a str are refused, not cast."""
    if isinstance(val, (str, Mapping)):
        raise TypeError(f"{name} must be a sequence of strings, not a {type(val).__name__}")
    items = tuple(val)
    if not all(isinstance(s, str) for s in items):
        raise TypeError(f"{name} must be a sequence of strings")
    return tuple(map(str, items))


@dataclass(frozen=True)
class Dataset:
    """A stack of N matrix observations with optional ground-truth extras.

    samples has shape (N, r, p).  true_labels (cluster indices) and
    good_flags (False for known contamination) are simulation/evaluation
    metadata; unit_names are display labels for reports.
    """

    samples: np.ndarray
    true_labels: Optional[np.ndarray] = None
    good_flags: Optional[np.ndarray] = None
    unit_names: Optional[Sequence[str]] = None

    def __post_init__(self):
        samples = as_array(self.samples, "samples", float)
        if samples.ndim != 3 or 0 in samples.shape:
            raise DimensionMismatch(
                f"samples must have shape (N, r, p) with N, r, p >= 1, got {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples contain non-finite entries")
        object.__setattr__(self, "samples", samples)
        n = samples.shape[0]
        for name, dtype in (("true_labels", int), ("good_flags", bool)):
            object.__setattr__(self, name, as_array(getattr(self, name), name, dtype, (n,)))
        if self.unit_names is not None:
            names = as_strings(self.unit_names, "unit_names")
            if len(names) != n:
                raise DimensionMismatch(f"unit_names must have length {n}, got {len(names)}")
            object.__setattr__(self, "unit_names", names)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def r(self) -> int:
        return self.samples.shape[1]

    @property
    def p(self) -> int:
        return self.samples.shape[2]
