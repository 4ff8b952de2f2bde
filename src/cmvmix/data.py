"""Three-way dataset container: N units, each an r x p matrix."""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch


def as_vector(val, name, dtype, n):
    """A read-only copy of val as a length-n int64 or bool vector (None passes through);
    other element types, and integers int64 cannot hold, are refused, not cast
    (1.5 would read as 1, 2 as True, True as 1 and 2**63 as -2**63)."""
    if val is None:
        return None
    arr = np.array(val)
    if arr.dtype.kind not in {int: "iu", bool: "b"}[dtype]:
        raise ValueError(f"{name} must be of type {dtype.__name__}, got {arr.dtype}")
    if arr.shape != (n,):
        raise DimensionMismatch(f"{name} must have length {n}, got {arr.shape}")
    if arr.dtype.kind == "u" and (arr > np.iinfo(np.int64).max).any():
        raise ValueError(f"{name} must fit int64, got {arr.max()}")
    if dtype is int and not isinstance(val, np.ndarray) and not {bool, np.bool_}.isdisjoint(
            map(type, val)):  # np.array reads [True, 2] as [1, 2]
        raise ValueError(f"{name} must be integers, not booleans")
    arr = arr.astype(dtype, copy=False)
    arr.setflags(write=False)
    return arr


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
        samples = np.array(self.samples, dtype=float)
        if samples.ndim != 3 or 0 in samples.shape:
            raise DimensionMismatch(
                f"samples must have shape (N, r, p) with N, r, p >= 1, got {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples contain non-finite entries")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        n = samples.shape[0]
        for name, dtype in (("true_labels", int), ("good_flags", bool)):
            object.__setattr__(self, name, as_vector(getattr(self, name), name, dtype, n))
        if self.unit_names is not None:
            if isinstance(self.unit_names, str):  # whose items would each be one name
                raise TypeError("unit_names must be a sequence of names, not a str")
            names = tuple(str(s) for s in self.unit_names)
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
