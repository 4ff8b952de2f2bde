"""Three-way dataset container: N units, each an r x p matrix."""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch


def as_vector(val, name, dtype, n):
    """A read-only copy of val as a length-n int or bool vector (None passes through);
    other element types are refused, not cast (1.5 would read as 1, 2 as True)."""
    if val is None:
        return None
    val = np.array(val)
    if val.dtype.kind not in {int: "iu", bool: "b"}[dtype]:
        raise ValueError(f"{name} must be of type {dtype.__name__}, got {val.dtype}")
    if val.shape != (n,):
        raise DimensionMismatch(f"{name} must have length {n}, got {val.shape}")
    val = val.astype(dtype, copy=False)
    val.setflags(write=False)
    return val


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
