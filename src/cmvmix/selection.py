"""BIC model selection and sweeps over component counts and model kinds."""

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .data import Dataset, as_number
from .ecm import FitConfig, FitResult, Kind, fit
from .errors import AllStartsFailed, CmvmixError


def count_free_params(kind: Kind, g: int, r: int, p: int) -> int:
    """Number of free parameters of a G-component mixture on r x p matrices.

    The row scale loses one degree of freedom to the sigma[0,0] = 1
    identifiability constraint; the contaminated family adds alpha and eta
    per component.
    """
    g, r, p = (as_number(k, x, int) for k, x in (("g", g), ("r", r), ("p", p)))
    if g < 1 or r < 1 or p < 1:
        raise ValueError("g, r, p must be positive")
    per_comp = r * p + (r * (r + 1) // 2 - 1) + p * (p + 1) // 2
    m = (g - 1) + g * per_comp
    if Kind(kind) is Kind.CMVN:
        m += 2 * g
    return m


def bic(loglik: float, m: int, n: int) -> float:
    """2*loglik - m*log(n); larger is better."""
    loglik, m, n = (as_number(k, x, t) for k, x, t in
                    (("loglik", loglik, float), ("m", m, int), ("n", n, int)))
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2.0 * loglik - m * float(np.log(n))


def bic_of(result: FitResult, data: Dataset) -> float:
    """BIC of a finished fit on its dataset."""
    m = count_free_params(result.model.kind, result.model.g, data.r, data.p)
    return bic(result.loglik, m, data.n)


@dataclass(frozen=True)
class SweepEntry:
    kind: Kind
    g: int
    bic: Optional[float]
    result: Optional[FitResult]
    error: Optional[str] = None


@dataclass(frozen=True)
class SweepResult:
    """All fitted (kind, G) cells plus the index of the winning entry.

    Ties in BIC go to the smaller G, then to MVN before CMVN.
    """

    entries: Tuple[SweepEntry, ...]
    best: int

    @property
    def best_entry(self) -> SweepEntry:
        return self.entries[self.best]


_KIND_ORDER = {Kind.MVN: 0, Kind.CMVN: 1}


def sweep(data: Dataset, kinds: Sequence[Kind], g_range: Sequence[int],
          config: FitConfig) -> SweepResult:
    """Fit every (kind, G) cell and pick the maximal-BIC entry.

    A failing cell (all starts degenerate) is recorded with its error and
    does not abort the sweep.  Cells run one after another, kinds outer
    and G inner.
    """
    kinds = [Kind(k) for k in kinds]
    configs = [replace(config, g=g) for g in g_range]  # each g checked, and kept as an int
    if not configs or not kinds:
        raise ValueError("kinds and g_range must be non-empty")
    entries = []
    for kind in kinds:
        for cfg in configs:
            try:
                res = fit(data, cfg, kind)
                entries.append(SweepEntry(kind=kind, g=cfg.g, bic=bic_of(res, data), result=res))
            except CmvmixError as exc:
                entries.append(SweepEntry(kind=kind, g=cfg.g, bic=None, result=None, error=str(exc)))

    ok = [(i, e) for i, e in enumerate(entries) if e.bic is not None]
    if not ok:
        raise AllStartsFailed("every sweep cell failed")
    best = min(ok, key=lambda ie: (-ie[1].bic, ie[1].g, _KIND_ORDER[ie[1].kind]))[0]
    return SweepResult(entries=tuple(entries), best=best)
