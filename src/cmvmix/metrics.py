"""Classification agreement metrics and the outlier report.

ARI is computed exactly (integer pair counts, one rational division at the
end); MCR finds the best one-to-one label matching exactly, by a dynamic
program over the subsets of the larger labelling's clusters (at most
10 * 2^10 steps at the bound of 10 clusters per labelling enforced here).
"""

from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .data import as_array
from .ecm import FitResult, Kind
from .errors import KindMismatch, LengthMismatch


def _apply_mask(a, b, mask):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise LengthMismatch(f"label vectors differ: {a.shape} vs {b.shape}")
    if mask is not None:
        mask = as_array(mask, "mask", bool)
        if mask.shape != a.shape:
            raise LengthMismatch(f"mask length {mask.shape} vs labels {a.shape}")
        a, b = a[mask], b[mask]
    return a, b


def _contingency(a, b):
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    table = np.zeros((len(ua), len(ub)), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)
    return table


def _comb2(x: int) -> int:
    return x * (x - 1) // 2


def adjusted_rand_index_exact(a, b, mask=None) -> Fraction:
    """Hubert-Arabie ARI as an exact rational number.

    Equals 1 iff the partitions are identical up to relabeling.  The
    degenerate case where both partitions are single trivial clusters (zero
    denominator) returns 1: two identical trivial partitions agree
    perfectly.
    """
    a, b = _apply_mask(a, b, mask)
    n = len(a)
    if n < 2:
        raise LengthMismatch("need at least 2 scored observations")
    table = _contingency(a, b)
    sum_ij = sum(_comb2(int(x)) for x in table.flat)
    sum_a = sum(_comb2(int(x)) for x in table.sum(axis=1))
    sum_b = sum(_comb2(int(x)) for x in table.sum(axis=0))
    total = _comb2(n)
    expected = Fraction(sum_a * sum_b, total)
    max_index = Fraction(sum_a + sum_b, 2)
    if max_index == expected:
        return Fraction(1)
    return (sum_ij - expected) / (max_index - expected)


def adjusted_rand_index(a, b, mask=None) -> float:
    """Chance-corrected pair-counting agreement between two partitions."""
    return float(adjusted_rand_index_exact(a, b, mask=mask))


_MAX_MCR_CLUSTERS = 10


def _max_matching(rows):
    """Largest total of a one-to-one matching of the rows of a non-negative
    integer table (a list of k1 rows of k2 >= k1 entries) into its columns.

    Row by row, keeps the best total for each set of columns the rows so far
    use, a bitmask: every (set, column) pair is tried once, so the work is
    at most k2 * 2^k2 steps and the result is the exact optimum.
    """
    best = {0: 0}
    for row in rows:
        nxt = {}
        for used, total in best.items():
            for j, count in enumerate(row):
                if not used >> j & 1:
                    key = used | 1 << j
                    if nxt.get(key, -1) < total + count:
                        nxt[key] = total + count
        best = nxt
    return max(best.values())


def misclassification_rate(truth, pred, mask=None) -> float:
    """Fraction misclassified under the best one-to-one matching of labels.

    The matching of the smaller labelling's clusters into the larger's is
    exact (units of an unmatched cluster are misclassified); raises
    ValueError when either labelling has more than 10 clusters.
    """
    truth, pred = _apply_mask(truth, pred, mask)
    n = len(truth)
    if n == 0:
        raise LengthMismatch("no scored observations")
    table = _contingency(truth, pred)
    if max(table.shape) > _MAX_MCR_CLUSTERS:
        raise ValueError(f"more than {_MAX_MCR_CLUSTERS} clusters in a labelling "
                         f"(truth {table.shape[0]}, predicted {table.shape[1]})")
    rows = (table if table.shape[0] <= table.shape[1] else table.T).tolist()
    return float(n - _max_matching(rows)) / n


def outlier_report(result: FitResult, names: Optional[Sequence[str]] = None) -> dict:
    """Per-cluster contamination summary of a CMVN fit.

    For each cluster: alpha-hat, eta-hat, and the observations flagged bad
    (assigned there with good-posterior <= 0.5), sorted by ascending
    good-posterior.
    """
    if result.model.kind is not Kind.CMVN:
        raise KindMismatch("outlier report requires a CMVN fit")
    n = result.hard_labels.shape[0]
    if names is None:
        names = [str(i + 1) for i in range(n)]
    elif len(names) != n:
        raise LengthMismatch(f"names length {len(names)} vs N={n}")
    clusters = []
    for j, comp in enumerate(result.model.components):
        idx = np.flatnonzero((result.hard_labels == j) & result.bad_flags)
        vj = result.resp.v[idx, j]
        order = np.argsort(vj)
        clusters.append({
            "cluster": j + 1,
            "alpha": comp.alpha,
            "eta": comp.eta,
            "bad_points": [
                {"unit": int(idx[k]) + 1, "name": names[idx[k]], "v": float(vj[k])}
                for k in order
            ],
        })
    return {"schema_version": 1, "clusters": clusters}
