"""Desk-scale replication of the two sensitivity studies.

Study 1 perturbs a single unit of a clean two-group dataset by growing
shifts and tracks selection, detection and the inflation estimate.
Study 2 replaces 10% of units with uniform background noise and scores
classification on the true good points only.  The generating dataset is
regenerated from a seed, so checks are qualitative/structural (selection
outcomes, detection sets, monotone trends), never digit-matching.
"""

import time
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

import numpy as np

from .ecm import FitConfig, Kind
from .metrics import adjusted_rand_index, misclassification_rate
from .selection import sweep
from .simulate import add_uniform_noise, generate, perturb, reference_model

DEFAULT_N = 150
DEFAULT_SHIFTS = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
PERTURBED_UNIT = 6
NOISE_FRACTION = 0.10
NOISE_RANGE = (-8.0, 8.0)
G_VALUES = (1, 2, 3)


@dataclass
class Check:
    """One named study assertion with its observed value.

    mode is "asserted" (must hold) or "recorded" (outcome noted only;
    regenerated data may legitimately differ from the reported one).
    """

    name: str
    mode: str
    passed: Optional[bool]
    observed: str
    tolerance: str


@dataclass
class ReplicationReport:
    study: str
    seed: int
    starts: int
    rows: List[dict]
    checks: List[Check]
    elapsed_seconds: float = 0.0

    @property
    def asserted_ok(self) -> bool:
        return all(c.passed for c in self.checks if c.mode == "asserted")

    def to_dict(self):
        return {"schema_version": 1, **asdict(self)}


def _select(data, seed, starts):
    """Best CMVN and MVN entries over G_VALUES: the CMVN entry and the row
    fields cmvn_g, cmvn_bic, mvn_g, mvn_bic, cmvn_start (the selected CMVN
    fit's winning start) and cmvn_bad_units (the 1-based units it flags)."""
    config = FitConfig(n_starts=starts, seed=seed)
    cm, mv = (sweep(data, [kind], G_VALUES, config).best_entry for kind in (Kind.CMVN, Kind.MVN))
    return cm, {"cmvn_g": cm.g, "cmvn_bic": cm.bic, "mvn_g": mv.g, "mvn_bic": mv.bic,
                "cmvn_start": cm.result.start_index,
                "cmvn_bad_units": [int(i) + 1 for i in np.flatnonzero(cm.result.bad_flags)]}


def run_single_outlier_study(seed: int, starts: int = FitConfig.n_starts,
                             shifts: Tuple[int, ...] = DEFAULT_SHIFTS) -> ReplicationReport:
    """Grow a constant shift on one unit and track detection behaviour.

    For each shift c, both mixture families are fitted over G in {1,2,3};
    rows record the selected G and BIC per family, the perturbed unit's
    good-posterior and bad flag, and the inflation estimate of its
    component under the selected contaminated model.
    """
    t0 = time.monotonic()
    base = generate(reference_model(), DEFAULT_N, seed)
    rows = []
    for c in shifts:
        data = perturb(base, PERTURBED_UNIT, c)
        cm, selected = _select(data, seed, starts)
        fitres = cm.result
        i = PERTURBED_UNIT - 1
        label = int(fitres.hard_labels[i])
        rows.append({
            "c": c,
            **selected,
            "v_perturbed": float(fitres.resp.v[i, label]),
            "perturbed_flagged_bad": bool(fitres.bad_flags[i]),
            "eta_hat": fitres.model.components[label].eta,
        })

    checks = []
    sel_ok = all(row["cmvn_g"] == 2 for row in rows)
    checks.append(Check(
        name="C1_contaminated_selects_two_groups",
        mode="asserted", passed=sel_ok,
        observed=str([row["cmvn_g"] for row in rows]),
        tolerance="G == 2 for every shift",
    ))
    strong = [row for row in rows if row["c"] >= 4]
    det_ok = all(row["perturbed_flagged_bad"] and row["v_perturbed"] < 1e-3 for row in strong)
    checks.append(Check(
        name="C2_perturbed_unit_detected",
        mode="asserted", passed=det_ok,
        observed=str([f'{row["v_perturbed"]:.3e}' for row in strong]),
        tolerance="flagged bad with v < 1e-3 for c >= 4",
    ))
    etas = [row["eta_hat"] for row in strong]
    mono_ok = all(b > a for a, b in zip(etas, etas[1:]))
    checks.append(Check(
        name="C3_inflation_increases_with_shift",
        mode="asserted", passed=mono_ok,
        observed=str([f"{e:.2f}" for e in etas]),
        tolerance="strictly increasing over c >= 4",
    ))
    mvn_gs = [row["mvn_g"] for row in rows]
    checks.append(Check(
        name="C4_plain_mixture_overfits_groups",
        mode="recorded", passed=None,
        observed=f"MVN-selected G per shift: {mvn_gs}",
        tolerance="recorded only",
    ))
    return ReplicationReport(
        study="single-outlier", seed=seed, starts=starts, rows=rows,
        checks=checks, elapsed_seconds=time.monotonic() - t0,
    )


def run_uniform_noise_study(seed: int, starts: int = FitConfig.n_starts) -> ReplicationReport:
    """Replace 10% of units with uniform noise and score the recovery."""
    t0 = time.monotonic()
    base = generate(reference_model(), DEFAULT_N, seed)
    lo, hi = NOISE_RANGE
    data = add_uniform_noise(base, NOISE_FRACTION, lo, hi, seed + 1)
    noise_idx = np.flatnonzero(~data.good_flags)

    cm, selected = _select(data, seed, starts)
    fitres = cm.result
    good_mask = data.good_flags
    ari = adjusted_rand_index(data.true_labels, fitres.hard_labels, mask=good_mask)
    mcr = misclassification_rate(data.true_labels, fitres.hard_labels, mask=good_mask)
    v_at_label = fitres.resp.v[noise_idx, fitres.hard_labels[noise_idx]]
    rows = [{
        **selected,
        "ari_good": ari,
        "mcr_good": mcr,
        "n_noise": int(noise_idx.size),
        "noise_flagged_bad": int(np.count_nonzero(fitres.bad_flags[noise_idx])),
        "noise_v_min": float(v_at_label.min()),
        "noise_v_max": float(v_at_label.max()),
    }]

    selection_ok = cm.g == 2 and ari >= 0.98
    checks = [Check(
        name="C5_selection_and_good_point_recovery",
        mode="asserted", passed=selection_ok,
        observed=f"G={cm.g}, ARI={ari:.4f}, MCR={mcr:.4%}",
        tolerance="G == 2 and ARI >= 0.98 on true good points",
    )]
    all_noise_bad = bool(np.all(fitres.bad_flags[noise_idx]))
    checks.append(Check(
        name="C6_noise_units_flagged_bad",
        mode="asserted",
        # only meaningful when the selection succeeded
        passed=all_noise_bad if selection_ok else None,
        observed=f"{rows[0]['noise_flagged_bad']}/{noise_idx.size} flagged, "
                 f"v in [{rows[0]['noise_v_min']:.3e}, {rows[0]['noise_v_max']:.3e}]",
        tolerance="every noise unit has v < 0.5 (given C5)",
    ))
    checks.append(Check(
        name="C7_plain_mixture_selection",
        mode="recorded", passed=None,
        observed=f"MVN-selected G: {selected['mvn_g']}",
        tolerance="recorded only",
    ))
    return ReplicationReport(
        study="uniform-noise", seed=seed, starts=starts, rows=rows,
        checks=checks, elapsed_seconds=time.monotonic() - t0,
    )
