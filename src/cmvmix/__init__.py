"""cmvmix: robust model-based clustering of three-way (matrix-variate) data.

Mixtures of matrix-variate normal and contaminated matrix-variate normal
distributions, fitted by a multi-start ECM algorithm, with automatic
per-matrix outlier detection, BIC model selection, and replication
harnesses for the sensitivity studies.
"""

from .data import Dataset
from .dataio import read_dataset, read_fit, write_dataset, write_fit
from .distributions import (
    CmvnParams,
    MvnParams,
    cmvn_log_density,
    h_weight,
    mvn_log_density,
    posterior_good_prob,
    sample_cmvn,
    sample_mvn,
    w_weight,
)
from .ecm import (
    FitConfig,
    FitResult,
    Kind,
    MixtureModel,
    Responsibilities,
    e_step,
    fit,
    observed_loglik,
)
from .errors import (
    AllStartsFailed,
    CmvmixError,
    DegenerateCluster,
    DimensionMismatch,
    KindMismatch,
    LengthMismatch,
    NotPositiveDefinite,
    ParseError,
    SchemaError,
    ShapeError,
)
from .metrics import adjusted_rand_index, misclassification_rate, outlier_report
from .selection import SweepResult, bic, bic_of, count_free_params, sweep
from .simulate import add_uniform_noise, generate, perturb, reference_model
from .studies import ReplicationReport, run_single_outlier_study, run_uniform_noise_study

__version__ = "0.1.0"
