"""Differentially private linear classification by boosting random
classifiers, with a public/private feature split, baselines, and a
reproducibility harness.
"""

from .baselines import (
    LogRegHyper,
    fit_dp_logreg,
    fit_logreg_weighted,
    fit_pate,
    fit_pate_teachers,
)
from .boosting import (
    Draws,
    PublicChain,
    RoundRecord,
    brc_fit,
    clipped_update,
    draw_private_classifiers,
    noisy_private_error,
    sensitivity_oracle,
    weighted_error,
)
from .data import (
    ColumnSpec,
    DataError,
    Dataset,
    FeatureSplit,
    LabelSpec,
    RawTable,
    Schema,
    balance_indices,
    encode,
    load_csv,
    normalize,
    split_indices,
)
from .harness import (
    ExperimentConfig,
    ResultRecord,
    SummaryRow,
    aggregate,
    emit_csv,
    emit_svg,
    run_experiment,
)
from .model import Ensemble, EnsembleMember, LinearClassifier, accuracy, score_matrix, sign_labels
from .noise import (
    Budget,
    Purpose,
    cell_budget,
    laplace,
    make_rng,
    random_linear_classifier,
    rng_for,
)
from .toy import ToyConfig, ToyReport, flip_and_fit_threshold, generate_toy, run_toy_sweep, threshold_classifier

__version__ = "0.1.0"
