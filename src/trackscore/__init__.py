"""Proper scoring rules for unparametrized sequential data.

The package scores track-valued forecasts through truncated path
signatures: a quadratic loss composed with the group structure of the
tensor algebra yields a proper scoring rule, and with it entropies,
divergences and mutual information, all invariant to how the data is
parametrized in time.
"""

__version__ = "0.1.0"

from .baselines import cost_matrix, dtw, dtw_family, soft_dtw
from .optimize import (
    DescentConfig,
    DescentResult,
    QuadraticObjective,
    TaylorReport,
    affine_descent,
    geometric_convexity_report,
    pansu_descent,
    pansu_gradient,
    taylor_check,
)
from .scoring import (
    LEFT,
    RIGHT,
    BayesAct,
    EmpiricalMeasure,
    MIEstimate,
    bayes_act,
    divergence,
    divergence_with_acts,
    entropy,
    expected_signature,
    left_loss,
    linear_divergence,
    loss_L,
    mutual_information,
    point_divergence,
    point_divergences,
    right_loss,
    score,
    score_with_act,
)
from .signature import (
    CsvFormatError,
    PiecewiseLinearPath,
    concat,
    from_time_series,
    insert_midpoint,
    make_path,
    read_paths_csv,
    reverse,
    signature,
    signatures,
    time_augment,
    translate,
    write_paths_csv,
)
from .stochastic import (
    SimConfig,
    SpiralModel,
    WarpedMixModel,
    brownian,
    power_warp,
    power_warps,
)
from .tensor_algebra import (
    DimensionMismatchError,
    NonInvertibleError,
    TruncatedTensor,
    antipode,
    dilate,
    exp_of_vector,
    from_text,
    inner,
    inverse,
    inverse_levels,
    is_grouplike,
    is_unital,
    mul,
    norm,
    to_text,
    unit,
)
