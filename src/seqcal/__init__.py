"""Calibration toolkit for finite-vocabulary autoregressive sequence models.

Measures long-run generation miscalibration (entropy-rate drift),
corrects it with one-parameter exponential tilts (global and one-step
lookahead), and upper-bounds a model's long-term memory via calibrated
limited-memory comparisons -- with every claim checkable against exact
enumeration on small instances.
"""

from .models import (
    ConditionalModel,
    DriftModel,
    LimitedMemoryModel,
    MarkovModel,
    MixtureModel,
    PerTokenMixture,
    SequenceSpec,
    load_model,
    make_spec,
    model_from_dict,
    model_hash,
    model_to_dict,
    row_entropies,
    save_model,
    stationary_distribution,
)
from .exact import (
    BudgetExceededError,
    EnumerationBudget,
    FunctionalF,
    cross_entropy_exact,
    entropy_exact,
    entropy_rate_exact,
    kl_exact,
    log_partition_exact,
    mean_var_exact,
)
from .estimate import (
    DriftCurve,
    EntRateGap,
    McEstimate,
    cross_entropy_mc,
    drift_curve,
    drift_curve_exact,
    ent_rate_gap,
)
from .calibrate import (
    AmplificationBound,
    CalibrationDivergenceError,
    CalibrationResult,
    GlobalTiltModel,
    LocalTiltModel,
    amplification_bound,
    calibrate_entropy_rate,
    fit_alpha_global,
    fit_alpha_local,
)
from .memory import (
    MemoryEstimate,
    MemoryTiltModel,
    fit_limited_memory,
    memory_bound,
    memory_bounds,
    memory_table_csv,
)
from .rng import named_stream

__version__ = "0.1.0"

__all__ = [
    "AmplificationBound",
    "BudgetExceededError",
    "CalibrationDivergenceError",
    "CalibrationResult",
    "ConditionalModel",
    "DriftCurve",
    "DriftModel",
    "EntRateGap",
    "EnumerationBudget",
    "FunctionalF",
    "GlobalTiltModel",
    "LimitedMemoryModel",
    "LocalTiltModel",
    "MarkovModel",
    "McEstimate",
    "MemoryEstimate",
    "MemoryTiltModel",
    "MixtureModel",
    "PerTokenMixture",
    "SequenceSpec",
    "amplification_bound",
    "calibrate_entropy_rate",
    "cross_entropy_exact",
    "cross_entropy_mc",
    "drift_curve",
    "drift_curve_exact",
    "ent_rate_gap",
    "entropy_exact",
    "entropy_rate_exact",
    "fit_alpha_global",
    "fit_alpha_local",
    "fit_limited_memory",
    "kl_exact",
    "load_model",
    "log_partition_exact",
    "make_spec",
    "mean_var_exact",
    "memory_bound",
    "memory_bounds",
    "memory_table_csv",
    "model_from_dict",
    "model_hash",
    "model_to_dict",
    "named_stream",
    "row_entropies",
    "save_model",
    "stationary_distribution",
]
