"""Learning-augmented online list labeling.

Sorted sparse arrays (packed-memory arrays, classic and adaptive) wrapped by
a rank-prediction-aware allocator, plus the rank predictors and benchmark
harness used to evaluate them on real and synthetic insertion streams.
"""

from .core import (
    SCALE,
    MIN_RAW,
    CapacityError,
    Key,
    MovementLedger,
    ParseError,
    UndefinedCostError,
    fixed_point_parse,
)
from .pma import Pma
from .apma import Apma
from .learned import LearnedLLA, witness_error_check
from .predictors import (
    PredictionVector,
    SequenceSlice,
    corrupt,
    predictor1,
    predictor2,
    select_predictor,
)
from .harness import (
    STRUCTURES,
    ConfigError,
    DataError,
    DatasetSpec,
    ExperimentResult,
    emit_csv,
    load_dataset,
    run_learning_curve,
    run_robustness,
    run_scaling,
    run_synthetic,
    run_table,
)

__all__ = [
    "SCALE",
    "MIN_RAW",
    "CapacityError",
    "Key",
    "MovementLedger",
    "ParseError",
    "UndefinedCostError",
    "fixed_point_parse",
    "Pma",
    "Apma",
    "LearnedLLA",
    "witness_error_check",
    "PredictionVector",
    "SequenceSlice",
    "corrupt",
    "predictor1",
    "predictor2",
    "select_predictor",
    "STRUCTURES",
    "ConfigError",
    "DataError",
    "DatasetSpec",
    "ExperimentResult",
    "emit_csv",
    "load_dataset",
    "run_learning_curve",
    "run_robustness",
    "run_scaling",
    "run_synthetic",
    "run_table",
]
