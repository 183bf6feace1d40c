"""Integer-only test-time classification for extreme learning machines.

Closed-form ridge-regularized training over random hidden projections,
ternary {-1, 0, 1} input weights, exact integer classification of raw
signals, and a bit-precision reduction ladder for the output weights.
"""

from intelm.elm import (
    FloatModel,
    gen_weights_continuous,
    gen_weights_ternary,
    hidden_features,
    one_hot,
    predict_float,
    predict_float_batch,
    train,
)
from intelm.intinfer import QuantizedModel, classify_int, classify_int_batch, relu_int, ternary_project
from intelm.quantize import (
    IntegerBeta,
    bit_width,
    precision_ladder,
    quantize_beta,
)

__all__ = [
    "FloatModel",
    "IntegerBeta",
    "QuantizedModel",
    "bit_width",
    "classify_int",
    "classify_int_batch",
    "gen_weights_continuous",
    "gen_weights_ternary",
    "hidden_features",
    "one_hot",
    "precision_ladder",
    "predict_float",
    "predict_float_batch",
    "quantize_beta",
    "relu_int",
    "ternary_project",
    "train",
]

__version__ = "0.1.0"
