"""Core ELM model: random input weights, hidden features, closed-form training.

The hidden layer is a fixed random projection followed by ReLU with zero
bias; only the output weights are trained, by solving the ridge normal
equations with streaming Gram accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from intelm.linalg import DimensionError, SpdSystem, accumulate_gram, as_matrix, solve_spd
from intelm.seeding import PRNG_ID, make_rng

WEIGHT_KINDS = ("continuous", "ternary", "pm1", "symmetric")

# One-hot target rows use {0, 1}; recorded in model metadata so reported
# accuracies are tied to a concrete encoding.
TARGET_ENCODING = "onehot-01"


@dataclass
class LabeledTargets:
    """Class labels and their one-hot {0,1} encoding."""

    labels: np.ndarray  # (N,) int
    onehot: np.ndarray  # (N, m) float64
    class_count: int


def one_hot(labels, class_count: int) -> LabeledTargets:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise ValueError(f"labels outside [0, {class_count})")
    onehot = np.zeros((labels.size, class_count))
    onehot[np.arange(labels.size), labels] = 1.0
    return LabeledTargets(labels=labels, onehot=onehot, class_count=class_count)


@dataclass
class FloatModel:
    """Trained model with float output weights.

    Bias is fixed at zero and the activation is ReLU; both are load-bearing
    for the raw-integer classification path, so neither is configurable.
    """

    input_weights: np.ndarray  # (n, L); float64 or int8 ternary codes
    beta: np.ndarray  # (L, m) float64
    gamma: float
    weight_kind: str
    seed: int
    prng_id: str = PRNG_ID
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.weight_kind not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {self.weight_kind!r}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.beta.shape[0] != self.input_weights.shape[1]:
            raise DimensionError(
                f"beta has {self.beta.shape[0]} rows, input weights have "
                f"{self.input_weights.shape[1]} columns"
            )
        if self.weight_kind in ("ternary", "pm1"):
            check_ternary(self.input_weights)
        elif np.issubdtype(self.input_weights.dtype, np.integer):
            raise ValueError(
                f"{self.weight_kind} weights must be floats, got {self.input_weights.dtype}; "
                "pass the weight_kind the weights were generated with"
            )

    @property
    def n(self) -> int:
        return self.input_weights.shape[0]

    @property
    def L(self) -> int:
        return self.input_weights.shape[1]

    @property
    def m(self) -> int:
        return self.beta.shape[1]


def check_ternary(W: np.ndarray) -> None:
    """Require integer codes in {-1, 0, 1}: a min and a max, no sort."""
    if not np.issubdtype(W.dtype, np.integer):
        raise ValueError(f"ternary weights must be integers, got {W.dtype}")
    if W.size and (int(W.min()) < -1 or int(W.max()) > 1):
        raise ValueError("ternary weights must lie in {-1, 0, 1}")


def _check_size(n: int, L: int) -> None:
    if n < 1 or L < 1:
        raise ValueError(f"weight matrix sizes must be >= 1, got n={n}, L={L}")


def gen_weights_continuous(n: int, L: int, seed: int) -> np.ndarray:
    """i.i.d. uniform on the open interval (0, 1)."""
    _check_size(n, L)
    rng = make_rng(seed)
    w = rng.random((n, L))
    # random() covers [0, 1); resample the (measure-zero) exact zeros.
    while True:
        zeros = w == 0.0
        if not zeros.any():
            return w
        w[zeros] = rng.random(int(zeros.sum()))


def gen_weights_ternary(n: int, L: int, seed: int) -> np.ndarray:
    """i.i.d. uniform over {-1, 0, 1}, stored as int8."""
    _check_size(n, L)
    return make_rng(seed).integers(-1, 2, size=(n, L)).astype(np.int8)


def gen_weights_pm1(n: int, L: int, seed: int) -> np.ndarray:
    """i.i.d. uniform over {-1, 1}; comparison option, no accuracy claim."""
    _check_size(n, L)
    return (2 * make_rng(seed).integers(0, 2, size=(n, L)) - 1).astype(np.int8)


def gen_weights_symmetric(n: int, L: int, seed: int) -> np.ndarray:
    """i.i.d. uniform on (-1, 1); comparison option, no accuracy claim."""
    _check_size(n, L)
    return 2.0 * gen_weights_continuous(n, L, seed) - 1.0


GENERATORS = {
    "continuous": gen_weights_continuous,
    "ternary": gen_weights_ternary,
    "pm1": gen_weights_pm1,
    "symmetric": gen_weights_symmetric,
}


def hidden_features(W, X) -> np.ndarray:
    """ReLU-activated hidden layer outputs: H[j, i] = max(0, w_i . x_j)."""
    W = np.asarray(W)
    X = as_matrix(X, "X")
    if X.shape[1] != W.shape[0]:
        raise DimensionError(
            f"X has {X.shape[1]} features, weights expect {W.shape[0]}"
        )
    return np.maximum(X @ W.astype(np.float64, copy=False), 0.0)


def train(
    X_norm,
    targets: LabeledTargets,
    W,
    gamma: float = 1.0,
    *,
    seed: int = 0,
    weight_kind: str = "continuous",
    block_size: int = 4096,
    metadata: dict | None = None,
) -> FloatModel:
    """Closed-form ridge training over streamed row blocks.

    Peak memory stays at O(L^2 + block_size * L): blocks of hidden features
    are folded into the normal-equation accumulator and discarded.
    """
    X = as_matrix(X_norm, "X_norm")
    W = np.asarray(W)
    if X.shape[0] != targets.labels.shape[0]:
        raise DimensionError(
            f"{X.shape[0]} samples but {targets.labels.shape[0]} labels"
        )
    L = W.shape[1]
    acc = SpdSystem.zeros(L, targets.class_count)
    for start in range(0, X.shape[0], block_size):
        block = hidden_features(W, X[start : start + block_size])
        accumulate_gram(block, acc, targets.onehot[start : start + block_size])
    acc.add_ridge(gamma)
    beta = solve_spd(acc)
    meta = dict(metadata or {})
    meta.setdefault("target_encoding", TARGET_ENCODING)
    return FloatModel(
        input_weights=W,
        beta=beta,
        gamma=gamma,
        weight_kind=weight_kind,
        seed=seed,
        metadata=meta,
    )


def scores_float(model: FloatModel, X) -> np.ndarray:
    """Raw class scores relu(X W) beta, (N, m) for the rows of X."""
    return hidden_features(model.input_weights, X) @ model.beta


def predict_float(model: FloatModel, x) -> int:
    """Predicted class index of one sample; ties break to the lowest index."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionError(f"predict_float takes one sample, got shape {x.shape}")
    return int(np.argmax(scores_float(model, x[None, :])[0]))


def predict_float_batch(model: FloatModel, X) -> np.ndarray:
    return np.argmax(scores_float(model, X), axis=1)


def training_residual(model: FloatModel, X_norm, targets: LabeledTargets) -> float:
    """Max-abs residual of the normal equations, for diagnostics and tests."""
    H = hidden_features(model.input_weights, as_matrix(X_norm, "X_norm"))
    gram = H.T @ H + np.eye(model.L) / model.gamma
    return float(np.abs(gram @ model.beta - H.T @ targets.onehot).max())
