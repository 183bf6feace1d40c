"""Core ELM model: random input weights, hidden features, closed-form training.

The hidden layer is a fixed random projection followed by ReLU with zero
bias; only the output weights are trained, by solving the ridge normal
equations with streaming Gram accumulation.

ReLU with zero bias commutes with a positive scale, so training on
data.preprocess's integer rows projects them exactly and applies each
row's scale afterwards: the float model's hidden layer, with no rounding
inside the projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from intelm.data import InputError, blank_rows, check_range, check_steps, integer_rows, max_abs, reject_blank_rows
from intelm.linalg import (
    BLAS_MODULE,
    LAPACK_MODULE,
    DimensionError,
    FloatKernel,
    accumulate_gram,
    as_matrix,
    exact_dtype,
    load_extension,
    solve_spd,
)
from intelm.seeding import PRNG_ID, make_rng

# One-hot target rows use {0, 1}; recorded in model metadata so reported
# accuracies are tied to a concrete encoding.
TARGET_ENCODING = "onehot-01"


class ScoreOverflowError(ArithmeticError):
    """A float class score is not finite: the model's weights overflow float64 on the input."""


def one_hot(labels, class_count: int) -> np.ndarray:
    """The (N, class_count) float64 target matrix: row i is 1 at labels[i] and 0 elsewhere."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise ValueError(f"labels outside [0, {class_count})")
    onehot = np.zeros((labels.size, class_count))
    onehot[np.arange(labels.size), labels] = 1.0
    return onehot


@dataclass
class FloatModel:
    """Trained model with float output weights.

    Bias is fixed at zero and the activation is ReLU; both are load-bearing
    for the raw-integer classification path, so neither is configurable.
    metadata["preprocessing"] records the steps training applied; steps is
    that list, checked once here, and the scorer applies its integer row
    transform to raw samples.
    solve_residual is the max-abs normal-equation residual of the solve
    that produced beta (None when the model was not trained in this
    process); it is never written to a model file.
    """

    input_weights: np.ndarray  # (n, L); float64 or int8 ternary codes
    beta: np.ndarray  # (L, m) float64
    gamma: float
    weight_kind: str
    seed: int
    prng_id: str = PRNG_ID
    metadata: dict = field(default_factory=dict)
    solve_residual: float | None = field(default=None, repr=False, compare=False)
    steps: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.weight_kind not in GENERATORS:
            raise ValueError(f"unknown weight kind {self.weight_kind!r}")
        check_range("gamma", self.gamma)
        check_range("seed", self.seed)
        check_shape(self.input_weights, self.beta)
        if not np.all(np.isfinite(self.beta)):
            raise ValueError("beta contains NaN or Inf")
        self.steps = check_steps(self.metadata.get("preprocessing", []))
        if self.weight_kind == "ternary":
            check_ternary(self.input_weights)
        elif np.issubdtype(self.input_weights.dtype, np.integer):
            raise ValueError(
                f"{self.weight_kind} weights must be floats, got {self.input_weights.dtype}; "
                "pass the weight_kind the weights were generated with"
            )
        elif not np.all(np.isfinite(self.input_weights)):
            raise ValueError("input weights contain NaN or Inf")

    @property
    def n(self) -> int:
        return self.input_weights.shape[0]

    @property
    def L(self) -> int:
        return self.input_weights.shape[1]

    @property
    def m(self) -> int:
        return self.beta.shape[1]


def check_shape(W: np.ndarray, beta: np.ndarray) -> None:
    """The model-shape rule: beta has one row per column of W, and n, L and m lie in data.RANGES."""
    (n, L), m = W.shape, beta.shape[1]
    if beta.shape[0] != L:
        raise DimensionError(f"beta has {beta.shape[0]} rows, input weights have {L} columns")
    for param, size in (("n", n), ("L", L), ("m", m)):
        check_range(param, size, DimensionError)


def check_ternary(W: np.ndarray) -> None:
    """Require integer codes in {-1, 0, 1}: a min and a max, no sort."""
    if not np.issubdtype(W.dtype, np.integer):
        raise ValueError(f"ternary weights must be integers, got {W.dtype}")
    if W.size and (int(W.min()) < -1 or int(W.max()) > 1):
        raise ValueError("ternary weights must lie in {-1, 0, 1}")


def gen_weights_continuous(n: int, L: int, seed: int) -> np.ndarray:
    """i.i.d. uniform on the open interval (0, 1)."""
    check_range("n", n)
    check_range("L", L)
    rng = make_rng(seed)
    w = rng.random((n, L))
    # random() covers [0, 1); resample the (measure-zero) exact zeros.
    while True:
        zeros = w == 0.0
        if not zeros.any():
            return w
        w[zeros] = rng.random(int(zeros.sum()))


def gen_weights_ternary(n: int, L: int, seed: int) -> np.ndarray:
    """i.i.d. uniform over {-1, 0, 1}, stored as int8.

    numpy draws int32 and int64 values below 2**32 from one 32-bit stream,
    so the int32 draw gives the weights of the default int64 one, faster.
    """
    check_range("n", n)
    check_range("L", L)
    return make_rng(seed).integers(-1, 2, size=(n, L), dtype=np.int32).astype(np.int8)


GENERATORS = {
    "continuous": gen_weights_continuous,
    "ternary": gen_weights_ternary,
}


def _sample_rows(X, name: str) -> np.ndarray:
    """Integer 2-D samples as given; anything else through as_matrix (float64, finite)."""
    X = np.asarray(X)
    if not np.issubdtype(X.dtype, np.integer):
        return as_matrix(X, name)
    if X.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {X.shape}")
    return X


def hidden_features(W, X, row_scale=None) -> np.ndarray:
    """ReLU-activated hidden layer outputs: H[j, i] = max(0, w_i . x_j) * row_scale[j].

    That is the hidden layer of the scaled rows, so each row's scale must
    be finite and positive (a ValueError otherwise).

    Integer rows through integer weights are projected exactly by
    linalg.FloatKernel, in the dtype linalg.exact_dtype picks from the
    partial-sum bound n * max|x| * max|w|; ReLU acts on the exact integers
    of each block, and the row scale (default 1) is the one rounding per
    element, so H does not depend on BLAS's summation order or thread
    count. Float rows or weights take one float64 GEMM, as do integer rows
    whose bound reaches 2**63: it rounds.
    """
    W = np.asarray(W)
    X = _sample_rows(X, "X")
    if X.shape[1] != W.shape[0]:
        raise DimensionError(
            f"X has {X.shape[1]} features, weights expect {W.shape[0]}"
        )
    scale = np.ones(X.shape[0]) if row_scale is None else np.asarray(row_scale, dtype=np.float64)
    if scale.shape != (X.shape[0],):
        raise DimensionError(f"row_scale has shape {scale.shape}, X has {X.shape[0]} rows")
    if not np.all((scale > 0) & (scale < np.inf)):
        raise ValueError("row_scale must be finite and > 0: ReLU commutes with a positive scale only")
    dtype = None
    if np.issubdtype(X.dtype, np.integer) and np.issubdtype(W.dtype, np.integer):
        dtype = exact_dtype(X.shape[1] * max_abs(X) * max_abs(W))
    if dtype is None:
        H = X.astype(np.float64, copy=False) @ W.astype(np.float64, copy=False)
        np.maximum(H, 0, out=H)
        if row_scale is not None:
            H *= scale[:, None]
        return H
    H = np.empty((X.shape[0], W.shape[1]))  # before the kernel's temporaries, which then free one span
    for rows, P in FloatKernel(W, np.dtype(dtype)).blocks(X):
        np.multiply(np.maximum(P, 0, out=P), scale[rows, None], out=H[rows])
    return H


def train(
    X_norm,
    targets,
    W,
    gamma: float = 1.0,
    *,
    seed: int = 0,
    weight_kind: str = "continuous",
    block_size: int = 4096,
    metadata: dict | None = None,
    row_scale=None,
) -> FloatModel:
    """Closed-form ridge training over streamed row blocks.

    The training samples are the rows of X_norm, each times its entry of
    row_scale when given (data.preprocess's rows and row_scale); integer
    rows take hidden_features's exact projection. targets is the (N, m)
    target matrix, one_hot's for class labels.
    The first block of hidden features starts the normal equations, later
    ones are folded into them, and no block outlives its fold. The first
    block holds one L x L Gram next to one block_size x L block (a later
    fold adds its block's L x L product); the solve holds the Gram and its
    ridged factor, two L x L matrices, which set the peak where L exceeds
    the rows of the first block.
    """
    check_range("gamma", gamma)
    check_range("seed", seed)
    X = _sample_rows(X_norm, "X_norm")
    targets = as_matrix(targets, "targets")
    W = np.asarray(W)
    if row_scale is not None:
        row_scale = np.asarray(row_scale, dtype=np.float64)
    if X.shape[0] != targets.shape[0]:
        raise DimensionError(f"{X.shape[0]} samples but {targets.shape[0]} target rows")
    # For accumulate_gram and solve_spd; before the hidden layer exists, so not on top of its peak.
    load_extension(BLAS_MODULE)
    load_extension(LAPACK_MODULE)
    acc = None
    # One block at least, so that no samples still give an L x L system.
    for start in range(0, max(X.shape[0], 1), block_size):
        rows = slice(start, start + block_size)
        acc = accumulate_gram(
            hidden_features(W, X[rows], None if row_scale is None else row_scale[rows]), acc, targets[rows]
        )
    beta, residual = solve_spd(*acc, gamma)
    meta = dict(metadata or {})
    meta.setdefault("target_encoding", TARGET_ENCODING)
    return FloatModel(
        input_weights=W,
        beta=beta,
        gamma=gamma,
        weight_kind=weight_kind,
        seed=seed,
        metadata=meta,
        solve_residual=residual,
    )


def scores_float(model: FloatModel, X) -> np.ndarray:
    """Class scores relu(Z W) beta, (N, m), of the rows Z the model's steps make of samples X.

    Z is data.integer_rows(X, model.steps): raw samples go in as they are,
    and the scores are a positive multiple of those of the preprocessed
    samples, with the same argmax. A score that overflows float64, which
    only weights far beyond any trained model's can cause, raises
    ScoreOverflowError instead of yielding an arbitrary argmax. A sample
    that is not blank but whose float64 row (where int64 would overflow)
    rounds to all zero would score all 0 and is an InputError; only this
    scorer forms such rows, as a QuantizedModel's headroom proof keeps its exact.
    """
    Z = integer_rows(X, model.steps)
    with np.errstate(over="ignore", invalid="ignore"):
        S = hidden_features(model.input_weights, Z) @ model.beta
    if not np.isfinite(S).all():
        raise ScoreOverflowError("float class scores overflow float64 on this input")
    if Z.dtype == np.float64:
        rounded = ~Z.any(axis=-1) & ~blank_rows(X, model.steps)
        if rounded.any():
            raise InputError(
                f"cannot classify the sample at row {int(np.argmax(rounded))}: "
                "its float64 integer row rounds to all zero"
            )
    return S


def _one_sample(x, caller: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 1:
        raise DimensionError(f"{caller} takes one sample, got shape {x.shape}")
    return x


def predict_float(model: FloatModel, x) -> int:
    """Predicted class index of one sample; ties break to the lowest index."""
    return int(predict_float_batch(model, _one_sample(x, "predict_float")[None])[0])


def predict_float_batch(model: FloatModel, X) -> np.ndarray:
    """Predicted class of each row of X, checked by class_labels."""
    return class_labels(model, X, scores_float(model, X))


def class_labels(model, X, scores) -> np.ndarray:
    """The label of each row of samples X: the lowest-index argmax of its row of the model's scores.

    The one label step of both paths. scores are the model's scorer's
    (scores_float, or intinfer.int_scores) on the 2-D X, so a sample of the
    wrong width, dtype or range, or one whose float64 row rounds to all
    zero, has failed there first. A blank row is an InputError
    (data.reject_blank_rows).
    """
    reject_blank_rows(X, model.steps)
    return np.argmax(scores, axis=1)


def training_residual(model: FloatModel, X_norm, targets, row_scale=None) -> float:
    """Max-abs residual of the normal equations, recomputed from the data, for tests.

    Training keeps the residual of its own solve as model.solve_residual.
    """
    H = hidden_features(model.input_weights, X_norm, row_scale)
    gram = H.T @ H + np.eye(model.L) / model.gamma
    return float(np.abs(gram @ model.beta - H.T @ targets).max())
