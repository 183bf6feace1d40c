"""Integer-only classification path.

Raw integer signals are projected through ternary weights (additions and
subtractions only), passed through integer ReLU, and accumulated against
integer output weights; the argmax is taken on exact integer scores.
Overflow is excluded up front by a headroom check on the model, never
detected (or missed) at inference time.

The rows projected are data.integer_rows of the raw samples under the
model's recorded preprocessing: x, or n*x - sum(x) under zero_mean, the
same integer rows training scaled. Every partial sum of z.w over ternary
w is a subset sum of the +/-z_j, so its magnitude is at most
hidden_bound(n, input_range, centred), and linalg.exact_dtype (the rule
training's projection uses too) picks a float GEMM that rounds nothing,
whatever order BLAS sums in. A validated QuantizedModel caches W as
float32 when the bound is under 2**24 and as float64 otherwise (the proof
caps it at 2**31 - 1), and its scores are bit-identical to the int64
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from intelm.data import InputError, centred_rows_fit_int64, check_steps, integer_rows, reject_blank_rows
from intelm.elm import check_ternary
from intelm.linalg import DimensionError, exact_dtype
from intelm.quantize import IntegerBeta

INT32_MAX = 2**31 - 1
INT64_MAX = 2**63 - 1


def hidden_bound(n: int, input_range: tuple[int, int], centred: bool = False) -> int:
    """Largest sum |z_j|, which bounds every partial sum of z.w over ternary w.

    The rows z of n in-range inputs x are x itself, with sum |x_j| at most
    n * max(|lo|, |hi|), or, centred, n*x - sum(x). Centred, z_j is the sum
    over k of x_j - x_k, and sum |z_j| (convex in x, so largest at a
    corner of the box) is 2*a*(n - a)*(hi - lo) with a inputs at hi and the
    rest at lo: at most 2 * floor(n/2) * ceil(n/2) * (hi - lo), attained.
    """
    lo, hi = int(input_range[0]), int(input_range[1])
    if centred:
        return 2 * (n // 2) * ((n + 1) // 2) * (hi - lo)
    return n * max(abs(lo), abs(hi))


def output_beta_limit(n: int, L: int, input_range: tuple[int, int], centred: bool = False) -> int:
    """Largest max |v| the proof admits: an i32 beta whose L * hidden_bound * max |v| fits in int64."""
    return min(INT32_MAX, INT64_MAX // max(1, L * hidden_bound(n, input_range, centred)))


class HeadroomError(ValueError):
    """Declared input range could overflow the fixed accumulator widths."""


@dataclass
class OpCounter:
    """Instruction counter for the audited reference path."""

    int_adds: int = 0
    int_muls: int = 0
    float_ops: int = 0


@dataclass(frozen=True)
class QuantizedModel:
    """Ternary input weights plus integer output weights.

    input_range is the declared (lo, hi) of raw sample values, and
    metadata["preprocessing"] the steps training applied; the headroom
    check below proves that the integer rows of in-range inputs are exact
    int64 and that the 32-bit hidden accumulator and the 64-bit output
    accumulator cannot overflow for them.
    ternary_weights, int_beta.values and steps are kept as private copies
    (read-only int8 and int64, and a tuple), so no caller can change W,
    beta or the rows behind the proof; kernel_weights is W's read-only
    float copy that int_scores projects through, built once from the
    proven bound.
    """

    ternary_weights: np.ndarray  # (n, L) int8 in {-1, 0, 1}
    int_beta: IntegerBeta  # values (L, m)
    input_range: tuple[int, int] = (0, 255)
    seed: int = 0
    metadata: dict = field(default_factory=dict)
    kernel_weights: np.ndarray = field(init=False, repr=False, compare=False)
    steps: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_ternary(self.ternary_weights)
        W = self.ternary_weights.astype(np.int8)
        W.setflags(write=False)
        if self.int_beta.values.shape[0] != W.shape[1]:
            raise DimensionError(
                f"int beta has {self.int_beta.values.shape[0]} rows, "
                f"weights have {W.shape[1]} columns"
            )
        if min(self.n, self.L, self.m) < 1:
            raise DimensionError(f"model has an empty dimension: n={self.n}, L={self.L}, m={self.m}")
        lo, hi = self.input_range
        if lo > hi:
            raise ValueError(f"input range ({lo}, {hi}) has lo > hi")
        values = self.int_beta.values.astype(np.int64)
        values.setflags(write=False)
        # Frozen: reassigning a field would bypass the proof the kernel rests on.
        object.__setattr__(self, "ternary_weights", W)
        object.__setattr__(self, "int_beta", replace(self.int_beta, values=values))
        object.__setattr__(self, "steps", check_steps(self.metadata.get("preprocessing", [])))
        self.validate_headroom()
        kernel = W.astype(exact_dtype(hidden_bound(self.n, self.input_range, self.centred)))
        kernel.setflags(write=False)
        object.__setattr__(self, "kernel_weights", kernel)

    @property
    def n(self) -> int:
        return self.ternary_weights.shape[0]

    @property
    def L(self) -> int:
        return self.ternary_weights.shape[1]

    @property
    def m(self) -> int:
        return self.int_beta.values.shape[1]

    @property
    def centred(self) -> bool:
        return "zero_mean" in self.steps

    def validate_headroom(self) -> None:
        hidden = hidden_bound(self.n, self.input_range, self.centred)
        if hidden > INT32_MAX:
            raise HeadroomError(
                f"hidden accumulator can reach {hidden} > {INT32_MAX} "
                f"(n={self.n}, input range {self.input_range}, steps {list(self.steps)})"
            )
        lo, hi = self.input_range
        if self.centred and not centred_rows_fit_int64(self.n, max(abs(lo), abs(hi))):
            # integer_rows would centre such inputs in float64, which can round a row to zero.
            raise HeadroomError(
                f"centred rows of inputs in {self.input_range} can leave int64 (n={self.n})"
            )
        max_beta = self.int_beta.max_abs
        limit = output_beta_limit(self.n, self.L, self.input_range, self.centred)
        if max_beta > limit:
            raise HeadroomError(
                f"max |beta| = {max_beta} > {limit}, the limit of i32 beta and the output accumulator "
                f"(L={self.L}, hidden bound {hidden})"
            )


def _check_sample(model: QuantizedModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.integer):
        raise InputError(f"integer path requires integer samples, got dtype {x.dtype}")
    if x.shape[-1] != model.n:
        raise DimensionError(f"sample has {x.shape[-1]} values, model expects {model.n}")
    lo, hi = model.input_range
    if x.size and (x.min() < lo or x.max() > hi):
        raise InputError(
            f"sample values in [{x.min()}, {x.max()}] violate declared range [{lo}, {hi}]"
        )
    return x


def ternary_project(W, X) -> np.ndarray:
    """Project one integer sample, or each row of X, through ternary weights, exactly.

    Contractually this is per-column add/subtract/skip selection with no
    general multiply; the audited reference is ternary_project_counted and
    this vectorized form is integer-exact and produces identical results.

    The product is computed in W's dtype and returned as int64. Integer W
    takes the int64 matmul, the reference. Float W takes BLAS sgemv/sgemm
    or dgemv/dgemm, which is exact only when every subset sum of |x_j| is
    below 2**24 (float32) or 2**53 (float64): pass float weights only as a
    validated QuantizedModel's kernel_weights, with in-range X.
    """
    W = np.asarray(W)
    if not np.issubdtype(W.dtype, np.floating):
        W = W.astype(np.int64, copy=False)
    X = np.asarray(X)
    if X.shape[-1] != W.shape[0]:
        raise DimensionError(f"sample has {X.shape[-1]} values, weights expect {W.shape[0]}")
    return (X.astype(W.dtype, copy=False) @ W).astype(np.int64, copy=False)


def relu_int(v) -> np.ndarray:
    """Entrywise max(0, .) on integers."""
    v = np.asarray(v)
    if not np.issubdtype(v.dtype, np.integer):
        raise InputError(f"relu_int requires integers, got dtype {v.dtype}")
    return np.maximum(v, 0)


def int_scores(model: QuantizedModel, X) -> np.ndarray:
    """Exact integer class scores, (m,) for one raw sample or (N, m) for the rows of X."""
    Z = integer_rows(_check_sample(model, X), model.steps)
    return relu_int(ternary_project(model.kernel_weights, Z)) @ model.int_beta.values


def classify_int(model: QuantizedModel, x) -> int:
    """Predicted class of a raw integer sample; ties break to the lowest index."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise DimensionError(f"classify_int takes one sample, got shape {x.shape}")
    return int(classify_int_batch(model, x[None])[0])


def classify_int_batch(model: QuantizedModel, X) -> np.ndarray:
    """Classify each row of an integer sample matrix; a blank row is an InputError."""
    X = np.atleast_2d(np.asarray(X))
    labels = np.argmax(int_scores(model, X), axis=1)
    reject_blank_rows(X, model.steps)
    return labels


# --- audited reference path ------------------------------------------------
#
# Pure-Python integer implementations that thread an OpCounter through
# every arithmetic step. Tests assert float_ops == 0 everywhere and
# int_muls == 0 in the input projection, and that results match the
# vectorized path exactly.


def ternary_project_counted(W, x, counter: OpCounter) -> list[int]:
    W = np.asarray(W)
    n, L = W.shape
    xs = [int(v) for v in x]
    out = []
    for i in range(L):
        acc = 0
        col = W[:, i]
        for j in range(n):
            w = int(col[j])
            if w == 1:
                acc += xs[j]
                counter.int_adds += 1
            elif w == -1:
                acc -= xs[j]
                counter.int_adds += 1
        out.append(acc)
    return out


def classify_int_counted(model: QuantizedModel, x, counter: OpCounter) -> int:
    x = _check_sample(model, x)
    reject_blank_rows(x, model.steps)
    xs = [int(v) for v in x]
    if model.centred:  # n*x - sum(x), one multiply per input
        total = 0
        for v in xs:
            total += v
            counter.int_adds += 1
        xs = [len(xs) * v - total for v in xs]
        counter.int_muls += len(xs)
        counter.int_adds += len(xs)
    h = ternary_project_counted(model.ternary_weights, xs, counter)
    h = [v if v > 0 else 0 for v in h]
    beta = model.int_beta.values
    best_class, best_score = 0, None
    for k in range(model.m):
        acc = 0
        for i in range(model.L):
            acc += int(beta[i, k]) * h[i]
            counter.int_muls += 1
            counter.int_adds += 1
        if best_score is None or acc > best_score:
            best_class, best_score = k, acc
    return best_class
