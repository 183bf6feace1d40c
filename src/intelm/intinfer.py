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
whatever order BLAS sums in: W as float32 when the bound is under 2**24
and as float64 otherwise (the proof caps it at 2**31 - 1).

That float W (FloatKernel) is cast during the kernel's first projection,
in blocks of W's rows of about BUILD_BLOCK_BYTES. When that call's
output is at most a quarter of the same budget, each block is multiplied
by the matching columns of the rows while it is still in cache and the
partial products are summed in the kernel dtype; each running sum is
again a subset sum of the +/-z_j, so this is exact too. A larger first
call casts every block, then runs one GEMM, as does every later call.
The finished array is read-only and published by one attribute
assignment, so concurrent first callers never read a partial kernel;
each that finds none builds its own, all equal, and the last one stays.

An uncentred model whose columns are narrow enough packs three of them
into each float64 word instead (PackedKernel), so one dgemv reads a
third less memory than the float32 W. Over the input box every subset
sum of column j lies in [a_j, b_j]; with B = 2**k > max_j (b_j - a_j),
each partial sum BLAS forms of a word is an integer of magnitude at most
max_j max(b_j, -a_j) * (1 + B + B**2), and where that is below 2**53 it
is exact. Adding sum_d B**d * (-a_d) makes every base-B digit of the
result lie in [0, B), so shifts and masks recover the three columns.
The columns are counted only where one of the ternary generator's
density would pack, so a wide model pays no pass over W; b_j is
hidden_bound where they are not counted. The output layer takes
exact_dtype of max_k sum_j b_j * |v_jk|, which bounds every partial sum
of relu(z.W) @ v. A validated QuantizedModel chooses both on first use,
and its scores are bit-identical to the int64 reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from intelm.data import InputError, centred_rows_fit_int64, check_steps, integer_rows, reject_blank_rows
from intelm.elm import check_ternary
from intelm.linalg import DimensionError, exact_dtype
from intelm.quantize import IntegerBeta

INT32_MAX = 2**31 - 1
INT64_MAX = 2**63 - 1
# Bytes of float W cast per block while a FloatKernel is built: half of a common 1 MB L2.
BUILD_BLOCK_BYTES = 512 * 1024


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


def column_bounds(plus, minus, input_range: tuple[int, int]):
    """(b, -a) of ternary columns with these counts of +1 and -1 weights.

    Over the input box every subset sum of a column's terms z_i*w_i lies
    in [a, b], where b sums max(0, lo*w_i, hi*w_i) and a sums
    min(0, lo*w_i, hi*w_i): each +1 adds max(hi, 0) to b and max(-lo, 0)
    to -a, each -1 the reverse. b also bounds the column's ReLU output.
    """
    up, down = max(int(input_range[1]), 0), max(-int(input_range[0]), 0)
    return plus * up + minus * down, plus * down + minus * up


def packing_shift(width: int, magnitude: int) -> int | None:
    """k such that three columns pack exactly into float64 words of base B = 2**k, else None.

    width is the largest b - a of the columns and magnitude the largest
    max(b, -a). B is the least power of two above width; packing is exact
    when magnitude * (1 + B + B**2) is below 2**53.
    """
    k = width.bit_length()
    return k if magnitude * (1 + 2**k + 4**k) < 2**53 else None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _views_bytes(a: np.ndarray) -> bool:
    """Whether a's memory, through any chain of views, is an immutable bytes object."""
    while isinstance(a, np.ndarray):
        a = a.base
    return type(a) is bytes


@dataclass(frozen=True, eq=False)
class PackedKernel:
    """Ternary W, three columns to a float64 word, with the digits' offsets.

    For L padded with zero columns to 3w, word c holds columns c, c + w and
    c + 2w: words[:, c] = W[:, c] + B*W[:, c + w] + B**2*W[:, c + 2w]
    with B = 2**shift. bottom holds -a of each padded column, and offsets
    sum_d B**d * bottom[c + d*w] of each word, the bias that makes every
    digit of a projected word non-negative. Build it with pack.
    """

    words: np.ndarray  # (n, w) float64
    shift: int
    bottom: np.ndarray  # (3w,) int64
    offsets: np.ndarray  # (w,) int64
    L: int

    @classmethod
    def pack(cls, W: np.ndarray, top, bottom) -> PackedKernel | None:
        """Pack ternary W given its column_bounds, or None when packing_shift finds them too wide."""
        shift = packing_shift(int((top + bottom).max()), int(np.maximum(top, bottom).max()))
        if shift is None:
            return None
        n, L = W.shape
        w = -(-L // 3)
        padded = np.zeros((n, 3 * w), dtype=np.int8)
        padded[:, :L] = W
        words = padded[:, 2 * w :].astype(np.float64)
        for d in (1, 0):
            words *= 2**shift
            words += padded[:, d * w : (d + 1) * w]
        bottoms = np.zeros(3 * w, dtype=np.int64)
        bottoms[:L] = bottom
        offsets = bottoms[:w] + (bottoms[w : 2 * w] << shift) + (bottoms[2 * w :] << 2 * shift)
        return cls(_read_only(words), shift, _read_only(bottoms), _read_only(offsets), L)

    @property
    def shape(self) -> tuple[int, int]:
        return self.words.shape[0], self.L

    def project(self, X: np.ndarray) -> np.ndarray:
        """The exact int64 product X @ W, for rows X within the bounds the kernel was packed for."""
        w = self.words.shape[1]
        t = (X.astype(np.float64, copy=False) @ self.words).astype(np.int64)
        t += self.offsets
        mask = (1 << self.shift) - 1
        out = np.empty(t.shape[:-1] + (3 * w,), dtype=np.int64)
        np.bitwise_and(t, mask, out=out[..., :w])
        np.right_shift(t, self.shift, out=t)
        np.bitwise_and(t, mask, out=out[..., w : 2 * w])
        np.right_shift(t, self.shift, out=out[..., 2 * w :])
        out -= self.bottom
        return out[..., : self.L]


@dataclass(frozen=True, eq=False)
class FloatKernel:
    """Ternary W as a read-only float32 or float64 matrix, cast during the first projection.

    ternary is the model's read-only int8 W and dtype the exact_dtype of
    its hidden bound. weights is None until the first project() publishes
    the cast W (see the module docstring for how that call builds it).
    """

    ternary: np.ndarray  # (n, L) int8
    dtype: np.dtype
    weights: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.ternary.shape

    def project(self, X: np.ndarray) -> np.ndarray:
        """The exact int64 product X @ W, for rows X whose every subset sum fits dtype's mantissa."""
        X = X.astype(self.dtype, copy=False)
        weights, out = self.weights, None
        if weights is None:
            weights, out = self._build(X)
        if out is None:
            out = X @ weights
        return out.astype(np.int64)

    def _build(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Cast W block by block; return it and, for an output within a quarter block, X @ W summed per block."""
        (n, L), size = self.ternary.shape, self.dtype.itemsize
        step = max(1, BUILD_BLOCK_BYTES // (L * size))
        weights = np.empty((n, L), self.dtype)
        # Past a quarter of the budget, re-reading the output for every block costs more than it saves.
        fused = X.size // n * L * size <= BUILD_BLOCK_BYTES // 4
        out = np.zeros(X.shape[:-1] + (L,), self.dtype) if fused else None
        for start in range(0, n, step):
            block = weights[start : start + step]
            block[...] = self.ternary[start : start + step]
            if out is not None:
                out += X[..., start : start + step] @ block
        # Publish only the finished array, in one assignment.
        object.__setattr__(self, "weights", _read_only(weights))
        return weights, out


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
    beta or the rows behind the proof. The one exception is an int8 W
    whose memory is an immutable bytes object, such as load_model's view
    of the bytes it read: nothing can write through it, so it is kept
    as it is. kernel_weights and output_weights are the kernels int_scores
    scores through, chosen from the proven bounds (see the module
    docstring) on first use; a model replace() makes chooses its own.
    """

    ternary_weights: np.ndarray  # (n, L) int8 in {-1, 0, 1}
    int_beta: IntegerBeta  # values (L, m)
    input_range: tuple[int, int] = (0, 255)
    seed: int = 0
    metadata: dict = field(default_factory=dict)
    steps: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_ternary(self.ternary_weights)
        W = self.ternary_weights
        if not (W.dtype == np.int8 and _views_bytes(W)):
            W = _read_only(W.astype(np.int8))
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

    @cached_property
    def _kernels(self) -> tuple[PackedKernel | FloatKernel, np.ndarray]:
        hidden = hidden_bound(self.n, self.input_range, self.centred)
        W, top, kernel = self.ternary_weights, np.full(self.L, hidden), None
        # Count the columns only where one of the ternary generator's density,
        # a third +1 and a third -1, would pack.
        third, _ = column_bounds(self.n // 3, self.n // 3, self.input_range)
        if not self.centred and packing_shift(2 * third, third) is not None:
            nonzero, net = np.abs(W).sum(axis=0), W.sum(axis=0)
            top, bottom = column_bounds((nonzero + net) // 2, (nonzero - net) // 2, self.input_range)
            kernel = PackedKernel.pack(W, top, bottom)
        if kernel is None:
            kernel = FloatKernel(W, np.dtype(exact_dtype(hidden)))
        V = self.int_beta.values  # every partial sum of relu(z.W) @ v is within top @ |v|
        return kernel, _read_only(V.astype(exact_dtype(int((top @ np.abs(V)).max())), copy=False))

    @property
    def kernel_weights(self) -> PackedKernel | FloatKernel:
        return self._kernels[0]

    @property
    def output_weights(self) -> np.ndarray:
        return self._kernels[1]

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
    if x.ndim not in (1, 2):
        raise DimensionError(f"expected one sample or a matrix of rows, got shape {x.shape}")
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

    W is an integer matrix or a kernel, and the product is returned as
    int64. Integer W takes the int64 matmul, the reference. A FloatKernel
    takes BLAS sgemv/sgemm or dgemv/dgemm, exact only when every subset sum
    of |x_j| is below 2**24 (float32) or 2**53 (float64). A PackedKernel
    takes one dgemv/dgemm over its words, exact only within the column
    bounds it was packed for, and splits each word into its three columns
    with int64 shifts and masks. Pass a kernel only as a validated
    QuantizedModel's kernel_weights, with in-range X.
    """
    X = np.asarray(X)
    if not isinstance(W, (PackedKernel, FloatKernel)):
        W = np.asarray(W)
        if not np.issubdtype(W.dtype, np.integer):
            raise InputError(f"ternary_project takes integer weights or a kernel, got dtype {W.dtype}")
    if X.shape[-1] != W.shape[0]:
        raise DimensionError(f"sample has {X.shape[-1]} values, weights expect {W.shape[0]}")
    if isinstance(W, np.ndarray):
        return X.astype(np.int64, copy=False) @ W.astype(np.int64, copy=False)
    return W.project(X)


def relu_int(v) -> np.ndarray:
    """Entrywise max(0, .) on integers."""
    v = np.asarray(v)
    if not np.issubdtype(v.dtype, np.integer):
        raise InputError(f"relu_int requires integers, got dtype {v.dtype}")
    return np.maximum(v, 0)


def int_scores(model: QuantizedModel, X) -> np.ndarray:
    """Exact integer class scores, (m,) for one raw sample or (N, m) for the rows of X."""
    Z = integer_rows(_check_sample(model, X), model.steps)
    H = relu_int(ternary_project(model.kernel_weights, Z))
    V = model.output_weights
    return (H.astype(V.dtype, copy=False) @ V).astype(np.int64, copy=False)


def _one_sample(x, caller: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 1:
        raise DimensionError(f"{caller} takes one sample, got shape {x.shape}")
    return x


def classify_int(model: QuantizedModel, x) -> int:
    """Predicted class of a raw integer sample; ties break to the lowest index."""
    return int(classify_int_batch(model, _one_sample(x, "classify_int")[None])[0])


def classify_int_batch(model: QuantizedModel, X) -> np.ndarray:
    """Classify each row of an integer sample matrix (one 1-D sample is one row); a blank row is an InputError."""
    X = np.asarray(X)
    X = X[None] if X.ndim == 1 else X
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
    x = _check_sample(model, _one_sample(x, "classify_int_counted"))
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
