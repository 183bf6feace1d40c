"""Integer output weights and the bit-precision reduction ladder.

The trained beta is divided by its minimum nonzero magnitude and rounded,
so the smallest surviving weight becomes +/-1. Precision is then reduced
by repeatedly halving and re-rounding until the largest magnitude is 1;
each rung needs one fewer bit than the last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class QuantizationError(ValueError):
    pass


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, ties away from zero (np.round uses ties-to-even)."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


@dataclass(frozen=True)
class IntegerBeta:
    """Integer output weights with the scale they were quantized at.

    tau doubles with every ladder step so values * tau always approximates
    the original real-valued beta.
    """

    values: np.ndarray  # (L, m) int64
    tau: float
    ladder_step: int = 0

    def __post_init__(self):
        if not 0 < self.tau < np.inf:
            raise QuantizationError(f"tau must be positive and finite, got {self.tau}")
        if not np.issubdtype(self.values.dtype, np.integer):
            raise QuantizationError(f"values must be integers, got dtype {self.values.dtype}")

    @property
    def max_abs(self) -> int:
        return int(np.abs(self.values).max()) if self.values.size else 0


def quantize_beta(beta) -> IntegerBeta:
    """Divide beta by its minimum nonzero magnitude and round.

    Exact zeros are excluded from the scale (a zero tau would be unusable);
    the entry that defines the scale maps to +/-1.
    """
    beta = np.asarray(beta, dtype=np.float64)
    if not np.all(np.isfinite(beta)):
        raise QuantizationError("beta contains NaN or Inf")
    magnitudes = np.abs(beta[beta != 0.0])
    if magnitudes.size == 0:
        raise QuantizationError("beta is all-zero: no quantization scale definable")
    tau = float(magnitudes.min())
    scaled = beta / tau
    largest = float(np.abs(scaled).max())
    # Casting a float at or beyond 2**63 to int64 yields garbage, not an error.
    if largest >= 2.0**63:
        raise QuantizationError(f"max |beta| / tau = {largest:.3g} does not fit 64-bit integers")
    values = round_half_away(scaled).astype(np.int64)
    return IntegerBeta(values=values, tau=tau, ladder_step=0)


def reduce_precision_step(b: IntegerBeta) -> IntegerBeta:
    """One ladder rung: halve every entry and round, ties away from zero."""
    if b.max_abs <= 1:
        raise QuantizationError(
            f"precision ladder exhausted: max |entry| = {b.max_abs}"
        )
    # round(v/2) with ties away from zero, in exact integer arithmetic
    halved = np.sign(b.values) * ((np.abs(b.values) + 1) // 2)
    return IntegerBeta(values=halved, tau=b.tau * 2.0, ladder_step=b.ladder_step + 1)


def precision_ladder(b: IntegerBeta) -> list[IntegerBeta]:
    """All rungs from b down to max |entry| <= 1, inclusive of b itself."""
    rungs = [b]
    while rungs[-1].max_abs > 1:
        rungs.append(reduce_precision_step(rungs[-1]))
    return rungs


def bit_width(b: IntegerBeta) -> int:
    """Sign bit plus minimal magnitude bits for the largest entry."""
    m = b.max_abs
    if m == 0:
        return 1
    # ceil(log2(m + 1)) computed exactly
    return 1 + m.bit_length()
