"""Integer output weights and the bit-precision reduction ladder.

Rung r of the ladder is the trained beta divided by tau_r = tau * 2**r and
rounded once, tau being beta's minimum nonzero magnitude: at rung 0 the
smallest surviving weight becomes +/-1, every entry is within tau_r / 2 of
beta, and each rung needs at most as many bits as the one before. The
ladder ends at the first rung whose largest magnitude is 1.
"""

from __future__ import annotations

import math
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

    tau is the rung's scale, tau_0 * 2**ladder_step, so values * tau always
    approximates the original real-valued beta.
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


def quantize_beta(beta, step: int = 0) -> IntegerBeta:
    """Rung `step` of beta's ladder: beta / (tau * 2**step), rounded ties away from zero.

    tau is the minimum nonzero |beta|; exact zeros are excluded from it (a
    zero tau would be unusable), and at rung 0 the entry that defines it
    maps to +/-1. A rung past the first one with max |entry| <= 1 is refused.
    """
    beta = np.asarray(beta, dtype=np.float64)
    if not np.all(np.isfinite(beta)):
        raise QuantizationError("beta contains NaN or Inf")
    magnitudes = np.abs(beta[beta != 0.0])
    if magnitudes.size == 0:
        raise QuantizationError("beta is all-zero: no quantization scale definable")
    if step < 0:
        raise QuantizationError(f"ladder step must be at least 0, got {step}")
    tau = float(magnitudes.min())
    # Rung step - 1's largest entry, computed before tau * 2**step, which a huge step overflows.
    if step > 0 and round_half_away(math.ldexp(float(magnitudes.max()) / tau, 1 - step)) <= 1:
        raise QuantizationError(f"precision ladder exhausted: rung {step} is past the first with max |entry| <= 1")
    tau = math.ldexp(tau, step)
    scaled = beta / tau
    largest = float(np.abs(scaled).max())
    # Casting a float at or beyond 2**63 to int64 yields garbage, not an error.
    if largest >= 2.0**63:
        raise QuantizationError(f"max |beta| / tau = {largest:.3g} does not fit 64-bit integers")
    values = round_half_away(scaled).astype(np.int64)
    return IntegerBeta(values=values, tau=tau, ladder_step=step)


def precision_ladder(beta) -> list[IntegerBeta]:
    """Rungs 0 to R of beta's ladder, R the first rung with max |entry| <= 1."""
    rungs = [quantize_beta(beta)]
    while rungs[-1].max_abs > 1:
        rungs.append(quantize_beta(beta, len(rungs)))
    return rungs


def bit_width(b: IntegerBeta) -> int:
    """Sign bit plus minimal magnitude bits for the largest entry."""
    m = b.max_abs
    if m == 0:
        return 1
    # ceil(log2(m + 1)) computed exactly
    return 1 + m.bit_length()
