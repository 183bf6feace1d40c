import numpy as np
import pytest

from conftest import random_float_model
from intelm.elm import FloatModel, predict_float
from intelm.experiments import make_quantized
from intelm.quantize import (
    IntegerBeta,
    QuantizationError,
    bit_width,
    precision_ladder,
    quantize_beta,
    reduce_precision_step,
    round_half_away,
)


class TestQuantizeBeta:
    def test_forced_arithmetic(self):
        q = quantize_beta([0.5, -1.5, 0.25])
        assert q.tau == 0.25
        np.testing.assert_array_equal(q.values, [2, -6, 1])
        assert q.ladder_step == 0

    def test_singleton(self):
        q = quantize_beta([1.0])
        assert q.tau == 1.0
        np.testing.assert_array_equal(q.values, [1])

    def test_rounding_error_bound(self, rng):
        beta = rng.standard_normal((50, 10))
        q = quantize_beta(beta)
        np.testing.assert_array_less(np.abs(q.values - beta / q.tau), 0.5 + 1e-12)

    def test_minimal_entry_maps_to_unit(self, rng):
        for _ in range(50):
            beta = rng.standard_normal((6, 4))
            q = quantize_beta(beta)
            flat = beta.ravel()
            k = np.argmin(np.abs(flat))
            assert abs(q.values.ravel()[k]) == 1

    def test_exact_zeros_excluded_from_scale(self):
        q = quantize_beta([0.0, 0.5, 2.0])
        assert q.tau == 0.5
        np.testing.assert_array_equal(q.values, [0, 1, 4])

    def test_all_zero_rejected(self):
        with pytest.raises(QuantizationError, match="all-zero"):
            quantize_beta(np.zeros((3, 2)))

    def test_nan_rejected(self):
        with pytest.raises(QuantizationError, match="NaN"):
            quantize_beta([1.0, np.nan])

    def test_int64_overflow_rejected(self):
        # beta / tau reaches 1e20 > 2**63; the unchecked cast gave INT64_MIN for +1.0
        with pytest.raises(QuantizationError, match="64-bit"):
            quantize_beta([[1e-20], [1.0], [-0.5]])
        model = FloatModel(np.ones((2, 3), dtype=np.int8), np.array([[1e-20], [1.0], [-0.5]]), 1.0, "ternary", 0)
        with pytest.raises(QuantizationError, match="64-bit"):
            make_quantized(model, (0, 255), fit_headroom=True)

    def test_sign_preserved_for_large_entries(self, rng):
        beta = rng.standard_normal((30, 5))
        q = quantize_beta(beta)
        big = np.abs(beta) >= q.tau / 2
        assert np.all(np.sign(q.values[big]) == np.sign(beta[big]))


class TestRoundHalfAway:
    @pytest.mark.parametrize(
        "x,expected", [(0.5, 1), (-0.5, -1), (1.5, 2), (-1.5, -2), (2.4, 2), (-2.6, -3)]
    )
    def test_ties_away_from_zero(self, x, expected):
        assert round_half_away(np.array(x)) == expected


class TestPrecisionLadder:
    def test_halving_with_ties_away(self):
        b = IntegerBeta(values=np.array([2, -6, 1]), tau=0.25)
        stepped = reduce_precision_step(b)
        np.testing.assert_array_equal(stepped.values, [1, -3, 1])
        assert stepped.tau == 0.5
        assert stepped.ladder_step == 1

    def test_two_steps(self):
        b = IntegerBeta(values=np.array([4, 8]), tau=1.0)
        b = reduce_precision_step(reduce_precision_step(b))
        np.testing.assert_array_equal(b.values, [1, 2])

    def test_exhausted_ladder_rejected(self):
        b = IntegerBeta(values=np.array([1, -1, 0]), tau=1.0)
        with pytest.raises(QuantizationError, match="exhausted"):
            reduce_precision_step(b)

    def test_full_ladder_length_and_terminal(self, rng):
        # big-integer oracle: simulate the halving with Python ints
        for _ in range(30):
            vals = rng.integers(-10_000, 10_000, size=(5, 3)).astype(np.int64)
            if np.abs(vals).max() <= 1:
                vals[0, 0] = int(rng.integers(2, 10_000))
            b = IntegerBeta(values=vals, tau=1.0)
            rungs = precision_ladder(b)
            assert rungs[-1].max_abs == 1
            oracle = [[int(v) for v in vals.ravel()]]
            while max(abs(v) for v in oracle[-1]) > 1:
                oracle.append(
                    [(1 if v > 0 else -1) * ((abs(v) + 1) // 2) if v else 0 for v in oracle[-1]]
                )
            assert len(rungs) == len(oracle)
            np.testing.assert_array_equal(rungs[-1].values.ravel(), oracle[-1])
            steps = len(rungs) - 1
            expected = int(np.floor(np.log2(b.max_abs)))
            assert abs(steps - expected) <= 1

    def test_error_growth_bound_per_step(self, rng):
        # one halving adds at most 2^(step-1) to the error against beta/tau
        for _ in range(20):
            beta = rng.standard_normal(40) * 100
            q = quantize_beta(beta)
            exact = beta / q.tau
            rungs = precision_ladder(q)
            prev_err = np.abs(rungs[0].values - exact)
            for rung in rungs[1:]:
                err = np.abs(rung.values * 2.0**rung.ladder_step - exact)
                assert np.all(err <= prev_err + 2.0 ** (rung.ladder_step - 1) + 1e-9)
                prev_err = err


class TestBitWidth:
    def test_sign_plus_one_bit(self):
        assert bit_width(IntegerBeta(values=np.array([1, -1]), tau=1.0)) == 2

    def test_signed_byte_boundary(self):
        assert bit_width(IntegerBeta(values=np.array([127]), tau=1.0)) == 8

    def test_boundary_crossing(self):
        assert bit_width(IntegerBeta(values=np.array([128]), tau=1.0)) == 9

    def test_all_zero(self):
        assert bit_width(IntegerBeta(values=np.zeros(3, dtype=np.int64), tau=1.0)) == 1

    def test_decreases_by_one_per_rung(self, rng):
        b = IntegerBeta(values=rng.integers(-500, 500, size=(4, 4)).astype(np.int64), tau=1.0)
        if b.max_abs <= 1:
            b.values[0, 0] = 500
        rungs = precision_ladder(b)
        widths = [bit_width(r) for r in rungs]
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] == 2


class TestBetaScalingInvariance:
    def test_argmax_invariant_under_positive_scaling(self, rng):
        for _ in range(100):
            model = random_float_model(rng)
            x = rng.standard_normal(model.n)
            base = predict_float(model, x)
            for c in (0.001, 0.5, 3.0, 1e6):
                scaled = model.__class__(
                    input_weights=model.input_weights,
                    beta=c * model.beta,
                    gamma=model.gamma,
                    weight_kind=model.weight_kind,
                    seed=model.seed,
                )
                assert predict_float(scaled, x) == base
