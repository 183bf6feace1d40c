import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import near_zero_beta_model, random_float_model
from intelm.elm import FloatModel, predict_float
from intelm.experiments import make_quantized
from intelm.intinfer import output_beta_limit
from intelm.quantize import (
    IntegerBeta,
    QuantizationError,
    bit_width,
    precision_ladder,
    quantize_beta,
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


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.bool_])
def test_integer_beta_refuses_values_that_are_not_integers(dtype):
    with pytest.raises(QuantizationError, match=f"values must be integers, got dtype {np.dtype(dtype)}"):
        IntegerBeta(values=np.ones((2, 1), dtype), tau=1.0)


class TestRoundHalfAway:
    @pytest.mark.parametrize(
        "x,expected", [(0.5, 1), (-0.5, -1), (1.5, 2), (-1.5, -2), (2.4, 2), (-2.6, -3)]
    )
    def test_ties_away_from_zero(self, x, expected):
        assert round_half_away(np.array(x)) == expected


class TestPrecisionLadder:
    def test_rung_one_rounds_beta_once(self):
        q = quantize_beta([0.5, -1.5, 0.25], 1)
        np.testing.assert_array_equal(q.values, [1, -3, 1])
        assert q.tau == 0.5
        assert q.ladder_step == 1

    def test_two_steps(self):
        # Halving rung 1's [1, 3] would give [1, 2], 0.75 tau_2 away from beta;
        # rounding beta once at tau_2 = 4 stays within tau_2 / 2.
        q = quantize_beta([1.0, 5.0], 2)
        np.testing.assert_array_equal(q.values, [0, 1])
        assert q.tau == 4.0

    def test_exhausted_ladder_rejected(self):
        with pytest.raises(QuantizationError, match="exhausted"):
            quantize_beta([1.0, -1.0, 0.0], 1)
        with pytest.raises(QuantizationError, match="exhausted"):
            quantize_beta([1.0, 5.0], 10**6)
        with pytest.raises(QuantizationError, match="at least 0"):
            quantize_beta([1.0, 5.0], -1)

    def test_full_ladder_length_and_terminal(self, rng):
        # exact oracle: rung r is round(beta / (tau * 2**r)) in rational arithmetic
        for _ in range(30):
            vals = rng.integers(-10_000, 10_000, size=(5, 3))
            if np.abs(vals).max() <= 1:
                vals[0, 0] = int(rng.integers(2, 10_000))
            rungs = precision_ladder(vals.astype(np.float64))
            assert rungs[-1].max_abs == 1
            tau = int(np.abs(vals[vals != 0]).min())
            oracle = []
            while not oracle or max(map(abs, oracle[-1])) > 1:
                scale = tau * 2 ** len(oracle)
                oracle.append([(1 if v > 0 else -1) * math.floor(Fraction(abs(int(v)), scale) + Fraction(1, 2))
                               for v in vals.ravel()])
            assert len(rungs) == len(oracle)
            for rung, expected in zip(rungs, oracle):
                np.testing.assert_array_equal(rung.values.ravel(), expected)
            steps = len(rungs) - 1
            expected = int(np.floor(np.log2(rungs[0].max_abs)))
            assert abs(steps - expected) <= 1

    def test_error_growth_bound_per_step(self, rng):
        # every rung is within tau_r / 2 of beta, so no rung adds more than 2^(step-1)
        for _ in range(20):
            beta = rng.standard_normal(40) * 100
            q = quantize_beta(beta)
            exact = beta / q.tau
            rungs = precision_ladder(beta)
            prev_err = np.abs(rungs[0].values - exact)
            for rung in rungs[1:]:
                err = np.abs(rung.values * 2.0**rung.ladder_step - exact)
                assert np.all(err <= 2.0 ** (rung.ladder_step - 1) + 1e-9)
                assert np.all(err <= prev_err + 2.0 ** (rung.ladder_step - 1) + 1e-9)
                prev_err = err

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_every_rung_is_beta_rounded_once(self, data):
        rows, cols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 4))
        entry = st.tuples(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(1e-3, 1e3)).map(lambda t: t[0] * t[1])
        beta = np.array(data.draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)))
        beta = beta.reshape(rows, cols)
        if not beta.any():
            beta[0, 0] = 1.0
        if data.draw(st.booleans()):  # a hidden unit fed only by rounding noise
            near_zero = data.draw(st.sampled_from([-1.0, 1.0])) * data.draw(st.floats(1e-15, 1e-12))
            beta.flat[data.draw(st.integers(0, beta.size - 1))] = near_zero
        tau = float(np.abs(beta[beta != 0]).min())
        rungs = precision_ladder(beta)
        np.testing.assert_array_equal(rungs[0].values, round_half_away(beta / tau))
        for r, rung in enumerate(rungs):
            assert rung.ladder_step == r
            assert rung.tau == tau * 2.0**r
            assert np.all(np.abs(rung.values * rung.tau - beta) <= rung.tau / 2 + 1e-12 * np.abs(beta))
        widths = [bit_width(rung) for rung in rungs]
        assert widths == sorted(widths, reverse=True)
        assert rungs[-1].max_abs == 1
        with pytest.raises(QuantizationError, match="exhausted"):
            quantize_beta(beta, len(rungs))

    def test_fit_headroom_returns_first_rung_within_limit(self):
        model = near_zero_beta_model()
        limit = output_beta_limit(model.n, model.L, (0, 255))
        fitted = make_quantized(model, (0, 255), fit_headroom=True).int_beta
        first = next(rung for rung in precision_ladder(model.beta) if rung.max_abs <= limit)
        assert fitted.ladder_step == first.ladder_step > 0
        assert fitted.tau == first.tau
        np.testing.assert_array_equal(fitted.values, first.values)


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
        beta = rng.integers(-500, 500, size=(4, 4)).astype(np.float64)
        if np.abs(beta).max() <= 1:
            beta[0, 0] = 500
        rungs = precision_ladder(beta)
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
