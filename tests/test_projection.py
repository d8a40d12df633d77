import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecnn.errors import ConfigError, NumericError
from ecnn.projection import TrainConfig, fit_neuron, sigmoid
from ecnn.util import derive_rng
from reference import (
    augment_bias,
    bias,
    error_vector,
    input_weights,
    naive_projection_step,
    neuron_forward,
    projection_step,
    rse,
)


class ZeroInit:
    """Stub generator whose normal() is identically zero."""

    def normal(self, loc, scale, size):
        return np.zeros(size)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-50, 50, 1000)
        np.testing.assert_allclose(sigmoid(a) + sigmoid(-a), 1.0, atol=1e-12)

    def test_known_value(self):
        # oracle: 1/(1 + e^-2) evaluated at high precision
        assert sigmoid(2.0) == pytest.approx(0.8807970779778823, abs=1e-15)

    def test_monotone(self):
        a = np.linspace(-20, 20, 2001)
        assert np.all(np.diff(sigmoid(a)) > 0)

    def test_saturation(self):
        assert sigmoid(1000.0) == 1.0
        assert sigmoid(-1000.0) == 0.0

    def test_within_2_pow_minus_53_of_exact(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([
            np.linspace(-40, 40, 4001), rng.uniform(-40, 40, 20_000), [700, -700, 745, -745]
        ])
        got = sigmoid(x)
        # oracle: 1/(1 + e^-x) to 50 digits for each float x
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            one = decimal.Decimal(1)
            worst = max(
                abs(decimal.Decimal(float(g)) - one / (one + (-decimal.Decimal(float(v))).exp()))
                for g, v in zip(got, x)
            )
        assert worst <= decimal.Decimal(2.0**-53)

    def test_edge_values(self):
        assert sigmoid(math.inf) == 1.0
        assert sigmoid(-math.inf) == 0.0
        assert math.isnan(sigmoid(math.nan))
        np.testing.assert_array_equal(sigmoid(np.array([-np.inf, np.inf])), [0.0, 1.0])

    def test_symmetry_exact(self):
        a = np.random.default_rng(1).uniform(-50, 50, 100_000)
        assert np.all(sigmoid(a) + sigmoid(-a) == 1.0)


class TestNeuronForward:
    def test_zero_weights_give_half(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=5)
        assert neuron_forward(u, np.zeros(5), 0.0) == 0.5

    def test_known_value(self):
        out = neuron_forward(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 0.0)
        assert out == pytest.approx(0.8807970779778823, abs=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=4)
        w = rng.normal(size=4)
        for c in (0.5, 3.0, -2.0):
            assert neuron_forward(u * c, w / c, 0.1) == pytest.approx(
                neuron_forward(u, w, 0.1), abs=1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            neuron_forward(np.ones(3), np.ones(4))


class TestErrorVector:
    def test_zero_weights_half_targets(self):
        u = np.random.default_rng(3).normal(size=(2, 6))
        eta = error_vector(u, np.zeros(2), 0.0, np.full(6, 0.5))
        np.testing.assert_array_equal(eta, np.zeros(6))

    def test_forced_values(self):
        u = np.zeros((2, 2))
        eta = error_vector(u, np.zeros(2), 0.0, np.array([0.0, 1.0]))
        np.testing.assert_allclose(eta, [0.5, -0.5])

    def test_single_column(self):
        eta = error_vector(np.array([[1.0], [1.0]]), np.zeros(2), 0.0, np.array([1.0]))
        np.testing.assert_allclose(eta, [-0.5])


class TestRse:
    def test_zero(self):
        assert rse(np.zeros(3)) == 0.0

    def test_pythagorean(self):
        assert rse(np.array([3.0, 4.0])) == 5.0

    def test_single(self):
        assert rse(np.array([-0.5])) == 0.5


class TestProjectionStep:
    def test_zero_error_fixed_point(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=3)
        u = rng.normal(size=(3, 7))
        out = projection_step(w, u, np.zeros(7), 1.9)
        np.testing.assert_array_equal(out, w)

    def test_hand_computed_update(self):
        # single example u=(1,1), target 1, w=0, chi=2:
        # eta = sigmoid(0) - 1 = -0.5, ||U||^2 = 2, step = -2/2 * U @ eta = +0.5
        w = np.zeros(2)
        u = np.array([[1.0], [1.0]])
        eta = error_vector(u, w, 0.0, np.array([1.0]))
        w2 = projection_step(w, u, eta, 2.0)
        np.testing.assert_allclose(w2, [0.5, 0.5], atol=1e-15)
        eta2 = error_vector(u, w2, 0.0, np.array([1.0]))
        assert abs(eta2[0]) < abs(eta[0])  # error strictly drops

    def test_linear_in_chi(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=4)
        u = rng.normal(size=(4, 9))
        eta = rng.normal(size=9)
        step1 = projection_step(w, u, eta, 1.0) - w
        step2 = projection_step(w, u, eta, 2.0) - w
        np.testing.assert_allclose(step2, 2.0 * step1, atol=1e-14)

    def test_zero_matrix_rejected(self):
        with pytest.raises(NumericError):
            projection_step(np.zeros(2), np.zeros((2, 3)), np.ones(3), 1.9)

    @given(st.integers(1, 6), st.integers(1, 10), st.floats(0.1, 2.0), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_reference(self, p, q, chi, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=p)
        u = rng.normal(size=(p, q))
        eta = rng.normal(size=q)
        np.testing.assert_allclose(
            projection_step(w, u, eta, chi), naive_projection_step(w, u, eta, chi), atol=1e-12
        )


class TestTrainConfig:
    def test_defaults_match_contract(self):
        cfg = TrainConfig()
        assert cfg.chi == 1.9 and cfg.delta == 0.0015
        assert cfg.max_steps == 200

    def test_nonpositive_chi_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(chi=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(chi=-1.0)

    def test_chi_outside_band_warns(self):
        with pytest.warns(UserWarning):
            TrainConfig(chi=0.5)
        with pytest.warns(UserWarning):
            TrainConfig(chi=2.5)

    def test_bad_delta_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(delta=0.0)


def _separable(seed, n=8, lo=10.0, hi=11.0):
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=n)
    x = signs * rng.uniform(lo, hi, size=n)
    y = (x > 0).astype(float)
    half = n // 2
    return x[:half][None, :], y[:half], x[half:][None, :], y[half:]


class TestFitNeuron:
    def test_zero_error_stops_immediately(self):
        inputs = np.array([[0.3, -0.4, 1.2]])
        targets = np.full(3, 0.5)
        res = fit_neuron(inputs, targets, inputs, targets, TrainConfig(), ZeroInit())
        assert res.steps_taken == 1
        assert res.criterion == 0.0
        np.testing.assert_array_equal(res.weights, np.zeros(2))

    def test_separable_converges_fast(self):
        xa, ya, xb, yb = _separable(0)
        res = fit_neuron(xa, ya, xb, yb, TrainConfig(), derive_rng(0, "init"))
        assert res.steps_taken <= 30
        assert res.criterion < res.rse_trace_b[0]

    def test_trace_is_consistent(self):
        xa, ya, xb, yb = _separable(1)
        res = fit_neuron(xa, ya, xb, yb, TrainConfig(), derive_rng(1, "fit-neuron"))
        assert res.criterion == res.rse_trace_b[-1]
        assert len(res.rse_trace_b) == res.steps_taken + 1

    def test_criterion_recomputes_from_weights(self):
        xa, ya, xb, yb = _separable(2)
        res = fit_neuron(xa, ya, xb, yb, TrainConfig(), derive_rng(2, "fit-neuron"))
        recomputed = rse(error_vector(xb, input_weights(res), bias(res), yb))
        assert res.criterion == pytest.approx(recomputed, abs=1e-12)

    def test_always_terminates(self):
        rng = np.random.default_rng(6)
        for trial in range(100):
            p = int(rng.integers(1, 4))
            n = int(rng.integers(2, 12))
            xa = rng.normal(size=(p, n))
            ya = rng.integers(0, 2, n).astype(float)
            xb = rng.normal(size=(p, n))
            yb = rng.integers(0, 2, n).astype(float)
            cfg = TrainConfig(max_steps=50)
            res = fit_neuron(xa, ya, xb, yb, cfg, derive_rng(trial, "fit-neuron"))
            assert res.steps_taken <= 50

    def test_end_vs_start_decrease_on_realizable_targets(self):
        # benign case: targets generated by a true weight vector, fit and
        # validation on the same part
        rng = np.random.default_rng(7)
        for trial in range(20):
            u = rng.normal(size=(3, 40))
            w_true = rng.normal(size=3)
            targets = 1.0 / (1.0 + np.exp(-(w_true @ u)))
            res = fit_neuron(u, targets, u, targets, TrainConfig(), derive_rng(trial, "fit-neuron"))
            assert res.criterion <= res.rse_trace_b[0]

    def test_fit_whose_error_still_falls_ends_at_max_steps(self):
        xa, ya, xb, yb = _separable(3)
        cfg = TrainConfig(max_steps=10)
        res = fit_neuron(xa, ya, xb, yb, cfg, derive_rng(3, "fit-neuron"))
        assert res.steps_taken == 10
        assert (-np.diff(res.rse_trace_b) >= cfg.delta).all()

    def test_all_zero_inputs_rejected(self):
        with pytest.raises(NumericError):
            fit_neuron(
                np.zeros((2, 4)), np.ones(4), np.zeros((2, 4)), np.ones(4), TrainConfig(), derive_rng(0, "fit-neuron")
            )

    def test_augment_bias_row(self):
        u = np.arange(6.0).reshape(2, 3)
        aug = augment_bias(u)
        assert aug.shape == (3, 3)
        np.testing.assert_array_equal(aug[-1], np.ones(3))


def _reference_fit(xa, ya, xb, yb, cfg, rng):
    """``fit_neuron`` written with the package's reference pieces: one
    ``projection_step`` per step, validation error ``rse`` of the
    residual. The fit must give the same bytes.

    The residual is ``sigmoid(z) - t`` written through ``tanh`` as
    ``fit_neuron`` computes it: halving ``tanh(z / 2) - (2t - 1)`` is
    exact, while ``(0.5 + 0.5 * tanh(z / 2)) - t`` rounds twice and can
    differ in the last bit for ``t = 1``."""

    def residual(z, t):
        return 0.5 * (np.tanh(0.5 * z) - (2 * t - 1))

    u_a, u_b = augment_bias(xa), augment_bias(xb)
    w = rng.normal(0.0, cfg.init_std, size=u_a.shape[0])
    trace = [rse(residual(w @ u_b, yb))]
    for _ in range(cfg.max_steps):
        w = projection_step(w, u_a, residual(w @ u_a, ya), cfg.chi)
        trace.append(rse(residual(w @ u_b, yb)))
        if trace[-2] - trace[-1] < cfg.delta:
            break
    return w, trace, len(trace) - 1


def _noisy_linear_task(rng, p, n_a, n_b):
    """Parts A and B of ``p`` normal inputs, labelled by a random linear
    rule with Gaussian noise of deviation 0.5."""
    xa, xb = rng.normal(size=(p, n_a)), rng.normal(size=(p, n_b))
    w_true = rng.normal(size=p)
    ya = (w_true @ xa + 0.5 * rng.normal(size=n_a) > 0).astype(float)
    yb = (w_true @ xb + 0.5 * rng.normal(size=n_b) > 0).astype(float)
    return xa, ya, xb, yb


def _assert_same_bytes_as_reference(task, cfg, init) -> int:
    """Fit ``task`` with ``fit_neuron`` and with ``_reference_fit``, each
    from a fresh ``init()``; require equal bytes, and return the steps."""
    res = fit_neuron(*task, cfg, init())
    w, trace, steps = _reference_fit(*task, cfg, init())
    assert res.weights.tobytes() == w.tobytes()
    assert res.rse_trace_b.tobytes() == np.asarray(trace).tobytes()
    assert (res.steps_taken, res.criterion) == (steps, trace[-1])
    return steps


_TAIL_PARTS = [(660, 1340), (659, 1341), (240, 240), (241, 239), (7, 5)]
_TAIL_WIDTHS = [1, 3, 12, 20]
# Inputs that fit_neuron copies into its own matrices with the bias row:
# as given, as a strided view (the first p columns of a row-major table of
# 2p columns, read as rows, as ``x[:, j][None, :]`` reads one feature), in
# Fortran order, and as integers.
_LAYOUTS = (
    lambda x: x,
    lambda x: np.ascontiguousarray(np.hstack([x.T, x.T]))[:, :x.shape[0]].T,
    np.asfortranarray,
    lambda x: np.rint(4.0 * x).astype(np.int64),
)


class TestFitNeuronBytes:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_bytes_as_projection_step_loop(self, seed):
        rng = np.random.default_rng(seed)
        p, n_a, n_b = int(rng.integers(1, 6)), int(rng.integers(5, 80)), int(rng.integers(5, 80))
        task = _noisy_linear_task(rng, p, n_a, n_b)
        _assert_same_bytes_as_reference(task, TrainConfig(max_steps=60, delta=1e-5), lambda: derive_rng(seed, "init"))

    # Shapes where BLAS leaves its unrolled blocks for a tail: part lengths
    # off a multiple of 4 and 8, one input row, and parts of a few columns.
    # Each shape is fitted from each of _LAYOUTS of its inputs.
    @pytest.mark.parametrize("n_a, n_b", _TAIL_PARTS)
    @pytest.mark.parametrize("p", _TAIL_WIDTHS)
    def test_same_bytes_at_blas_tail_shapes(self, p, n_a, n_b):
        xa, ya, xb, yb = _noisy_linear_task(np.random.default_rng([p, n_a, n_b]), p, n_a, n_b)
        for layout in _LAYOUTS:
            _assert_same_bytes_as_reference((layout(xa), ya, layout(xb), yb),
                                            TrainConfig(max_steps=400, delta=1e-5),
                                            lambda: derive_rng(p, n_a, "init"))

    # The same shapes, each run to a cap of 20 steps. At 400 steps only 10 of
    # them reach the cap; the other fits stop on delta, every p = 1 fit after
    # 32 to 216 steps. p = 12 on (7, 5) is left out: its validation error
    # rises at step 1, so its fit stops there at any cap.
    @pytest.mark.parametrize("p, n_a, n_b", [
        (p, n_a, n_b) for p in _TAIL_WIDTHS for n_a, n_b in _TAIL_PARTS if (p, n_a, n_b) != (12, 7, 5)
    ])
    def test_same_bytes_at_the_step_cap(self, p, n_a, n_b):
        task = _noisy_linear_task(np.random.default_rng([p, n_a, n_b]), p, n_a, n_b)
        steps = _assert_same_bytes_as_reference(task, TrainConfig(max_steps=20, delta=1e-5),
                                                lambda: derive_rng(p, n_a, "init"))
        assert steps == 20


class FixedInit:
    """Stub generator whose normal() returns the given weights."""

    def __init__(self, weights):
        self.weights = weights

    def normal(self, loc, scale, size):
        return np.array(self.weights, dtype=np.float64)


class TestFiniteWeights:
    @staticmethod
    def _task(scale, n_a=100, n_b=50):
        rng = np.random.default_rng(5)
        xa, xb = scale * rng.normal(size=(2, n_a)), scale * rng.normal(size=(2, n_b))
        return xa, (xa[0] > 0).astype(float), xb, (xb[0] > 0).astype(float)

    @pytest.mark.parametrize(
        "scale, init",
        [
            # |w| near 1e200: the squared norm would overflow, the sum does not
            (1.0, lambda: derive_rng(0, "init")),
            # the sum of two weights of 1e308 is inf: the exact test runs and passes
            (1e-10, lambda: FixedInit([1e308, 1e308, 0.1])),
        ],
        ids=["sum-finite", "sum-overflows"],
    )
    def test_large_finite_weights_fit_without_warning(self, scale, init):
        xa, ya, xb, yb = self._task(scale)
        cfg = TrainConfig(init_std=1e200, max_steps=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_neuron(xa, ya, xb, yb, cfg, init())
        w, trace, steps = _reference_fit(xa, ya, xb, yb, cfg, init())
        assert res.weights.tobytes() == w.tobytes()
        assert res.rse_trace_b.tobytes() == np.asarray(trace).tobytes()
        assert res.steps_taken == steps

    @pytest.mark.parametrize("n_a, n_b", [(100, 50), (30, 20)])
    def test_overflowing_input_norm_raises_before_step_1(self, n_a, n_b):
        # with 30 + 20 columns only the squared norm overflows, not the update
        xa, ya, xb, yb = self._task(1e307, n_a, n_b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="squared norm of the fitting inputs overflows"):
                fit_neuron(xa, ya, xb, yb, TrainConfig(), derive_rng(0, "init"))

    def test_infinite_weight_raises_at_its_step(self):
        xa, ya, xb, yb = self._task(1.0)
        with pytest.raises(NumericError, match="non-finite weights at step 1"):
            fit_neuron(xa, ya, xb, yb, TrainConfig(), FixedInit([np.inf, 0.0, 0.1]))
