"""Tests for ReCU (Eq. 17) and BN matching (Eq. 16)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd.layers import BatchNorm1d
from repro.autograd.module import Parameter
from repro.core.bn_matching import (
    BnMatchResult,
    match_batch_norm,
    software_reference_output,
)
from repro.core.recu import ReCU, TauSchedule


class TestTauSchedule:
    def test_endpoints(self):
        sched = TauSchedule(0.85, 0.99, total_epochs=10)
        assert sched.value(0) == pytest.approx(0.85)
        assert sched.value(9) == pytest.approx(0.99)

    def test_clamps_past_total(self):
        sched = TauSchedule(0.85, 0.99, total_epochs=10)
        assert sched.value(100) == pytest.approx(0.99)

    def test_single_epoch(self):
        assert TauSchedule(total_epochs=1).value(0) == pytest.approx(0.99)

    def test_validation(self):
        with pytest.raises(ValueError):
            TauSchedule(tau_start=0.3)
        with pytest.raises(ValueError):
            TauSchedule(tau_start=0.9, tau_end=0.8)
        with pytest.raises(ValueError):
            TauSchedule(total_epochs=0)
        with pytest.raises(ValueError):
            TauSchedule().value(-1)


class TestReCUClamp:
    def test_clamp_bounds_are_quantiles(self, rng):
        weights = rng.normal(size=10000)
        clamped = ReCU.clamp_array(weights, tau=0.9)
        assert clamped.max() == pytest.approx(np.quantile(weights, 0.9))
        assert clamped.min() == pytest.approx(np.quantile(weights, 0.1))

    def test_interior_weights_untouched(self, rng):
        weights = rng.normal(size=1000)
        clamped = ReCU.clamp_array(weights, tau=0.99)
        lo, hi = np.quantile(weights, [0.01, 0.99])
        interior = (weights > lo) & (weights < hi)
        np.testing.assert_array_equal(clamped[interior], weights[interior])

    def test_tau_one_is_identity(self, rng):
        weights = rng.normal(size=100)
        np.testing.assert_array_equal(ReCU.clamp_array(weights, 1.0), weights)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            ReCU.clamp_array(np.zeros(4), tau=0.4)

    def test_apply_to_parameters_skips_vectors(self, rng):
        matrix = Parameter(rng.normal(size=(20, 20)) * 10)
        vector = Parameter(rng.normal(size=20) * 10)
        original_vector = vector.data.copy()
        ReCU(TauSchedule(0.85, 0.99, 10)).apply_to_parameters([matrix, vector], epoch=0)
        np.testing.assert_array_equal(vector.data, original_vector)
        assert np.abs(matrix.data).max() < 30  # clamped

    def test_apply_to_module(self, rng):
        from repro.core.layers import RandomizedBinaryLinear

        cell = RandomizedBinaryLinear(30, 20, seed=0)
        cell.weight.data = rng.normal(size=(20, 30)) * 5
        tau = ReCU(TauSchedule(0.85, 0.99, 10)).apply_to_module(cell, epoch=0)
        assert tau == pytest.approx(0.85)
        hi = np.quantile(cell.weight.data, 1.0)
        assert hi <= np.abs(cell.weight.data).max() + 1e-12

    def test_reduces_tails_toward_peak(self, rng):
        """The point of ReCU: outliers move toward the distribution body."""
        weights = np.concatenate([rng.normal(size=1000), np.array([50.0, -50.0])])
        clamped = ReCU.clamp_array(weights, tau=0.95)
        assert np.abs(clamped).max() < 10


#: sha256 of ``trained_mlp(Cs=16, L=8, epochs=8)``'s state dict,
#: recorded when ReCU still made one ``np.quantile`` call per bound.
TRAINED_MLP_DIGEST = "8806d264b3ce06bd02b06787137494e1d6a0feffd3b5b9d2bbf99f3182c795f6"


def test_trained_reference_mlp_is_bit_identical(monkeypatch):
    """Both ReCU bounds come from one quantile call; the reference MLP
    the serving stack trains must still come out bit for bit the same
    (a -0.0 where 0.0 was would change the digest)."""
    from repro.experiments import common
    from repro.hardware.config import HardwareConfig

    monkeypatch.setattr(common, "_MODEL_CACHE", {})
    hardware = HardwareConfig(crossbar_size=16, gray_zone_ua=10.0, window_bits=8)
    model, _, _, _ = common.trained_mlp(hardware, epochs=8)
    digest = hashlib.sha256()
    for name, value in sorted(model.state_dict().items()):
        array = np.ascontiguousarray(value)
        digest.update(f"{name}{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    assert digest.hexdigest() == TRAINED_MLP_DIGEST


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=10, max_size=60),
    st.floats(min_value=0.51, max_value=1.0),
)
def test_recu_clamp_invariants(values, tau):
    """Property: clamping shrinks the range and preserves elementwise order.

    (Idempotency does NOT hold — clamping reshapes the distribution, so
    the quantiles move; ReCU is reapplied every step for exactly this
    reason.)
    """
    weights = np.array(values)
    clamped = ReCU.clamp_array(weights, tau)
    assert clamped.shape == weights.shape
    assert clamped.max() <= weights.max() + 1e-12
    assert clamped.min() >= weights.min() - 1e-12
    order = np.argsort(weights, kind="stable")
    assert np.all(np.diff(clamped[order]) >= -1e-12)


class TestBnMatching:
    def make_params(self, rng, n=8):
        return {
            "gamma": rng.uniform(0.5, 2.0, n) * rng.choice([-1, 1], n),
            "beta": rng.normal(size=n),
            "mean": rng.normal(size=n) * 3,
            "var": rng.uniform(0.1, 4.0, n),
            "alpha": rng.uniform(0.2, 2.0, n),
            "eps": 1e-5,
        }

    def test_eq16_threshold_formula_positive_gamma(self):
        """Ith = (mu/alpha - beta*std/(gamma*alpha)) * I1 for gamma > 0."""
        result = match_batch_norm(
            gamma=np.array([2.0]),
            beta=np.array([1.0]),
            mean=np.array([4.0]),
            var=np.array([0.25]),
            alpha=np.array([0.5]),
            eps=0.0,
            unit_current_ua=3.0,
        )
        expected_t = 4.0 / 0.5 - 1.0 * 0.5 / (2.0 * 0.5)
        assert result.threshold_values[0] == pytest.approx(expected_t)
        assert result.threshold_currents_ua[0] == pytest.approx(expected_t * 3.0)
        assert not result.flip[0]

    def test_negative_slope_flips(self):
        result = match_batch_norm(
            gamma=np.array([-1.0]),
            beta=np.array([0.0]),
            mean=np.array([0.0]),
            var=np.array([1.0]),
            alpha=np.array([1.0]),
            eps=0.0,
            unit_current_ua=1.0,
        )
        assert result.flip[0]

    def test_folded_cell_matches_reference_bn_pipeline(self, rng):
        """sign(BN(alpha * x)) must equal the folded threshold decision."""
        params = self.make_params(rng)
        result = match_batch_norm(unit_current_ua=2.0, **params)
        xconv = rng.integers(-20, 21, size=(64, 8)).astype(float)
        std = np.sqrt(params["var"] + params["eps"])
        bn_out = (
            params["gamma"] * (xconv * params["alpha"] - params["mean"]) / std
            + params["beta"]
        )
        reference = np.where(bn_out >= 0, 1.0, -1.0)
        folded = software_reference_output(xconv, result)
        # Ties (bn_out exactly 0) are measure-zero with random params.
        np.testing.assert_array_equal(folded, reference)

    def test_split_across_crossbars(self):
        result = BnMatchResult(
            threshold_values=np.array([6.0]),
            threshold_currents_ua=np.array([6.0]),
            flip=np.array([False]),
        )
        np.testing.assert_allclose(result.split_across(3), [2.0])
        with pytest.raises(ValueError):
            result.split_across(0)

    def test_validation(self):
        good = dict(
            gamma=np.ones(2),
            beta=np.zeros(2),
            mean=np.zeros(2),
            var=np.ones(2),
            alpha=np.ones(2),
            eps=1e-5,
        )
        with pytest.raises(ValueError):
            match_batch_norm(unit_current_ua=0.0, **good)
        bad = dict(good)
        bad["alpha"] = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            match_batch_norm(unit_current_ua=1.0, **bad)
        bad = dict(good)
        bad["var"] = np.array([1.0, -1.0])
        with pytest.raises(ValueError):
            match_batch_norm(unit_current_ua=1.0, **bad)
        bad = dict(good)
        bad["beta"] = np.zeros(3)
        with pytest.raises(ValueError):
            match_batch_norm(unit_current_ua=1.0, **bad)

    def test_matches_live_batchnorm_layer(self, rng):
        """End-to-end: fold a trained BatchNorm1d and compare decisions."""
        from repro.autograd.tensor import Tensor

        bn = BatchNorm1d(4)
        for _ in range(20):
            bn(Tensor(rng.normal(loc=2.0, scale=3.0, size=(64, 4))))
        bn.weight.data = rng.uniform(0.5, 1.5, 4) * rng.choice([-1, 1], 4)
        bn.bias.data = rng.normal(size=4)
        bn.eval()
        alpha = rng.uniform(0.5, 1.5, 4)
        result = match_batch_norm(
            gamma=bn.weight.data,
            beta=bn.bias.data,
            mean=bn.running_mean,
            var=bn.running_var,
            alpha=alpha,
            eps=bn.eps,
            unit_current_ua=1.0,
        )
        xconv = rng.integers(-10, 11, size=(32, 4)).astype(float)
        bn_out = bn(Tensor(xconv * alpha)).data
        reference = np.where(bn_out >= 0, 1.0, -1.0)
        np.testing.assert_array_equal(
            software_reference_output(xconv, result), reference
        )
