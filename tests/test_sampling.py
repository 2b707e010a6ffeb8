"""Client selection: weighted-with-replacement draws and full participation."""

import math

import numpy as np
import pytest

from fedagm import (
    ParameterError,
    RngStream,
    SamplingSpec,
    StructuralError,
    sample_round,
)


class TestFullParticipation:
    def test_returns_every_client_once_in_order(self):
        spec = SamplingSpec(S=6, mode="full")
        out = sample_round(np.full(6, 1 / 6), spec, RngStream(0))
        np.testing.assert_array_equal(out, np.arange(6))

    def test_requires_s_equal_n(self):
        spec = SamplingSpec(S=3, mode="full")
        with pytest.raises(StructuralError):
            sample_round(np.full(6, 1 / 6), spec, RngStream(0))


class TestWeightedDraws:
    def test_degenerate_weights_always_pick_that_client(self):
        p = np.array([0.0, 1.0, 0.0, 0.0])
        spec = SamplingSpec(S=5)
        for seed in range(20):
            out = sample_round(p, spec, RngStream(seed))
            np.testing.assert_array_equal(out, np.ones(5, dtype=np.int64))

    def test_draws_are_with_replacement(self):
        # two clients, five slots: some slot must repeat
        out = sample_round(np.array([0.5, 0.5]), SamplingSpec(S=5), RngStream(3))
        assert out.shape == (5,)
        assert len(np.unique(out)) <= 2

    def test_empirical_frequencies_match_weights(self):
        # Oracle: slot draws are iid Categorical(p); over 100k rounds of S=4
        # each client's frequency sits within 3 standard errors of p_i.
        p = np.array([0.05, 0.1, 0.15, 0.2, 0.23, 0.27])
        spec = SamplingSpec(S=4)
        stream = RngStream(42)
        rounds = 100_000
        counts = np.zeros(6)
        for t in range(rounds):
            draws = sample_round(p, spec, stream.derive(t))
            counts += np.bincount(draws, minlength=6)
        total = rounds * spec.S
        freq = counts / total
        se = np.sqrt(p * (1 - p) / total)
        assert np.all(np.abs(freq - p) <= 3.0 * se)

    def test_weighted_average_is_unbiased(self):
        # Oracle: E[(1/S) sum h(i_s)] = sum_i p_i h(i); MC check within 4 SE.
        gen = np.random.default_rng(9)
        p = gen.dirichlet(np.ones(8))
        h = gen.normal(size=8)
        target = float(p @ h)
        spec = SamplingSpec(S=3)
        stream = RngStream(77)
        vals = np.array(
            [h[sample_round(p, spec, stream.derive(t))].mean() for t in range(20_000)]
        )
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - target) <= 4.0 * se

    def test_determinism(self):
        p = np.full(10, 0.1)
        a = sample_round(p, SamplingSpec(S=4), RngStream(5, 2))
        b = sample_round(p, SamplingSpec(S=4), RngStream(5, 2))
        np.testing.assert_array_equal(a, b)


class TestValidation:
    def test_negative_weight(self):
        with pytest.raises(ParameterError):
            sample_round(np.array([-0.1, 1.1]), SamplingSpec(S=1), RngStream(0))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(StructuralError):
            sample_round(np.array([0.3, 0.3]), SamplingSpec(S=1), RngStream(0))

    @pytest.mark.parametrize("p", [[np.nan, 1.0], [np.inf, 0.0]])
    def test_non_finite_weight(self, p):
        with pytest.raises(ParameterError):
            sample_round(np.array(p), SamplingSpec(S=1), RngStream(0))

    def test_weights_must_be_a_nonempty_vector(self):
        for p in (np.ones((1, 1)), np.ones(0)):
            with pytest.raises(StructuralError):
                sample_round(p, SamplingSpec(S=1), RngStream(0))

    def test_bad_spec_parameters(self):
        with pytest.raises(ParameterError):
            SamplingSpec(S=0)
        with pytest.raises(ParameterError):
            SamplingSpec(S=1, mode="stratified")
