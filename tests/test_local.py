"""Inner SGD loops: plain, proximal, and control-variate corrected."""

import math

import numpy as np
import pytest

from fedagm import (
    ClientShard,
    LocalConfig,
    ParameterError,
    QuadraticTask,
    RngStream,
    StructuralError,
    make_quadratic_client_data,
    run_local,
    stochastic_gradient,
)


def quadratic_shard(seed=0, n=12, d=4, decay=0.0):
    gen = np.random.default_rng(seed)
    task = QuadraticTask(gen.uniform(0.5, 2.0, d), gen.normal(size=d), weight_decay=decay)
    data = make_quadratic_client_data(task, n, 1.0, RngStream(seed + 100))
    return task, ClientShard(data, 1.0)


class TestPlainSgd:
    def test_single_step_matches_manual_update(self):
        task, shard = quadratic_shard()
        x0 = np.random.default_rng(1).normal(size=task.dim)
        cfg = LocalConfig(K=1, gamma=0.05, batch_size=4)
        out = run_local(task, shard, x0, cfg, rng=RngStream(9))
        g = stochastic_gradient(task, shard.data, x0, 4, RngStream(9))
        np.testing.assert_array_equal(out.x_final, x0 - 0.05 * g.grad)
        assert out.steps_taken == 1

    def test_full_batch_contraction_is_geometric(self):
        # Oracle: with exact gradients each coordinate contracts by
        # (1 - gamma * a_j) per step toward the anchor mean.
        task, shard = quadratic_shard(seed=2)
        x0 = np.random.default_rng(3).normal(size=task.dim)
        K, gamma = 50, 0.1
        cfg = LocalConfig(K=K, gamma=gamma, batch_size=shard.data.n)
        out = run_local(task, shard, x0, cfg, rng=RngStream(0))
        expected = task.center + (1.0 - gamma * task.curvature) ** K * (x0 - task.center)
        np.testing.assert_allclose(out.x_final, expected, atol=1e-10)

    def test_oversized_batch_clamps_to_full_data(self):
        task, shard = quadratic_shard()
        x0 = np.zeros(task.dim)
        cfg = LocalConfig(K=1, gamma=0.1, batch_size=10_000)
        out = run_local(task, shard, x0, cfg, rng=RngStream(1))
        g = stochastic_gradient(task, shard.data, x0, shard.data.n, RngStream(1))
        np.testing.assert_array_equal(out.x_final, x0 - 0.1 * g.grad)

    def test_epoch_mode_step_count(self):
        task, shard = quadratic_shard(n=10)
        cfg = LocalConfig(K=99, gamma=0.01, batch_size=3, epoch_mode=True)
        out = run_local(task, shard, np.zeros(task.dim), cfg, rng=RngStream(2))
        assert out.steps_taken == math.ceil(10 / 3)

    def test_inputs_are_not_mutated(self):
        task, shard = quadratic_shard()
        x0 = np.random.default_rng(4).normal(size=task.dim)
        x0_copy = x0.copy()
        feats_copy = shard.data.features.copy()
        cfg = LocalConfig(K=5, gamma=0.1, batch_size=4)
        run_local(task, shard, x0, cfg, rng=RngStream(3))
        np.testing.assert_array_equal(x0, x0_copy)
        np.testing.assert_array_equal(shard.data.features, feats_copy)

    def test_trajectory_records_every_iterate(self):
        task, shard = quadratic_shard()
        x0 = np.zeros(task.dim)
        cfg = LocalConfig(K=3, gamma=0.05, batch_size=4)
        out = run_local(task, shard, x0, cfg, rng=RngStream(5), record=True)
        # K+1 iterates, first iterate is the start
        assert len(out.trajectory) == 4
        np.testing.assert_array_equal(out.trajectory[0], x0)

    def test_telescoping_identity(self):
        # x_start - x_final == gamma * sum of applied directions, replayed
        # from the recorded iterates on the same stream
        task, shard = quadratic_shard(seed=6)
        x0 = np.random.default_rng(7).normal(size=task.dim)
        cfg = LocalConfig(K=8, gamma=0.02, batch_size=5)
        out = run_local(task, shard, x0, cfg, rng=RngStream(6), record=True)
        gen = RngStream(6).generator()
        directions = [
            stochastic_gradient(task, shard.data, xk, 5, gen).grad for xk in out.trajectory[:-1]
        ]
        moved = x0 - out.x_final
        summed = 0.02 * np.sum(directions, axis=0)
        np.testing.assert_allclose(moved, summed, atol=1e-12)


class TestProx:
    def test_huge_mu_pins_to_start(self):
        task, shard = quadratic_shard()
        x0 = np.random.default_rng(8).normal(size=task.dim)
        cfg = LocalConfig(K=20, gamma=1e-7, batch_size=4, variant="prox", prox_mu=1e6)
        out = run_local(task, shard, x0, cfg, rng=RngStream(7))
        assert float(np.max(np.abs(out.x_final - x0))) < 1e-4

    def test_zero_mu_matches_plain_sgd(self):
        task, shard = quadratic_shard()
        x0 = np.random.default_rng(9).normal(size=task.dim)
        plain = LocalConfig(K=6, gamma=0.05, batch_size=4)
        prox = LocalConfig(K=6, gamma=0.05, batch_size=4, variant="prox", prox_mu=0.0)
        a = run_local(task, shard, x0, plain, rng=RngStream(8))
        b = run_local(task, shard, x0, prox, rng=RngStream(8))
        np.testing.assert_allclose(a.x_final, b.x_final, atol=1e-12)

    def test_anchor_term_in_direction(self):
        # one full-batch step: direction = grad + mu (x - x_start); at the
        # start the anchor term vanishes, so step 1 matches plain SGD, and
        # step 2 must differ.
        task, shard = quadratic_shard(seed=10)
        x0 = np.random.default_rng(11).normal(size=task.dim)
        n = shard.data.n
        one = run_local(
            task, shard, x0,
            LocalConfig(K=1, gamma=0.1, batch_size=n, variant="prox", prox_mu=2.0),
            rng=RngStream(9),
        )
        plain_one = run_local(
            task, shard, x0, LocalConfig(K=1, gamma=0.1, batch_size=n), rng=RngStream(9)
        )
        np.testing.assert_array_equal(one.x_final, plain_one.x_final)
        two = run_local(
            task, shard, x0,
            LocalConfig(K=2, gamma=0.1, batch_size=n, variant="prox", prox_mu=2.0),
            rng=RngStream(9),
        )
        plain_two = run_local(
            task, shard, x0, LocalConfig(K=2, gamma=0.1, batch_size=n), rng=RngStream(9)
        )
        assert not np.allclose(two.x_final, plain_two.x_final)


class TestScaffold:
    def test_requires_server_control_variate(self):
        task, shard = quadratic_shard()
        cfg = LocalConfig(K=2, gamma=0.05, batch_size=4, variant="scaffold")
        with pytest.raises(StructuralError):
            run_local(task, shard, np.zeros(task.dim), cfg)

    def test_rejects_variates_of_the_wrong_dimension(self):
        task, shard = quadratic_shard()
        cfg = LocalConfig(K=2, gamma=0.05, batch_size=4, variant="scaffold")
        x0 = np.zeros(task.dim)
        with pytest.raises(StructuralError):
            run_local(task, shard, x0, cfg, server_cv=np.zeros(task.dim + 1))
        with pytest.raises(StructuralError):
            run_local(task, shard, x0, cfg, server_cv=x0, client_cv=np.zeros(task.dim + 1))

    def test_zero_variates_match_plain_sgd(self):
        task, shard = quadratic_shard(seed=12)
        x0 = np.random.default_rng(13).normal(size=task.dim)
        plain = LocalConfig(K=5, gamma=0.05, batch_size=4)
        scaf = LocalConfig(K=5, gamma=0.05, batch_size=4, variant="scaffold")
        a = run_local(task, shard, x0, plain, rng=RngStream(10))
        b = run_local(task, shard, x0, scaf, server_cv=np.zeros(task.dim), rng=RngStream(10))
        np.testing.assert_allclose(a.x_final, b.x_final, atol=1e-12)

    def test_new_control_variate_identity(self):
        # Option II bookkeeping: c_i' = c_i - c + (x_start - x_K) / (K gamma)
        task, shard = quadratic_shard(seed=14)
        x0 = np.random.default_rng(15).normal(size=task.dim)
        c = 0.1 * np.ones(task.dim)
        ci = -0.05 * np.ones(task.dim)
        ci_given = ci.copy()
        cfg = LocalConfig(K=4, gamma=0.05, batch_size=4, variant="scaffold")
        out = run_local(task, shard, x0, cfg, server_cv=c, client_cv=ci_given, rng=RngStream(11))
        expected = ci - c + (x0 - out.x_final) / (4 * 0.05)
        np.testing.assert_allclose(out.new_control_variate, expected, atol=1e-12)
        # caller's copy untouched
        np.testing.assert_array_equal(ci_given, ci)

    def test_matched_variates_cancel(self):
        # c_i == c makes the correction g - c_i + c collapse back to g.
        task, shard = quadratic_shard(seed=16)
        x0 = np.random.default_rng(17).normal(size=task.dim)
        cv = 0.3 * np.ones(task.dim)
        plain = run_local(
            task, shard, x0, LocalConfig(K=6, gamma=0.05, batch_size=4), rng=RngStream(12)
        )
        corrected = run_local(
            task, shard, x0,
            LocalConfig(K=6, gamma=0.05, batch_size=4, variant="scaffold"),
            server_cv=cv, client_cv=cv.copy(), rng=RngStream(12),
        )
        np.testing.assert_allclose(corrected.x_final, plain.x_final, atol=1e-10)


class TestConfigValidation:
    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            LocalConfig(K=0, gamma=0.1, batch_size=1)
        with pytest.raises(ParameterError):
            LocalConfig(K=1, gamma=0.0, batch_size=1)
        with pytest.raises(ParameterError):
            LocalConfig(K=1, gamma=0.1, batch_size=0)
        with pytest.raises(ParameterError):
            LocalConfig(K=1, gamma=0.1, batch_size=1, variant="svrg")
        with pytest.raises(ParameterError):
            LocalConfig(K=1, gamma=0.1, batch_size=1, variant="prox", prox_mu=-1.0)
