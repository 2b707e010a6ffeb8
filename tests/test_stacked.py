"""The stacked federation: lockstep inner loops and the eval passes give the
per-client definitions' bits exactly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedagm import (
    ClientShard,
    Dataset,
    FederatedProblem,
    LocalConfig,
    LogisticRegressionTask,
    MlpTask,
    QuadraticTask,
    RngStream,
    StackedFederation,
    StructuralError,
    evaluate,
    full_gradient,
    make_quadratic_client_data,
    run_clients,
    run_local,
    stochastic_gradient,
)
from fedagm.orchestrator import weighted_dissimilarity
from fedagm.tasks import client_gradients, client_losses

KINDS = ("quadratic", "logistic", "mlp")


def federation(kind, sizes, seed, width=3, classes=3, hidden=4):
    """Per-client tasks and datasets of the given sizes."""
    gen = np.random.default_rng(seed)
    if kind == "quadratic":
        tasks = [
            QuadraticTask(
                gen.uniform(0.5, 2.0, width),
                gen.normal(size=width),
                weight_decay=float(gen.uniform(0.0, 0.1)),
            )
            for _ in sizes
        ]
        datasets = [
            make_quadratic_client_data(t, n, 1.0, RngStream(seed + i))
            for i, (t, n) in enumerate(zip(tasks, sizes))
        ]
        return tasks, datasets
    if kind == "logistic":
        task = LogisticRegressionTask(width, classes, weight_decay=0.01)
    else:
        task = MlpTask(width, hidden, classes, weight_decay=0.01)
    datasets = [
        Dataset(gen.normal(size=(n, width)), gen.integers(0, classes, n), classes) for n in sizes
    ]
    return [task] * len(sizes), datasets


def reference_local(task, data, x_start, cfg, server_cv, client_cv, gen):
    """The inner loop written out with one stochastic_gradient call per step."""
    batch = min(cfg.batch_size, data.n)
    steps = math.ceil(data.n / batch) if cfg.epoch_mode else cfg.K
    x, trajectory = x_start.copy(), [x_start.copy()]
    for _ in range(steps):
        g = stochastic_gradient(task, data, x, batch, gen).grad
        if cfg.variant == "prox":
            g = g + cfg.prox_mu * (x - x_start)
        elif cfg.variant == "scaffold":
            g = g - client_cv + server_cv
        x = x - cfg.gamma * g
        trajectory.append(x)
    new_cv = None
    if cfg.variant == "scaffold":
        new_cv = client_cv - server_cv + (x_start - x) / (steps * cfg.gamma)
    return x, new_cv, trajectory


def assert_same_result(a, b_final, b_cv, b_trajectory):
    np.testing.assert_array_equal(a.x_final, b_final)
    if b_cv is None:
        assert a.new_control_variate is None
    else:
        np.testing.assert_array_equal(a.new_control_variate, b_cv)
    assert len(a.trajectory) == len(b_trajectory)
    for xa, xb in zip(a.trajectory, b_trajectory):
        np.testing.assert_array_equal(xa, xb)


class TestLockstepEngine:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        variant=st.sampled_from(["sgd", "prox", "scaffold"]),
        epoch_mode=st.booleans(),
        sizes=st.lists(st.integers(1, 12), min_size=1, max_size=4),
        batch=st.integers(1, 10),
        K=st.integers(1, 3),
        width=st.sampled_from([1, 3]),
        slots=st.lists(st.integers(0, 3), min_size=1, max_size=6),
        seed=st.integers(0, 2**16),
    )
    def test_slots_equal_separate_one_slot_runs(
        self, kind, variant, epoch_mode, sizes, batch, K, width, slots, seed
    ):
        # Unequal shards, some smaller than the batch, and clients drawn
        # more than once: every slot keeps the bits of a lone client.
        clients = [s % len(sizes) for s in slots]
        tasks, datasets = federation(kind, sizes, seed, width=width)
        fed = StackedFederation.build(tasks, datasets)
        cfg = LocalConfig(
            K=K, gamma=0.05, batch_size=batch, variant=variant, prox_mu=0.3, epoch_mode=epoch_mode
        )
        gen = np.random.default_rng(seed)
        x0 = 0.3 * gen.normal(size=fed.dim)
        server_cv = client_cvs = None
        if variant == "scaffold":
            server_cv = 0.1 * gen.normal(size=fed.dim)
            client_cvs = 0.1 * gen.normal(size=(len(clients), fed.dim))
        streams = [RngStream(seed).derive(slot, ci) for slot, ci in enumerate(clients)]

        together = run_clients(
            fed, clients, x0, cfg, streams, server_cv=server_cv, client_cvs=client_cvs, record=True
        )
        assert len(together) == len(clients)
        for s, ci in enumerate(clients):
            client_cv = None if client_cvs is None else client_cvs[s]
            alone = run_local(
                tasks[ci], ClientShard(datasets[ci], 1.0), x0, cfg,
                server_cv=server_cv, client_cv=client_cv, rng=streams[s], record=True,
            )
            assert together[s].steps_taken == alone.steps_taken == len(alone.trajectory) - 1
            assert_same_result(
                together[s], alone.x_final, alone.new_control_variate, alone.trajectory
            )
            assert_same_result(
                alone,
                *reference_local(
                    tasks[ci], datasets[ci], x0, cfg, server_cv, client_cv,
                    streams[s].generator(),
                ),
            )

    def test_needs_one_stream_per_slot(self):
        tasks, datasets = federation("quadratic", [4, 4], 0)
        fed = StackedFederation.build(tasks, datasets)
        cfg = LocalConfig(K=1, gamma=0.1, batch_size=2)
        with pytest.raises(StructuralError):
            run_clients(fed, [0, 1], np.zeros(fed.dim), cfg, [RngStream(0)])


class TestStackedEval:
    # Widths and unequal sizes for which one BLAS product over all rows can
    # round rows differently from the same product over each client's rows.
    SIZES = [1, 5, 17, 40, 3, 64]

    def problem(self, kind):
        tasks, datasets = federation(kind, self.SIZES, 3, width=40, classes=10, hidden=33)
        p = np.array(self.SIZES, dtype=np.float64) / sum(self.SIZES)
        return FederatedProblem(tasks, [ClientShard(d, w) for d, w in zip(datasets, p)])

    @pytest.mark.parametrize("kind", KINDS)
    def test_client_rows_equal_evaluate_and_full_gradient(self, kind):
        problem = self.problem(kind)
        x = 0.2 * np.random.default_rng(5).normal(size=problem.dim)
        losses = client_losses(problem.stacked, x)
        grads = client_gradients(problem.stacked, x)
        assert grads.shape == (problem.N, problem.dim)
        for i, (task, shard) in enumerate(zip(problem.client_tasks, problem.shards)):
            assert losses[i] == evaluate(task, shard.data, x)[0]
            np.testing.assert_array_equal(grads[i], full_gradient(task, shard.data, x))

    @pytest.mark.parametrize("kind", KINDS)
    def test_problem_passes_equal_the_per_client_sums(self, kind):
        problem = self.problem(kind)
        x = 0.2 * np.random.default_rng(6).normal(size=problem.dim)
        pairs = list(zip(problem.weights, problem.client_tasks, problem.shards))
        assert problem.train_loss(x) == float(
            sum(w * evaluate(t, s.data, x)[0] for w, t, s in pairs)
        )
        stack = np.stack([full_gradient(t, s.data, x) for _, t, s in pairs])
        mean, sigma_g = weighted_dissimilarity(stack, problem.weights)
        assert problem.gradient_stats(x) == (float(mean @ mean), sigma_g)
        np.testing.assert_array_equal(problem.global_gradient(x), problem.weights @ stack)

    def test_view_is_built_once_per_problem(self):
        problem = self.problem("logistic")
        assert problem.stacked is problem.stacked
        np.testing.assert_array_equal(problem.stacked.sizes, self.SIZES)
