"""Round-loop behavior: determinism, recovery maps, schedules, divergence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedagm.orchestrator as orch
from fedagm import (
    ClientShard,
    ExperimentConfig,
    FederatedProblem,
    LocalConfig,
    LogisticRegressionTask,
    MlpTask,
    ParameterError,
    PlateauTracker,
    QuadraticTask,
    RngStream,
    SamplingSpec,
    ScheduleSpec,
    ServerOptimizer,
    StructuralError,
    apply_schedule,
    init_params,
    make_blobs_dataset,
    make_quadratic_client_data,
    make_synthetic_federated_quadratic,
    named_optimizer,
    run_clients,
    run_experiment,
    stochastic_gradient,
)
from fedagm.orchestrator import TAG_INIT, TAG_LOCAL
from fedagm.serialize import metrics_to_csv


# The blow-up tests overflow on purpose.
quiet_overflow = pytest.mark.filterwarnings(
    "ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning"
)


def quadratic_problem(N=3, d=4, het=1.0, n=12, seed=0, noise=1.0):
    tasks, p = make_synthetic_federated_quadratic(N, d, het, RngStream(seed))
    shards = [
        ClientShard(make_quadratic_client_data(t, n, noise, RngStream(seed + 1 + i)), w)
        for i, (t, w) in enumerate(zip(tasks, p))
    ]
    return FederatedProblem(tasks, shards)


def config(problem, **kw):
    base = dict(
        problem=problem,
        local=LocalConfig(K=3, gamma=0.02, batch_size=6),
        sampling=SamplingSpec(S=2),
        server=named_optimizer("s-FedAdam", eta=0.1),
        rounds=12,
        seed=7,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestSingleStepRecovery:
    def test_one_client_one_round_is_a_gradient_step(self):
        # S = N = 1, K = 1, avg with unit eta: the round must produce exactly
        # x0 - gamma * g where g is the one stochastic gradient drawn from
        # the round's stream.
        problem = quadratic_problem(N=1)
        cfg = config(
            problem,
            local=LocalConfig(K=1, gamma=0.05, batch_size=problem.shards[0].data.n),
            sampling=SamplingSpec(S=1, mode="full"),
            server=ServerOptimizer("avg", eta=1.0),
            rounds=1,
            seed=11,
        )
        result = run_experiment(cfg)
        root = RngStream(11)
        x0 = init_params(problem.client_tasks[0], root.derive(TAG_INIT))
        g = stochastic_gradient(
            problem.client_tasks[0],
            problem.shards[0].data,
            x0,
            problem.shards[0].data.n,
            root.derive(TAG_LOCAL, 0, 0, 0),
        )
        np.testing.assert_array_equal(result.final_x, x0 - 0.05 * g.grad)


class TestReferenceMap:
    def test_full_participation_avg_matches_naive_reimplementation(self):
        # Independent oracle: an explicit loop over rounds, clients, and
        # inner steps, averaging finals by hand. Must agree bit for bit.
        problem = quadratic_problem(N=3, seed=3)
        K, gamma, B, T = 4, 0.03, 5, 6
        cfg = config(
            problem,
            local=LocalConfig(K=K, gamma=gamma, batch_size=B),
            sampling=SamplingSpec(S=3, mode="full"),
            server=ServerOptimizer("avg", eta=1.0),
            rounds=T,
            seed=123,
        )
        result = run_experiment(cfg)

        root = RngStream(123)
        x = init_params(problem.client_tasks[0], root.derive(TAG_INIT))
        for t in range(T):
            finals = []
            for slot in range(3):
                gen = root.derive(TAG_LOCAL, t, slot, slot).generator()
                xi = x.copy()
                for _ in range(K):
                    g = stochastic_gradient(
                        problem.client_tasks[slot], problem.shards[slot].data, xi, B, gen
                    )
                    xi = xi - gamma * g.grad
                finals.append(xi)
            x = np.stack(finals).mean(axis=0)
        np.testing.assert_array_equal(result.final_x, x)


class TestDeterminism:
    def test_same_seed_same_log(self):
        problem = quadratic_problem()
        a = run_experiment(config(problem))
        b = run_experiment(config(problem))
        assert metrics_to_csv(a.metrics) == metrics_to_csv(b.metrics)
        np.testing.assert_array_equal(a.final_x, b.final_x)

    def test_different_seeds_differ(self):
        problem = quadratic_problem()
        a = run_experiment(config(problem, seed=1))
        b = run_experiment(config(problem, seed=2))
        assert not np.array_equal(a.final_x, b.final_x)


class TestMessageCounts:
    def test_one_local_run_per_slot_per_round(self, monkeypatch):
        # one engine call per round, carrying every slot of the round
        problem = quadratic_problem(N=4)
        calls = []
        real = orch.run_clients

        def counting(fed, clients, *args, **kw):
            out = real(fed, clients, *args, **kw)
            calls.append((len(clients), len(out)))
            return out

        monkeypatch.setattr(orch, "run_clients", counting)
        cfg = config(problem, sampling=SamplingSpec(S=3), rounds=5)
        run_experiment(cfg)
        assert calls == [(3, 3)] * 5

    def test_one_aggregate_per_round(self, monkeypatch):
        problem = quadratic_problem()
        calls = []
        real = orch.aggregate

        def counting(*args, **kw):
            calls.append(1)
            return real(*args, **kw)

        monkeypatch.setattr(orch, "aggregate", counting)
        run_experiment(config(problem, rounds=7))
        assert len(calls) == 7


class TestMetricsLog:
    def test_row_cadence_and_fields(self):
        problem = quadratic_problem()
        cfg = config(problem, rounds=10, eval_every=3)
        result = run_experiment(cfg)
        assert [row.t for row in result.metrics] == [0, 3, 6, 9]
        for row in result.metrics:
            assert len(row.clients) == 2
            assert row.wall_ms == 0.0
            assert np.isfinite(row.train_loss)
            assert np.isfinite(row.grad_norm_sq)

    def test_walltime_opt_in(self):
        problem = quadratic_problem()
        result = run_experiment(config(problem, rounds=3, record_walltime=True))
        assert any(row.wall_ms > 0 for row in result.metrics)

    def test_loss_decreases_on_easy_problem(self):
        problem = quadratic_problem(N=4, het=0.5)
        cfg = config(
            problem,
            server=named_optimizer("FedAvg", eta=1.0),
            sampling=SamplingSpec(S=4, mode="full"),
            rounds=60,
        )
        result = run_experiment(cfg)
        assert result.metrics[-1].train_loss < result.metrics[0].train_loss
        assert result.metrics[-1].grad_norm_sq < result.metrics[0].grad_norm_sq

    def test_recorded_clients_match_slot_order(self):
        problem = quadratic_problem(N=6)
        cfg = config(problem, sampling=SamplingSpec(S=3), rounds=4)
        result = run_experiment(cfg)
        from fedagm import sample_round
        from fedagm.orchestrator import TAG_SAMPLE

        root = RngStream(cfg.seed)
        for row in result.metrics:
            expected = sample_round(problem.weights, cfg.sampling, root.derive(TAG_SAMPLE, row.t))
            assert row.clients == [int(c) for c in expected]


class TestDiagnostics:
    def test_iterates_cover_every_round_plus_final(self):
        problem = quadratic_problem()
        result = run_experiment(config(problem, rounds=9, record_iterates=True))
        assert len(result.iterates) == 10
        np.testing.assert_array_equal(result.iterates[-1], result.final_x)

    def test_drift_matrix_shape_and_zero_start(self):
        problem = quadratic_problem()
        cfg = config(problem, rounds=6, record_drift=True)
        result = run_experiment(cfg)
        assert result.drift.shape == (6, 4)
        np.testing.assert_array_equal(result.drift[:, 0], np.zeros(6))
        assert np.all(result.drift[:, 1:] >= 0)
        # drift grows with k within a round on average
        assert result.drift[:, -1].mean() >= result.drift[:, 1].mean()


class TestScaffoldIntegration:
    def test_single_client_scaffold_tracks_plain_sgd(self):
        # With N = 1 the server and client variates coincide, so the
        # correction cancels and the trajectory matches plain SGD.
        problem = quadratic_problem(N=1)
        n = problem.shards[0].data.n
        common = dict(
            sampling=SamplingSpec(S=1, mode="full"),
            server=ServerOptimizer("avg", eta=1.0),
            rounds=8,
            record_iterates=True,
        )
        plain = run_experiment(
            config(problem, local=LocalConfig(K=4, gamma=0.05, batch_size=n), **common)
        )
        scaf = run_experiment(
            config(
                problem,
                local=LocalConfig(K=4, gamma=0.05, batch_size=n, variant="scaffold"),
                **common,
            )
        )
        for xa, xb in zip(plain.iterates, scaf.iterates):
            np.testing.assert_allclose(xa, xb, atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(
        N=st.integers(2, 6),
        S=st.integers(1, 6),
        mode=st.sampled_from(["weighted", "full"]),
        seed=st.integers(0, 2**16),
    )
    def test_server_variate_is_the_mean_of_client_variates(self, N, S, mode, seed):
        # SCAFFOLD's server variate is the mean of all N client variates.
        # Rebuild the client table from the logged draws (slot order, last
        # slot wins) and check every server variate a slot receives.
        problem = quadratic_problem(N=N, seed=seed)
        S = N if mode == "full" else S
        cfg = config(
            problem,
            local=LocalConfig(K=3, gamma=0.05, batch_size=6, variant="scaffold"),
            sampling=SamplingSpec(S=S, mode=mode),
            server=ServerOptimizer("avg", eta=1.0),
            rounds=15,
            eval_every=1,
            seed=seed,
        )
        calls = []

        def recording_run_clients(fed, clients, *args, **kwargs):
            out = run_clients(fed, clients, *args, **kwargs)
            rows = [res.new_control_variate.copy() for res in out]
            calls.append((list(clients), kwargs["server_cv"].copy(), rows))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orch, "run_clients", recording_run_clients)
            result = run_experiment(cfg)

        assert len(result.metrics) == cfg.rounds == len(calls)
        table = np.zeros((N, problem.dim))
        for row, (clients, server_cv, rows) in zip(result.metrics, calls):
            assert clients == row.clients and len(rows) == S
            np.testing.assert_allclose(server_cv, table.mean(axis=0), rtol=0, atol=1e-12)
            for ci, new_cv in zip(clients, rows):
                table[ci] = new_cv
        np.testing.assert_array_equal(result.control_variates, table)

    def test_scaffold_state_is_tracked(self):
        problem = quadratic_problem(N=3)
        cfg = config(
            problem,
            local=LocalConfig(K=3, gamma=0.02, batch_size=6, variant="scaffold"),
            sampling=SamplingSpec(S=2),
            server=ServerOptimizer("avg", eta=1.0),
            rounds=5,
        )
        result = run_experiment(cfg)
        assert result.control_variates.shape == (problem.N, problem.dim)
        assert np.all(np.isfinite(result.control_variates))
        plain = run_experiment(config(problem, rounds=2))
        assert plain.control_variates is None


class TestSchedules:
    def test_multistage_boundaries(self):
        s = ScheduleSpec(kind="multistage")
        assert apply_schedule(s, 0, 100) == 1.0
        assert apply_schedule(s, 49, 100) == 1.0
        assert apply_schedule(s, 50, 100) == pytest.approx(0.1)
        assert apply_schedule(s, 75, 100) == pytest.approx(0.01)
        assert apply_schedule(s, 99, 100) == pytest.approx(0.01)

    def test_constant_is_one(self):
        assert apply_schedule(ScheduleSpec(), 5, 10) == 1.0

    def test_round_range_checked(self):
        with pytest.raises(ParameterError):
            apply_schedule(ScheduleSpec(), 10, 10)

    def test_plateau_tracker_never_decays_on_improvement(self):
        tracker = PlateauTracker(patience=3)
        for loss in np.linspace(10, 1, 50):
            tracker.update(float(loss))
        assert tracker.decays == 0

    def test_plateau_tracker_decays_on_stall(self):
        tracker = PlateauTracker(patience=4)
        tracker.update(1.0)
        for _ in range(8):
            tracker.update(1.0)
        assert tracker.decays == 2

    def test_multistage_gamma_lands_in_the_log(self):
        problem = quadratic_problem()
        cfg = config(
            problem,
            rounds=20,
            eval_every=1,
            gamma_schedule=ScheduleSpec(kind="multistage"),
        )
        result = run_experiment(cfg)
        gammas = {row.t: row.gamma for row in result.metrics}
        assert gammas[0] == pytest.approx(0.02)
        assert gammas[10] == pytest.approx(0.002)
        assert gammas[15] == pytest.approx(0.0002)

    def test_plateau_schedule_runs(self):
        problem = quadratic_problem()
        cfg = config(
            problem,
            rounds=15,
            eval_every=5,
            gamma_schedule=ScheduleSpec(kind="plateau", patience=3, factor=0.5),
        )
        result = run_experiment(cfg)
        assert len(result.metrics) == 4

    def test_schedule_validation(self):
        with pytest.raises(ParameterError):
            ScheduleSpec(kind="cosine")
        with pytest.raises(ParameterError):
            ScheduleSpec(kind="multistage", decay=0.0)
        with pytest.raises(ParameterError):
            ScheduleSpec(kind="multistage", fractions=(0.5, 1.5))
        with pytest.raises(ParameterError):
            ScheduleSpec(kind="plateau", patience=0)


class TestDivergence:
    def test_explosive_stepsize_aborts(self):
        problem = quadratic_problem()
        cfg = config(
            problem,
            local=LocalConfig(K=5, gamma=50.0, batch_size=6),
            server=named_optimizer("FedAvg", eta=1.0),
            sampling=SamplingSpec(S=3),
            rounds=200,
        )
        result = run_experiment(cfg)
        assert result.diverged
        assert result.divergence_round is not None
        assert result.divergence_round < 200
        assert len(result.metrics) < 200

    @quiet_overflow
    def test_blow_up_in_the_last_round_is_diverged(self):
        problem = quadratic_problem(N=4)
        cfg = config(
            problem,
            local=LocalConfig(K=3, gamma=1e120, batch_size=6),
            server=named_optimizer("FedAvg", eta=1.0),
            rounds=1,
        )
        result = run_experiment(cfg)
        assert not np.all(np.isfinite(result.final_x))
        assert result.diverged and result.divergence_round == 1
        assert [row.t for row in result.metrics] == [0]


class TestProblemValidation:
    def test_weight_sum_enforced(self):
        task = QuadraticTask(np.ones(2), np.zeros(2))
        data = make_quadratic_client_data(task, 4, 1.0, RngStream(0))
        with pytest.raises(StructuralError):
            FederatedProblem([task], [ClientShard(data, 0.7)])

    def test_task_shard_count_must_agree(self):
        task = QuadraticTask(np.ones(2), np.zeros(2))
        data = make_quadratic_client_data(task, 4, 1.0, RngStream(0))
        with pytest.raises(StructuralError):
            FederatedProblem([task, task], [ClientShard(data, 1.0)])

    def test_rejects_data_clients_with_different_tasks(self):
        data = make_blobs_dataset(20, 3, 4, RngStream(0))
        tasks = [LogisticRegressionTask(4, 3), LogisticRegressionTask(4, 3, weight_decay=0.1)]
        with pytest.raises(StructuralError, match="share one task"):
            FederatedProblem(tasks, [ClientShard(data, 0.5), ClientShard(data, 0.5)])

    def test_rejects_shards_whose_width_does_not_fit_the_task(self):
        data = make_blobs_dataset(20, 3, 5, RngStream(0))
        with pytest.raises(StructuralError, match="features"):
            FederatedProblem([LogisticRegressionTask(4, 3)], [ClientShard(data, 1.0)])
        task = QuadraticTask(np.ones(2), np.zeros(2))
        wide = QuadraticTask(np.ones(3), np.zeros(3))
        anchors = make_quadratic_client_data(wide, 4, 1.0, RngStream(0))
        with pytest.raises(StructuralError, match="features"):
            FederatedProblem([task], [ClientShard(anchors, 1.0)])

    def test_rejects_labels_outside_the_task(self):
        data = make_blobs_dataset(40, 5, 4, RngStream(0))
        with pytest.raises(StructuralError, match="labels"):
            FederatedProblem([MlpTask(4, 3, 3)], [ClientShard(data, 1.0)])

    def test_rejects_a_test_set_that_does_not_fit_the_task(self):
        data = make_blobs_dataset(20, 3, 4, RngStream(0))
        with pytest.raises(StructuralError, match="features"):
            FederatedProblem(
                [LogisticRegressionTask(4, 3)],
                [ClientShard(data, 1.0)],
                test_data=make_blobs_dataset(20, 3, 6, RngStream(1)),
            )

    def test_rejects_mixed_task_kinds(self):
        quad = QuadraticTask(np.ones(4), np.zeros(4))
        anchors = make_quadratic_client_data(quad, 6, 1.0, RngStream(0))
        blobs = make_blobs_dataset(20, 3, 4, RngStream(0))
        with pytest.raises(StructuralError, match="mix task kinds"):
            FederatedProblem(
                [quad, LogisticRegressionTask(4, 3)],
                [ClientShard(anchors, 0.5), ClientShard(blobs, 0.5)],
            )

    def test_rejects_quadratics_of_different_dimension(self):
        tasks = [QuadraticTask(np.ones(2), np.zeros(2)), QuadraticTask(np.ones(3), np.zeros(3))]
        shards = [
            ClientShard(make_quadratic_client_data(t, 4, 1.0, RngStream(i)), 0.5)
            for i, t in enumerate(tasks)
        ]
        with pytest.raises(StructuralError, match="one dimension"):
            FederatedProblem(tasks, shards)

    def test_init_x_shape_checked(self):
        problem = quadratic_problem()
        cfg = config(problem, init_x=np.zeros(problem.dim + 1))
        with pytest.raises(StructuralError):
            run_experiment(cfg)

    def test_init_x_is_used_and_not_aliased(self):
        problem = quadratic_problem()
        x0 = np.full(problem.dim, 0.5)
        cfg = config(problem, rounds=1, init_x=x0, record_iterates=True)
        result = run_experiment(cfg)
        np.testing.assert_array_equal(result.iterates[0], x0)
        assert result.iterates[0] is not x0

    def test_weights_within_tolerance_run_and_report(self):
        # Weights summing to 1 + 5e-10 pass construction, so every later
        # weight check must accept them too.
        from fedagm.cli import _bound_report

        problem = quadratic_problem(N=4)
        p = [0.25, 0.25, 0.25, 0.25 + 5e-10]
        problem = FederatedProblem(
            problem.client_tasks,
            [ClientShard(s.data, w) for s, w in zip(problem.shards, p)],
        )
        assert abs(problem.weights.sum() - 1.0) > 1e-12
        cfg = config(problem, sampling=SamplingSpec(S=3), rounds=3)
        result = run_experiment(cfg)
        assert len(result.metrics) == 3 and not result.diverged
        assert "constants" in _bound_report(cfg, result)

    def test_gradient_stats_match_direct_computation(self):
        problem = quadratic_problem(N=4)
        x = np.random.default_rng(0).normal(size=problem.dim)
        gns, sg = problem.gradient_stats(x)
        g = problem.global_gradient(x)
        assert gns == pytest.approx(float(g @ g), rel=1e-12)
        from fedagm import empirical_sigma_g

        assert sg == pytest.approx(
            empirical_sigma_g(problem.client_tasks, problem.shards, [x]), rel=1e-12
        )
