"""The stacked federation: lockstep inner loops and the eval passes give the
per-client definitions' bits exactly."""

import contextlib
import math
import tracemalloc

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
    l2_norm_sq,
    make_quadratic_client_data,
    run_clients,
    run_local,
    stochastic_gradient,
)
from fedagm import tasks as tasks_module
from fedagm.tasks import client_evaluation, row_blocks, weighted_dissimilarity
from fedagm.theory import _minibatch_noise, estimate_problem_constants

KINDS = ("quadratic", "logistic", "mlp")


def federation(kind, sizes, seed, width=3, classes=3, hidden=4, decay=None):
    """Per-client tasks and datasets of the given sizes. The clients share
    one weight decay: `decay`, or if None one drawn per federation for
    quadratics and 0.01 for data tasks."""
    gen = np.random.default_rng(seed)
    if kind == "quadratic":
        decay = float(gen.uniform(0.0, 0.1)) if decay is None else decay
        tasks = [
            QuadraticTask(gen.uniform(0.5, 2.0, width), gen.normal(size=width), weight_decay=decay)
            for _ in sizes
        ]
        datasets = [
            make_quadratic_client_data(t, n, 1.0, RngStream(seed + i))
            for i, (t, n) in enumerate(zip(tasks, sizes))
        ]
        return tasks, datasets
    decay = 0.01 if decay is None else decay
    if kind == "logistic":
        task = LogisticRegressionTask(width, classes, weight_decay=decay)
    else:
        task = MlpTask(width, hidden, classes, weight_decay=decay)
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
        decay=st.sampled_from([None, 0.0, 0.02]),
    )
    def test_slots_equal_separate_one_slot_runs(
        self, kind, variant, epoch_mode, sizes, batch, K, width, slots, seed, decay
    ):
        # Unequal shards, some smaller than the batch, and clients drawn
        # more than once: every slot keeps the bits of a lone client. The
        # clients' shared weight decay is drawn, fixed, or zero.
        clients = [s % len(sizes) for s in slots]
        tasks, datasets = federation(kind, sizes, seed, width=width, decay=decay)
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
        lanes = RngStream(seed).derive_lanes(np.arange(len(clients)), np.array(clients))
        streams = [RngStream(seed).derive(slot, ci) for slot, ci in enumerate(clients)]

        together = run_clients(
            fed, clients, x0, cfg, lanes, server_cv=server_cv, client_cvs=client_cvs, record=True
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
            one_lane = RngStream(0).derive_lanes(np.arange(1))
            run_clients(fed, [0, 1], np.zeros(fed.dim), cfg, one_lane)


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
        losses = client_evaluation(problem.stacked, x, gradients=False)[0]
        grads = client_evaluation(problem.stacked, x)[1]
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
        assert problem.gradient_stats(x) == (l2_norm_sq(mean), sigma_g)
        np.testing.assert_array_equal(problem.global_gradient(x), problem.weights @ stack)

    @given(
        kind=st.sampled_from(KINDS),
        shape=st.sampled_from([(3, 3, 4), (40, 10, 33)]),
        sizes=st.lists(st.sampled_from([1, 3, 8]), min_size=1, max_size=9),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_repeated_sizes_batch_with_the_bits_of_each_client(self, kind, shape, sizes, seed):
        # with sizes drawn from a small set, most size groups hold several
        # clients, consecutive or not, and run as one batched kernel call
        width, classes, hidden = shape
        tasks, datasets = federation(kind, sizes, seed, width=width, classes=classes, hidden=hidden)
        p = np.array(sizes, dtype=np.float64) / sum(sizes)
        problem = FederatedProblem(tasks, [ClientShard(d, w) for d, w in zip(datasets, p)])
        x = 0.2 * np.random.default_rng(seed).normal(size=problem.dim)
        pairs = list(zip(problem.weights, tasks, datasets))
        losses = client_evaluation(problem.stacked, x, gradients=False)[0]
        grads = client_evaluation(problem.stacked, x)[1]
        np.testing.assert_array_equal(losses, [evaluate(t, d, x)[0] for _, t, d in pairs])
        stack = np.stack([full_gradient(t, d, x) for _, t, d in pairs])
        np.testing.assert_array_equal(grads, stack)
        assert problem.train_loss(x) == float(sum(w * evaluate(t, d, x)[0] for w, t, d in pairs))
        mean, sigma_g = weighted_dissimilarity(stack, problem.weights)
        assert problem.gradient_stats(x) == (l2_norm_sq(mean), sigma_g)

    @given(
        kind=st.sampled_from(KINDS),
        shape=st.sampled_from([(3, 3, 4), (40, 10, 33)]),
        sizes=st.lists(st.sampled_from([1, 3, 8]), min_size=1, max_size=9),
        decay=st.sampled_from([None, 0.0, 0.02]),
        gradients=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_pass_gives_evaluate_and_full_gradient_bits(
        self, kind, shape, sizes, decay, gradients, seed
    ):
        # The round loop's pass: losses alone (plateau rounds that log no
        # row), or losses and gradients from one forward per size group.
        width, classes, hidden = shape
        tasks, datasets = federation(
            kind, sizes, seed, width=width, classes=classes, hidden=hidden, decay=decay
        )
        fed = StackedFederation.build(tasks, datasets)
        x = 0.2 * np.random.default_rng(seed).normal(size=fed.dim)
        losses, grads = client_evaluation(fed, x, gradients=gradients)
        np.testing.assert_array_equal(losses, [evaluate(t, d, x)[0] for t, d in zip(tasks, datasets)])
        if not gradients:
            assert grads is None
            return
        stack = np.stack([full_gradient(t, d, x) for t, d in zip(tasks, datasets)])
        np.testing.assert_array_equal(grads, stack)

    def test_quadratic_clients_must_share_one_decay(self):
        # a client's own decay folds into its curvature and center instead
        tasks, datasets = federation("quadratic", [4, 4], 0, decay=0.3)
        tasks[1] = QuadraticTask(tasks[1].curvature, tasks[1].center, weight_decay=0.2)
        with pytest.raises(StructuralError, match="one weight decay"):
            StackedFederation.build(tasks, datasets)
        with pytest.raises(StructuralError, match="one weight decay"):
            FederatedProblem(tasks, [ClientShard(d, 0.5) for d in datasets])

    @pytest.mark.parametrize("kind", KINDS)
    def test_gradients_without_rows_need_one_shard_size(self, kind):
        # draws=None takes each slot's full data: one (S, n) block of rows,
        # so a data task's clients must share n; quadratics are analytic
        tasks, datasets = federation(kind, (5, 3, 5), 4)
        fed = StackedFederation.build(tasks, datasets)
        x = 0.2 * np.random.default_rng(7).normal(size=(4, fed.dim))
        same, mixed = [2, 0, 2, 0], [1, 0, 1, 1]
        if kind == "quadratic":
            cases = (same, mixed)
        else:
            cases = (same,)
            with pytest.raises(StructuralError, match="one shard size"):
                fed.data_gradients(mixed, x)
        for clients in cases:
            grads = fed.data_gradients(clients, x) + fed.task.weight_decay * x
            for s, c in enumerate(clients):
                np.testing.assert_array_equal(grads[s], full_gradient(tasks[c], datasets[c], x[s]))

    @given(
        kind=st.sampled_from(KINDS),
        sizes=st.lists(st.integers(1, 12), min_size=2, max_size=5, unique=True),
        slots=st.lists(st.integers(0, 4), min_size=2, max_size=6),
        batch=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_draws_index_each_clients_own_shard(self, kind, sizes, slots, batch, seed):
        # unequal shards and a client drawn twice: row s takes the draws of
        # slot s as rows of its client's dataset, not of the stacked rows
        clients = [s % len(sizes) for s in slots] + [slots[0] % len(sizes)]
        tasks, datasets = federation(kind, sizes, seed, width=3, classes=3, hidden=4)
        fed = StackedFederation.build(tasks, datasets)
        gen = np.random.default_rng(seed)
        xs = 0.3 * gen.normal(size=(len(clients), fed.dim))
        draws = np.stack([gen.integers(0, sizes[c], batch) for c in clients])
        grads = fed.data_gradients(clients, xs, draws)
        for s, c in enumerate(clients):
            f, y = datasets[c].features[draws[s]], datasets[c].labels[draws[s]]
            one = np.empty((1, fed.dim))
            alone = tasks_module._stacked(tasks[c], f[None], y[None], xs[s][None], one)
            np.testing.assert_array_equal(grads[s], alone[0])

    def test_view_is_built_once_per_problem(self):
        problem = self.problem("logistic")
        assert problem.stacked is problem.stacked
        np.testing.assert_array_equal(problem.stacked.sizes, self.SIZES)


class TestRowLayout:
    @given(
        kind=st.sampled_from(KINDS),
        sizes=st.lists(st.sampled_from([1, 2, 5]) | st.integers(1, 12), min_size=1, max_size=10),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_are_ordered_by_shard_size_and_groups_are_views(self, kind, sizes, seed):
        # unsorted, repeated and one-row shard sizes
        tasks, datasets = federation(kind, sizes, seed)
        fed = StackedFederation.build(tasks, datasets)
        np.testing.assert_array_equal(fed.sizes, sizes)
        for i, data in enumerate(datasets):
            rows = slice(fed.starts[i], fed.starts[i] + sizes[i])
            np.testing.assert_array_equal(fed.features[rows], data.features)
            np.testing.assert_array_equal(fed.labels[rows], data.labels)
        # the clients' row ranges tile [0, total) exactly once
        covered = np.concatenate([np.arange(lo, lo + n) for lo, n in zip(fed.starts, sizes)])
        assert len(fed.features) == len(fed.labels) == sum(sizes)
        np.testing.assert_array_equal(np.sort(covered), np.arange(sum(sizes)))

        seen, group_sizes = [], []
        for ci, feats, labels, _ in fed.eval_blocks:
            n = sizes[ci[0]]
            assert all(sizes[c] == n for c in ci) and np.all(np.diff(ci) > 0)
            np.testing.assert_array_equal(feats, np.stack([datasets[c].features for c in ci]))
            np.testing.assert_array_equal(labels, np.stack([datasets[c].labels for c in ci]))
            assert np.shares_memory(feats, fed.features) and np.shares_memory(labels, fed.labels)
            seen += ci.tolist()
            if not group_sizes or group_sizes[-1] != n:
                group_sizes.append(n)
        assert sorted(seen) == list(range(len(sizes)))
        assert group_sizes == sorted(set(sizes))
        assert fed.eval_blocks is fed.eval_blocks


@contextlib.contextmanager
def block_budget(nbytes):
    """Run the body with `tasks.BLOCK_BYTES` set to nbytes."""
    saved = tasks_module.BLOCK_BYTES
    tasks_module.BLOCK_BYTES = nbytes
    try:
        yield
    finally:
        tasks_module.BLOCK_BYTES = saved


class TestRowBlocks:
    def test_blocks_tile_the_rows_within_the_budget(self):
        with block_budget(3 * 8 * 10 + 7):
            assert row_blocks(7, 10) == [slice(0, 3), slice(3, 6), slice(6, 7)]
        with block_budget(8):
            assert row_blocks(2, 10) == [slice(0, 1), slice(1, 2)]
        assert row_blocks(0, 10) == []

    @given(
        kind=st.sampled_from(KINDS),
        variant=st.sampled_from(["sgd", "prox", "scaffold"]),
        sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6),
        slots=st.lists(st.integers(0, 5), min_size=1, max_size=7),
        batch=st.integers(1, 6),
        draws=st.integers(1, 11),
        per_block=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_blocks_move_no_bit(self, kind, variant, sizes, slots, batch, draws, per_block, seed):
        # Blocks of one, two or three rows, the last one ragged, against one
        # block over every array: unequal shards, clients drawn more than
        # once, a drawn quadratic weight decay, recorded trajectories.
        tasks, datasets = federation(kind, sizes, seed, width=3, classes=3, hidden=4)
        fed = StackedFederation.build(tasks, datasets)
        clients = [s % len(sizes) for s in slots]
        gen = np.random.default_rng(seed)
        x = 0.3 * gen.normal(size=fed.dim)
        server_cv = 0.1 * gen.normal(size=fed.dim)
        client_cvs = 0.1 * gen.normal(size=(len(clients), fed.dim))
        p = gen.dirichlet(np.ones(len(sizes)))
        cfg = LocalConfig(K=3, gamma=0.05, batch_size=batch, variant=variant, prox_mu=0.3)
        lanes = RngStream(seed).derive_lanes(np.arange(len(clients)), np.array(clients))

        def sweeps():
            # a federation of its own, so its evaluation plan is cut under this budget
            fed = StackedFederation.build(tasks, datasets)
            results = run_clients(
                fed, clients, x, cfg, lanes, server_cv=server_cv, client_cvs=client_cvs, record=True
            )
            losses, grads = client_evaluation(fed, x)
            loss_only = client_evaluation(fed, x, gradients=False)[0]
            noise = _minibatch_noise(fed, x, grads, batch, RngStream(seed, 3), draws)
            return results, losses, loss_only, grads, weighted_dissimilarity(grads, p), noise

        with block_budget(per_block * 8 * fed.dim):
            assert len(row_blocks(len(clients), fed.dim)) == math.ceil(len(clients) / per_block)
            blocked = sweeps()
        with block_budget(2**62):
            assert len(row_blocks(len(clients), fed.dim)) == 1
            whole = sweeps()

        for a, b in zip(blocked[0], whole[0]):
            assert_same_result(a, b.x_final, b.new_control_variate, b.trajectory)
        for a, b in zip(blocked[1:4], whole[1:4]):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(blocked[4][0], whole[4][0])
        assert blocked[4][1] == whole[4][1]
        np.testing.assert_array_equal(blocked[5], whole[5])

    def test_wide_stack_allocates_a_few_blocks_beyond_its_outputs(self):
        # d = 35594, as in the wide MLP benchmark; two shard sizes
        # interleaved, so neither size group holds consecutive ids
        sizes = [10, 11] * 12
        tasks, datasets = federation("mlp", sizes, 0, width=128, classes=10, hidden=256)
        fed = StackedFederation.build(tasks, datasets)
        assert fed.dim == 35594
        x = 0.05 * np.random.default_rng(0).normal(size=fed.dim)
        p = np.full(len(sizes), 1.0 / len(sizes))
        budget = 2 * tasks_module.BLOCK_BYTES

        tracemalloc.start()
        try:
            losses, grads = client_evaluation(fed, x)
            evaluation_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            mean, _ = weighted_dissimilarity(grads, p)
            dissimilarity_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert evaluation_peak - grads.nbytes - losses.nbytes <= budget
        assert dissimilarity_peak - mean.nbytes <= budget

    def test_wide_stack_allocates_a_few_blocks_per_part_beyond_its_outputs(self):
        # the W = 2 twin of the test above: each part has its own buffer
        # and kernel scratch, so the budget scales with W
        sizes = [10, 11] * 12
        tasks, datasets = federation("mlp", sizes, 0, width=128, classes=10, hidden=256)
        fed = StackedFederation.build(tasks, datasets)
        assert tasks_module.is_wide(fed.dim)
        x = 0.05 * np.random.default_rng(0).normal(size=fed.dim)
        p = np.full(len(sizes), 1.0 / len(sizes))
        budget = 2 * 2 * tasks_module.BLOCK_BYTES

        with forced_workers(2):
            client_evaluation(fed, x)  # the pool's threads start outside the trace
            tracemalloc.start()
            try:
                losses, grads = client_evaluation(fed, x)
                evaluation_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                mean, _ = weighted_dissimilarity(grads, p)
                dissimilarity_peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert evaluation_peak - grads.nbytes - losses.nbytes <= budget
        assert dissimilarity_peak - mean.nbytes <= budget


@contextlib.contextmanager
def forced_workers(n):
    """Run the body with W, the worker count of a row-blocked sweep's split, set to n."""
    saved = tasks_module.worker_count
    tasks_module.worker_count = lambda: n
    try:
        yield
    finally:
        tasks_module.worker_count = saved


class TestWorkerParts:
    @given(
        kind=st.sampled_from(KINDS),
        variant=st.sampled_from(["sgd", "prox", "scaffold"]),
        sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6),
        slots=st.lists(st.integers(0, 5), min_size=1, max_size=7),
        batch=st.integers(1, 6),
        epoch_mode=st.booleans(),
        record=st.booleans(),
        decay=st.sampled_from([None, 0.0, 0.05]),
        per_block=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_worker_count_moves_no_bit(
        self, kind, variant, sizes, slots, batch, epoch_mode, record, decay, per_block, seed
    ):
        # W = 1, 2 and 3 over blocks of one or two rows: unequal shards, the
        # first client drawn twice, a fixed decay (0 included) or, for
        # quadratics with decay None, a drawn one
        tasks, datasets = federation(kind, sizes, seed, decay=decay)
        fed = StackedFederation.build(tasks, datasets)
        clients = [s % len(sizes) for s in slots] + [slots[0] % len(sizes)]
        gen = np.random.default_rng(seed)
        x = 0.3 * gen.normal(size=fed.dim)
        server_cv = 0.1 * gen.normal(size=fed.dim)
        client_cvs = 0.1 * gen.normal(size=(len(clients), fed.dim))
        cfg = LocalConfig(
            K=3, gamma=0.05, batch_size=batch, variant=variant, prox_mu=0.3, epoch_mode=epoch_mode
        )
        lanes = RngStream(seed).derive_lanes(np.arange(len(clients)), np.array(clients))

        def arrays(results):
            return [
                (r.steps_taken, r.x_final.tobytes(), [xk.tobytes() for xk in r.trajectory])
                + (() if r.new_control_variate is None else (r.new_control_variate.tobytes(),))
                for r in results
            ]

        runs = []
        with block_budget(per_block * 8 * fed.dim):
            for workers in (1, 2, 3):
                with forced_workers(workers):
                    results = run_clients(
                        fed, clients, x, cfg, lanes, server_cv, client_cvs, record=record
                    )
                runs.append(arrays(results))
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert all(len(r[2]) == (r[0] + 1 if record else 0) for r in runs[0])
        assert all((len(r) == 4) == (variant == "scaffold") for r in runs[0])


class TestSweepParts:
    @given(
        kind=st.sampled_from(KINDS),
        sizes=st.lists(st.sampled_from([2, 3, 7]), min_size=2, max_size=9),
        decay=st.sampled_from([0.0, 0.05]),
        batch=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_worker_count_moves_no_evaluation_or_report_bit(self, kind, sizes, decay, batch, seed):
        # One d-wide row per block makes every model wide, so the evaluation
        # pass, the dissimilarity's gaps and the bound report's probes split
        # at W = 2 and 3. Repeated shard sizes interleave, so size groups of
        # consecutive ids (written in place) and of scattered ids (buffered)
        # both occur; the weight decay is zero or not.
        tasks, datasets = federation(kind, sizes, seed, decay=decay)
        gen = np.random.default_rng(seed)
        p = gen.dirichlet(np.ones(len(sizes)))
        x = 0.3 * gen.normal(size=tasks[0].dim)
        probes = [x, 0.5 * x, np.zeros_like(x)]

        def sweeps():
            problem = FederatedProblem(tasks, [ClientShard(d, w) for d, w in zip(datasets, p)])
            fed = problem.stacked
            losses, grads = client_evaluation(fed, x)
            loss_only = client_evaluation(fed, x, gradients=False)[0]
            mean, sigma_g = weighted_dissimilarity(grads, p)
            c = estimate_problem_constants(
                problem, K=2, gamma=0.1, S=1, x_points=probes, rng=RngStream(seed, 5),
                batch_size=batch, noise_draws=11,
            )
            arrays = (losses, grads, loss_only, mean, c.sigma_i, c.G_i)
            return [a.tobytes() for a in arrays] + [sigma_g, c.sigma_g, c.L]

        runs = []
        with block_budget(8 * tasks[0].dim):
            assert tasks_module.is_wide(tasks[0].dim)
            for workers in (1, 2, 3):
                with forced_workers(workers):
                    runs.append(sweeps())
        assert runs[1] == runs[0] and runs[2] == runs[0]
