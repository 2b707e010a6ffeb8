"""Release gate: twelve end-to-end checks, one test per numbered criterion.

Each test is self-contained and carries its own oracle (finite differences,
brute-force sums, closed forms, or Monte Carlo with pinned seeds), so a
failure points at exactly one advertised property. Criterion 11 is logged,
not gated: it prints the accuracy comparison and asserts only sanity.
"""

import json
import math
import time

import numpy as np

from fedagm import (
    Calibration,
    ClientShard,
    Dataset,
    ExperimentConfig,
    FederatedProblem,
    LocalConfig,
    LogisticRegressionTask,
    MlpTask,
    PartitionSpec,
    QuadraticTask,
    RngStream,
    SamplingSpec,
    ScheduleSpec,
    ServerOptimizer,
    aggregate,
    calibrate,
    calibration_span_violations,
    compute_V,
    empirical_label_histogram,
    empirical_sigma_g,
    estimate_problem_constants,
    evaluate,
    full_gradient,
    init_server_state,
    lemma_second_moment_bound,
    make_blobs_dataset,
    make_quadratic_client_data,
    make_synthetic_federated_quadratic,
    mean_label_entropy,
    mu_pair,
    named_optimizer,
    partition,
    probe_gradient_bounds,
    quadratic_global_optimum,
    quadratic_sigma_sq,
    quadratic_smoothness,
    run_experiment,
    run_local,
    server_step,
    stepsize_admissible,
    stochastic_gradient,
    verify_drift_bound,
    verify_lemma_second_moment,
)
from fedagm import tasks as tasks_module
from fedagm.cli import EXIT_OK, main
from fedagm.orchestrator import TAG_LOCAL
from fedagm.theory import ProblemConstants


def regularized_loss(task, data, x):
    loss, _ = evaluate(task, data, x)
    return loss + 0.5 * task.weight_decay * float(np.sum(x * x))


def central_difference(task, data, x):
    fd = np.zeros_like(x)
    for j in range(x.size):
        h = 1e-5 * (1.0 + abs(x[j]))
        hi, lo = x.copy(), x.copy()
        hi[j] += h
        lo[j] -= h
        fd[j] = (regularized_loss(task, data, hi) - regularized_loss(task, data, lo)) / (2 * h)
    return fd


def test_01_gradients_match_central_differences():
    gen = np.random.default_rng(11)
    quad = QuadraticTask(gen.uniform(0.5, 2.0, 6), gen.normal(size=6), weight_decay=0.3)
    quad_data = make_quadratic_client_data(quad, 10, 1.0, RngStream(21))
    logit = LogisticRegressionTask(5, 3, weight_decay=0.1)
    logit_data = make_blobs_dataset(40, 3, 5, RngStream(22))
    mlp = MlpTask(5, 4, 3, weight_decay=0.05)
    mlp_data = make_blobs_dataset(30, 3, 5, RngStream(23))

    start = time.perf_counter()
    for task, data in ((quad, quad_data), (logit, logit_data), (mlp, mlp_data)):
        for _ in range(50):
            x = 0.8 * gen.normal(size=task.dim)
            analytic = full_gradient(task, data, x)
            fd = central_difference(task, data, x)
            rel = np.linalg.norm(fd - analytic) / (1e-12 + np.linalg.norm(analytic))
            assert rel < 1e-5, f"{task.kind}: relative error {rel:.3e}"
    assert time.perf_counter() - start < 10.0


def test_02_momenta_match_brute_force_sums():
    gen = np.random.default_rng(202)
    dim = 3
    for _ in range(1000):
        length = int(gen.integers(1, 201))
        beta1 = float(gen.uniform(0.0, 0.98))
        beta2 = float(gen.uniform(0.1, 0.999))
        deltas = gen.normal(size=(length, dim)) * gen.uniform(0.1, 3.0)
        opt = ServerOptimizer(
            kind="adam", eta=0.1, beta1=beta1, beta2=beta2,
            calibration=Calibration("epsilon", eps=1e-8),
        )
        state = init_server_state(np.zeros(dim))
        for d in deltas:
            state = server_step(state, d, opt)
        t = length
        for j in range(dim):
            m_ref = math.fsum(
                (1.0 - beta1) * beta1 ** (t - l) * deltas[l - 1, j] for l in range(1, t + 1)
            )
            v_ref = math.fsum(
                (1.0 - beta2) * beta2 ** (t - l) * deltas[l - 1, j] ** 2 for l in range(1, t + 1)
            )
            assert abs(state.m[j] - m_ref) <= 1e-12 * max(1.0, abs(m_ref))
            assert abs(state.v[j] - v_ref) <= 1e-12 * max(1.0, abs(v_ref))


def test_03_averaging_and_momentum_recoveries_are_exact():
    # (a) plain averaging with a unit outer stepsize: the next model must be
    # the mean of the client finals, bit for bit, through the whole pipeline.
    gen = np.random.default_rng(303)
    tasks = [
        QuadraticTask(gen.uniform(0.5, 2.0, 3), gen.normal(size=3)) for _ in range(2)
    ]
    shards = [
        ClientShard(make_quadratic_client_data(t, 8, 1.0, RngStream(31 + i)), 0.5)
        for i, t in enumerate(tasks)
    ]
    problem = FederatedProblem(tasks, shards)
    lcfg = LocalConfig(K=2, gamma=0.05, batch_size=4)
    cfg = ExperimentConfig(
        problem=problem,
        local=lcfg,
        sampling=SamplingSpec(S=2, mode="full"),
        server=named_optimizer("FedAvg", eta=1.0),
        rounds=100,
        seed=9,
        eval_every=100,
        record_iterates=True,
    )
    result = run_experiment(cfg)
    assert not result.diverged
    root = RngStream(9)
    for t in range(100):
        x_t = result.iterates[t]
        finals = [
            run_local(tasks[ci], shards[ci], x_t, lcfg, rng=root.derive(TAG_LOCAL, t, ci, ci)).x_final
            for ci in (0, 1)
        ]
        np.testing.assert_array_equal(result.iterates[t + 1], np.stack(finals).mean(axis=0))

    # (b) identity calibration with beta2 = 0 is momentum SGD on the virtual
    # direction; beta1 = 0 degenerates to the plain averaged-update baseline.
    for beta1 in (0.0, 0.9):
        opt = ServerOptimizer(
            kind="momentum", eta=0.7, beta1=beta1, beta2=0.0,
            calibration=Calibration("identity"),
        )
        x_ref = gen.normal(size=5)
        m_ref = np.zeros(5)
        state = init_server_state(x_ref.copy())
        for _ in range(100):
            finals = [state.x + gen.normal(size=5) for _ in range(3)]
            x_tilde, delta = aggregate(state.x, finals)
            state = server_step(state, delta, opt, x_tilde=x_tilde)
            m_ref = beta1 * m_ref + (1.0 - beta1) * (x_ref - np.stack(finals).mean(axis=0))
            x_ref = x_ref - 0.7 * m_ref
            np.testing.assert_array_equal(state.x, x_ref)
            np.testing.assert_array_equal(state.m, m_ref)


def test_04_calibration_spans_hold_on_a_million_draws():
    # Hand-checked ceiling: K=2, gamma=0.1, S=1, sigma=1, G=2 gives 5.12.
    c = ProblemConstants(
        L=1.0,
        sigma_i=np.array([1.0, 1.0]),
        G_i=np.array([2.0, 2.0]),
        sigma_g=1.0,
        p=np.array([0.5, 0.5]),
        K=2,
        gamma=0.1,
        S=1,
    )
    V = compute_V(c)
    assert abs(V - 5.12) < 1e-12

    schemes = [
        Calibration("epsilon", eps=1e-2),
        Calibration("power", eps=1e-8, p=0.25),
        Calibration("softplus", beta=50.0),
        Calibration("identity"),
    ]
    for cal in schemes:
        bad = calibration_span_violations(calibrate, cal, V, 1_000_000, RngStream(404, 7))
        assert bad == 0, f"{cal.scheme}: {bad} violations"

    soft = Calibration("softplus", beta=50.0)
    v = RngStream(405).generator().uniform(0.0, V, 1_000_000)
    v[0] = 0.0
    assert np.all(calibrate(v, soft) >= math.log(2.0) / 50.0)


def test_05_amsgrad_second_momentum_never_decreases():
    gen = np.random.default_rng(505)
    opt = ServerOptimizer(
        kind="amsgrad", eta=0.1, beta1=0.9, beta2=0.99,
        calibration=Calibration("epsilon", eps=1e-8),
    )
    for _ in range(100):
        scale = float(gen.uniform(0.1, 5.0))
        state = init_server_state(np.zeros(4))
        history = np.empty((500, 4))
        for t in range(500):
            state = server_step(state, scale * gen.normal(size=4), opt)
            history[t] = state.v
        assert np.all(np.diff(history, axis=0) >= 0.0)


def test_06_sampled_gradient_second_moment_obeys_its_ceiling():
    gen = np.random.default_rng(606)
    tasks = [
        QuadraticTask(np.array([1.0, 2.0, 0.7]), np.array([0.0, 1.0, -0.5])),
        QuadraticTask(np.array([3.0, 0.6, 1.4]), np.array([2.0, -1.0, 0.3])),
    ]
    shards = [
        ClientShard(make_quadratic_client_data(t, 24, 1.0, RngStream(61 + i)), w)
        for i, (t, w) in enumerate(zip(tasks, (0.3, 0.7)))
    ]
    p = np.array([0.3, 0.7])
    x = np.array([1.5, -0.5, 0.8])
    x_star = quadratic_global_optimum(tasks, p)
    probes = [x, x_star, np.zeros(3)]

    # Constants are analytic here: single-sample batches make sigma_i^2 the
    # population anchor variance scaled by the squared curvature, and G_i is
    # the exact gradient norm maximized over the finite probe set.
    c = ProblemConstants(
        L=quadratic_smoothness(tasks),
        sigma_i=np.sqrt([quadratic_sigma_sq(t, s.data, 1) for t, s in zip(tasks, shards)]),
        G_i=probe_gradient_bounds(tasks, shards, probes),
        sigma_g=math.sqrt(empirical_sigma_g(tasks, shards, probes)),
        p=p,
        K=1,
        gamma=0.02,
        S=1,
    )
    bound = lemma_second_moment_bound(c)

    # Cross-check the vectorized sampler against the library draw on the
    # exact rows it picked before trusting it at volume.
    anchors = [s.data.features for s in shards]
    curv = np.stack([t.curvature for t in tasks])
    for i, (task, shard) in enumerate(zip(tasks, shards)):
        for k in range(25):
            sample = stochastic_gradient(task, shard.data, x, 1, RngStream(600 + k, i))
            mine = curv[i] * (x - anchors[i][sample.batch_indices[0]])
            np.testing.assert_array_equal(sample.grad, mine)

    satisfied = 0
    batches = []
    for b in range(100):
        bgen = RngStream(606).derive(b).generator()
        clients = bgen.choice(2, size=10_000, p=p)
        draws = np.empty((10_000, 3))
        for i in (0, 1):
            mask = clients == i
            rows = bgen.integers(0, anchors[i].shape[0], size=int(mask.sum()))
            draws[mask] = curv[i] * (x - anchors[i][rows])
        report = verify_lemma_second_moment(draws, c)
        assert report.bound == bound
        satisfied += report.satisfied
        batches.append(draws)
    assert satisfied >= 99, f"bound held in only {satisfied}/100 batches"

    expected = p[0] * full_gradient(tasks[0], None, x) + p[1] * full_gradient(tasks[1], None, x)
    pooled = verify_lemma_second_moment(np.concatenate(batches), c, expected_mean=expected)
    assert pooled.satisfied
    assert "mean identity ok" in pooled.notes


def test_07_client_drift_stays_under_its_ceiling():
    start = time.perf_counter()
    gen = np.random.default_rng(707)
    curv = np.array([1.2, 0.8, 1.5])
    tasks = [QuadraticTask(curv, gen.normal(size=3)) for _ in range(5)]
    shards = [
        ClientShard(make_quadratic_client_data(t, 12, 1.0, RngStream(71 + i)), 0.2)
        for i, t in enumerate(tasks)
    ]
    problem = FederatedProblem(tasks, shards)
    K, gamma, T = 5, 0.015, 50
    assert gamma <= 1.0 / (8.0 * quadratic_smoothness(tasks) * K)

    drifts, grads = [], []
    for seed in range(30):
        cfg = ExperimentConfig(
            problem=problem,
            local=LocalConfig(K=K, gamma=gamma, batch_size=4),
            sampling=SamplingSpec(S=5, mode="full"),
            server=named_optimizer("FedAvg", eta=1.0),
            rounds=T,
            seed=seed,
            record_drift=True,
        )
        result = run_experiment(cfg)
        assert not result.diverged
        drifts.append(result.drift)
        grads.append(result.grad_norm_history)

    x_star = quadratic_global_optimum(tasks, problem.weights)
    probes = [np.zeros(3), x_star, 2.0 * x_star]
    c = estimate_problem_constants(
        problem, K=K, gamma=gamma, S=5,
        x_points=probes, rng=RngStream(77), batch_size=4,
    )
    report = verify_drift_bound(
        np.mean(drifts, axis=0), np.mean(grads, axis=0), c, seeds=30
    )
    assert "inapplicable" not in report.notes
    assert report.satisfied, report.notes
    assert time.perf_counter() - start < 120.0


def test_08_every_method_drives_the_gradient_floor_down():
    stream = RngStream(42)
    tasks, p = make_synthetic_federated_quadratic(20, 4, 1.0, stream.derive(1))
    shards = [
        ClientShard(make_quadratic_client_data(tasks[i], 16, 1.0, stream.derive(2, i)), float(p[i]))
        for i in range(20)
    ]
    problem = FederatedProblem(tasks, shards)
    K, gamma, T = 3, 0.008, 2000

    methods = {
        "FedAvg": named_optimizer("FedAvg", eta=1.0),
        "FedMomentum": named_optimizer("FedMomentum", eta=1.0),
        "eps-FedAdam": named_optimizer("eps-FedAdam", eta=0.1),
        "p-FedAdam": named_optimizer("p-FedAdam", eta=0.1),
        "s-FedAdam": named_optimizer("s-FedAdam", eta=0.1),
        # the max-tracking variant with the same shift as eps-FedAdam, so a
        # single gamma clears every method's stepsize ceiling
        "FedAMSGrad": ServerOptimizer(
            kind="amsgrad", eta=0.1, beta1=0.9, beta2=0.99,
            calibration=Calibration("epsilon", eps=1e-2),
        ),
    }

    x_star = quadratic_global_optimum(tasks, p)
    probes = [np.zeros(4), x_star, 0.5 * x_star, 1.5 * x_star]
    c = estimate_problem_constants(
        problem, K=K, gamma=gamma, S=5,
        x_points=probes, rng=RngStream(88), batch_size=8,
    )
    V = compute_V(c)
    for name, opt in methods.items():
        ok, gamma_max = stepsize_admissible(c, mu_pair(opt.calibration, V))
        assert ok, f"{name}: gamma {gamma} exceeds ceiling {gamma_max}"

    def window(iterates, end):
        return float(
            np.mean(
                [np.sum(problem.global_gradient(iterates[t]) ** 2) for t in range(end - 100, end)]
            )
        )

    for name, opt in methods.items():
        wins = 0
        for seed in range(30):
            cfg = ExperimentConfig(
                problem=problem,
                local=LocalConfig(K=K, gamma=gamma, batch_size=8),
                sampling=SamplingSpec(S=5),
                server=opt,
                rounds=T,
                seed=seed,
                gamma_schedule=ScheduleSpec(kind="multistage"),
                eval_every=T,
                record_iterates=True,
            )
            result = run_experiment(cfg)
            assert not result.diverged, f"{name} seed {seed} diverged"
            wins += window(result.iterates, 2000) < 0.5 * window(result.iterates, 1000)
        assert wins >= 28, f"{name}: trailing average halved in only {wins}/30 seeds"


def test_09_more_local_steps_drift_farther_from_the_optimum():
    # Heterogeneous pair with a closed-form optimum at 10/6; many local steps
    # pull the fixed point toward the unweighted blend of client optima.
    tasks = [
        QuadraticTask(np.array([1.0]), np.array([0.0])),
        QuadraticTask(np.array([5.0]), np.array([2.0])),
    ]
    shards = [
        ClientShard(make_quadratic_client_data(t, 16, 0.0, RngStream(91)), 0.5) for t in tasks
    ]
    problem = FederatedProblem(tasks, shards)
    x_star = 10.0 / 6.0

    def tail_distance(K, T, seed):
        cfg = ExperimentConfig(
            problem=problem,
            local=LocalConfig(K=K, gamma=0.02, batch_size=16),
            sampling=SamplingSpec(S=1),
            server=named_optimizer("FedAvg", eta=1.0),
            rounds=T,
            seed=seed,
            eval_every=T,
            record_iterates=True,
            init_x=np.array([0.0]),
        )
        result = run_experiment(cfg)
        assert not result.diverged
        tail = np.stack(result.iterates)[-(T // 4):]
        return abs(float(tail.mean()) - x_star)

    wins = 0
    for seed in range(30):
        # matched budget: 300 rounds of 20 steps vs 6000 rounds of 1 step
        wins += tail_distance(20, 300, seed) > tail_distance(1, 6000, seed)
    assert wins >= 28, f"K=20 landed farther from the optimum in only {wins}/30 seeds"


def test_10_partition_entropy_grows_with_concentration():
    alphas = (0.05, 0.5, 1.0, 100.0)
    sums = {a: 0.0 for a in alphas}
    for seed in range(50):
        data = make_blobs_dataset(1000, 10, 4, RngStream(seed).derive(1))
        for alpha in alphas:
            spec = PartitionSpec(scheme="dirichlet", N=20, alpha=alpha)
            shards = partition(data, spec, RngStream(seed).derive(2))
            sums[alpha] += mean_label_entropy(empirical_label_histogram(shards, 10))
    means = [sums[a] / 50.0 for a in alphas]
    assert means[0] < means[1] < means[2] < means[3], means


def test_11_digit_classification_comparison_is_logged():
    try:
        from sklearn.datasets import load_digits

        raw = load_digits()
        data = Dataset(raw.data / 16.0, raw.target.astype(np.int64), 10)
        corpus = "sklearn digits (1797 x 64)"
    except ImportError:
        data = make_blobs_dataset(2000, 10, 16, RngStream(5).derive(9))
        corpus = "synthetic blobs fallback"

    split = RngStream(11).derive(1).generator().permutation(data.n)
    n_test = data.n // 5
    test, train = data.subset(split[:n_test]), data.subset(split[n_test:])

    def final_accuracy(opt, seed):
        shards = partition(
            train,
            PartitionSpec(scheme="sort", N=100, classes_per_client=2),
            RngStream(seed).derive(2),
        )
        tasks = [LogisticRegressionTask(train.features.shape[1], 10, weight_decay=1e-3)] * 100
        problem = FederatedProblem(tasks, shards, test_data=test)
        cfg = ExperimentConfig(
            problem=problem,
            local=LocalConfig(K=10, gamma=0.05, batch_size=8),
            sampling=SamplingSpec(S=30),
            server=opt,
            rounds=300,
            seed=seed,
            eval_every=100,
        )
        result = run_experiment(cfg)
        assert not result.diverged
        acc = result.metrics[-1].test_acc
        assert 0.0 <= acc <= 1.0
        return acc

    adaptive = np.mean([final_accuracy(named_optimizer("s-FedAMSGrad", eta=0.1), s) for s in range(3)])
    averaged = np.mean([final_accuracy(named_optimizer("FedAvg", eta=1.0), s) for s in range(3)])
    verdict = "matches" if adaptive >= averaged else "DOES NOT match"
    print(
        f"\n[soft check] {corpus}: s-FedAMSGrad {adaptive:.4f} vs FedAvg {averaged:.4f} "
        f"over 3 seeds -> {verdict} the expected ordering (logged, not gated)"
    )


def test_12_metric_files_are_bit_identical_for_any_thread_count(tmp_path, monkeypatch):
    obj = {
        "seed": 5,
        "rounds": 30,
        "task": {
            "kind": "quadratic",
            "num_clients": 8,
            "dim": 4,
            "heterogeneity": 1.0,
            "samples_per_client": 12,
        },
        "local": {"steps": 3, "gamma": 0.02, "batch_size": 6},
        "sampling": {"clients_per_round": 4},
        "server": {"name": "s-FedAdam", "eta": 0.1},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(obj))

    # Run a takes today's defaults. Runs b-d force W, the worker count of a
    # row-blocked sweep's split, to 1, 2 and 3, with one d = 4 row per block,
    # so the 4 slots span 4 blocks and the evaluation pass splits too.
    outputs = []
    for tag, workers in (("a", None), ("b", 1), ("c", 2), ("d", 3)):
        if workers is not None:
            monkeypatch.setattr(tasks_module, "worker_count", lambda w=workers: w)
            monkeypatch.setattr(tasks_module, "BLOCK_BYTES", 8 * 4)
        out = tmp_path / tag
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
        outputs.append(
            ((out / "metrics.csv").read_bytes(), (out / "model.bin").read_bytes())
        )
    assert all(o == outputs[0] for o in outputs[1:])
