"""Bound machinery: direction second moments, stepsize spans, drift, trends."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedagm import (
    Calibration,
    ClientShard,
    MuPair,
    ParameterError,
    ProblemConstants,
    QuadraticTask,
    RngStream,
    StructuralError,
    calibrate,
    calibration_span_violations,
    compute_V,
    drift_rhs,
    empirical_sigma_g,
    estimate_problem_constants,
    lemma_second_moment_bound,
    make_quadratic_client_data,
    make_synthetic_federated_quadratic,
    mu_pair,
    probe_gradient_bounds,
    quadratic_sigma_g_exact,
    rate_envelope,
    stepsize_admissible,
    verify_drift_bound,
    verify_lemma_second_moment,
)
from fedagm.orchestrator import FederatedProblem
from fedagm.tasks import client_evaluation
from fedagm.tasks import full_gradient, stochastic_gradient
from fedagm.theory import _minibatch_noise


def constants(**kw):
    base = dict(
        L=1.0,
        sigma_i=np.array([1.0]),
        G_i=np.array([2.0]),
        sigma_g=0.0,
        p=np.array([1.0]),
        K=2,
        gamma=0.1,
        S=1,
    )
    base.update(kw)
    return ProblemConstants(**base)


class TestDirectionCeiling:
    def test_hand_value(self):
        # (K g)^2/S (12 s^2 + 24 G^2) + 4 (K g)^2 (s^2 + G^2)
        #  = 0.04 * 108 + 0.16 * 5 = 5.12
        assert compute_V(constants()) == pytest.approx(5.12, abs=1e-12)

    def test_zero_stepsize_kills_the_ceiling(self):
        assert compute_V(constants(gamma=0.0)) == 0.0

    def test_large_cohort_limit(self):
        # 1/S -> 0 leaves only the local-magnitude term 4 (K g)^2 (s^2 + G^2).
        c = constants(S=10**12)
        limit = 4.0 * (c.K * c.gamma) ** 2 * (1.0 + 4.0)
        assert compute_V(c) == pytest.approx(limit, rel=1e-9)

    def test_monotonicities(self):
        base = compute_V(constants())
        assert compute_V(constants(gamma=0.2)) > base
        assert compute_V(constants(K=4)) > base
        assert compute_V(constants(sigma_i=np.array([2.0]))) > base
        assert compute_V(constants(G_i=np.array([3.0]))) > base
        assert compute_V(constants(S=4)) < base

    def test_quadratic_scaling_in_k_gamma(self):
        # V is proportional to (K gamma)^2 with everything else fixed.
        assert compute_V(constants(gamma=0.2)) == pytest.approx(
            4.0 * compute_V(constants()), rel=1e-12
        )


class TestMuPair:
    def test_epsilon_example(self):
        mu = mu_pair(Calibration("epsilon", eps=0.01), V=1.0)
        assert mu.mu_lower == pytest.approx(1.0 / 1.01, rel=1e-12)
        assert mu.mu_upper == pytest.approx(100.0, rel=1e-12)

    def test_epsilon_degenerate_v(self):
        mu = mu_pair(Calibration("epsilon", eps=0.01), V=0.0)
        assert mu.mu_lower == mu.mu_upper == pytest.approx(100.0, rel=1e-12)

    def test_power_span(self):
        mu = mu_pair(Calibration("power", p=0.25, eps=1e-8), V=1.0)
        assert mu.mu_lower == pytest.approx((1.0 + 1e-8) ** -0.25, rel=1e-12)
        assert mu.mu_upper == pytest.approx((1e-8) ** -0.25, rel=1e-12)

    def test_softplus_upper_is_beta_over_log2(self):
        mu = mu_pair(Calibration("softplus", beta=50.0), V=3.0)
        assert mu.mu_upper == pytest.approx(50.0 / math.log(2.0), rel=1e-12)
        assert mu.mu_lower == pytest.approx(
            50.0 / math.log1p(math.exp(50.0 * math.sqrt(3.0))), rel=1e-12
        )

    def test_identity_is_unit(self):
        mu = mu_pair(Calibration("identity"), V=7.0)
        assert (mu.mu_lower, mu.mu_upper) == (1.0, 1.0)

    @pytest.mark.parametrize("V", [-1.0, math.nan, math.inf])
    def test_rejects_a_ceiling_that_is_negative_or_not_finite(self, V):
        with pytest.raises(ParameterError, match="finite"):
            mu_pair(Calibration("identity"), V)

    @pytest.mark.parametrize("field", ["L", "sigma_g", "sigma_i", "G_i"])
    def test_constants_must_be_finite(self, field):
        bad = math.inf if field in ("L", "sigma_g") else np.array([math.nan])
        with pytest.raises(ParameterError, match="finite"):
            constants(**{field: bad})

    def test_ordering_invariant_random(self):
        gen = np.random.default_rng(0)
        cals = [
            Calibration("epsilon", eps=10 ** gen.uniform(-8, -1)),
            Calibration("power", p=gen.uniform(0.05, 0.5), eps=10 ** gen.uniform(-8, -2)),
            Calibration("softplus", beta=10 ** gen.uniform(0, 2)),
            Calibration("identity"),
        ]
        for cal in cals:
            for _ in range(50):
                mu = mu_pair(cal, float(10 ** gen.uniform(-6, 3)))
                assert 0 < mu.mu_lower <= mu.mu_upper

    def test_span_brackets_the_actual_stepsizes(self):
        # Oracle: 1/calibrate(v) for sampled v in [0, V] must stay in
        # [mu_lower, mu_upper] (up to one ulp at the endpoints).
        gen = np.random.default_rng(1)
        V = 2.5
        v = np.concatenate([[0.0, V], gen.uniform(0, V, 500)])
        for cal in (
            Calibration("epsilon", eps=1e-3),
            Calibration("power", p=0.25, eps=1e-6),
            Calibration("softplus", beta=20.0),
        ):
            mu = mu_pair(cal, V)
            steps = 1.0 / calibrate(v, cal)
            assert np.all(steps <= np.nextafter(mu.mu_upper, np.inf))
            assert np.all(steps >= np.nextafter(mu.mu_lower, -np.inf))

    def test_doubling_k_gamma_scales_mu_lower(self):
        # With sigma = 0 the ceiling is exactly ((K gamma) c_G)^2, so doubling
        # K gamma doubles sqrt(V): epsilon and softplus (in the linear regime)
        # halve mu_lower, the p-power scheme scales it by 2^(-2p).
        base = constants(sigma_i=np.array([0.0]), G_i=np.array([2.0]))
        doubled = constants(sigma_i=np.array([0.0]), G_i=np.array([2.0]), gamma=0.2)
        V1, V2 = compute_V(base), compute_V(doubled)
        eps = Calibration("epsilon", eps=1e-8)
        assert mu_pair(eps, V2).mu_lower == pytest.approx(
            0.5 * mu_pair(eps, V1).mu_lower, rel=0.05
        )
        soft = Calibration("softplus", beta=50.0)
        assert mu_pair(soft, V2).mu_lower == pytest.approx(
            0.5 * mu_pair(soft, V1).mu_lower, rel=0.05
        )
        for p in (0.25, 0.5):
            pw = Calibration("power", p=p, eps=1e-12)
            assert mu_pair(pw, V2).mu_lower == pytest.approx(
                2.0 ** (-2 * p) * mu_pair(pw, V1).mu_lower, rel=0.05
            )

    @settings(max_examples=300, deadline=None)
    @given(
        scheme=st.sampled_from(["epsilon", "power", "softplus", "identity"]),
        eps=st.floats(1e-12, 1.0),
        p=st.floats(0.0, 0.5, exclude_min=True),
        beta=st.floats(1e-2, 1e3),
        V=st.floats(0.0, 1e4),
    )
    def test_band_is_attained_bit_for_bit(self, scheme, eps, p, beta, V):
        # The band's ends are the stepsizes the server takes at v = V and v = 0.
        cal = Calibration(scheme, eps=eps, p=p, beta=beta)
        mu = mu_pair(cal, V)
        assert mu.mu_lower == 1.0 / calibrate(np.array([V]), cal)[0]
        assert mu.mu_upper == 1.0 / calibrate(np.array([0.0]), cal)[0]


class TestAdmissibility:
    def test_smoothness_branch_binds_for_identity(self):
        c = constants(L=100.0, gamma=1e-4)
        ok, gmax = stepsize_admissible(c, MuPair(1.0, 1.0))
        assert gmax == pytest.approx(1.0 / (8.0 * 100.0 * c.K), rel=1e-12)
        assert ok

    def test_mu_branch_binds_for_wide_spans(self):
        c = constants(L=1.0, K=10, gamma=0.001)
        mu = mu_pair(Calibration("epsilon", eps=0.01), V=1.0)
        ok, gmax = stepsize_admissible(c, mu)
        expected = math.sqrt((1.0 / 1.01) / (10.0 * 100.0)) / 10.0
        assert gmax == pytest.approx(expected, rel=1e-12)
        assert expected < 1.0 / (8.0 * 1.0 * 10.0)
        assert ok

    def test_strict_inequality(self):
        c = constants(L=1.0)
        _, gmax = stepsize_admissible(c, MuPair(1.0, 1.0))
        at_limit = constants(L=1.0, gamma=gmax)
        ok, _ = stepsize_admissible(at_limit, MuPair(1.0, 1.0))
        assert not ok

    def test_needs_positive_smoothness(self):
        with pytest.raises(ParameterError):
            stepsize_admissible(constants(L=0.0), MuPair(1.0, 1.0))


class TestDissimilarity:
    def two_client_setup(self):
        a = np.ones(1)
        tasks = [QuadraticTask(a, np.array([0.0])), QuadraticTask(a, np.array([2.0]))]
        shards = [
            ClientShard(make_quadratic_client_data(t, 6, 0.5, RngStream(i)), 0.5)
            for i, t in enumerate(tasks)
        ]
        return tasks, shards

    def test_hand_example_equals_one(self):
        # Unit curvature, optima at 0 and 2, equal weights: each client's
        # gradient sits exactly 1 away from the mean, at every probe.
        tasks, shards = self.two_client_setup()
        probes = [np.array([v]) for v in (-1.0, 0.3, 5.0)]
        assert empirical_sigma_g(tasks, shards, probes) == pytest.approx(1.0, abs=1e-12)

    def test_matches_exact_formula(self):
        tasks, shards = self.two_client_setup()
        exact = quadratic_sigma_g_exact(tasks, np.array([0.5, 0.5]))
        probed = empirical_sigma_g(tasks, shards, [np.array([0.7])])
        assert probed == pytest.approx(exact, rel=1e-10)
        assert exact == pytest.approx(1.0, abs=1e-12)

    def test_identical_clients_have_zero_dissimilarity(self):
        task = QuadraticTask(np.ones(2), np.zeros(2))
        shards = [
            ClientShard(make_quadratic_client_data(task, 5, 0.3, RngStream(3)), 0.5)
        ] * 2
        assert empirical_sigma_g([task, task], shards, [np.ones(2)]) == pytest.approx(
            0.0, abs=1e-20
        )

    def test_grows_with_heterogeneity(self):
        means = []
        for het in (0.25, 0.5, 1.0, 2.0, 4.0):
            vals = []
            for seed in range(20):
                tasks, p = make_synthetic_federated_quadratic(
                    6, 3, het, RngStream(1000 + seed)
                )
                vals.append(quadratic_sigma_g_exact_or_probe(tasks, p, seed))
            means.append(np.mean(vals))
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_exact_formula_rejects_mixed_curvature(self):
        tasks = [
            QuadraticTask(np.ones(1), np.zeros(1)),
            QuadraticTask(2 * np.ones(1), np.zeros(1)),
        ]
        with pytest.raises(ParameterError):
            quadratic_sigma_g_exact(tasks, np.array([0.5, 0.5]))


def quadratic_sigma_g_exact_or_probe(tasks, p, seed):
    shards = [None] * len(tasks)
    probes = [np.random.default_rng(seed).normal(size=tasks[0].dim)]
    grads = np.stack([t.curvature * (probes[0] - t.center) for t in tasks])
    mean_grad = p @ grads
    return float(p @ ((grads - mean_grad) ** 2).sum(axis=1))


class TestSecondMomentLemma:
    def test_bound_formula(self):
        c = constants()
        assert lemma_second_moment_bound(c) == pytest.approx(
            (12.0 + 24.0 * 4.0) / 1 + 4.0 * 5.0, rel=1e-12
        )

    def test_deterministic_single_client_satisfies(self):
        # Full batch, one client: every draw equals grad f_1(x); the ceiling
        # has a 28x margin by construction.
        g = np.array([0.6, -0.8])  # norm 1
        draws = np.tile(g, (1500, 1))
        c = constants(G_i=np.array([1.0]), sigma_i=np.array([0.0]))
        report = verify_lemma_second_moment(draws, c, expected_mean=g)
        assert report.satisfied
        assert report.empirical == pytest.approx(1.0, rel=1e-12)
        assert report.bound == pytest.approx(24.0 / 1 + 4.0, rel=1e-12)
        assert "mean identity ok" in report.notes

    def test_requires_enough_draws(self):
        with pytest.raises(StructuralError):
            verify_lemma_second_moment(np.zeros((10, 2)), constants())

    def test_flags_a_broken_mean(self):
        gen = np.random.default_rng(2)
        draws = gen.normal(size=(2000, 2)) * 0.01
        report = verify_lemma_second_moment(
            draws, constants(), expected_mean=np.array([5.0, 5.0])
        )
        assert "FAILED" in report.notes


class TestDriftBound:
    def test_rhs_formula(self):
        c = constants(sigma_g=0.5, K=3, gamma=0.01)
        got = drift_rhs(c, grad_norm_sq=2.0)
        expected = 5 * 3 * 1e-4 * (1.0 + 2 * 3 * 0.25) + 10 * (3 * 0.01) ** 2 * 2.0
        assert got == pytest.approx(expected, rel=1e-12)

    def test_zero_drift_always_satisfies(self):
        c = constants(K=3, gamma=0.01)
        drift = np.zeros((5, 4))
        report = verify_drift_bound(drift, np.ones(5), c)
        assert report.satisfied
        assert "0 violations" in report.notes

    def test_shape_mismatch(self):
        with pytest.raises(StructuralError):
            verify_drift_bound(np.zeros((5, 4)), np.ones(4), constants())

    def test_out_of_regime_is_marked_inapplicable(self):
        c = constants(K=4, gamma=1.0, L=10.0)
        report = verify_drift_bound(np.zeros((3, 5)), np.ones(3), c)
        assert report.satisfied
        assert "inapplicable" in report.notes

    def test_violation_is_counted(self):
        c = constants(K=3, gamma=0.01)
        rhs = drift_rhs(c, 1.0)
        drift = np.full((2, 4), 2.0 * rhs)
        report = verify_drift_bound(drift, np.ones(2), c)
        assert not report.satisfied
        assert report.empirical == pytest.approx(2.0, rel=1e-9)


class TestRateEnvelope:
    def test_inverse_sqrt_history_satisfies(self):
        t = np.arange(1, 201)
        history = 1.0 / np.sqrt(t)
        report = rate_envelope(history)
        assert report.satisfied
        assert "c0" in report.notes

    def test_flat_zero_history_satisfies(self):
        report = rate_envelope(np.zeros(50))
        assert report.satisfied

    def test_increasing_history_fails(self):
        history = np.linspace(0.1, 5.0, 100)
        report = rate_envelope(history)
        assert report.satisfied is False

    def test_divergence_is_flagged(self):
        history = np.ones(40)
        history[-1] = np.inf
        report = rate_envelope(history)
        assert not report.satisfied
        assert "diverged" in report.notes

    def test_needs_history(self):
        with pytest.raises(StructuralError):
            rate_envelope(np.ones(5))


class TestSpanViolations:
    def test_all_schemes_clean_on_coarse_sweep(self):
        c = constants()
        V = compute_V(c)
        for cal in (
            Calibration("epsilon", eps=1e-2),
            Calibration("power", p=0.25, eps=1e-6),
            Calibration("softplus", beta=50.0),
            Calibration("identity"),
        ):
            bad = calibration_span_violations(calibrate, cal, V, 10_000, RngStream(4))
            assert bad == 0

    def test_softplus_two_ulp_dip_below_mu_lower_is_rounding(self):
        # 1/calibrate(V - 3 ulps) lands two ulps below mu_lower = 1/calibrate(V)
        cal = Calibration("softplus", beta=50.0)
        V = float.fromhex("0x1.349b3d8f31e40p-15")
        v_dip = V - 3 * np.spacing(V)
        mu_lower = mu_pair(cal, V).mu_lower
        dip = 1.0 / calibrate(np.array([v_dip]), cal)[0]
        assert np.nextafter(np.nextafter(mu_lower, 0.0), 0.0) == dip

        def at_dip(v, cal):
            # the pinned ends stay; every interior sample is evaluated at v_dip
            return calibrate(np.where((v == 0.0) | (v == V), v, v_dip), cal)

        assert calibration_span_violations(at_dip, cal, V, 100, RngStream(0)) == 0

    @pytest.mark.parametrize("num_samples", [0, -1])
    def test_needs_at_least_one_sample(self, num_samples):
        with pytest.raises(ParameterError, match="num_samples"):
            calibration_span_violations(calibrate, Calibration("identity"), 1.0, num_samples, RngStream(0))


class TestEstimateConstants:
    def test_quadratic_constants_are_analytic(self):
        tasks, p = make_synthetic_federated_quadratic(4, 3, 1.0, RngStream(5))
        shards = [
            ClientShard(make_quadratic_client_data(t, 10, 1.0, RngStream(50 + i)), w)
            for i, (t, w) in enumerate(zip(tasks, p))
        ]
        problem = FederatedProblem(tasks, shards)
        probes = [np.zeros(3), np.ones(3)]
        c = estimate_problem_constants(
            problem, K=3, gamma=0.01, S=2, x_points=probes,
            rng=RngStream(6), batch_size=5,
        )
        expected_L = max(float(np.max(t.curvature)) for t in tasks)
        assert c.L == pytest.approx(expected_L, rel=1e-12)
        assert c.sigma_i.shape == (4,)
        assert np.all(c.G_i > 0)
        assert c.sigma_g >= 0
        # G_i matches a direct probe of the analytic gradients
        for i, task in enumerate(tasks):
            direct = max(
                float(np.linalg.norm(task.curvature * (x - task.center))) for x in probes
            )
            assert c.G_i[i] == pytest.approx(direct, rel=1e-12)

    def test_nonquadratic_path_produces_positive_constants(self):
        from fedagm import LogisticRegressionTask, PartitionSpec, make_blobs_dataset, partition

        data = make_blobs_dataset(60, 3, 4, RngStream(7))
        shards = partition(data, PartitionSpec("uniform", N=3), RngStream(8))
        task = LogisticRegressionTask(4, 3)
        problem = FederatedProblem([task] * 3, shards)
        # the second probe must not be constant across class rows: softmax is
        # shift-invariant, so an all-ones probe has the same gradient as zero
        probe = 0.1 * np.random.default_rng(10).normal(size=task.dim)
        c = estimate_problem_constants(
            problem, K=2, gamma=0.05, S=2,
            x_points=[np.zeros(task.dim), probe],
            rng=RngStream(9), batch_size=8,
        )
        assert c.L > 0
        assert np.all(c.sigma_i >= 0)
        assert np.all(c.G_i > 0)


def logistic_problem(N=3):
    from fedagm import LogisticRegressionTask, PartitionSpec, make_blobs_dataset, partition

    data = make_blobs_dataset(20 * N, 3, 4, RngStream(7))
    shards = partition(data, PartitionSpec("uniform", N=N), RngStream(8))
    return FederatedProblem([LogisticRegressionTask(4, 3)] * N, shards)


class TestClientGradientStack:
    def probes(self, problem):
        gen = np.random.default_rng(11)
        return [np.zeros(problem.dim)] + [0.2 * gen.normal(size=problem.dim) for _ in range(2)]

    def test_rows_are_the_client_full_gradients(self):
        problem = logistic_problem()
        x = self.probes(problem)[1]
        grads = client_evaluation(problem.stacked, x)[1]
        assert grads.shape == (problem.N, problem.dim)
        for i, (task, shard) in enumerate(zip(problem.client_tasks, problem.shards)):
            np.testing.assert_array_equal(grads[i], full_gradient(task, shard.data, x))

    def test_global_gradient_is_the_weighted_stack(self):
        problem = logistic_problem()
        x = self.probes(problem)[2]
        stack = client_evaluation(problem.stacked, x)[1]
        np.testing.assert_array_equal(problem.global_gradient(x), problem.weights @ stack)

    def test_G_i_takes_the_row_wise_norms_of_the_stack(self):
        # one pinned form: `inner` over the (N, d) stack's rows. Above 8192
        # entries einsum buffers a stack's rows, so at d = 10,000 a row's sum
        # can differ from the same row's taken alone.
        tasks, p = make_synthetic_federated_quadratic(4, 10_000, 1.0, RngStream(3))
        shards = [
            ClientShard(make_quadratic_client_data(t, 3, 1.0, RngStream(4 + i)), w)
            for i, (t, w) in enumerate(zip(tasks, p))
        ]
        gen = np.random.default_rng(12)
        probes = [gen.normal(size=10_000) for _ in range(2)]
        norms = []
        for x in probes:
            stack = np.stack([full_gradient(t, s.data, x) for t, s in zip(tasks, shards)])
            norms.append(np.sqrt(np.einsum("ij,ij->i", stack, stack)))
        np.testing.assert_array_equal(
            probe_gradient_bounds(tasks, shards, probes), np.maximum(*norms)
        )

    def test_streamed_constants_equal_the_probe_functions(self):
        problem = logistic_problem()
        tasks, shards = problem.client_tasks, problem.shards
        probes = self.probes(problem)
        c = estimate_problem_constants(
            problem, K=2, gamma=0.05, S=2, x_points=probes,
            rng=RngStream(9), batch_size=8, noise_draws=4,
        )
        np.testing.assert_array_equal(c.G_i, probe_gradient_bounds(tasks, shards, probes))
        assert c.sigma_g == math.sqrt(empirical_sigma_g(tasks, shards, probes))
        # L: largest global-gradient ratio over consecutive probes
        L = 0.0
        for a, b in zip(probes, probes[1:]):
            ga, gb = problem.global_gradient(a), problem.global_gradient(b)
            gap = math.sqrt(float(np.sum((a - b) ** 2)))
            L = max(L, math.sqrt(float(np.sum((ga - gb) ** 2))) / gap)
        assert c.L == L
        # sigma_i: minibatch noise at the first probe, client i drawing from stream 9's child i
        sigma_sq = []
        for i, (task, shard) in enumerate(zip(tasks, shards)):
            gen = RngStream(9).derive(i).generator()
            exact = full_gradient(task, shard.data, probes[0])
            draws = [
                np.sum((stochastic_gradient(task, shard.data, probes[0], 8, gen).grad - exact) ** 2)
                for _ in range(4)
            ]
            sigma_sq.append(float(np.mean(draws)))
        np.testing.assert_array_equal(c.sigma_i, np.sqrt(sigma_sq))


def noise_federation(kind, sizes, seed):
    """A FederatedProblem of one task kind with shards of the given sizes."""
    from fedagm import Dataset, LogisticRegressionTask, MlpTask

    gen = np.random.default_rng(seed)
    if kind == "quadratic":
        tasks = [QuadraticTask(gen.uniform(0.5, 2.0, 3), gen.normal(size=3)) for _ in sizes]
        data = [
            make_quadratic_client_data(t, n, 1.0, RngStream(seed + i))
            for i, (t, n) in enumerate(zip(tasks, sizes))
        ]
    else:
        if kind == "logistic":
            task = LogisticRegressionTask(3, 3, weight_decay=0.01)
        else:
            task = MlpTask(3, 4, 3, weight_decay=0.01)
        tasks = [task] * len(sizes)
        data = [Dataset(gen.normal(size=(n, 3)), gen.integers(0, 3, n), 3) for n in sizes]
    p = np.full(len(sizes), 1.0 / len(sizes))
    return FederatedProblem(tasks, [ClientShard(d, w) for d, w in zip(data, p)])


class TestMinibatchNoise:
    """The stacked noise probe keeps the per-client stochastic_gradient loop's bits."""

    @staticmethod
    def reference(problem, x, exact, batch_size, rng, draws):
        sigma_sq = np.zeros(problem.N)
        for i, (t, s) in enumerate(zip(problem.client_tasks, problem.shards)):
            gen = rng.derive(i).generator()
            b = min(batch_size, s.data.n)
            noise = [
                np.sum((stochastic_gradient(t, s.data, x, b, gen).grad - exact[i]) ** 2)
                for _ in range(draws)
            ]
            sigma_sq[i] = float(np.mean(noise))
        return np.sqrt(sigma_sq)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["quadratic", "logistic", "mlp"]),
        sizes=st.lists(st.integers(1, 30), min_size=1, max_size=5),
        batch_size=st.integers(1, 12),
        draws=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_per_client_loop(self, kind, sizes, batch_size, draws, seed):
        problem = noise_federation(kind, sizes, seed % 1000)
        x = 0.3 * np.random.default_rng(seed).normal(size=problem.dim)
        exact = client_evaluation(problem.stacked, x)[1]
        rng = RngStream(seed, 17)
        got = _minibatch_noise(problem.stacked, x, exact, batch_size, rng, draws)
        want = self.reference(problem, x, exact, batch_size, rng, draws)
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["logistic", "mlp"]),
        sizes=st.lists(st.tuples(st.integers(1, 30), st.integers(1, 30)), min_size=1, max_size=5),
        pick=st.integers(0, 4),
        batch_size=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_client_does_not_see_other_shards(self, kind, sizes, pick, batch_size, seed):
        # client i's estimate is the same when every other shard is resized,
        # and when the clients after it are removed
        from fedagm import Dataset, LogisticRegressionTask, MlpTask

        i = pick % len(sizes)
        if kind == "logistic":
            task = LogisticRegressionTask(3, 3, weight_decay=0.01)
        else:
            task = MlpTask(3, 4, 3, weight_decay=0.01)

        def sigma_i(shard_sizes):
            data = []
            for j, n in enumerate(shard_sizes):
                gen = np.random.default_rng([seed, j, n])
                data.append(Dataset(gen.normal(size=(n, 3)), gen.integers(0, 3, n), 3))
            shards = [ClientShard(d, 1.0 / len(data)) for d in data]
            fed = FederatedProblem([task] * len(data), shards).stacked
            x = 0.3 * np.random.default_rng(seed).normal(size=fed.dim)
            exact = client_evaluation(fed, x)[1]
            return _minibatch_noise(fed, x, exact, batch_size, RngStream(seed, 5), 6)[i]

        ours, others = [n for n, _ in sizes], [m for _, m in sizes]
        resized = others[:i] + [ours[i]] + others[i + 1 :]
        assert sigma_i(resized) == sigma_i(ours) == sigma_i(ours[: i + 1])

    @pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
    def test_default_draws_with_full_batch_clients(self, kind):
        # clients 1 and 3 have no more rows than the batch: full gradients, no draws
        problem = noise_federation(kind, [40, 6, 23, 8, 9], 3)
        x = 0.3 * np.random.default_rng(4).normal(size=problem.dim)
        exact = client_evaluation(problem.stacked, x)[1]
        got = _minibatch_noise(problem.stacked, x, exact, 8, RngStream(5), 32)
        want = self.reference(problem, x, exact, 8, RngStream(5), 32)
        np.testing.assert_array_equal(got, want)
        assert got[1] == got[3] == 0.0


class TestConstantsValidation:
    def test_weight_sum(self):
        with pytest.raises(StructuralError):
            constants(p=np.array([0.5]))

    def test_shape_agreement(self):
        with pytest.raises(StructuralError):
            constants(sigma_i=np.array([1.0, 2.0]))

    def test_non_finite_weight(self):
        with pytest.raises(ParameterError):
            constants(p=np.array([np.nan]))

    def test_negative_values(self):
        with pytest.raises(ParameterError):
            constants(L=-1.0)
        with pytest.raises(ParameterError):
            MuPair(0.0, 1.0)
        with pytest.raises(ParameterError):
            MuPair(2.0, 1.0)
