"""Outer-loop updates: aggregation, calibrations, momenta, and naming."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedagm import (
    Calibration,
    ClientShard,
    LocalConfig,
    NumericError,
    ParameterError,
    QuadraticTask,
    RngStream,
    ServerOptimizer,
    StructuralError,
    aggregate,
    calibrate,
    init_server_state,
    make_quadratic_client_data,
    named_optimizer,
    recover_baseline,
    run_local,
    server_step,
    stochastic_gradient,
)
from fedagm.server import IDENTITY


def drive(opt, deltas, x0=None):
    """Run a chain of server steps over a delta sequence; returns all states."""
    d = deltas[0].size
    state = init_server_state(x0 if x0 is not None else np.zeros(d))
    states = []
    for delta in deltas:
        state = server_step(state, delta, opt)
        states.append(state)
    return states


class TestAggregate:
    def test_identical_finals_give_zero_direction(self):
        x_t = np.array([1.0, -2.0])
        x_tilde, delta = aggregate(x_t, [x_t.copy(), x_t.copy(), x_t.copy()])
        np.testing.assert_array_equal(x_tilde, x_t)
        np.testing.assert_array_equal(delta, np.zeros(2))

    def test_single_client(self):
        x_t = np.array([1.0, 1.0])
        final = np.array([0.25, 2.0])
        x_tilde, delta = aggregate(x_t, [final])
        np.testing.assert_array_equal(x_tilde, final)
        np.testing.assert_array_equal(delta, x_t - final)

    def test_duplicates_count_with_multiplicity(self):
        x_t = np.zeros(1)
        _, delta = aggregate(x_t, [np.array([3.0]), np.array([0.0]), np.array([3.0])])
        np.testing.assert_allclose(delta, [-2.0], atol=1e-15)

    def test_direction_telescopes_local_steps(self):
        # Oracle: delta = gamma * mean_i sum_k direction_{i,k}, with the
        # directions replayed from the recorded iterates on each client's stream.
        gen = np.random.default_rng(0)
        task = QuadraticTask(gen.uniform(0.5, 2.0, 3), gen.normal(size=3))
        x_t = gen.normal(size=3)
        cfg = LocalConfig(K=7, gamma=0.03, batch_size=4)
        finals, sums = [], []
        for i in range(3):
            data = make_quadratic_client_data(task, 10, 1.0, RngStream(i))
            out = run_local(task, ClientShard(data, 1.0), x_t, cfg, rng=RngStream(100 + i), record=True)
            finals.append(out.x_final)
            replay = RngStream(100 + i).generator()
            sums.append(
                sum(stochastic_gradient(task, data, xk, 4, replay).grad for xk in out.trajectory[:-1])
            )
        _, delta = aggregate(x_t, finals)
        oracle = 0.03 * np.mean(sums, axis=0)
        np.testing.assert_allclose(delta, oracle, atol=1e-10)

    def test_empty_and_mismatched_inputs(self):
        with pytest.raises(StructuralError):
            aggregate(np.zeros(2), [])
        with pytest.raises(StructuralError):
            aggregate(np.zeros(2), [np.zeros(3)])
        with pytest.raises(StructuralError):
            # a final that would broadcast is still the wrong dimension
            aggregate(np.zeros(2), [np.zeros(2), np.zeros(1)])

    @given(
        S=st.integers(1, 40),
        d=st.sampled_from([1, 2, 3, 8, 170, 3610, 40_000]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_mean_has_the_bits_of_the_stacked_mean(self, S, d, seed):
        # finals of mixed magnitudes, so that the summation order shows;
        # one coordinate is summed pairwise, as NumPy sums a 1-D array
        gen = np.random.default_rng(seed)
        finals = list(gen.normal(size=(S, d)) * 10.0 ** gen.integers(-8, 8, size=(S, 1)))
        x_t = gen.normal(size=d)
        x_tilde, delta = aggregate(x_t, finals)
        expected = np.stack(finals).mean(axis=0)
        assert x_tilde.tobytes() == expected.tobytes()
        assert delta.tobytes() == (x_t - expected).tobytes()


class TestCalibrate:
    def test_epsilon_at_zero_momentum(self):
        out = calibrate(np.zeros(3), Calibration("epsilon", eps=1e-2))
        np.testing.assert_array_equal(out, np.full(3, 1e-2))
        # the implied per-coordinate stepsize multiplier is 1/eps = 100
        assert float(1.0 / out[0]) == 100.0

    def test_epsilon_general(self):
        out = calibrate(np.array([4.0, 9.0]), Calibration("epsilon", eps=0.5))
        np.testing.assert_allclose(out, [2.5, 3.5], atol=1e-15)

    def test_power_compresses_the_span(self):
        # (1e-8)^(1/4) = 1e-2 vs (1e-8)^(1/2) = 1e-4: the quarter power
        # yields stepsize 1e2 where the square root yields 1e4.
        v = np.array([1e-8])
        quarter = calibrate(v, Calibration("power", p=0.25, eps=1e-300))
        half = calibrate(v, Calibration("power", p=0.5, eps=1e-300))
        assert 1.0 / quarter[0] == pytest.approx(1e2, rel=1e-12)
        assert 1.0 / half[0] == pytest.approx(1e4, rel=1e-12)

    def test_softplus_floor_at_zero(self):
        # log(1 + e^0)/beta = log(2)/50
        out = calibrate(np.zeros(1), Calibration("softplus", beta=50.0))
        assert out[0] == pytest.approx(math.log(2.0) / 50.0, rel=1e-12)

    def test_softplus_is_overflow_safe(self):
        v = np.array([1e300])
        out = calibrate(v, Calibration("softplus", beta=50.0))
        assert np.isfinite(out[0])
        assert out[0] == pytest.approx(math.sqrt(1e300), rel=1e-12)

    def test_softplus_matches_naive_formula_in_safe_range(self):
        gen = np.random.default_rng(1)
        v = gen.uniform(0.0, 4.0, size=100)
        out = calibrate(v, Calibration("softplus", beta=10.0))
        naive = np.log1p(np.exp(10.0 * np.sqrt(v))) / 10.0
        np.testing.assert_allclose(out, naive, rtol=1e-12)

    def test_identity(self):
        np.testing.assert_array_equal(calibrate(np.array([5.0, 0.0]), IDENTITY), np.ones(2))

    def test_rejects_negative_momentum(self):
        with pytest.raises(NumericError):
            calibrate(np.array([-1e-9]), Calibration("epsilon"))

    def test_all_schemes_are_strictly_positive(self):
        gen = np.random.default_rng(2)
        v = np.concatenate([[0.0], gen.uniform(0, 10, 50)])
        for cal in (
            Calibration("epsilon", eps=1e-8),
            Calibration("power", p=0.3, eps=1e-8),
            Calibration("softplus", beta=50.0),
            IDENTITY,
        ):
            assert np.all(calibrate(v, cal) > 0)


class TestMomenta:
    def test_first_momentum_geometric_series(self):
        # Constant delta: m_t = (1 - beta1^t) * delta, summed independently.
        delta = np.array([2.0, -1.0])
        opt = ServerOptimizer("adam", eta=0.1, beta1=0.9, beta2=0.99,
                              calibration=Calibration("epsilon"))
        states = drive(opt, [delta] * 50)
        for t, state in enumerate(states, start=1):
            series = math.fsum(0.1 * 0.9 ** (t - 1 - l) for l in range(t))
            np.testing.assert_allclose(state.m, series * delta, atol=1e-12)

    def test_momenta_match_bruteforce_sums(self):
        # Oracle: m_t = sum_l (1-b1) b1^(t-l) delta_l, v_t likewise with
        # delta^2, evaluated directly at three checkpoints.
        gen = np.random.default_rng(3)
        for trial in range(20):
            T = int(gen.integers(5, 120))
            b1, b2 = gen.uniform(0.0, 0.99, size=2)
            deltas = [gen.normal(size=2) for _ in range(T)]
            opt = ServerOptimizer("adam", eta=0.1, beta1=b1, beta2=b2,
                                  calibration=Calibration("epsilon"))
            states = drive(opt, deltas)
            for t in {T // 3, (2 * T) // 3, T} - {0}:
                m_oracle = sum(
                    (1 - b1) * b1 ** (t - 1 - l) * deltas[l] for l in range(t)
                )
                v_oracle = sum(
                    (1 - b2) * b2 ** (t - 1 - l) * deltas[l] ** 2 for l in range(t)
                )
                np.testing.assert_allclose(states[t - 1].m, m_oracle, atol=1e-12)
                np.testing.assert_allclose(states[t - 1].v, v_oracle, atol=1e-12)

    def test_amsgrad_momentum_never_decreases(self):
        gen = np.random.default_rng(4)
        opt = ServerOptimizer("amsgrad", eta=0.1, beta1=0.9, beta2=0.9,
                              calibration=Calibration("epsilon"))
        state = init_server_state(np.zeros(3))
        prev_v = state.v.copy()
        for _ in range(200):
            state = server_step(state, gen.normal(size=3) * gen.uniform(0, 2), opt)
            assert np.all(state.v >= prev_v)
            prev_v = state.v.copy()

    def test_amsgrad_dominates_adam_track(self):
        # Same delta sequence: the max-fold keeps v at or above the EMA.
        gen = np.random.default_rng(5)
        deltas = [gen.normal(size=2) for _ in range(100)]
        adam = ServerOptimizer("adam", eta=0.1, beta1=0.9, beta2=0.95,
                               calibration=Calibration("epsilon"))
        ams = ServerOptimizer("amsgrad", eta=0.1, beta1=0.9, beta2=0.95,
                              calibration=Calibration("epsilon"))
        for sa, sm in zip(drive(adam, deltas), drive(ams, deltas)):
            assert np.all(sm.v >= sa.v - 1e-15)

    def test_yogi_matches_sign_rule_reference(self):
        # Independent reference for v <- v - (1-b2) d^2 sign(v - d^2).
        gen = np.random.default_rng(6)
        deltas = [gen.normal(size=2) * gen.uniform(0, 3) for _ in range(150)]
        b2 = 0.95
        opt = ServerOptimizer("yogi", eta=0.1, beta1=0.0, beta2=b2,
                              calibration=Calibration("epsilon", eps=1e-3))
        v_ref = np.zeros(2)
        for delta, state in zip(deltas, drive(opt, deltas)):
            d_sq = delta * delta
            v_ref = v_ref - (1 - b2) * d_sq * np.sign(v_ref - d_sq)
            np.testing.assert_allclose(state.v, v_ref, atol=1e-15)
            assert np.all(state.v >= 0)


class TestServerStep:
    def test_avg_unit_eta_returns_average_bitwise(self):
        gen = np.random.default_rng(7)
        opt = ServerOptimizer("avg", eta=1.0)
        state = init_server_state(gen.normal(size=4))
        for _ in range(20):
            x_tilde = gen.normal(size=4)
            state = server_step(state, state.x - x_tilde, opt, x_tilde=x_tilde)
            np.testing.assert_array_equal(state.x, x_tilde)

    def test_avg_general_eta(self):
        opt = ServerOptimizer("avg", eta=0.5)
        state = init_server_state(np.array([1.0, 1.0]))
        delta = np.array([0.2, -0.4])
        out = server_step(state, delta, opt)
        np.testing.assert_allclose(out.x, state.x - 0.5 * delta, atol=1e-15)

    def test_momentum_kind_matches_classical_momentum_sgd(self):
        # Reference: m <- b1 m + (1-b1) d; x <- x - eta m, written out plainly.
        gen = np.random.default_rng(8)
        deltas = [gen.normal(size=3) for _ in range(200)]
        opt = ServerOptimizer("momentum", eta=0.7, beta1=0.9)
        x_ref = np.zeros(3)
        m_ref = np.zeros(3)
        state = init_server_state(np.zeros(3))
        for delta in deltas:
            m_ref = 0.9 * m_ref + 0.1 * delta
            x_ref = x_ref - 0.7 * m_ref
            state = server_step(state, delta, opt)
            np.testing.assert_allclose(state.x, x_ref, atol=1e-13)

    def test_eta_scaling_is_exact_for_binary_factors(self):
        # With the identity calibration the update is linear in eta, and a
        # power-of-two factor commutes with every floating-point op here, so
        # the whole trajectory from zero scales bit-exactly.
        gen = np.random.default_rng(9)
        deltas = [gen.normal(size=3) for _ in range(10)]
        for kind, b1 in (("avg", 0.0), ("momentum", 0.9)):
            small = ServerOptimizer(kind, eta=0.25, beta1=b1)
            big = ServerOptimizer(kind, eta=1.0, beta1=b1)
            for ss, sb in zip(drive(small, deltas), drive(big, deltas)):
                np.testing.assert_array_equal(sb.x, 4.0 * ss.x)

    def test_fresh_state_inputs_untouched(self):
        state = init_server_state(np.zeros(2))
        delta = np.array([1.0, 2.0])
        opt = ServerOptimizer("adam", eta=0.1, beta1=0.9, beta2=0.99,
                              calibration=Calibration("epsilon"))
        out = server_step(state, delta, opt)
        assert out is not state
        np.testing.assert_array_equal(state.m, np.zeros(2))
        np.testing.assert_array_equal(state.v, np.zeros(2))

    def test_dim_mismatch(self):
        state = init_server_state(np.zeros(2))
        opt = ServerOptimizer("avg", eta=1.0)
        with pytest.raises(StructuralError):
            server_step(state, np.zeros(3), opt)


class TestNaming:
    def test_identity_calibration_names(self):
        assert recover_baseline(ServerOptimizer("avg", eta=1.0)) == "FedAvg"
        assert recover_baseline(ServerOptimizer("momentum", eta=1.0, beta1=0.9)) == "FedMomentum"

    def test_named_optimizers_round_trip(self):
        for name in (
            "FedAvg", "FedMomentum", "FedAdam", "eps-FedAdam", "p-FedAdam",
            "s-FedAdam", "FedAMSGrad", "s-FedAMSGrad", "FedYogi",
        ):
            assert recover_baseline(named_optimizer(name, eta=0.1)) == name

    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            named_optimizer("FedProx", eta=0.1)

    def test_overrides_apply(self):
        opt = named_optimizer("FedAdam", eta=0.1, beta2=0.95)
        assert opt.beta2 == 0.95


class TestOptimizerValidation:
    def test_avg_constraints(self):
        with pytest.raises(ParameterError):
            ServerOptimizer("avg", eta=1.0, beta1=0.5)
        with pytest.raises(ParameterError):
            ServerOptimizer("avg", eta=1.0, calibration=Calibration("epsilon"))
        with pytest.raises(ParameterError):
            ServerOptimizer("momentum", eta=1.0, beta1=0.9, beta2=0.5)

    def test_parameter_ranges(self):
        with pytest.raises(ParameterError):
            ServerOptimizer("adam", eta=0.0, calibration=Calibration("epsilon"))
        with pytest.raises(ParameterError):
            ServerOptimizer("adam", eta=0.1, beta1=1.0, calibration=Calibration("epsilon"))
        with pytest.raises(ParameterError):
            Calibration("power", p=0.75)
        with pytest.raises(ParameterError):
            Calibration("power", eps=0.0)
        with pytest.raises(ParameterError):
            Calibration("softplus", beta=0.0)
        with pytest.raises(ParameterError):
            Calibration("smoothstep")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "scheme, key, value",
        [
            ("epsilon", "eps", 1e-320),
            ("epsilon", "eps", 5e-324),
            ("softplus", "beta", 1.7e308),
            ("softplus", "beta", 1e-310),
            ("softplus", "beta", 1e-320),
        ],
    )
    def test_largest_stepsize_must_be_finite(self, scheme, key, value):
        # 1/calibrate(0) overflowed: mu_pair reported mu_upper = inf, which
        # bound_report.json wrote as a bare Infinity. A tiny beta overflows
        # calibrate(0) = log(2)/beta instead, and every stepsize was 0. The
        # check warns of neither.
        with pytest.raises(ParameterError, match="finite and > 0") as info:
            Calibration(scheme, **{key: value})
        assert info.value.key == key

    def test_small_floors_with_a_finite_largest_stepsize_are_accepted(self):
        for cal in (
            Calibration("epsilon", eps=1e-308),
            Calibration("power", eps=1e-320, p=0.5),
            Calibration("softplus", beta=1e308),
            Calibration("softplus", beta=1e-308),
        ):
            assert 0 < 1.0 / calibrate(np.zeros(1), cal)[0] < np.inf
