"""Walk through the bound machinery on a small federation.

Estimates the problem constants (smoothness, gradient noise, dissimilarity),
derives the direction ceiling V and the stepsize band for each calibration,
reports the admissible inner stepsize, then runs an experiment and verifies
the client-drift ceiling and the trend of the gradient-norm running average.
"""

import numpy as np

from fedagm import (
    Calibration,
    ClientShard,
    ExperimentConfig,
    FederatedProblem,
    LocalConfig,
    QuadraticTask,
    RngStream,
    SamplingSpec,
    compute_V,
    estimate_problem_constants,
    mu_pair,
    named_optimizer,
    quadratic_global_optimum,
    rate_envelope,
    run_experiment,
    stepsize_admissible,
    verify_drift_bound,
)

K, GAMMA, ROUNDS, SEEDS = 4, 0.015, 200, 10


def build_problem():
    gen = np.random.default_rng(7)
    curv = np.array([1.2, 0.8, 1.5])
    tasks = [QuadraticTask(curv, gen.normal(size=3)) for _ in range(6)]
    shards = [
        ClientShard(make_data(t, i), 1.0 / 6.0) for i, t in enumerate(tasks)
    ]
    return FederatedProblem(tasks, shards), tasks


def make_data(task, i):
    from fedagm import make_quadratic_client_data

    return make_quadratic_client_data(task, 12, 1.0, RngStream(100 + i))


def main():
    problem, tasks = build_problem()
    x_star = quadratic_global_optimum(tasks, problem.weights)
    probes = [np.zeros(3), x_star, 2.0 * x_star]
    c = estimate_problem_constants(
        problem, K=K, gamma=GAMMA, S=6, eta=1.0,
        x_points=probes, rng=RngStream(9), batch_size=4,
    )
    print("estimated constants")
    print(f"  L = {c.L:.4f}   sigma_g = {c.sigma_g:.4f}")
    print(f"  sigma_i = {np.round(c.sigma_i, 4)}")
    print(f"  G_i     = {np.round(c.G_i, 4)}")

    V = compute_V(c)
    print(f"\ndirection ceiling V = {V:.5f} at K = {K}, gamma = {GAMMA}, S = 6")
    for name, cal in (
        ("epsilon 1e-2", Calibration("epsilon", eps=1e-2)),
        ("power 0.25", Calibration("power", eps=1e-8, p=0.25)),
        ("softplus 50", Calibration("softplus", beta=50.0)),
        ("identity", Calibration("identity")),
    ):
        mu = mu_pair(cal, V)
        ok, gamma_max = stepsize_admissible(c, mu)
        print(
            f"  {name:<14} mu = [{mu.mu_lower:.4f}, {mu.mu_upper:.4g}]"
            f"  gamma_max = {gamma_max:.5f}  gamma {'admissible' if ok else 'TOO LARGE'}"
        )

    drifts, grads = [], []
    for seed in range(SEEDS):
        cfg = ExperimentConfig(
            problem=problem,
            local=LocalConfig(K=K, gamma=GAMMA, batch_size=4),
            sampling=SamplingSpec(S=6, mode="full"),
            server=named_optimizer("FedAvg", eta=1.0),
            rounds=ROUNDS,
            seed=seed,
            record_drift=True,
        )
        result = run_experiment(cfg)
        drifts.append(result.drift)
        grads.append(result.grad_norm_history)

    drift_report = verify_drift_bound(
        np.mean(drifts, axis=0), np.mean(grads, axis=0), c, seeds=SEEDS
    )
    print(f"\nclient-drift ceiling: satisfied = {drift_report.satisfied}")
    print(f"  worst cell at {drift_report.empirical:.3f} of its ceiling ({drift_report.notes})")

    env = rate_envelope(np.mean(grads, axis=0))
    print(f"\ngradient-norm trend: decreasing = {env.satisfied}")
    print(f"  running average {env.bound:.3e} at T/2 -> {env.empirical:.3e} at T")
    print(f"  {env.notes}")


if __name__ == "__main__":
    main()
