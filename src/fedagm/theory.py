"""Bound bookkeeping: the quantities a convergence analysis promises,
computed from problem constants and checked against simulation traces.

Everything here is desk-scale verification, not proof: inequalities that
hold in expectation are averaged over seeds by the callers, and reports say
what was compared rather than raising on violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, StructuralError
from .local import choice_from_words, words32
from .numerics import RngStream, as_generator
from .orchestrator import weighted_dissimilarity
from .sampling import WEIGHT_SUM_TOL
from .server import Calibration
from .tasks import (
    QuadraticTask,
    StackedFederation,
    Task,
    client_gradients,
    quadratic_sigma_sq,
    quadratic_smoothness,
)


@dataclass
class ProblemConstants:
    """Smoothness, noise, and run geometry for one federated problem.

    sigma_i bounds each client's minibatch gradient noise, G_i its gradient
    norm over the region of interest, sigma_g the client-to-mean gradient
    dissimilarity. K, gamma, S, eta describe the run that the bounds are
    evaluated for.
    """

    L: float
    sigma_i: np.ndarray
    G_i: np.ndarray
    sigma_g: float
    p: np.ndarray
    K: int
    gamma: float
    S: int
    eta: float

    def __post_init__(self):
        self.sigma_i = np.asarray(self.sigma_i, dtype=np.float64)
        self.G_i = np.asarray(self.G_i, dtype=np.float64)
        self.p = np.asarray(self.p, dtype=np.float64)
        if not (self.sigma_i.shape == self.G_i.shape == self.p.shape):
            raise StructuralError("sigma_i, G_i, p must have one entry per client")
        if min(self.L, self.sigma_g, self.gamma, self.eta) < 0:
            raise ParameterError("constants must be nonnegative")
        if np.any(self.sigma_i < 0) or np.any(self.G_i < 0) or np.any(self.p < 0):
            raise ParameterError("per-client constants must be nonnegative")
        if abs(self.p.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise StructuralError("client weights must sum to 1")
        if self.K < 1 or self.S < 1:
            raise ParameterError("K and S must be >= 1")


@dataclass
class MuPair:
    """Deterministic bounds on the per-coordinate adaptive stepsize 1/calibrate(v)."""

    mu_lower: float
    mu_upper: float

    def __post_init__(self):
        if not 0 < self.mu_lower <= self.mu_upper:
            raise ParameterError(f"need 0 < mu_lower <= mu_upper, got {self}")


@dataclass
class BoundReport:
    """One verified inequality, JSON-ready."""

    quantity: str
    empirical: float
    bound: float
    satisfied: bool
    seeds: int = 1
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "empirical": self.empirical,
            "bound": self.bound,
            "satisfied": self.satisfied,
            "seeds": self.seeds,
            "notes": self.notes,
        }


def _noise_moments(c: ProblemConstants) -> tuple[float, float]:
    sig2 = float(np.dot(c.p, c.sigma_i**2))
    g2 = float(np.dot(c.p, c.G_i**2))
    return sig2, g2


def compute_V(c: ProblemConstants) -> float:
    """Second-moment ceiling for the per-round virtual direction.

    One term scales with 1/S (participation variance), one does not (local
    update magnitude); both scale with (K * gamma)^2.
    """
    sig2, g2 = _noise_moments(c)
    kg2 = (c.K * c.gamma) ** 2
    return kg2 / c.S * (12.0 * sig2 + 24.0 * g2) + 4.0 * kg2 * (sig2 + g2)


def _softplus_scalar(sqrt_v: float, beta: float) -> float:
    z = beta * sqrt_v
    return (max(z, 0.0) + math.log1p(math.exp(-abs(z)))) / beta


def mu_pair(cal: Calibration, V: float) -> MuPair:
    """Stepsize span of 1/calibrate(v) over v in [0, V]."""
    if V < 0:
        raise ParameterError("V must be >= 0")
    if cal.scheme == "epsilon":
        return MuPair(1.0 / (math.sqrt(V) + cal.eps), 1.0 / cal.eps)
    if cal.scheme == "power":
        return MuPair((V + cal.eps) ** -cal.p, cal.eps**-cal.p)
    if cal.scheme == "softplus":
        return MuPair(
            1.0 / _softplus_scalar(math.sqrt(V), cal.beta), cal.beta / math.log(2.0)
        )
    return MuPair(1.0, 1.0)


def stepsize_admissible(c: ProblemConstants, mu: MuPair) -> tuple[bool, float]:
    """Largest inner stepsize the analysis tolerates, and whether gamma fits."""
    if c.L <= 0:
        raise ParameterError("admissibility needs L > 0")
    gamma_max = min(
        1.0 / (8.0 * c.L * c.K),
        math.sqrt(mu.mu_lower / (10.0 * mu.mu_upper)) / c.K,
    )
    return c.gamma < gamma_max, gamma_max


def lemma_second_moment_bound(c: ProblemConstants) -> float:
    """Ceiling on E||g||^2 for the sampled-average inner gradient."""
    sig2, g2 = _noise_moments(c)
    return (12.0 * sig2 + 24.0 * g2) / c.S + 4.0 * (sig2 + g2)


def empirical_sigma_g(
    tasks: list[Task],
    shards,
    x_points: list[np.ndarray],
    mean: str = "weighted",
) -> float:
    """Largest probed value of the client-gradient dissimilarity.

    At each probe x: sum_i w_i ||grad f_i(x) - grad f(x)||^2 where grad f is
    the p-weighted mean gradient and w is p ("weighted") or 1/N ("uniform").
    A sampled lower estimate of sigma_g^2.
    """
    if not x_points:
        raise ParameterError("need at least one probe point")
    if mean not in ("weighted", "uniform"):
        raise ParameterError(f"unknown mean semantics {mean!r}")
    p = np.array([shard.weight for shard in shards])
    w = p if mean == "weighted" else np.full(p.size, 1.0 / p.size)
    fed = StackedFederation.build(tasks, [shard.data for shard in shards])
    worst = 0.0
    for x in x_points:
        _, value = weighted_dissimilarity(client_gradients(fed, x), p, w)
        worst = max(worst, value)
    return worst


def quadratic_sigma_g_exact(tasks, p: np.ndarray, mean: str = "weighted") -> float:
    """Exact dissimilarity for equal-curvature diagonal quadratics.

    With a shared curvature a, grad f_i - grad f = a * (cbar - c_i) for every
    x, so the dissimilarity is a constant that needs no probing.
    """
    a0 = tasks[0].curvature
    for task in tasks:
        if not np.array_equal(task.curvature, a0) or task.weight_decay != tasks[0].weight_decay:
            raise ParameterError("exact dissimilarity needs identical curvature on all clients")
    centers = np.stack([task.center for task in tasks])
    cbar = np.asarray(p) @ centers
    gaps = ((a0 * (cbar - centers)) ** 2).sum(axis=1)
    w = np.asarray(p) if mean == "weighted" else np.full(len(tasks), 1.0 / len(tasks))
    return float(np.dot(w, gaps))


def probe_gradient_bounds(
    tasks: list[Task],
    shards,
    x_points: list[np.ndarray],
) -> np.ndarray:
    """Per-client max gradient norm over the probe points (an empirical G_i)."""
    if not x_points:
        raise ParameterError("need at least one probe point")
    fed = StackedFederation.build(tasks, [shard.data for shard in shards])
    out = np.zeros(len(tasks))
    for x in x_points:
        _raise_to_norms(out, client_gradients(fed, x))
    return out


def _raise_to_norms(bounds: np.ndarray, grads: np.ndarray) -> None:
    """bounds[i] <- max(bounds[i], ||grads[i]||), in place."""
    for i, g in enumerate(grads):
        bounds[i] = max(bounds[i], math.sqrt(float(np.dot(g, g))))


def mean_identity_zscores(draws: np.ndarray, expected_mean: np.ndarray) -> np.ndarray:
    """Per-coordinate |sample mean - expected| / standard error.

    Deterministic coordinates (zero sample variance) get z = 0 when the mean
    matches to roundoff and inf otherwise, rather than dividing by zero.
    """
    draws = np.asarray(draws)
    expected_mean = np.asarray(expected_mean, dtype=np.float64)
    n = draws.shape[0]
    se = draws.std(axis=0, ddof=1) / math.sqrt(n)
    diff = np.abs(draws.mean(axis=0) - expected_mean)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = diff / se
    # Below ~1e-12 relative, se is summation roundoff, not sampling noise;
    # the CLT comparison is meaningless there, so fall back to an exactness
    # check at the same scale.
    scale = 1.0 + np.abs(expected_mean)
    degenerate = se <= 1e-12 * scale
    exact = diff <= 1e-9 * scale
    return np.where(degenerate, np.where(exact, 0.0, np.inf), z)


def verify_lemma_second_moment(
    draws: np.ndarray,
    c: ProblemConstants,
    expected_mean: np.ndarray | None = None,
) -> BoundReport:
    """Check E||g||^2 against its ceiling on recorded sampled-gradient draws.

    `draws` holds one averaged inner gradient per row, all taken at a common
    x. When `expected_mean` is given the unbiasedness identity is checked to
    3 standard errors per coordinate and reported in the notes.
    """
    draws = np.asarray(draws, dtype=np.float64)
    if draws.ndim != 2 or draws.shape[0] < 1000:
        raise StructuralError("need >= 1000 draws, one gradient per row")
    empirical = float(np.mean((draws**2).sum(axis=1)))
    bound = lemma_second_moment_bound(c)
    notes = ""
    if expected_mean is not None:
        z = mean_identity_zscores(draws, np.asarray(expected_mean))
        mean_ok = bool(np.all(z <= 3.0))
        notes = f"mean identity {'ok' if mean_ok else 'FAILED'} (max |z| = {z.max():.3f})"
    return BoundReport(
        quantity="second_moment_of_sampled_gradient",
        empirical=empirical,
        bound=bound,
        satisfied=empirical <= bound,
        notes=notes,
    )


def drift_rhs(c: ProblemConstants, grad_norm_sq: float, gamma: float | None = None) -> float:
    """Ceiling on the weighted client drift at round t given ||grad f(x_t)||^2."""
    g = c.gamma if gamma is None else gamma
    sig2 = float(np.dot(c.p, c.sigma_i**2))
    return 5.0 * c.K * g**2 * (sig2 + 2.0 * c.K * c.sigma_g**2) + 10.0 * (
        c.K * g
    ) ** 2 * grad_norm_sq


def verify_drift_bound(
    drift: np.ndarray,
    grad_norm_sq: np.ndarray,
    c: ProblemConstants,
    seeds: int = 1,
    gammas: np.ndarray | None = None,
) -> BoundReport:
    """Compare seed-averaged weighted drift against its ceiling at every (t, k).

    `drift[t, k]` = mean over seeds of sum_i p_i ||x_t - x_{t,k}^(i)||^2;
    `grad_norm_sq[t]` = mean over seeds of ||grad f(x_t)||^2. Outside the
    stepsize regime the report is marked inapplicable instead of failing.
    """
    drift = np.asarray(drift, dtype=np.float64)
    grad_norm_sq = np.asarray(grad_norm_sq, dtype=np.float64)
    if drift.ndim != 2 or drift.shape[0] != grad_norm_sq.size:
        raise StructuralError("drift must be (T, K+1) aligned with grad_norm_sq of length T")
    gamma_cap = 1.0 / (8.0 * c.L * c.K)
    gam = np.full(grad_norm_sq.size, c.gamma) if gammas is None else np.asarray(gammas)
    if np.any(gam > gamma_cap):
        return BoundReport(
            quantity="client_drift",
            empirical=float(drift.max()),
            bound=float("nan"),
            satisfied=True,
            seeds=seeds,
            notes=f"inapplicable: gamma exceeds 1/(8LK) = {gamma_cap:.6g}",
        )
    rhs = np.array([drift_rhs(c, gn, g) for gn, g in zip(grad_norm_sq, gam)])
    violations = int(np.sum(drift > rhs[:, None]))
    ratios = drift / np.where(rhs[:, None] > 0, rhs[:, None], np.inf)
    return BoundReport(
        quantity="client_drift",
        empirical=float(ratios.max()),
        bound=1.0,
        satisfied=violations == 0,
        seeds=seeds,
        notes=f"{violations} violations over {drift.size} (t, k) cells",
    )


def rate_envelope(history: np.ndarray, mu: MuPair, c: ProblemConstants) -> BoundReport:
    """Trend check on the running average of ||grad f(x_t)||^2.

    Constants in the rate are unknowable, so this fits c0/sqrt(T) to the
    running average by least squares and flags a run whose average fails to
    decrease between T/2 and T (or goes non-finite).
    """
    history = np.asarray(history, dtype=np.float64)
    if history.size < 20:
        raise StructuralError("need at least 20 rounds of gradient norms")
    if not np.all(np.isfinite(history)):
        return BoundReport(
            quantity="rate_envelope",
            empirical=float("inf"),
            bound=float("inf"),
            satisfied=False,
            notes="non-finite gradient norms: diverged",
        )
    running = np.cumsum(history) / np.arange(1, history.size + 1)
    shape = 1.0 / np.sqrt(np.arange(1.0, history.size + 1))
    c0 = float(np.dot(running, shape) / np.dot(shape, shape))
    residual = float(np.sqrt(np.mean((running - c0 * shape) ** 2)))
    half, full = running[history.size // 2 - 1], running[-1]
    decreased = bool(full < half) or (full == 0.0 and half == 0.0)
    return BoundReport(
        quantity="rate_envelope",
        empirical=full,
        bound=half,
        satisfied=decreased,
        notes=f"least-squares c0/sqrt(T) fit: c0 = {c0:.6g}, rms residual = {residual:.6g}",
    )


def estimate_problem_constants(
    problem,
    K: int,
    gamma: float,
    S: int,
    eta: float,
    x_points: list[np.ndarray],
    rng: RngStream,
    batch_size: int,
    noise_draws: int = 32,
) -> ProblemConstants:
    """Fill ProblemConstants from a federated problem, exactly where possible.

    Quadratic federations get analytic smoothness and per-client noise; the
    other task kinds are probed empirically (gradient Lipschitz ratio over
    consecutive probes, minibatch-noise sample variance at the first probe,
    drawn from the start of `rng`). G_i and sigma_g are always probe maxima,
    so they are lower estimates of the true suprema. Each probe's
    client-gradient stack is built once, reduced, and dropped before the
    next probe is stacked.
    """
    if not x_points:
        raise ParameterError("need at least one probe point")
    tasks = problem.client_tasks
    shards = problem.shards
    p = problem.weights
    all_quadratic = all(isinstance(t, QuadraticTask) for t in tasks)

    if all_quadratic:
        L = quadratic_smoothness(tasks)
        sigma_i = np.sqrt(
            [
                quadratic_sigma_sq(t, s.data, min(batch_size, s.data.n))
                for t, s in zip(tasks, shards)
            ]
        )
    else:
        L = 0.0
    G_i = np.zeros(len(tasks))
    sigma_g_sq = 0.0
    for j, x in enumerate(x_points):
        grads = client_gradients(problem.stacked, x)
        _raise_to_norms(G_i, grads)
        mean, dissimilarity = weighted_dissimilarity(grads, p)
        sigma_g_sq = max(sigma_g_sq, dissimilarity)
        if not all_quadratic:
            if j == 0:
                sigma_i = _minibatch_noise(problem.stacked, x, grads, batch_size, rng, noise_draws)
            else:
                gap = math.sqrt(float(np.sum((x_prev - x) ** 2)))
                if gap > 0:
                    L = max(L, math.sqrt(float(np.sum((mean_prev - mean) ** 2))) / gap)
            x_prev, mean_prev = x, mean
        del grads
    return ProblemConstants(
        L=L,
        sigma_i=sigma_i,
        G_i=G_i,
        sigma_g=math.sqrt(sigma_g_sq),
        p=p,
        K=K,
        gamma=gamma,
        S=S,
        eta=eta,
    )


_NOISE_CHUNK = 8


def _minibatch_noise(
    fed: StackedFederation, x, exact, batch_size: int, rng: RngStream, draws: int
) -> np.ndarray:
    """Per-client root-mean-square distance of minibatch gradients from exact[i] at x.

    Client i's `draws` minibatches are the ones `draws` calls of
    `stochastic_gradient(task_i, data_i, x, min(batch_size, n_i), gen)` would
    take, client after client, from one generator of `rng`; a client with no
    more than batch_size rows takes its full gradient and consumes no words.
    Gradients are stacked _NOISE_CHUNK draws at a time: a (draws, d) stack
    costs as much time and raised the peak memory of a d=35.6k run by 2.7 MB.
    """
    sizes = fed.sizes
    sampled = np.flatnonzero(sizes > batch_size)
    picks_of = {}
    if sampled.size:
        per_draw = 2 * batch_size - 1
        lane_sizes = np.repeat(sizes[sampled], draws)
        words = words32(rng.generator(), lane_sizes.size * per_draw)
        picks, ok = choice_from_words(
            words.reshape(lane_sizes.size, per_draw), lane_sizes, batch_size
        )
        if not ok.all():
            # a rejected word shifts every later draw: take them all with choice
            gen = rng.generator()
            picks = np.stack([gen.choice(n, size=batch_size, replace=False) for n in lane_sizes])
        picks_of = dict(zip(sampled.tolist(), picks.reshape(sampled.size, draws, batch_size)))
    xs = np.broadcast_to(x, (_NOISE_CHUNK, x.size))
    noise = np.empty(draws)
    sigma_sq = np.zeros(fed.N)
    for i in range(fed.N):
        rows = fed.offsets[i] + picks_of[i] if i in picks_of else None
        for lo in range(0, draws, _NOISE_CHUNK):
            hi = min(lo + _NOISE_CHUNK, draws)
            grads = fed.gradients(
                np.full(hi - lo, i), xs[: hi - lo], None if rows is None else rows[lo:hi]
            )
            # in place, (g - exact_i) ** 2 per draw; row sums give np.sum's bits
            grads -= exact[i]
            grads *= grads
            noise[lo:hi] = np.sum(grads, axis=1)
        sigma_sq[i] = float(np.mean(noise))
    return np.sqrt(sigma_sq)


def calibration_span_violations(
    calibrate_fn,
    cal: Calibration,
    V: float,
    num_samples: int,
    rng: RngStream | np.random.Generator,
) -> int:
    """Count sampled v in [0, V] where 1/calibrate(v) leaves [mu_lower, mu_upper]."""
    mu = mu_pair(cal, V)
    gen = as_generator(rng)
    v = gen.uniform(0.0, V, num_samples)
    v[0] = 0.0
    if num_samples > 1:
        v[1] = V
    inv = 1.0 / calibrate_fn(v, cal)
    # One-ulp slack: mu_lower itself is computed by the same arithmetic the
    # sampled endpoint v = V goes through, so demand no more than equality.
    lo = np.nextafter(mu.mu_lower, 0.0)
    hi = np.nextafter(mu.mu_upper, np.inf)
    return int(np.sum((inv < lo) | (inv > hi)))
