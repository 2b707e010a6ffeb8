"""Bound bookkeeping: the quantities a convergence analysis promises,
computed from problem constants and checked against simulation traces.

Everything here is desk-scale verification, not proof: inequalities that
hold in expectation are averaged over seeds by the callers, and reports say
what was compared rather than raising on violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructuralError
from .local import draw_minibatches
from .numerics import RngStream, as_generator, inner
from .sampling import check_weights
from .server import Calibration, calibrate
from .tasks import (
    QuadraticTask,
    StackedFederation,
    Task,
    client_evaluation,
    is_wide,
    quadratic_sigma_sq,
    quadratic_smoothness,
    row_blocks,
    run_parts,
    weighted_dissimilarity,
)


@dataclass
class ProblemConstants:
    """Smoothness, noise, and run geometry for one federated problem.

    sigma_i bounds each client's minibatch gradient noise, G_i its gradient
    norm over the region of interest, sigma_g the client-to-mean gradient
    dissimilarity. K, gamma, S describe the run that the bounds are
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

    def __post_init__(self):
        self.sigma_i = np.asarray(self.sigma_i, dtype=np.float64)
        self.G_i = np.asarray(self.G_i, dtype=np.float64)
        self.p = np.asarray(self.p, dtype=np.float64)
        if not (self.sigma_i.shape == self.G_i.shape == self.p.shape):
            raise StructuralError("sigma_i, G_i, p must have one entry per client")
        # a probe that overflows must not reach a report as a bound
        if not all(0 <= v < math.inf for v in (self.L, self.sigma_g, self.gamma)):
            raise ParameterError("constants must be finite and nonnegative")
        if not all(np.all((0 <= a) & (a < math.inf)) for a in (self.sigma_i, self.G_i)):
            raise ParameterError("per-client constants must be finite and nonnegative")
        check_weights(self.p)
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


def _noise_moments(c: ProblemConstants) -> tuple[float, float]:
    sig2 = float(inner(c.p, c.sigma_i**2))
    g2 = float(inner(c.p, c.G_i**2))
    return sig2, g2


def _ceiling(c: ProblemConstants, scale: float) -> float:
    """`scale` times the sampled-average gradient's second-moment ceiling:
    one term scales with 1/S (participation variance), one does not."""
    sig2, g2 = _noise_moments(c)
    return scale / c.S * (12.0 * sig2 + 24.0 * g2) + 4.0 * scale * (sig2 + g2)


def compute_V(c: ProblemConstants) -> float:
    """Second-moment ceiling for the per-round virtual direction: K inner
    steps of size gamma scale the sampled-gradient ceiling by (K * gamma)^2."""
    return _ceiling(c, (c.K * c.gamma) ** 2)


def mu_pair(cal: Calibration, V: float) -> MuPair:
    """Stepsize band of 1/calibrate(v) over v in [0, V].

    Every scheme's calibrate is nondecreasing in v, so the band's ends are
    1/calibrate(V) and 1/calibrate(0), taken from the very arithmetic that
    steps the server.
    """
    if not 0 <= V < math.inf:
        raise ParameterError(f"V must be finite and >= 0, got {V}")
    lower, upper = 1.0 / calibrate(np.array([V, 0.0]), cal)
    return MuPair(float(lower), float(upper))


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
    return _ceiling(c, 1.0)


def _probe(fed: StackedFederation, p: np.ndarray, x_points, noise=None):
    """One pass over the probe points, with one (N, d) client-gradient stack
    alive at a time: each is reduced and dropped before the next is built.

    Returns each client's largest gradient norm (G_i), the largest weighted
    dissimilarity, the largest ratio of the p-weighted mean gradient's change
    to the point's over consecutive probes (a gradient Lipschitz estimate),
    and, given `noise = (batch_size, rng, draws)`, `_minibatch_noise` at the
    first probe (else None).
    """
    if not x_points:
        raise ParameterError("need at least one probe point")
    G_i = np.zeros(fed.N)
    sigma_g_sq = L = 0.0
    sigma_i = None
    for j, x in enumerate(x_points):
        x = np.asarray(x, dtype=np.float64)
        grads = client_evaluation(fed, x)[1]
        # fmax skips a NaN norm, so a NaN gradient keeps the last G_i
        np.fmax(G_i, np.sqrt(inner(grads, grads)), out=G_i)
        mean, dissimilarity = weighted_dissimilarity(grads, p)
        sigma_g_sq = max(sigma_g_sq, dissimilarity)
        if j == 0:
            if noise is not None:
                sigma_i = _minibatch_noise(fed, x, grads, *noise)
        else:
            gap = math.sqrt(float(np.sum((x_prev - x) ** 2)))
            if gap > 0:
                L = max(L, math.sqrt(float(np.sum((mean_prev - mean) ** 2))) / gap)
        x_prev, mean_prev = x, mean
        del grads
    return G_i, sigma_g_sq, L, sigma_i


def _probe_shards(tasks: list[Task], shards, x_points):
    p = np.array([shard.weight for shard in shards])
    return _probe(StackedFederation.build(tasks, [shard.data for shard in shards]), p, x_points)


def empirical_sigma_g(
    tasks: list[Task],
    shards,
    x_points: list[np.ndarray],
) -> float:
    """Largest probed value of the client-gradient dissimilarity.

    At each probe x: sum_i p_i ||grad f_i(x) - grad f(x)||^2 where grad f is
    the p-weighted mean gradient. A sampled lower estimate of sigma_g^2.
    """
    return _probe_shards(tasks, shards, x_points)[1]


def quadratic_sigma_g_exact(tasks, p: np.ndarray) -> float:
    """Exact dissimilarity for equal-curvature diagonal quadratics.

    With a shared curvature a, grad f_i - grad f = a * (cbar - c_i) for every
    x, so the dissimilarity is a constant that needs no probing.
    """
    a0 = tasks[0].curvature
    for task in tasks:
        if not np.array_equal(task.curvature, a0) or task.weight_decay != tasks[0].weight_decay:
            raise ParameterError("exact dissimilarity needs identical curvature on all clients")
    centers = np.stack([task.center for task in tasks])
    p = np.asarray(p)
    cbar = p @ centers
    gaps = ((a0 * (cbar - centers)) ** 2).sum(axis=1)
    return float(inner(p, gaps))


def probe_gradient_bounds(
    tasks: list[Task],
    shards,
    x_points: list[np.ndarray],
) -> np.ndarray:
    """Per-client max gradient norm over the probe points (an empirical G_i)."""
    return _probe_shards(tasks, shards, x_points)[0]


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
    sig2 = _noise_moments(c)[0]
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


def rate_envelope(history: np.ndarray) -> BoundReport:
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
    c0 = float(inner(running, shape) / inner(shape, shape))
    residual = float(np.sqrt(np.mean((running - c0 * shape) ** 2)))
    half, full = running[history.size // 2 - 1], running[-1]
    return BoundReport(
        quantity="rate_envelope",
        empirical=full,
        bound=half,
        satisfied=bool(full < half or (full == 0.0 and half == 0.0)),
        notes=f"least-squares c0/sqrt(T) fit: c0 = {c0:.6g}, rms residual = {residual:.6g}",
    )


def estimate_problem_constants(
    problem,
    K: int,
    gamma: float,
    S: int,
    x_points: list[np.ndarray],
    rng: RngStream,
    batch_size: int,
    noise_draws: int = 32,
) -> ProblemConstants:
    """Fill ProblemConstants from a federated problem, exactly where possible.

    Quadratic federations get analytic smoothness and per-client noise; the
    other task kinds are probed empirically (gradient Lipschitz ratio over
    consecutive probes, minibatch-noise sample variance at the first probe,
    client i drawing from the start of its own stream `rng.derive(i)`). G_i
    and sigma_g are always probe maxima, so they are lower estimates of the
    true suprema. Each probe's client-gradient stack is built once, reduced,
    and dropped before the next probe is stacked.
    """
    tasks, p = problem.client_tasks, problem.weights
    quadratic = all(isinstance(t, QuadraticTask) for t in tasks)
    noise = None if quadratic else (batch_size, rng, noise_draws)
    G_i, sigma_g_sq, L, sigma_i = _probe(problem.stacked, p, x_points, noise)
    if quadratic:
        L = quadratic_smoothness(tasks)
        sigma_i = np.sqrt(
            [
                quadratic_sigma_sq(t, s.data, min(batch_size, s.data.n))
                for t, s in zip(tasks, problem.shards)
            ]
        )
    return ProblemConstants(
        L=L,
        sigma_i=sigma_i,
        G_i=G_i,
        sigma_g=math.sqrt(sigma_g_sq),
        p=p,
        K=K,
        gamma=gamma,
        S=S,
    )


_NOISE_CHUNK = 8


def _minibatch_noise(
    fed: StackedFederation, x, exact, batch_size: int, rng: RngStream, draws: int
) -> np.ndarray:
    """Per-client root-mean-square distance of minibatch gradients from exact[i] at x.

    Client i's `draws` minibatches are the ones `draws` sequential calls of
    `stochastic_gradient(task_i, data_i, x, batch_size, gen)` would take with
    `gen = rng.derive(i).generator()`, one stream per client as in the inner
    loop, all drawn at once by `draw_minibatches`. A client with no more than
    batch_size rows would take its full gradient, so its noise is 0 and costs
    no gradient call. Each `data_gradients` call stacks _NOISE_CHUNK draws
    into a reused chunk buffer, and the distances are swept over it a row
    block at a time (`row_blocks`), so a wide model's chunk is not streamed
    through memory once per op; the sweep adds the federation's weight
    decay, as the inner loop's does. A wide model (`is_wide`) probes its
    clients as up to W parts (`run_parts`), each with its own chunk buffer
    and noise row; the parts own disjoint clients, so the split moves no
    bit.
    """
    sampled = np.flatnonzero(fed.sizes > batch_size)
    sigma_sq = np.zeros(fed.N)
    if sampled.size == 0:  # nothing to draw, and a huge batch cannot size the draw
        return sigma_sq
    picks = draw_minibatches(rng.derive_lanes(sampled), fed.sizes[sampled], batch_size, draws)
    xs = np.broadcast_to(x, (_NOISE_CHUNK, x.size))
    decay = fed.task.weight_decay * x if fed.task.weight_decay else None

    def part(blocks: list[slice]) -> None:
        chunk = np.empty(xs.shape)
        noise = np.empty(draws)
        for j in range(blocks[0].start, blocks[-1].stop):
            i = sampled[j]
            for lo in range(0, draws, _NOISE_CHUNK):
                hi = min(lo + _NOISE_CHUNK, draws)
                grads = fed.data_gradients(
                    np.full(hi - lo, i), xs[: hi - lo], picks[j, lo:hi], chunk[: hi - lo]
                )
                # in place, (g + decay - exact_i) ** 2 per draw; row sums give np.sum's bits
                for b in row_blocks(hi - lo, x.size):
                    block = grads[b]
                    if decay is not None:
                        block += decay
                    block -= exact[i]
                    block *= block
                    block.sum(axis=1, out=noise[lo:hi][b])
            sigma_sq[i] = float(np.mean(noise))

    clients = [slice(j, j + 1) for j in range(sampled.size)]
    run_parts(part, clients, split=is_wide(x.size))
    return np.sqrt(sigma_sq)


def calibration_span_violations(
    calibrate_fn,
    cal: Calibration,
    V: float,
    num_samples: int,
    rng: RngStream | np.random.Generator,
) -> int:
    """Count sampled v in [0, V] where 1/calibrate(v) leaves [mu_lower, mu_upper]."""
    if num_samples < 1:
        raise ParameterError(f"num_samples must be >= 1, got {num_samples}")
    mu = mu_pair(cal, V)
    gen = as_generator(rng)
    v = gen.uniform(0.0, V, num_samples)
    v[0] = 0.0
    if num_samples > 1:
        v[1] = V
    inv = 1.0 / calibrate_fn(v, cal)
    # mu_pair takes its ends from calibrate at v = V and v = 0, so the two
    # pinned samples land on them exactly. In between, calibrate is
    # nondecreasing only up to rounding: softplus's exp and log are not
    # correctly rounded, and for v within a few hundred ulps of V the stepsize
    # can dip one or two ulps below mu_lower. Two ulps is the worst dip found
    # over V in [1e-14, 1e6] and beta in {0.1, 3, 50}, so that is the slack
    # below mu_lower; no scheme rose above mu_upper, which keeps one ulp.
    lo = np.nextafter(np.nextafter(mu.mu_lower, 0.0), 0.0)
    hi = np.nextafter(mu.mu_upper, np.inf)
    return int(np.sum((inv < lo) | (inv > hi)))
