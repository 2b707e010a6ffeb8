"""The round loop: sample clients, run inner loops from the broadcast
point, average, take the server step, advance schedules, record metrics.

Determinism contract: with a fixed seed the metric log is bit-identical
from run to run. Three mechanisms carry that guarantee: every (round,
slot) pair derives its own RNG stream, the slots of a round run in
lockstep with each slot's arithmetic independent of the others, and
aggregation always sums finals in ascending (client, slot) order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ParameterError, StructuralError
# run_local and full_gradient are not called here; they stay bound in this
# module for code that wraps its names.
from .local import LocalConfig, run_clients, run_local  # noqa: F401
from .numerics import RngStream, l2_norm_sq
from .partition import ClientShard
from .sampling import WEIGHT_SUM_TOL, SamplingSpec, sample_round
from .serialize import RoundMetrics
from .server import (
    ServerOptimizer,
    ServerState,
    aggregate,
    init_server_state,
    recover_baseline,
    server_step,
)
from .tasks import (
    Dataset,
    StackedFederation,
    Task,
    check_federation,
    client_gradients,
    client_losses,
    evaluate,
    full_gradient,
    init_params,
)

# Stream tags: fixed keys that keep the per-purpose child streams apart.
TAG_INIT = 0x696E6974
TAG_DATA = 0x64617461
TAG_PARTITION = 0x70617274
TAG_SAMPLE = 0x73616D70
TAG_LOCAL = 0x6C6F636C

SCHEDULE_KINDS = ("constant", "multistage", "plateau")


@dataclass(frozen=True)
class ScheduleSpec:
    """Stepsize multiplier policy, applied round by round.

    constant    multiplier 1 throughout;
    multistage  multiplier shrinks by `decay` at each fraction of the run
                (defaults: x0.1 at T/2 and again at 3T/4);
    plateau     multiplier shrinks by `factor` whenever the best training
                loss has not improved for `patience` consecutive rounds.
    """

    kind: str = "constant"
    decay: float = 0.1
    fractions: tuple = (0.5, 0.75)
    patience: int = 10
    factor: float = 0.1

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ParameterError(f"schedule kind must be one of {SCHEDULE_KINDS}, got {self.kind!r}")
        if not 0 < self.decay <= 1 or not 0 < self.factor <= 1:
            raise ParameterError("decay and factor must lie in (0, 1]")
        if any(not 0 < f < 1 for f in self.fractions):
            raise ParameterError("schedule fractions must lie in (0, 1)")
        if self.patience < 1:
            raise ParameterError("patience must be >= 1")


def apply_schedule(schedule: ScheduleSpec, t: int, T: int, plateau_decays: int = 0) -> float:
    """Multiplier for round t of T; plateau_decays is the tracker's count so far."""
    if not 0 <= t < T:
        raise ParameterError(f"round index {t} outside [0, {T})")
    if schedule.kind == "constant":
        return 1.0
    if schedule.kind == "multistage":
        crossed = sum(1 for f in schedule.fractions if t >= f * T)
        return schedule.decay**crossed
    return schedule.factor**plateau_decays


class PlateauTracker:
    """Counts decay events: one per `patience` consecutive non-improving rounds."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = np.inf
        self.bad = 0
        self.decays = 0

    def update(self, loss: float) -> None:
        if loss < self.best:
            self.best = loss
            self.bad = 0
            return
        self.bad += 1
        if self.bad >= self.patience:
            self.decays += 1
            self.bad = 0


def weighted_dissimilarity(
    grads: np.ndarray, p: np.ndarray, w: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """(p-weighted mean gradient, sum_i w_i ||grad_i - mean||^2); w defaults to p."""
    mean = p @ grads
    gaps = ((grads - mean) ** 2).sum(axis=1)
    return mean, float((p if w is None else w) @ gaps)


@dataclass
class FederatedProblem:
    """N clients' objectives and shards, plus an optional global test set.

    Data-driven problems share one task across clients; synthetic
    quadratic federations give each client its own, all of one dimension.
    The global objective is the weight-p mixture of the client objectives.
    The constructor checks everything the stacked view relies on; treat a
    problem as immutable once built, since the view is built once.
    """

    client_tasks: list[Task]
    shards: list[ClientShard]
    test_data: Dataset | None = None

    def __post_init__(self):
        if len(self.client_tasks) != len(self.shards) or not self.shards:
            raise StructuralError("need one task per shard, at least one client")
        check_federation(self.client_tasks, [shard.data for shard in self.shards])
        if self.test_data is not None:
            check_federation(self.client_tasks[:1], [self.test_data])
        total = float(self.weights.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise StructuralError(f"shard weights must sum to 1, got {total!r}")

    @property
    def N(self) -> int:
        return len(self.shards)

    @property
    def dim(self) -> int:
        return self.client_tasks[0].dim

    @property
    def weights(self) -> np.ndarray:
        return np.array([shard.weight for shard in self.shards])

    @cached_property
    def stacked(self) -> StackedFederation:
        """All clients' rows and parameters in one view, built on first use."""
        return StackedFederation.build(self.client_tasks, [shard.data for shard in self.shards])

    def global_gradient(self, x: np.ndarray) -> np.ndarray:
        return self.weights @ client_gradients(self.stacked, x)

    def gradient_stats(self, x: np.ndarray) -> tuple[float, float]:
        """(||grad f(x)||^2, weighted client-gradient dissimilarity) in one pass."""
        grads = client_gradients(self.stacked, x)
        mean, sigma_g = weighted_dissimilarity(grads, self.weights)
        return float(mean @ mean), sigma_g

    def train_loss(self, x: np.ndarray) -> float:
        # a Python sum in client order keeps the bits of the per-client sum
        losses = client_losses(self.stacked, x)
        return float(sum(w * loss for w, loss in zip(self.weights, losses)))

    def test_metrics(self, x: np.ndarray) -> tuple[float, float]:
        if self.test_data is None:
            return 0.0, 0.0
        return evaluate(self.client_tasks[0], self.test_data, x)


@dataclass
class ExperimentConfig:
    """Everything one deterministic run needs."""

    problem: FederatedProblem
    local: LocalConfig
    sampling: SamplingSpec
    server: ServerOptimizer
    rounds: int
    seed: int = 0
    gamma_schedule: ScheduleSpec = ScheduleSpec()
    eta_schedule: ScheduleSpec = ScheduleSpec()
    eval_every: int = 1
    init_x: np.ndarray | None = None
    record_walltime: bool = False
    record_iterates: bool = False
    record_drift: bool = False
    divergence_loss_cap: float = 1e12

    def __post_init__(self):
        if self.rounds < 1:
            raise ParameterError("rounds must be >= 1")
        if self.eval_every < 1:
            raise ParameterError("eval_every must be >= 1")


@dataclass
class ExperimentResult:
    """Metric log plus the final server state and optional diagnostics.

    `control_variates` is the final (N, d) table of SCAFFOLD client
    variates (row i is client i's); it is None unless the run is scaffold.
    """

    metrics: list[RoundMetrics]
    state: ServerState
    method: str
    diverged: bool = False
    divergence_round: int | None = None
    iterates: list | None = None
    drift: np.ndarray | None = None
    control_variates: np.ndarray | None = None

    @property
    def grad_norm_history(self) -> np.ndarray:
        return np.array([row.grad_norm_sq for row in self.metrics])

    @property
    def final_x(self) -> np.ndarray:
        return self.state.x


def initial_point(cfg: ExperimentConfig) -> np.ndarray:
    """The run's x0: a copy of `init_x` if given, else drawn from the seed."""
    if cfg.init_x is None:
        return init_params(cfg.problem.client_tasks[0], RngStream(cfg.seed).derive(TAG_INIT))
    x0 = np.asarray(cfg.init_x, dtype=np.float64).copy()
    if x0.shape != (cfg.problem.dim,):
        raise StructuralError("init_x does not match the model dimension")
    return x0


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Drive T rounds and return the full metric log.

    Each round makes one `run_clients` call, which runs the sampled slots
    in lockstep on the calling thread.

    A non-finite iterate at the start of a round, or a training loss above
    the divergence cap, aborts the loop; the log then ends at the last
    logged round and the result is marked diverged. A final iterate that is
    not finite marks the run diverged at round T. The loss is computed,
    and so the cap checked, only on evaluated rounds (every `eval_every`-th
    and the last), or on every round when a plateau schedule is in use, so
    a run can take up to `eval_every - 1` more rounds after its loss passed
    the cap.

    For the scaffold variant the round loop owns all SCAFFOLD state: one
    (N, d) table of client variates, zero at the start. Each round hands
    every slot its client's row and the table's mean as the server variate;
    after the round, each sampled client's row becomes the variate its last
    slot returned.
    """
    prob = cfg.problem
    fed = prob.stacked
    root = RngStream(cfg.seed)
    T = cfg.rounds
    p = prob.weights

    state = init_server_state(initial_point(cfg))
    cv_table = np.zeros((prob.N, prob.dim)) if cfg.local.variant == "scaffold" else None

    gamma_tracker = PlateauTracker(cfg.gamma_schedule.patience)
    eta_tracker = PlateauTracker(cfg.eta_schedule.patience)
    plateau_in_use = "plateau" in (cfg.gamma_schedule.kind, cfg.eta_schedule.kind)

    metrics: list[RoundMetrics] = []
    iterates: list | None = [] if cfg.record_iterates else None
    drift = np.zeros((T, cfg.local.K + 1)) if cfg.record_drift else None
    diverged = False
    divergence_round = None

    for t in range(T):
        t_start = time.perf_counter()
        if not np.all(np.isfinite(state.x)):
            diverged, divergence_round = True, t
            break

        want_row = (t % cfg.eval_every == 0) or t == T - 1
        train_loss = np.nan
        if want_row or plateau_in_use:
            train_loss = prob.train_loss(state.x)
            if not np.isfinite(train_loss) or train_loss > cfg.divergence_loss_cap:
                diverged, divergence_round = True, t
                break
            gamma_tracker.update(train_loss)
            eta_tracker.update(train_loss)

        gamma_t = cfg.local.gamma * apply_schedule(cfg.gamma_schedule, t, T, gamma_tracker.decays)
        eta_t = cfg.server.eta * apply_schedule(cfg.eta_schedule, t, T, eta_tracker.decays)

        grad_norm_sq, sigma_g = (np.nan, np.nan)
        test_acc = 0.0
        if want_row:
            grad_norm_sq, sigma_g = prob.gradient_stats(state.x)
            _, test_acc = prob.test_metrics(state.x)
        if iterates is not None:
            iterates.append(state.x.copy())

        sampled = sample_round(p, cfg.sampling, root.derive(TAG_SAMPLE, t))
        broadcast_x = state.x
        results = run_clients(
            fed,
            sampled,
            broadcast_x,
            replace(cfg.local, gamma=gamma_t),
            [root.derive(TAG_LOCAL, t, slot, int(ci)) for slot, ci in enumerate(sampled)],
            server_cv=None if cv_table is None else cv_table.mean(axis=0),
            client_cvs=None if cv_table is None else cv_table[sampled],
            record=cfg.record_drift,
        )

        if drift is not None:
            for slot, res in enumerate(results):
                w = p[int(sampled[slot])]
                for k, xk in enumerate(res.trajectory):
                    drift[t, k] += w * l2_norm_sq(xk - broadcast_x)

        # Aggregate in ascending (client, slot) order; this pins the
        # floating-point sum.
        slot_order = sorted(range(len(sampled)), key=lambda s: (int(sampled[s]), s))
        x_tilde, delta = aggregate(state.x, [results[s].x_final for s in slot_order])

        if cv_table is not None:
            # Slot order: a client drawn twice keeps its last slot's variate.
            for slot, res in enumerate(results):
                cv_table[int(sampled[slot])] = res.new_control_variate

        state = server_step(state, delta, replace(cfg.server, eta=eta_t), x_tilde=x_tilde)

        if want_row:
            wall = (time.perf_counter() - t_start) * 1e3 if cfg.record_walltime else 0.0
            metrics.append(
                RoundMetrics(
                    t=t,
                    train_loss=train_loss,
                    test_acc=test_acc,
                    grad_norm_sq=grad_norm_sq,
                    sigma_g=sigma_g,
                    gamma=gamma_t,
                    eta=eta_t,
                    clients=[int(c) for c in sampled],
                    wall_ms=wall,
                )
            )

    if not diverged and not np.all(np.isfinite(state.x)):
        diverged, divergence_round = True, T
    if iterates is not None and not diverged:
        iterates.append(state.x.copy())
    return ExperimentResult(
        metrics=metrics,
        state=state,
        method=recover_baseline(cfg.server),
        diverged=diverged,
        divergence_round=divergence_round,
        iterates=iterates,
        drift=drift,
        control_variates=cv_table,
    )
