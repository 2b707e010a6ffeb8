"""The round loop as a step on a state value. `start(cfg)` gives the run
at round 0; `advance(cfg, run)` takes round `run.t` in place: evaluate,
advance the schedules, sample clients, run inner loops from the broadcast
point, average, take the server step, record metrics. `run_experiment`
advances until round T or divergence. The run, an `ExperimentResult`,
carries all a round reads besides the config: its round index, server
state, SCAFFOLD table, plateau trackers, logs, divergence flags, and the
`local`/`server` configs with the scheduled stepsizes, which a round
rebuilds only when its gamma or eta changes.

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
from .numerics import RngStream, check_indexable, l2_norm_sq
from .partition import ClientShard
from .sampling import SamplingSpec, check_weights, sample_round
from .serialize import RoundMetrics
from .server import (
    ServerOptimizer,
    ServerState,
    aggregate,
    init_server_state,
    overflowed_array,
    recover_baseline,
    server_step,
)
from .tasks import (
    Dataset,
    StackedFederation,
    Task,
    check_federation,
    client_evaluation,
    evaluate,
    full_gradient,
    init_params,
    weighted_dissimilarity,
)

# Stream tags: fixed keys that keep the per-purpose child streams apart.
TAG_INIT = 0x696E6974
TAG_DATA = 0x64617461
TAG_PARTITION = 0x70617274
TAG_SAMPLE = 0x73616D70
TAG_LOCAL = 0x6C6F636C
TAG_THEORY = 0x7468656F

SCHEDULE_KINDS = ("constant", "multistage", "plateau")

# A training loss above this marks the run diverged.
DIVERGENCE_LOSS_CAP = 1e12


@dataclass(frozen=True)
class ScheduleSpec:
    """Stepsize multiplier policy, applied round by round.

    constant    multiplier 1 throughout;
    multistage  multiplier shrinks by `decay` at each fraction of the run
                (defaults: x0.1 at T/2 and again at 3T/4);
    plateau     multiplier shrinks by `factor` whenever the best training
                loss has not improved for `patience` consecutive rounds.

    A stepsize that its multiplier would round to 0 keeps its last
    positive value.
    """

    kind: str = "constant"
    decay: float = 0.1
    fractions: tuple = (0.5, 0.75)
    patience: int = 10
    factor: float = 0.1

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ParameterError(
                f"schedule kind must be one of {SCHEDULE_KINDS}, got {self.kind!r}", key="kind"
            )
        for key in ("decay", "factor"):
            if not 0 < getattr(self, key) <= 1:
                raise ParameterError(f"{key} must lie in (0, 1]", key=key)
        if any(not 0 < f < 1 for f in self.fractions):
            raise ParameterError("schedule fractions must lie in (0, 1)", key="fractions")
        if self.patience < 1:
            raise ParameterError("patience must be >= 1", key="patience")


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


def weighted_loss(p: np.ndarray, losses: np.ndarray) -> float:
    """sum_i p_i loss_i, summed in client order."""
    # a Python sum in client order keeps the bits of the per-client sum
    return float(sum(w * loss for w, loss in zip(p, losses)))


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
        check_federation(self.client_tasks, [shard.data for shard in self.shards])
        if self.test_data is not None:
            check_federation(self.client_tasks[:1], [self.test_data])
        check_weights(self.weights)

    @property
    def N(self) -> int:
        return len(self.shards)

    @property
    def dim(self) -> int:
        return self.client_tasks[0].dim

    @cached_property
    def weights(self) -> np.ndarray:
        return np.array([shard.weight for shard in self.shards])

    @cached_property
    def stacked(self) -> StackedFederation:
        """All clients' rows and parameters in one view, built on first use."""
        return StackedFederation.build(self.client_tasks, [shard.data for shard in self.shards])

    def global_gradient(self, x: np.ndarray) -> np.ndarray:
        return self.weights @ client_evaluation(self.stacked, x)[1]

    def gradient_stats(self, x: np.ndarray) -> tuple[float, float]:
        """(||grad f(x)||^2, weighted client-gradient dissimilarity) in one pass."""
        mean, sigma_g = weighted_dissimilarity(client_evaluation(self.stacked, x)[1], self.weights)
        return l2_norm_sq(mean), sigma_g

    def train_loss(self, x: np.ndarray) -> float:
        return weighted_loss(self.weights, client_evaluation(self.stacked, x, gradients=False)[0])

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

    def __post_init__(self):
        if self.rounds < 1:
            raise ParameterError("rounds must be >= 1")
        if self.eval_every < 1:
            raise ParameterError("eval_every must be >= 1")
        if self.sampling.mode == "full" and self.sampling.S != self.problem.N:
            raise ParameterError(
                f"full sampling needs clients_per_round = N = {self.problem.N}, "
                f"got {self.sampling.S}",
                key="sampling.clients_per_round",
            )
        # the lockstep group's (S, d) iterates; the task section sizes d
        S, d = self.sampling.S, self.problem.dim
        check_indexable(S * d, {"sampling.clients_per_round": S, "task": d})
        if self.record_drift and self.local.epoch_mode:
            # the drift table has K + 1 columns; an epoch-mode client takes ceil(n_i / batch) steps
            raise ParameterError("record_drift cannot be combined with epoch_mode")
        if self.init_x is not None:
            x0 = np.asarray(self.init_x, dtype=np.float64)
            if x0.shape != (self.problem.dim,):
                raise StructuralError("init_x does not match the model dimension")
            if not np.all(np.isfinite(x0)):
                raise ParameterError("init_x must be finite")


@dataclass
class ExperimentResult:
    """A run's state between rounds, and its result once they end: `start`
    builds it at round 0, and `advance` takes round `t` in place. `local`
    and `server` carry the last round's gamma and eta; `method` names the
    server, whatever its eta.
    `control_variates` is the (N, d) table of SCAFFOLD client variates
    (row i is client i's); it is None unless the run is scaffold.
    `overflowed` names the server array ("x", "m" or "v") whose non-finite
    entries ended a diverged run; it is None when the loss cap did.
    """

    metrics: list[RoundMetrics]
    state: ServerState
    local: LocalConfig
    server: ServerOptimizer
    gamma_tracker: PlateauTracker
    eta_tracker: PlateauTracker
    t: int = 0
    divergence_round: int | None = None
    iterates: list | None = None
    drift: np.ndarray | None = None
    control_variates: np.ndarray | None = None
    overflowed: str | None = None

    @property
    def diverged(self) -> bool:
        return self.divergence_round is not None

    @property
    def method(self) -> str:
        return recover_baseline(self.server)

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
    return np.array(cfg.init_x, dtype=np.float64)


def start(cfg: ExperimentConfig) -> ExperimentResult:
    """The run at round 0: x0, zero momenta and variates, empty logs."""
    prob = cfg.problem
    return ExperimentResult(
        metrics=[],
        state=init_server_state(initial_point(cfg)),
        local=cfg.local,
        server=cfg.server,
        gamma_tracker=PlateauTracker(cfg.gamma_schedule.patience),
        eta_tracker=PlateauTracker(cfg.eta_schedule.patience),
        iterates=[] if cfg.record_iterates else None,
        drift=np.zeros((cfg.rounds, cfg.local.K + 1)) if cfg.record_drift else None,
        control_variates=np.zeros((prob.N, prob.dim)) if cfg.local.variant == "scaffold" else None,
    )


def advance(cfg: ExperimentConfig, run: ExperimentResult) -> None:
    """Take round `run.t` in place: evaluate, schedule, sample, train,
    record drift, aggregate, update variates, step the server, log a row,
    check for overflow. A run that has diverged or taken T rounds takes no more.

    Each round makes one `run_clients` call, which runs the sampled slots
    in lockstep on the calling thread. It gets the slots' streams as one
    `RngStream.derive_lanes` batch, which hashes nothing itself: only the
    lanes of slots that draw minibatches are derived and seeded, so a round
    whose slots all take their full batch costs no stream.

    The training loss, and on evaluated rounds the gradient statistics,
    come from one `client_evaluation` pass over the clients, which the
    round's `sample_round` call follows.

    A server step that leaves the iterate x, or its momentum m or v,
    non-finite in round t marks the run diverged at round t + 1 and names
    that array, and a training loss above `DIVERGENCE_LOSS_CAP`, or a
    gradient norm or dissimilarity that overflows, in round t marks it
    diverged at round t; either ends the run, and the log then ends at the
    last logged round. The server state is checked every round.
    The loss is computed, and so the cap checked, only on evaluated rounds
    (every `eval_every`-th and the last), or on every round when a plateau
    schedule is in use, so a run can take up to `eval_every - 1` more
    rounds after its loss passed the cap.

    For the scaffold variant the run owns all SCAFFOLD state: one
    (N, d) table of client variates, zero at the start. Each round hands
    every slot its client's row and the table's mean as the server variate;
    after the round, each sampled client's row becomes the variate its last
    slot returned.
    """
    if run.diverged or not run.t < cfg.rounds:
        raise ParameterError(f"round {run.t} of {cfg.rounds} cannot run: the run has ended")
    prob, p, t, T = cfg.problem, cfg.problem.weights, run.t, cfg.rounds
    root, cv_table = RngStream(cfg.seed), run.control_variates
    t_start = time.perf_counter()
    want_row = (t % cfg.eval_every == 0) or t == T - 1
    train_loss = np.nan
    if want_row or "plateau" in (cfg.gamma_schedule.kind, cfg.eta_schedule.kind):
        losses, grads = client_evaluation(prob.stacked, run.state.x, gradients=want_row)
        train_loss = weighted_loss(p, losses)
        if not np.isfinite(train_loss) or train_loss > DIVERGENCE_LOSS_CAP:
            run.divergence_round = t
            return
        run.gamma_tracker.update(train_loss)
        run.eta_tracker.update(train_loss)

    grad_norm_sq, sigma_g, test_acc = np.nan, np.nan, 0.0
    if want_row:
        mean, sigma_g = weighted_dissimilarity(grads, p)
        grad_norm_sq = l2_norm_sq(mean)
        # free the (N, d) stack, and its mean, before the clients train
        del grads, mean
        if not (np.isfinite(grad_norm_sq) and np.isfinite(sigma_g)):
            run.divergence_round = t
            return
        _, test_acc = prob.test_metrics(run.state.x)

    # A product that underflows to 0 keeps the last positive stepsize, and
    # a config is rebuilt only when its stepsize changes.
    gamma = cfg.local.gamma * apply_schedule(cfg.gamma_schedule, t, T, run.gamma_tracker.decays)
    if gamma and gamma != run.local.gamma:
        run.local = replace(run.local, gamma=gamma)
    eta = cfg.server.eta * apply_schedule(cfg.eta_schedule, t, T, run.eta_tracker.decays)
    if eta and eta != run.server.eta:
        run.server = replace(run.server, eta=eta)

    if run.iterates is not None:
        run.iterates.append(run.state.x.copy())

    sampled = sample_round(p, cfg.sampling, root.derive(TAG_SAMPLE, t))
    broadcast_x = run.state.x
    results = run_clients(
        prob.stacked,
        sampled,
        broadcast_x,
        run.local,
        root.derive_lanes(TAG_LOCAL, t, np.arange(sampled.size), sampled),
        server_cv=None if cv_table is None else cv_table.mean(axis=0),
        client_cvs=None if cv_table is None else cv_table[sampled],
        record=cfg.record_drift,
    )

    if run.drift is not None:
        for slot, res in enumerate(results):
            w = p[int(sampled[slot])]
            for k, xk in enumerate(res.trajectory):
                run.drift[t, k] += w * l2_norm_sq(xk - broadcast_x)

    # Aggregate in ascending (client, slot) order; this pins the
    # floating-point sum.
    slot_order = sorted(range(len(sampled)), key=lambda s: (int(sampled[s]), s))
    x_tilde, delta = aggregate(run.state.x, [results[s].x_final for s in slot_order])

    if cv_table is not None:
        # Slot order: a client drawn twice keeps its last slot's variate.
        for slot, res in enumerate(results):
            cv_table[int(sampled[slot])] = res.new_control_variate

    run.state = server_step(run.state, delta, run.server, x_tilde=x_tilde)

    if want_row:
        wall = (time.perf_counter() - t_start) * 1e3 if cfg.record_walltime else 0.0
        run.metrics.append(
            RoundMetrics(
                t=t,
                train_loss=train_loss,
                test_acc=test_acc,
                grad_norm_sq=grad_norm_sq,
                sigma_g=sigma_g,
                gamma=run.local.gamma,
                eta=run.server.eta,
                clients=[int(c) for c in sampled],
                wall_ms=wall,
            )
        )
    run.t = t + 1
    run.overflowed = overflowed_array(run.state)
    if run.overflowed is not None:
        run.divergence_round = run.t


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """`start`, then `advance` until round T or divergence; a run that did
    not diverge appends its final iterate."""
    run = start(cfg)
    while run.t < cfg.rounds and not run.diverged:
        advance(cfg, run)
    if run.iterates is not None and not run.diverged:
        run.iterates.append(run.state.x.copy())
    return run
