"""Client-side inner loops: K stochastic gradient steps from the broadcast
point, in one of three flavors.

sgd        x <- x - gamma * g
prox       x <- x - gamma * (g + mu * (x - x_start)), pulling back toward
           the broadcast point
scaffold   x <- x - gamma * (g - c_i + c), drift-corrected by the client
           variate c_i and the server variate c, both passed in by the
           caller; the refreshed client variate is computed from the
           realized displacement after the K steps and handed back

`run_clients` runs the S sampled slots of a round in lockstep: their
iterates form one (S, d) array, and each step takes every slot's minibatch
gradient in one stacked kernel call over rows gathered from the stacked
federation. Each slot still draws its minibatches from its own generator,
exactly as a lone client would, so a slot's bits do not depend on which
other slots share its step. Slots whose batch size or step count differ
(epoch_mode, or clients with fewer rows than the batch size) run as
separate lockstep groups. `run_local` is the one-slot call.

All variants leave x_start, the data and the variates untouched; the round
loop owns the SCAFFOLD state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, StructuralError
from .numerics import ParamVector, RngStream, as_generator
from .partition import ClientShard

# stochastic_gradient is not called here; it stays bound in this module for
# code that wraps this module's names.
from .tasks import StackedFederation, Task, stochastic_gradient  # noqa: F401

VARIANTS = ("sgd", "prox", "scaffold")


@dataclass
class LocalConfig:
    """Inner-loop geometry shared by every client in a round.

    With epoch_mode the step count becomes ceil(n_i / batch_size) per
    client, one pass worth of batches; otherwise exactly K steps are taken.
    """

    K: int
    gamma: float
    batch_size: int
    variant: str = "sgd"
    prox_mu: float = 0.0
    epoch_mode: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ParameterError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.K < 1:
            raise ParameterError("K must be >= 1")
        if self.gamma <= 0:
            raise ParameterError("gamma must be > 0")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        if self.prox_mu < 0:
            raise ParameterError("prox_mu must be >= 0")


@dataclass
class LocalResult:
    """What one client hands back after its inner loop."""

    x_final: ParamVector
    steps_taken: int
    new_control_variate: ParamVector | None = None
    trajectory: list = field(default_factory=list)


def run_clients(
    fed: StackedFederation,
    clients,
    x_start: ParamVector,
    cfg: LocalConfig,
    rngs: list,
    server_cv: ParamVector | None = None,
    client_cvs: np.ndarray | None = None,
    record: bool = False,
) -> list[LocalResult]:
    """Run slot s's inner loop for client `clients[s]` from x_start, all
    slots in lockstep; returns one LocalResult per slot, in slot order.

    `rngs[s]` is slot s's stream (restarted) or live generator (continued).
    With record=True each result keeps its iterate trajectory [x_0 .. x_K].
    The scaffold variant needs the server variate; `client_cvs` holds one
    client variate per slot and defaults to zeros.
    """
    clients = np.asarray(clients, dtype=np.int64)
    S, d = clients.size, fed.dim
    x_start = np.asarray(x_start, dtype=np.float64)
    if x_start.shape != (d,):
        raise StructuralError(f"x_start has shape {x_start.shape}, task needs ({d},)")
    if len(rngs) != S:
        raise StructuralError(f"need one stream per slot, got {len(rngs)} for {S} slots")
    if cfg.variant == "scaffold":
        if server_cv is None:
            raise StructuralError("scaffold needs the server control variate")
        server_cv = np.asarray(server_cv, dtype=np.float64)
        client_cvs = np.zeros((S, d)) if client_cvs is None else np.asarray(client_cvs, np.float64)
        if server_cv.shape != (d,) or client_cvs.shape != (S, d):
            raise StructuralError("control variates have the wrong dimension")

    gens = [as_generator(r) for r in rngs]
    sizes = fed.sizes[clients].tolist()
    groups: dict[tuple[int, int, bool], list[int]] = {}
    for s, n in enumerate(sizes):
        batch = min(cfg.batch_size, n)
        steps = math.ceil(n / batch) if cfg.epoch_mode else cfg.K
        groups.setdefault((batch, steps, batch == n), []).append(s)

    results: list[LocalResult | None] = [None] * S
    for (batch, steps, full), slots in groups.items():
        ci = clients[slots]
        starts = fed.offsets[ci, None]
        if cfg.variant == "scaffold":
            group_cvs = client_cvs[slots]
        # x and direction are updated in place: each op gives the bits of
        # x - gamma * direction, and large models skip two allocations a step
        x = np.repeat(x_start[None], len(slots), axis=0)
        direction = np.empty_like(x)
        trajectory = [x.copy()] if record else []
        for _ in range(steps):
            rows = None
            if not full:
                draws = [gens[s].choice(sizes[s], size=batch, replace=False) for s in slots]
                rows = starts + np.stack(draws)
            fed.gradients(ci, x, rows, out=direction)
            if cfg.variant == "prox":
                direction += cfg.prox_mu * (x - x_start)
            elif cfg.variant == "scaffold":
                direction -= group_cvs
                direction += server_cv
            direction *= cfg.gamma
            x -= direction
            if record:
                trajectory.append(x.copy())

        new_cv = None
        if cfg.variant == "scaffold":
            new_cv = group_cvs - server_cv + (x_start - x) / (steps * cfg.gamma)
        for j, s in enumerate(slots):
            results[s] = LocalResult(
                x_final=x[j],
                steps_taken=steps,
                new_control_variate=None if new_cv is None else new_cv[j],
                trajectory=[xk[j] for xk in trajectory],
            )
    return results


def run_local(
    task: Task,
    shard: ClientShard,
    x_start: ParamVector,
    cfg: LocalConfig,
    server_cv: ParamVector | None = None,
    client_cv: ParamVector | None = None,
    rng: RngStream | np.random.Generator = RngStream(0),
    record: bool = False,
) -> LocalResult:
    """Take x_start through one client's inner loop: `run_clients` with one slot."""
    return run_clients(
        StackedFederation.build([task], [shard.data]),
        [0],
        x_start,
        cfg,
        [rng],
        server_cv=server_cv,
        client_cvs=None if client_cv is None else np.asarray(client_cv, np.float64)[None],
        record=record,
    )[0]
