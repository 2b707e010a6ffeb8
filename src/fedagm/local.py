"""Client-side inner loop: K stochastic gradient steps from the broadcast
point, in one of three flavors.

sgd        x <- x - gamma * g
prox       x <- x - gamma * (g + mu * (x - x_start)), pulling back toward
           the broadcast point
scaffold   x <- x - gamma * (g - c_i + c), drift-corrected by the client
           variate c_i and the server variate c, both passed in by the
           caller; the refreshed client variate is computed from the
           realized displacement after the K steps and handed back

All variants leave x_start, the shard, its data and the variates
untouched; the round loop owns the SCAFFOLD state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, StructuralError
from .numerics import ParamVector, RngStream, as_generator
from .partition import ClientShard
from .tasks import Task, stochastic_gradient

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
    """Take x_start through the client's inner loop and report the endpoint.

    With record=True the full iterate trajectory [x_0 .. x_K] is kept for
    drift diagnostics. The scaffold variant needs the server variate and
    takes the client variate as zero when none is given.
    """
    x_start = np.asarray(x_start, dtype=np.float64)
    if x_start.shape != (task.dim,):
        raise StructuralError(f"x_start has shape {x_start.shape}, task needs ({task.dim},)")
    if cfg.variant == "scaffold":
        if server_cv is None:
            raise StructuralError("scaffold needs the server control variate")
        server_cv = np.asarray(server_cv, dtype=np.float64)
        client_cv = np.zeros_like(x_start) if client_cv is None else np.asarray(client_cv, np.float64)
        if server_cv.shape != x_start.shape or client_cv.shape != x_start.shape:
            raise StructuralError("control variates have the wrong dimension")

    gen = as_generator(rng)
    n = shard.data.n
    batch = min(cfg.batch_size, n)
    steps = math.ceil(n / batch) if cfg.epoch_mode else cfg.K

    x = x_start.copy()
    trajectory = [x.copy()] if record else []
    for _ in range(steps):
        sample = stochastic_gradient(task, shard.data, x, batch, gen)
        direction = sample.grad
        if cfg.variant == "prox":
            direction = sample.grad + cfg.prox_mu * (x - x_start)
        elif cfg.variant == "scaffold":
            direction = sample.grad - client_cv + server_cv
        x = x - cfg.gamma * direction
        if record:
            trajectory.append(x.copy())

    new_cv = None
    if cfg.variant == "scaffold":
        new_cv = client_cv - server_cv + (x_start - x) / (steps * cfg.gamma)
    return LocalResult(
        x_final=x,
        steps_taken=steps,
        new_control_variate=new_cv,
        trajectory=trajectory,
    )

