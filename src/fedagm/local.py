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
federation. Each slot still draws its minibatches from its own stream,
exactly as a lone client would, so a slot's bits do not depend on which
other slots share its step. Slots whose batch size or step count differ
(epoch_mode, or clients with fewer rows than the batch size) run as
separate lockstep groups. `run_local` is the one-slot call.

A group whose (slots, d) arrays span more than one row block
(`tasks.row_blocks`) is split at block boundaries into at most W parts of
consecutive slots, each stepped on its own thread (`tasks.run_parts`): the
matmuls and large ufuncs release the GIL. W is the CPUs this process may
run on divided by the BLAS threads (`tasks.worker_count`), so the parts take
only the cores BLAS leaves idle. The split moves no bit: the parts own
disjoint rows, and the stacked kernels give each slot the bits it gets
alone.

The slots' streams come as one `StreamBatch`, a root stream plus key
arrays, which costs no hashing until a group draws from it. A group whose
slots take their full batch reads no stream, so it derives and seeds
nothing; a drawing group's lanes are derived and seeded together
(`StreamBatch.bit_generators`), once per group per round.

`draw_minibatches` takes a group's minibatches for all of its steps before
the step loop, in one vectorised pass over each slot's raw PCG64 words. The
indices are those of `steps` sequential `Generator.choice(n, batch,
replace=False)` calls on the slot's generator, bit for bit: for n <= 10000
NumPy's `choice` is Floyd's sampling followed by a Fisher-Yates shuffle,
each index a Lemire multiply-shift bounded draw from the generator's 32-bit
words (low half of each 64-bit output first). `tests/test_sampler.py` pins
the equality.

All variants leave x_start, the data and the variates untouched; the round
loop owns the SCAFFOLD state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, StructuralError
from .numerics import ParamVector, RngStream, StreamBatch, as_generator
from .partition import ClientShard

# stochastic_gradient is not called here; it stays bound in this module for
# code that wraps this module's names.
from .tasks import (  # noqa: F401
    StackedFederation,
    Task,
    row_blocks,
    run_parts,
    stochastic_gradient,
)

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
            raise ParameterError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}", key="variant"
            )
        if self.K < 1:
            raise ParameterError("K must be >= 1")
        if not 0 < self.gamma < math.inf:
            raise ParameterError("gamma must be finite and > 0", key="gamma")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1", key="batch_size")
        if not 0 <= self.prox_mu < math.inf:
            raise ParameterError("prox_mu must be finite and >= 0", key="prox_mu")


@dataclass
class LocalResult:
    """What one client hands back after its inner loop."""

    x_final: ParamVector
    steps_taken: int
    new_control_variate: ParamVector | None = None
    trajectory: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Minibatch draws: Generator.choice(n, batch, replace=False), vectorised

_LOW32 = np.uint64(0xFFFFFFFF)
_TWO32 = np.uint64(1 << 32)


def _split32(raw: np.ndarray, count: int) -> np.ndarray:
    """The first `count` 32-bit halves along the last axis of 64-bit words, low half first."""
    return raw.astype("<u8").view("<u4")[..., :count].astype(np.uint64)


def _bounded(words: np.ndarray, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's multiply-shift draws in [0, bound) and where a word falls in
    the rejection zone (NumPy would then discard it and draw another)."""
    bound = bound.astype(np.uint64)
    m = words * bound
    return (m >> np.uint64(32)).astype(np.int64), (m & _LOW32) < _TWO32 % bound


def choice_from_words(
    words: np.ndarray, sizes: np.ndarray, batch: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lane l's `choice(sizes[l], batch, replace=False)` from its 2*batch - 1 words.

    `words` is (lanes, 2*batch - 1) 32-bit words as uint64, in the order a
    PCG64 generator's `next_uint32` hands them out (low half of each 64-bit
    output, then its high half): Floyd's sampling takes the first `batch`
    words, the Fisher-Yates shuffle the other batch - 1.
    Returns (lanes, batch) row-major int64 indices and a (lanes,) flag that
    is False where they are not `choice`'s: a word was rejected, or `choice`
    would take its tail-shuffle branch (sizes above 10000, batch above
    size // 50). Every size must exceed `batch`.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    lanes = sizes.size
    # positions run down the rows: reductions over earlier positions are
    # then reductions over the outer axis, which NumPy vectorises
    words = words.T
    # Floyd: the k-th word picks t in [0, j] with j = size - batch + k;
    # t joins the sample unless already in it, in which case j does
    top = np.arange(batch)[:, None] + (sizes - batch)
    out, rejected = _bounded(words[:batch], top + 1)
    for k in range(1, batch):
        np.copyto(out[k], top[k], where=(out[:k] == out[k]).any(axis=0))
    # Fisher-Yates: for i = batch-1 .. 1, swap entry i with entry j in [0, i]
    swaps, shuffle_rejected = _bounded(words[batch:], np.arange(batch, 1, -1)[:, None])
    swaps *= lanes
    swaps += np.arange(lanes)  # flat offsets of entry j in each lane
    flat = out.reshape(-1)
    for col, i in enumerate(range(batch - 1, 0, -1)):
        held = flat[swaps[col]]
        flat[swaps[col]] = out[i]
        out[i] = held
    tail_shuffle = (sizes > 10000) & (batch > sizes // 50)
    exact = ~(rejected.any(axis=0) | shuffle_rejected.any(axis=0) | tail_shuffle)
    return np.ascontiguousarray(out.T), exact


def draw_minibatches(streams: StreamBatch, sizes, batch: int, steps: int) -> np.ndarray:
    """(S, steps, batch) int64: row [s, k] is the k-th of `steps` sequential
    `streams[s].generator().choice(sizes[s], size=batch, replace=False)`
    calls, bit for bit.

    The S generators are seeded in one pass (`StreamBatch.bit_generators`),
    each slot reads steps * (2*batch - 1) words with one `random_raw` call,
    and all S * steps draws are taken at once by `choice_from_words`. A slot
    with a lane that is not `choice`'s (a word is rejected with probability
    below size / 2**32) is redrawn with `choice` from a fresh generator of
    its stream. Every size must exceed `batch`.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    S = len(streams)
    if sizes.shape != (S,):
        raise StructuralError(f"need one size per stream, got {sizes.shape} for {S} streams")
    if batch < 1 or steps < 1 or np.any(sizes <= batch):
        raise ParameterError(f"need batch >= 1, steps >= 1 and every size above batch={batch}")
    per_draw = 2 * batch - 1
    count = steps * per_draw
    raw = np.empty((S, (count + 1) // 2), dtype=np.uint64)
    for s, bit_generator in enumerate(streams.bit_generators()):
        raw[s] = bit_generator.random_raw(raw.shape[1])
    draws, exact = choice_from_words(
        _split32(raw, count).reshape(S * steps, per_draw), np.repeat(sizes, steps), batch
    )
    draws = draws.reshape(S, steps, batch)
    for s in np.flatnonzero(~exact.reshape(S, steps).all(axis=1)):
        gen = as_generator(streams[s])
        n = int(sizes[s])
        draws[s] = [gen.choice(n, size=batch, replace=False) for _ in range(steps)]
    return draws


def run_clients(
    fed: StackedFederation,
    clients,
    x_start: ParamVector,
    cfg: LocalConfig,
    rngs: StreamBatch,
    server_cv: ParamVector | None = None,
    client_cvs: np.ndarray | None = None,
    record: bool = False,
) -> list[LocalResult]:
    """Run slot s's inner loop for client `clients[s]` from x_start, all
    slots in lockstep; returns one LocalResult per slot, in slot order.

    Slot s draws its minibatches from the start of stream `rngs[s]`, all of
    a group's draws at once (`draw_minibatches`); only the lanes of groups
    that draw are derived and seeded, so a slot that takes its full batch
    costs no stream. Each step takes the group's data gradients in one
    kernel call, then updates x a row block of slots at a time
    (`tasks.row_blocks`), so a wide model's (S, d) arrays meet each op in
    cache and the only scratch is one block. A group of several blocks runs
    as parts of consecutive blocks on up to W threads (`run_parts`), each
    part a kernel call per step over its own rows. With record=True each
    result keeps its iterate trajectory [x_0 .. x_K].
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

    sizes = fed.sizes[clients].tolist()
    groups: dict[tuple[int, int, bool], list[int]] = {}
    for s, n in enumerate(sizes):
        batch = min(cfg.batch_size, n)
        steps = math.ceil(n / batch) if cfg.epoch_mode else cfg.K
        groups.setdefault((batch, steps, batch == n), []).append(s)

    decay = fed.task.weight_decay
    results: list[LocalResult | None] = [None] * S
    for (batch, steps, full), slots in groups.items():
        ci = clients[slots]
        # The group's arrays and draws are made once, and each part steps
        # contiguous row views of them: every operand a kernel is handed
        # keeps the C layout it has when the group runs whole.
        x = np.repeat(x_start[None], len(slots), axis=0)
        direction = np.empty_like(x)
        group_cvs = client_cvs[slots] if cfg.variant == "scaffold" else None
        draws = None if full else draw_minibatches(rngs.take(slots), fed.sizes[ci], batch, steps)
        trajectory = np.empty((steps + 1, *x.shape)) if record else None
        if record:
            trajectory[0] = x

        def step_part(blocks: list[slice]) -> None:
            # After the kernel writes the data gradient, each row block of x
            # and direction takes the rest of the step while it is in cache:
            # the weight decay, the prox or SCAFFOLD correction, the stepsize
            # and the update, each op in place and in the order that gives
            # x - gamma * direction its bits. The views are taken once a
            # part, so a one-block model pays no per-step cost for the
            # blocking.
            rows = slice(blocks[0].start, blocks[-1].stop)
            ci_p, x_p, direction_p = ci[rows], x[rows], direction[rows]
            draws_p = None if full else draws[rows]
            buffer = np.empty((blocks[0].stop - blocks[0].start, d))
            sweeps = [
                (
                    x[b],
                    direction[b],
                    buffer[: b.stop - b.start],
                    None if group_cvs is None else group_cvs[b],
                )
                for b in blocks
            ]
            for k in range(steps):
                fed.data_gradients(ci_p, x_p, None if full else draws_p[:, k], out=direction_p)
                for xb, db, scratch, cvs_b in sweeps:
                    if decay:
                        db += np.multiply(xb, decay, out=scratch)
                    if cfg.variant == "prox":
                        np.subtract(xb, x_start, out=scratch)
                        scratch *= cfg.prox_mu
                        db += scratch
                    elif cfg.variant == "scaffold":
                        db -= cvs_b
                        db += server_cv
                    db *= cfg.gamma
                    xb -= db
                if record:
                    trajectory[k + 1, rows] = x_p

        run_parts(step_part, row_blocks(len(slots), d))

        new_cv = None
        if cfg.variant == "scaffold":
            new_cv = group_cvs - server_cv + (x_start - x) / (steps * cfg.gamma)
        for j, s in enumerate(slots):
            results[s] = LocalResult(
                x_final=x[j],
                steps_taken=steps,
                new_control_variate=None if new_cv is None else new_cv[j],
                trajectory=[] if trajectory is None else list(trajectory[:, j]),
            )
    return results


def run_local(
    task: Task,
    shard: ClientShard,
    x_start: ParamVector,
    cfg: LocalConfig,
    server_cv: ParamVector | None = None,
    client_cv: ParamVector | None = None,
    rng: RngStream = RngStream(0),
    record: bool = False,
) -> LocalResult:
    """Take x_start through one client's inner loop: `run_clients` with one slot."""
    return run_clients(
        StackedFederation.build([task], [shard.data]),
        [0],
        x_start,
        cfg,
        StreamBatch(rng),
        server_cv=server_cv,
        client_cvs=None if client_cv is None else np.asarray(client_cv, np.float64)[None],
        record=record,
    )[0]
