"""Differentiable client objectives with analytic and minibatch gradients.

Three task kinds cover the verification ladder:

* quadratic   f(x) = 1/2 ||A^{1/2}(x - c)||^2 with diagonal A; closed-form
              optimum, smoothness, and gradient-noise variance;
* logistic    multinomial logistic regression without bias, parameters are
              the (C, p) weight matrix flattened row-major;
* mlp         one tanh hidden layer, parameters flattened as
              [W1 (h,p), b1 (h), W2 (C,h), b2 (C)].

Weight decay enters the gradient as an additive lambda * x term; reported
losses never include it, so loss curves of decayed and undecayed runs are
directly comparable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericError, ParameterError, StructuralError
from .numerics import ParamVector, RngStream, as_generator, inner


@dataclass
class Dataset:
    """Feature matrix (n, p) with integer labels in [0, num_classes)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise StructuralError(f"features must be (n>=1, p), got {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise StructuralError("labels length must match feature rows")
        if not np.all(np.isfinite(self.features)):
            raise NumericError("non-finite feature values")
        if self.num_classes < 1 or self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise StructuralError("labels must lie in [0, num_classes)")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], self.num_classes)


@dataclass
class GradSample:
    """One minibatch draw: mean gradient and the rows used."""

    grad: ParamVector
    batch_indices: np.ndarray


@dataclass
class QuadraticTask:
    """1/2 (x - c)^T A (x - c) with diagonal curvature A = diag(curvature).

    Dataset rows for this kind are anchor points z_j whose mean is c; the
    per-sample loss 1/2 (x-z)^T A (x-z) - 1/2 (z-c)^T A (z-c) averages back
    to the quadratic (its gradient is unbiased for the full gradient) and is
    exactly zero at x = c sample by sample.
    """

    curvature: np.ndarray
    center: np.ndarray
    weight_decay: float = 0.0
    kind: str = field(default="quadratic", repr=False)

    def __post_init__(self):
        self.curvature = np.asarray(self.curvature, dtype=np.float64)
        self.center = np.asarray(self.center, dtype=np.float64)
        if self.curvature.shape != self.center.shape or self.curvature.ndim != 1:
            raise StructuralError("curvature and center must be equal-length vectors")
        if not np.all((0 < self.curvature) & (self.curvature < np.inf)):  # NaN fails too
            raise ParameterError("quadratic curvature must be finite and strictly positive")
        if not np.isfinite(self.center).all():
            raise ParameterError("quadratic center must be finite")
        if not 0 <= self.weight_decay < np.inf:
            raise ParameterError("weight_decay must be finite and >= 0")

    @property
    def dim(self) -> int:
        return self.curvature.size


@dataclass
class LogisticRegressionTask:
    """Multinomial logistic regression, no bias term."""

    num_features: int
    num_classes: int
    weight_decay: float = 0.0
    kind: str = field(default="logistic", repr=False)

    def __post_init__(self):
        if self.num_features < 1 or self.num_classes < 2:
            raise ParameterError("need num_features >= 1 and num_classes >= 2")
        if not 0 <= self.weight_decay < np.inf:
            raise ParameterError("weight_decay must be finite and >= 0")

    @property
    def dim(self) -> int:
        return self.num_classes * self.num_features


@dataclass
class MlpTask:
    """One tanh hidden layer followed by a linear softmax head."""

    num_features: int
    hidden: int
    num_classes: int
    weight_decay: float = 0.0
    kind: str = field(default="mlp", repr=False)

    def __post_init__(self):
        if min(self.num_features, self.hidden) < 1 or self.num_classes < 2:
            raise ParameterError("need positive layer widths and num_classes >= 2")
        if not 0 <= self.weight_decay < np.inf:
            raise ParameterError("weight_decay must be finite and >= 0")

    @property
    def dim(self) -> int:
        h, p, c = self.hidden, self.num_features, self.num_classes
        return h * p + h + c * h + c

    @property
    def splits(self) -> tuple[int, int, int]:
        """Where b1, W2 and b2 start in the flat parameter vector."""
        h, p, c = self.hidden, self.num_features, self.num_classes
        return h * p, h * p + h, h * p + h + c * h

    def unpack(self, x: ParamVector):
        h, p, c = self.hidden, self.num_features, self.num_classes
        i0, i1, i2 = self.splits
        w1 = x[:i0].reshape(h, p)
        b1 = x[i0:i1]
        w2 = x[i1:i2].reshape(c, h)
        b2 = x[i2:]
        return w1, b1, w2, b2


Task = QuadraticTask | LogisticRegressionTask | MlpTask


def _check_dim(task: Task, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (task.dim,):
        raise StructuralError(f"parameter vector has shape {x.shape}, task needs ({task.dim},)")
    return x


def _class_sum(z: np.ndarray) -> np.ndarray:
    """Sum of the class rows of z (C, R): the bits of `np.sum(axis=-1)` over
    the C-contiguous transpose (R, C).

    NumPy's add.reduce along a contiguous axis adds below 8 terms one at a
    time; up to 128 it keeps eight running sums, combines them as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and then adds the tail one at a
    time; above 128 it splits at half the length rounded down to a multiple
    of 8 and sums the halves so. Here each step is one array op over rows.
    """
    n = len(z)
    if n < 8:
        total = z[0].copy()
        for row in z[1:]:
            total += row
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _class_sum(z[:half]) + _class_sum(z[half:])
    body = n - n % 8
    r = z[:8]
    for lo in range(8, body, 8):
        r = r + z[lo : lo + 8]
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    total = r[0] + r[1]
    for row in z[body:]:
        total += row
    return total


def _shifted_class_major(logits: np.ndarray, labels: np.ndarray):
    """The logits (..., C), less each row's max, copied class-major into
    z (C, R) with R rows; the flat indices of the labels (...) in z, and
    their shifted logits."""
    rows = logits.reshape(-1, logits.shape[-1])
    z = rows.T.copy()
    z -= z.max(axis=0)
    at = labels.reshape(-1) * len(rows)
    at += np.arange(len(rows))
    return z, at, z.reshape(-1)[at]


def _label_log_probs(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Log-softmax probability of each row's label, for logits (..., C) and labels (...)."""
    z, _, picked = _shifted_class_major(logits, labels)
    np.exp(z, out=z)
    return (picked - np.log(_class_sum(z))).reshape(labels.shape)


def _mean_losses(sample: np.ndarray) -> np.ndarray:
    """Each slot's mean over its rows of the per-row losses (S, B)."""
    # sum / n is how np.mean divides, so each entry keeps evaluate's bits
    return sample.sum(axis=1) / sample.shape[1]


def _softmax_residual(logits: np.ndarray, labels: np.ndarray, losses=None) -> np.ndarray:
    """softmax(logits) minus the one-hot labels, for C-contiguous logits
    (S, B, C) and labels (S, B), written back over the logits.

    The softmax runs class-major (`_shifted_class_major`), so each step is
    an op over C rows of S * B entries, not a reduction over a C-wide axis;
    every entry gets the same operations as a row-major softmax, and
    `_class_sum` adds in np.sum's order. With `losses` (S,), each slot's
    mean cross-entropy is written there, from the same shifted logits: the
    bits of `_label_log_probs`.
    """
    z, at, picked = _shifted_class_major(logits, labels)
    np.exp(z, out=z)
    total = _class_sum(z)
    if losses is not None:
        # negating before the sum is exact: rounding is symmetric in sign
        losses[...] = _mean_losses(-(picked - np.log(total)).reshape(labels.shape))
    z /= total
    z.reshape(-1)[at] -= 1.0
    # the backward's products take the residual row-major, as BLAS rounds a
    # transposed operand differently
    logits.reshape(z.T.shape)[...] = z.T
    return logits


# Stacked kernels: slot s of x (S, d) over its rows feats[s] (B, p) with
# labels[s] (B,). Every product runs per slot in one batched matmul, which
# gives each slot the bits of the same product taken alone. The softmax
# between the forward and backward products runs class-major over all S * B
# rows at once (`_softmax_residual`), and hands the backward its residual
# back as a C-contiguous (S, B, C) array: a transposed view would change
# how BLAS packs the operand, and with it the gradients' last bits. The
# inner loop and the noise probe (`StackedFederation.data_gradients`, over
# gathered rows), `full_gradient` and the evaluation pass
# (`client_evaluation`, over views of the size-ordered rows) all run
# through them, each taking a task's kernel from `_kernel`; `evaluate`
# keeps its own forward pass as the reference the tests compare against.
# The mean gradients, without weight decay, are written into out (S, d); with
# `losses` (S,), the slots' mean losses from the same forward pass go there.


def _quadratic_grad(curvature, target, x, out=None):
    """Quadratic gradient without weight decay; target is the center or an anchor mean."""
    return np.multiply(curvature, x - target, out=out)


def _logits(task: LogisticRegressionTask | MlpTask, feats, x):
    """Logits (S, B, C) of every slot's rows, and the MLP's hidden
    activations (S, B, h); None for logistic regression."""
    S = len(x)
    if isinstance(task, LogisticRegressionTask):
        w = x.reshape(S, task.num_classes, task.num_features)
        return feats @ w.transpose(0, 2, 1), None
    h, p, c = task.hidden, task.num_features, task.num_classes
    i0, i1, i2 = task.splits
    w1 = x[:, :i0].reshape(S, h, p)
    w2 = x[:, i1:i2].reshape(S, c, h)
    # the hidden layer is formed in one buffer, op by op the same bits
    a1 = feats @ w1.transpose(0, 2, 1)
    a1 += x[:, None, i0:i1]
    np.tanh(a1, out=a1)
    logits = a1 @ w2.transpose(0, 2, 1)
    logits += x[:, None, i2:]
    return logits, a1


def _logistic_grad(task: LogisticRegressionTask, feats, labels, x, out, losses=None):
    S, c, p = len(x), task.num_classes, task.num_features
    resid = _softmax_residual(_logits(task, feats, x)[0], labels, losses)
    np.matmul(resid.transpose(0, 2, 1), feats, out=out.reshape(S, c, p))
    out /= labels.shape[1]
    return out


def _mlp_grad(task: MlpTask, feats, labels, x, out, losses=None):
    S, h, p, c = len(x), task.hidden, task.num_features, task.num_classes
    i0, i1, i2 = task.splits
    logits, a1 = _logits(task, feats, x)
    dlogits = _softmax_residual(logits, labels, losses)
    dlogits /= labels.shape[1]
    # each slice of out is a view, so the products land in place
    np.matmul(dlogits.transpose(0, 2, 1), a1, out=out[:, i1:i2].reshape(S, c, h))
    np.sum(dlogits, axis=1, out=out[:, i2:])
    # a1 is spent: its buffer takes tanh's derivative 1 - a1 * a1
    a1 *= a1
    np.subtract(1.0, a1, out=a1)
    dz1 = dlogits @ x[:, i1:i2].reshape(S, c, h)
    dz1 *= a1
    np.matmul(dz1.transpose(0, 2, 1), feats, out=out[:, :i0].reshape(S, h, p))
    np.sum(dz1, axis=1, out=out[:, i0:i1])
    return out


def _kernel(task: LogisticRegressionTask | MlpTask):
    """The stacked gradient kernel of a data task."""
    return _logistic_grad if isinstance(task, LogisticRegressionTask) else _mlp_grad


def _quadratic_sample_losses(task: QuadraticTask, feats, x):
    dx = x - feats
    dz = feats - task.center
    return 0.5 * ((dx * dx) @ task.curvature - (dz * dz) @ task.curvature)


def _data_grad(task: Task, feats, labels, x):
    """Mean gradient over the given rows, without weight decay: the one-slot
    case of the stacked kernels."""
    if isinstance(task, QuadraticTask):
        return _quadratic_grad(task.curvature, feats.mean(axis=0), x)
    return _kernel(task)(task, feats[None], labels[None], x[None], np.empty((1, x.size)))[0]


def full_gradient(task: Task, data: Dataset | None, x: ParamVector) -> ParamVector:
    """Exact gradient of the client objective, weight decay included.

    Quadratics are analytic and need no data; the other kinds average over
    every dataset row.
    """
    x = _check_dim(task, x)
    if isinstance(task, QuadraticTask):
        base = _quadratic_grad(task.curvature, task.center, x)
    else:
        if data is None:
            raise StructuralError(f"{task.kind} gradient needs a dataset")
        base = _data_grad(task, data.features, data.labels, x)
    return base + task.weight_decay * x


def stochastic_gradient(
    task: Task,
    data: Dataset,
    x: ParamVector,
    batch_size: int,
    rng: RngStream | np.random.Generator,
) -> GradSample:
    """Minibatch gradient: uniform draw without replacement within the batch."""
    x = _check_dim(task, x)
    if not 1 <= batch_size <= data.n:
        raise ParameterError(f"batch_size must be in [1, {data.n}], got {batch_size}")
    if batch_size == data.n:
        return GradSample(full_gradient(task, data, x), np.arange(data.n))
    gen = as_generator(rng)
    idx = gen.choice(data.n, size=batch_size, replace=False)
    base = _data_grad(task, data.features[idx], data.labels[idx], x)
    return GradSample(base + task.weight_decay * x, idx)


def evaluate(task: Task, data: Dataset, x: ParamVector) -> tuple[float, float]:
    """Mean loss (weight decay excluded) and argmax accuracy over the data.

    Quadratics are loss-only tasks: their accuracy is reported as 0.
    """
    x = _check_dim(task, x)
    if isinstance(task, QuadraticTask):
        loss = float(np.mean(_quadratic_sample_losses(task, data.features, x)))
        return loss, 0.0
    if isinstance(task, LogisticRegressionTask):
        w = x.reshape(task.num_classes, task.num_features)
        logits = data.features @ w.T
    else:
        w1, b1, w2, b2 = task.unpack(x)
        logits = np.tanh(data.features @ w1.T + b1) @ w2.T + b2
    loss = float(-np.mean(_label_log_probs(logits, data.labels)))
    accuracy = float(np.mean(np.argmax(logits, axis=1) == data.labels))
    return loss, accuracy


# ---------------------------------------------------------------------------
# Row blocks

# Every elementwise sweep over a (rows, d) stack of float64 runs over blocks
# of consecutive rows of at most this many bytes, so that a block stays in
# cache between the sweep's operations. Each element still goes through the
# same operations in the same order, so the blocking moves no bit.
BLOCK_BYTES = 512 * 1024


def row_blocks(rows: int, d: int) -> list[slice]:
    """Slices of consecutive rows covering `rows` rows of d float64s, each
    within BLOCK_BYTES but never less than one row; the first is the
    largest, so a scratch array of its size serves every block."""
    step = max(1, BLOCK_BYTES // (8 * d))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


# ---------------------------------------------------------------------------
# One stacked federation


def check_federation(tasks: list[Task], datasets: list[Dataset]) -> None:
    """Raise StructuralError unless the clients can share one stacked view.

    All tasks must be of one kind. Data-driven kinds share one task whose
    feature width and label range every dataset fits; quadratics share one
    dimension, which is also the width of their anchor rows, and one decay.
    """
    if not tasks or len(tasks) != len(datasets):
        raise StructuralError("need one dataset per task, at least one client")
    kinds = {task.kind for task in tasks}
    if len(kinds) != 1:
        raise StructuralError(f"clients mix task kinds {sorted(kinds)}")
    first = tasks[0]
    if isinstance(first, QuadraticTask):
        if any(t.dim != first.dim or t.weight_decay != first.weight_decay for t in tasks):
            raise StructuralError("quadratic clients must share one dimension and one weight decay")
        width, classes = first.dim, None
    else:
        if any(task != first for task in tasks):
            raise StructuralError(f"{first.kind} clients must share one task")
        width, classes = first.num_features, first.num_classes
    for i, data in enumerate(datasets):
        if data.features.shape[1] != width:
            raise StructuralError(
                f"client {i} has {data.features.shape[1]} features, its task needs {width}"
            )
        if classes is not None and data.labels.max() >= classes:
            raise StructuralError(f"client {i} has labels outside [0, {classes})")


@dataclass(frozen=True, eq=False)
class StackedFederation:
    """Every client's rows in one array, ordered by (shard size, client).

    Client i owns rows `starts[i]:starts[i] + sizes[i]` of `features` and
    `labels`. The clients of one shard size own one block of rows in id
    order, so each size group is a view of it (`eval_blocks`). The layout
    stays inside this module: `data_gradients` takes row indices within
    each client's own shard. Data-driven kinds share `task`; quadratics
    carry per-client `curvature` and `center` of shape (N, d). All clients
    have the weight decay `task.weight_decay`; `data_gradients` leaves it
    out, and the callers add it in their own row-block sweeps.
    """

    task: Task
    features: np.ndarray
    labels: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray
    curvature: np.ndarray | None = None
    center: np.ndarray | None = None

    @classmethod
    def build(cls, tasks: list[Task], datasets: list[Dataset]) -> "StackedFederation":
        check_federation(tasks, datasets)
        quadratic = isinstance(tasks[0], QuadraticTask)
        sizes = np.array([data.n for data in datasets], dtype=np.int64)
        order = np.argsort(sizes, kind="stable")
        starts = np.empty_like(sizes)
        starts[order] = np.cumsum(sizes[order]) - sizes[order]
        return cls(
            task=tasks[0],
            features=np.concatenate([datasets[i].features for i in order]),
            labels=np.concatenate([datasets[i].labels for i in order]),
            sizes=sizes,
            starts=starts,
            curvature=np.stack([t.curvature for t in tasks]) if quadratic else None,
            center=np.stack([t.center for t in tasks]) if quadratic else None,
        )

    @property
    def N(self) -> int:
        return self.sizes.size

    @property
    def dim(self) -> int:
        return self.task.dim

    @cached_property
    def eval_blocks(self) -> list[tuple]:
        """`client_evaluation`'s plan: the clients grouped by shard size,
        ascending, each group cut into row blocks of clients (`row_blocks`
        of d-wide rows, under the `BLOCK_BYTES` in force when first used).
        Per block: the client ids ascending, views of their features
        (S, n, p) and labels (S, n), and where the block's rows go in the
        (N, ...) outputs (a slice for consecutive ids, else the ids)."""
        order = np.argsort(self.sizes, kind="stable")
        plan = []
        for ci in np.split(order, np.flatnonzero(np.diff(self.sizes[order])) + 1):
            # a size group's clients own one block of rows in id order
            shape, lo = (ci.size, int(self.sizes[ci[0]])), int(self.starts[ci[0]])
            rows = slice(lo, lo + ci.size * shape[1])
            feats = self.features[rows].reshape(*shape, -1)
            labels = self.labels[rows].reshape(shape)
            for b in row_blocks(ci.size, self.dim):
                ids = ci[b]
                lo, hi = int(ids[0]), int(ids[-1]) + 1
                at = slice(lo, hi) if hi - lo == ids.size else ids
                plan.append((ids, feats[b], labels[b], at))
        return plan

    def data_gradients(self, clients, x, draws=None, out=None) -> np.ndarray:
        """(S, d) mean gradients without weight decay, written into out if given.

        Row s is client `clients[s]`'s mean gradient at `x[s]` over the rows
        `draws[s]` of its own shard (indices in [0, n_i)); with draws None,
        over all of its data (a data task's clients must then share one
        shard size; quadratics are analytic).
        """
        clients = np.asarray(clients, dtype=np.int64)
        out = np.empty(x.shape) if out is None else out
        if draws is None and self.curvature is not None:
            return _quadratic_grad(self.curvature[clients], self.center[clients], x, out=out)
        if draws is None:
            sizes = self.sizes[clients]
            if np.any(sizes != sizes[0]):
                raise StructuralError("full-data gradients need clients of one shard size")
            draws = np.arange(sizes[0])
        # a gather keeps the index array's memory order, and the products
        # over column-major rows can round differently from row-major ones
        rows = np.add(self.starts[clients, None], draws, order="C")
        if self.curvature is not None:
            _quadratic_grad(self.curvature[clients], self.features[rows].mean(axis=1), x, out=out)
        else:
            _kernel(self.task)(self.task, self.features[rows], self.labels[rows], x, out)
        return out


def client_evaluation(
    fed: StackedFederation, x: ParamVector, gradients: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Every client's mean loss at x and, with gradients, its full gradient:
    entry i equals evaluate(task_i, data_i, x)[0] and row i
    full_gradient(task_i, data_i, x), bit for bit.

    One pass over `fed.eval_blocks`, the size groups' row blocks of clients,
    through the stacked kernels; a data task takes a block's losses and
    gradients from one forward pass, and its weight decay is added while
    the block is in cache. A block of consecutive ids writes straight into
    the outputs, any other goes through a block-sized buffer.
    """
    x = _check_dim(fed.task, x)
    losses = np.empty(fed.N)
    grads = np.empty((fed.N, x.size)) if gradients else None
    # the decay multiplies x once, not once per block
    decay = fed.task.weight_decay * x if gradients and fed.task.weight_decay else None
    for ids, f, y, at in fed.eval_blocks:
        xs = np.broadcast_to(x, (ids.size, x.size))
        view = isinstance(at, slice)
        if gradients:
            g = grads[at] if view else np.empty(xs.shape)
        if fed.curvature is not None:
            curvature = fed.curvature[at, :, None]
            dx = x - f
            dz = f - fed.center[at, None]
            sample = 0.5 * ((dx * dx) @ curvature - (dz * dz) @ curvature)[..., 0]
            losses[at] = _mean_losses(sample)
            if gradients:
                _quadratic_grad(fed.curvature[at], fed.center[at], x, out=g)
        elif not gradients:
            # negating before the sum is exact: rounding is symmetric in sign
            sample = -_label_log_probs(_logits(fed.task, f, xs)[0], y)
            losses[at] = _mean_losses(sample)
        else:
            block_losses = np.empty(ids.size)
            _kernel(fed.task)(fed.task, f, y, xs, g, block_losses)
            losses[at] = block_losses
        if gradients:
            if decay is not None:
                g += decay
            if not view:
                grads[at] = g
    return losses, grads


def weighted_dissimilarity(grads: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, float]:
    """(p-weighted mean gradient, sum_i p_i ||grad_i - mean||^2) of an (N, d)
    stack of client gradients; the gaps are formed one row block at a time."""
    mean = p @ grads
    norms = np.empty(len(grads))
    blocks = row_blocks(len(grads), grads.shape[1])
    scratch = np.empty((blocks[0].stop, grads.shape[1]))
    for b in blocks:
        gaps = np.subtract(grads[b], mean, out=scratch[: b.stop - b.start])
        gaps *= gaps
        gaps.sum(axis=1, out=norms[b])
    return mean, float(inner(p, norms))


def init_params(task: Task, rng: RngStream | np.random.Generator) -> ParamVector:
    """Starting point: zeros except MLP hidden weights, which need symmetry breaking."""
    if isinstance(task, MlpTask):
        gen = as_generator(rng)
        w1 = gen.normal(0.0, 1.0 / np.sqrt(task.num_features), (task.hidden, task.num_features))
        w2 = gen.normal(0.0, 1.0 / np.sqrt(task.hidden), (task.num_classes, task.hidden))
        return np.concatenate(
            [w1.ravel(), np.zeros(task.hidden), w2.ravel(), np.zeros(task.num_classes)]
        )
    return np.zeros(task.dim)


# ---------------------------------------------------------------------------
# Synthetic quadratic federations


def make_synthetic_federated_quadratic(
    N: int,
    d: int,
    heterogeneity: float,
    rng: RngStream | np.random.Generator,
    curvature_range: tuple[float, float] = (0.5, 2.0),
    weight_decay: float = 0.0,
    weights: str = "equal",
    weights_alpha: float = 1.0,
) -> tuple[list[QuadraticTask], np.ndarray]:
    """N diagonal quadratics whose optima are spread by `heterogeneity`.

    Client optima are c_i ~ heterogeneity * N(0, I); curvature diagonals are
    uniform in curvature_range. Weights are 1/N ("equal") or a Dirichlet
    draw ("dirichlet") for the unbalanced setting.
    """
    if N < 1 or d < 1:
        raise ParameterError("need N >= 1 and d >= 1")
    if heterogeneity < 0:
        raise ParameterError("heterogeneity must be >= 0")
    lo, hi = curvature_range
    if not 0 < lo <= hi:
        raise ParameterError("curvature_range must satisfy 0 < lo <= hi")
    gen = as_generator(rng)
    centers = heterogeneity * gen.standard_normal((N, d))
    curvatures = gen.uniform(lo, hi, (N, d))
    tasks = [
        QuadraticTask(curvatures[i], centers[i], weight_decay=weight_decay) for i in range(N)
    ]
    if weights == "equal":
        p = np.full(N, 1.0 / N)
    elif weights == "dirichlet":
        from .numerics import sample_dirichlet

        p = sample_dirichlet(gen, weights_alpha, N)
    else:
        raise ParameterError(f"unknown weights mode {weights!r}")
    return tasks, p


def quadratic_global_optimum(tasks: list[QuadraticTask], p: np.ndarray) -> ParamVector:
    """argmin of sum_i p_i f_i for diagonal quadratics, weight decay included."""
    num = np.zeros(tasks[0].dim)
    den = np.zeros(tasks[0].dim)
    for task, w in zip(tasks, p):
        num += w * task.curvature * task.center
        den += w * (task.curvature + task.weight_decay)
    return num / den


def quadratic_smoothness(tasks: list[QuadraticTask]) -> float:
    """Shared smoothness constant: the largest curvature eigenvalue anywhere."""
    return max(float(np.max(task.curvature + task.weight_decay)) for task in tasks)


def quadratic_sigma_sq(task: QuadraticTask, data: Dataset, batch_size: int) -> float:
    """Exact E||g - grad f||^2 for minibatch draws without replacement.

    The gradient noise is curvature * (mean anchor - batch anchor mean), so
    the variance follows the finite-population sample-mean formula with the
    (n - B)/(n - 1) correction.
    """
    n = data.n
    if not 1 <= batch_size <= n:
        raise ParameterError(f"batch_size must be in [1, {n}]")
    if n == 1 or batch_size == n:
        return 0.0
    pop_var = data.features.var(axis=0, ddof=0)
    per_coord = (task.curvature**2) * pop_var / batch_size * (n - batch_size) / (n - 1)
    return float(per_coord.sum())


def make_quadratic_client_data(
    task: QuadraticTask,
    n: int,
    noise_std: float,
    rng: RngStream | np.random.Generator,
) -> Dataset:
    """n anchor points around the client optimum, recentred so their mean is c."""
    if n < 1:
        raise ParameterError("need n >= 1")
    gen = as_generator(rng)
    raw = task.center + noise_std * gen.standard_normal((n, task.dim))
    anchors = raw - raw.mean(axis=0) + task.center
    return Dataset(anchors, np.zeros(n, dtype=np.int64), 1)


def make_blobs_dataset(
    n: int,
    num_classes: int,
    num_features: int,
    rng: RngStream | np.random.Generator,
    center_spread: float = 3.0,
    noise: float = 1.0,
) -> Dataset:
    """Gaussian class blobs; a small stand-in for real classification data."""
    if n < 1 or num_classes < 2 or num_features < 1:
        raise ParameterError("need n >= 1, num_classes >= 2, num_features >= 1")
    gen = as_generator(rng)
    centers = center_spread * gen.standard_normal((num_classes, num_features))
    labels = gen.integers(0, num_classes, n)
    features = centers[labels] + noise * gen.standard_normal((n, num_features))
    return Dataset(features, labels, num_classes)


# ---------------------------------------------------------------------------
# IDX binary format

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read_exact(fh, count: int, path: str) -> bytes:
    blob = fh.read(count)
    if len(blob) != count:
        raise StructuralError(f"{path!r}: truncated, wanted {count} bytes, got {len(blob)}")
    return blob


def load_idx_dataset(
    images_path: str, labels_path: str, num_classes: int | None = None
) -> Dataset:
    """Read an IDX image/label file pair; features are scaled into [0, 1].

    Big-endian headers: images carry magic 0x00000803 then [n, rows, cols],
    labels carry magic 0x00000801 then [n]; both are followed by raw bytes.
    """
    try:
        with open(images_path, "rb") as fh:
            magic, n, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, images_path))
            if magic != _IDX_IMAGES_MAGIC:
                raise StructuralError(f"{images_path!r}: bad magic {magic:#010x}")
            pixels = np.frombuffer(_read_exact(fh, n * rows * cols, images_path), dtype=np.uint8)
        with open(labels_path, "rb") as fh:
            magic, n_labels = struct.unpack(">II", _read_exact(fh, 8, labels_path))
            if magic != _IDX_LABELS_MAGIC:
                raise StructuralError(f"{labels_path!r}: bad magic {magic:#010x}")
            labels = np.frombuffer(_read_exact(fh, n_labels, labels_path), dtype=np.uint8)
    except OSError as exc:
        raise StructuralError(str(exc)) from exc
    if n != n_labels:
        raise StructuralError(f"image count {n} != label count {n_labels}")
    features = pixels.reshape(n, rows * cols).astype(np.float64) / 255.0
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if n else 1
    return Dataset(features, labels.astype(np.int64), num_classes)
