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

import ctypes
import functools
import glob
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

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
    kind: ClassVar[str] = "quadratic"

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
    kind: ClassVar[str] = "logistic"

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
    kind: ClassVar[str] = "mlp"

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
# how BLAS packs the operand, and with it the gradients' last bits. Every
# stacked call goes through `_stacked`, the one place that chooses the
# arithmetic by task kind: the inner loop and the noise probe
# (`StackedFederation.data_gradients`, over gathered rows), the evaluation
# pass with or without gradients (`client_evaluation`, over views of the
# size-ordered rows), and the lone client's `full_gradient` and
# `stochastic_gradient` as one slot. `evaluate` keeps its own forward pass
# as the reference the tests compare against.


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


def _quadratic_sample_losses(task: QuadraticTask, feats, x):
    dx = x - feats
    dz = feats - task.center
    return 0.5 * ((dx * dx) @ task.curvature - (dz * dz) @ task.curvature)


def _stacked(task: Task, feats, labels, x, out=None, losses=None, fed=None, at=None):
    """The one stacked kernel call, by task kind: mean gradients without
    weight decay into out (S, d) and, with `losses` (S,), the slots' mean
    losses; with out None it stops before the backward. A quadratic slot s
    is client `at[s]` of `fed` (a lone call takes the task's curvature); its
    gradient is analytic, at the center, unless drawn rows come without
    losses, when it is taken at their mean anchor."""
    if isinstance(task, QuadraticTask):
        if losses is not None:
            k = fed.curvature[at, :, None]
            dx = x[:, None] - feats
            dz = feats - fed.center[at, None]
            losses[...] = _mean_losses(0.5 * ((dx * dx) @ k - (dz * dz) @ k)[..., 0])
        if out is not None:
            drawn = feats is not None and losses is None
            curvature = task.curvature if fed is None else fed.curvature[at]
            target = feats.mean(axis=1) if drawn else fed.center[at]
            _quadratic_grad(curvature, target, x, out=out)
    elif out is None:
        # negating before the sum is exact: rounding is symmetric in sign
        losses[...] = _mean_losses(-_label_log_probs(_logits(task, feats, x)[0], labels))
    elif isinstance(task, LogisticRegressionTask):
        _logistic_grad(task, feats, labels, x, out, losses)
    else:
        _mlp_grad(task, feats, labels, x, out, losses)
    return out


def full_gradient(task: Task, data: Dataset | None, x: ParamVector) -> ParamVector:
    """Exact gradient of the client objective, weight decay included.

    Quadratics are analytic and need no data; the other kinds average over
    every dataset row.
    """
    x = _check_dim(task, x)
    if isinstance(task, QuadraticTask):
        base = _quadratic_grad(task.curvature, task.center, x)
    elif data is None:
        raise StructuralError(f"{task.kind} gradient needs a dataset")
    else:
        feats, labels = data.features[None], data.labels[None]
        base = _stacked(task, feats, labels, x[None], np.empty((1, x.size)))[0]
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
    feats, labels = data.features[idx][None], data.labels[idx][None]
    base = _stacked(task, feats, labels, x[None], np.empty((1, x.size)))[0]
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


def is_wide(d: int) -> bool:
    """Whether one row of d float64s fills more than half of BLOCK_BYTES, so
    that `row_blocks` gives each row a block of its own. The evaluation
    pass, the dissimilarity's gaps and the noise probe split their blocks
    over W parts only for such a model: a narrower one's blocks are few
    and small, and threads would only add their cost."""
    return 16 * d > BLOCK_BYTES


# ---------------------------------------------------------------------------
# Parts of a row-blocked sweep on the cores BLAS leaves idle


def blas_threads() -> int | None:
    """The thread count of the OpenBLAS NumPy loaded, read through ctypes
    from the copy its wheel ships in `numpy.libs`; None if it cannot be read."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        count = get()
        return count if count >= 1 else None
    return None


@functools.cache
def worker_count() -> int:
    """W, the most parts a sweep is split into: the CPUs this process may
    run on divided by the BLAS threads, so the parts take only the cores
    BLAS leaves idle; 1 if the BLAS count cannot be read."""
    blas = blas_threads()
    return max(1, len(os.sched_getaffinity(0)) // blas) if blas else 1


@functools.cache
def _pool(threads: int):
    # imported on the first split: concurrent.futures loads logging, which
    # would add 0.7 MB to the peak RSS of every run that never splits
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(threads, thread_name_prefix="fedagm-part")


def run_parts(step, blocks: list, split: bool = True) -> None:
    """Call step(part) on every part of `blocks`, cut into at most W runs of
    consecutive blocks, of block counts that differ by at most one: the
    caller takes the first part and pool threads the others, at the same
    time. With one block, or split False, step(blocks) runs on the calling
    thread and no thread starts.

    The parts must touch disjoint rows of the sweep's outputs, each through
    scratch of its own; the stacked kernels give each row the bits it gets
    alone, so the split moves no bit. The pool's threads start on the first
    split; idle, they are joined when the interpreter exits.
    """
    n = min(worker_count(), len(blocks)) if split and len(blocks) > 1 else 1
    if n == 1:
        step(blocks)
        return
    bounds = [len(blocks) * i // n for i in range(n + 1)]
    parts = [blocks[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    futures = [_pool(n - 1).submit(step, part) for part in parts[1:]]
    try:
        step(parts[0])
    finally:
        # no error leaves while a part still writes the sweep's arrays
        for future in futures:
            future.exception()
    for future in futures:
        future.result()


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
        ascending, each group cut into blocks of clients under the
        `BLOCK_BYTES` in force when first used: `row_blocks` of d-wide
        gradient rows, except in a wide model's (`is_wide`) groups of
        consecutive ids. Those write their gradients straight into the
        (N, d) output, so rather than one client each, their blocks hold
        `row_blocks` of the kernel's activations, a row of max(hidden,
        classes) float64s per data row (d per anchor row for quadratics).
        Per block: the client ids ascending, views of their features
        (S, n, p) and labels (S, n), and where the block's rows go in the
        (N, ...) outputs (a slice for consecutive ids, else the ids)."""
        task, wide = self.task, is_wide(self.dim)
        if isinstance(task, QuadraticTask):
            width = task.dim
        elif isinstance(task, MlpTask):
            width = max(task.hidden, task.num_classes)
        else:
            width = task.num_classes
        order = np.argsort(self.sizes, kind="stable")
        plan = []
        for ci in np.split(order, np.flatnonzero(np.diff(self.sizes[order])) + 1):
            # a size group's clients own one block of rows in id order
            shape, lo = (ci.size, int(self.sizes[ci[0]])), int(self.starts[ci[0]])
            rows = slice(lo, lo + ci.size * shape[1])
            feats = self.features[rows].reshape(*shape, -1)
            labels = self.labels[rows].reshape(shape)
            consecutive = int(ci[-1]) - int(ci[0]) + 1 == ci.size
            block_width = shape[1] * width if consecutive and wide else self.dim
            for b in row_blocks(ci.size, block_width):
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
            # a quadratic's gradient over all of its rows reads none of them
            return _stacked(self.task, None, None, x, out, fed=self, at=clients)
        if draws is None:
            sizes = self.sizes[clients]
            if np.any(sizes != sizes[0]):
                raise StructuralError("full-data gradients need clients of one shard size")
            draws = np.arange(sizes[0])
        # a gather keeps the index array's memory order, and the products
        # over column-major rows can round differently from row-major ones
        rows = np.add(self.starts[clients, None], draws, order="C")
        feats, labels = self.features[rows], self.labels[rows]
        return _stacked(self.task, feats, labels, x, out, fed=self, at=clients)


def client_evaluation(
    fed: StackedFederation, x: ParamVector, gradients: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Every client's mean loss at x and, with gradients, its full gradient:
    entry i equals evaluate(task_i, data_i, x)[0] and row i
    full_gradient(task_i, data_i, x), bit for bit.

    One pass over `fed.eval_blocks`, the size groups' blocks of clients,
    one `_stacked` call a block; a data task takes a block's losses and
    gradients from one forward pass, and its weight decay is added while
    the block is in cache. A block of consecutive ids writes straight into
    the outputs, any other goes through a buffer. A wide model (`is_wide`)
    runs its blocks as up to W parts of consecutive blocks on the cores
    BLAS leaves idle (`run_parts`), each part with a buffer of its own; the
    parts own disjoint clients, so the split moves no bit.
    """
    x = _check_dim(fed.task, x)
    losses = np.empty(fed.N)
    grads = np.empty((fed.N, x.size)) if gradients else None
    # the decay multiplies x once, not once per block
    decay = fed.task.weight_decay * x if gradients and fed.task.weight_decay else None

    def part(blocks: list[tuple]) -> None:
        buffered = [ids.size for ids, _, _, at in blocks if not isinstance(at, slice)]
        buffer = np.empty((max(buffered), x.size)) if gradients and buffered else None
        for ids, f, y, at in blocks:
            view = isinstance(at, slice)
            g = (grads[at] if view else buffer[: ids.size]) if gradients else None
            block_losses = np.empty(ids.size)
            xs = np.broadcast_to(x, (ids.size, x.size))
            _stacked(fed.task, f, y, xs, g, block_losses, fed=fed, at=at)
            losses[at] = block_losses
            if gradients:
                if decay is not None:
                    g += decay
                if not view:
                    grads[at] = g

    run_parts(part, fed.eval_blocks, split=is_wide(x.size))
    return losses, grads


def weighted_dissimilarity(grads: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, float]:
    """(p-weighted mean gradient, sum_i p_i ||grad_i - mean||^2) of an (N, d)
    stack of client gradients; the gaps are formed one row block at a time,
    and a wide model's blocks run as up to W parts (`run_parts`), each with
    a scratch block of its own."""
    mean = p @ grads
    norms = np.empty(len(grads))
    d = grads.shape[1]

    def part(blocks: list[slice]) -> None:
        scratch = np.empty((blocks[0].stop - blocks[0].start, d))
        for b in blocks:
            gaps = np.subtract(grads[b], mean, out=scratch[: b.stop - b.start])
            gaps *= gaps
            gaps.sum(axis=1, out=norms[b])

    run_parts(part, row_blocks(len(grads), d), split=is_wide(d))
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
        raise ParameterError("curvature_range must satisfy 0 < lo <= hi", key="curvature_range")
    gen = as_generator(rng)
    centers = heterogeneity * gen.standard_normal((N, d))
    if not np.isfinite(centers).all():
        raise ParameterError("heterogeneity overflows the client centers", key="heterogeneity")
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
        raise ParameterError(f"unknown weights mode {weights!r}", key="weights")
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
    anchor_noise: float,
    rng: RngStream | np.random.Generator,
) -> Dataset:
    """n anchor points around the client optimum, spread by anchor_noise
    and recentred so their mean is c."""
    if n < 1:
        raise ParameterError("need n >= 1")
    gen = as_generator(rng)
    raw = task.center + anchor_noise * gen.standard_normal((n, task.dim))
    anchors = raw - raw.mean(axis=0) + task.center
    if not np.isfinite(anchors).all():
        raise ParameterError("anchor_noise overflows the anchor points", key="anchor_noise")
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


def load_idx_dataset(images_path: str, labels_path: str) -> Dataset:
    """Read an IDX image/label file pair; features are scaled into [0, 1],
    and the largest label sets the class count.

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
    return Dataset(features, labels.astype(np.int64), int(labels.max()) + 1 if n else 1)
