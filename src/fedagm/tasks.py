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

import numpy as np

from .errors import NumericError, ParameterError, StructuralError
from .numerics import ParamVector, RngStream, as_generator


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
        if np.any(self.curvature <= 0):
            raise ParameterError("quadratic curvature must be strictly positive")
        if self.weight_decay < 0:
            raise ParameterError("weight_decay must be >= 0")

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
        if self.weight_decay < 0:
            raise ParameterError("weight_decay must be >= 0")

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
        if self.weight_decay < 0:
            raise ParameterError("weight_decay must be >= 0")

    @property
    def dim(self) -> int:
        h, p, c = self.hidden, self.num_features, self.num_classes
        return h * p + h + c * h + c

    def unpack(self, x: ParamVector):
        h, p, c = self.hidden, self.num_features, self.num_classes
        i0, i1, i2 = h * p, h * p + h, h * p + h + c * h
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


def _softmax_ce(logits: np.ndarray, labels: np.ndarray):
    """Row-wise softmax probabilities and mean cross-entropy loss."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    expl = np.exp(shifted)
    total = expl.sum(axis=1, keepdims=True)
    probs = expl / total
    rows = np.arange(labels.size)
    logp = shifted[rows, labels] - np.log(total[:, 0])
    return probs, float(-np.mean(logp))


def _logistic_loss_grad(task: LogisticRegressionTask, feats, labels, x):
    w = x.reshape(task.num_classes, task.num_features)
    logits = feats @ w.T
    probs, loss = _softmax_ce(logits, labels)
    probs[np.arange(labels.size), labels] -= 1.0
    grad = (probs.T @ feats) / labels.size
    return loss, grad.ravel()


def _mlp_loss_grad(task: MlpTask, feats, labels, x):
    w1, b1, w2, b2 = task.unpack(x)
    a1 = np.tanh(feats @ w1.T + b1)
    logits = a1 @ w2.T + b2
    probs, loss = _softmax_ce(logits, labels)
    n = labels.size
    probs[np.arange(n), labels] -= 1.0
    dlogits = probs / n
    gw2 = dlogits.T @ a1
    gb2 = dlogits.sum(axis=0)
    dz1 = (dlogits @ w2) * (1.0 - a1 * a1)
    gw1 = dz1.T @ feats
    gb1 = dz1.sum(axis=0)
    return loss, np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2])


def _quadratic_sample_losses(task: QuadraticTask, feats, x):
    dx = x - feats
    dz = feats - task.center
    return 0.5 * ((dx * dx) @ task.curvature - (dz * dz) @ task.curvature)


def _data_grad(task: Task, feats, labels, x):
    """Mean gradient over the given rows, without weight decay."""
    if isinstance(task, QuadraticTask):
        return task.curvature * (x - feats.mean(axis=0))
    if isinstance(task, LogisticRegressionTask):
        return _logistic_loss_grad(task, feats, labels, x)[1]
    if isinstance(task, MlpTask):
        return _mlp_loss_grad(task, feats, labels, x)[1]
    raise StructuralError(f"unknown task kind {task!r}")


def full_gradient(task: Task, data: Dataset | None, x: ParamVector) -> ParamVector:
    """Exact gradient of the client objective, weight decay included.

    Quadratics are analytic and need no data; the other kinds average over
    every dataset row.
    """
    x = _check_dim(task, x)
    if isinstance(task, QuadraticTask):
        base = task.curvature * (x - task.center)
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
    _, loss = _softmax_ce(logits, data.labels)
    accuracy = float(np.mean(np.argmax(logits, axis=1) == data.labels))
    return loss, accuracy


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
