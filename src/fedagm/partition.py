"""Split one dataset into N client shards with controllable non-IIDness.

Three schemes:

* dirichlet  each client draws class proportions q ~ Dir(alpha * 1_C) and
             fills an equal quota with those proportions (small alpha ->
             near single-class clients, large alpha -> near IID);
* sort       label-sorted data cut into N * classes_per_client single-class
             slots, dealt contiguously so each client sees at most
             classes_per_client distinct labels;
* uniform    shuffled equal slices, the IID control.

Shards are disjoint; at most N - 1 samples are dropped to keep quotas equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructuralError
from .numerics import RngStream, as_generator, sample_dirichlet
from .serialize import atomic_write_text, fmt17
from .tasks import Dataset

SCHEMES = ("dirichlet", "sort", "uniform")
BALANCES = ("equal", "proportional")


@dataclass
class PartitionSpec:
    """How to cut a dataset into client shards.

    `class_groups` optionally maps each class id to a coarse group id; the
    Dirichlet draw is then taken over groups and spread uniformly over the
    member classes, which models datasets whose many labels form a few
    broad families. Group ids are replaced by their ranks among the ids in
    use, so only the groups that hold a class enter the draw.
    """

    scheme: str
    N: int
    alpha: float | None = None
    classes_per_client: int | None = None
    balance: str = "equal"
    class_groups: np.ndarray | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ParameterError(
                f"scheme must be one of {SCHEMES}, got {self.scheme!r}", key="scheme"
            )
        if self.balance not in BALANCES:
            raise ParameterError(
                f"balance must be one of {BALANCES}, got {self.balance!r}", key="balance"
            )
        if self.N < 1:
            raise ParameterError("N must be >= 1")
        if self.scheme == "dirichlet":
            if self.alpha is None or not 0 < self.alpha < np.inf:
                raise ParameterError("dirichlet scheme needs a finite alpha > 0", key="alpha")
        if self.scheme == "sort":
            if self.classes_per_client is None or self.classes_per_client < 1:
                raise ParameterError(
                    "sort scheme needs classes_per_client >= 1", key="classes_per_client"
                )
        if self.class_groups is not None:
            self.class_groups = np.asarray(self.class_groups, dtype=np.int64)
            if np.any(self.class_groups < 0):
                raise ParameterError("class_groups must hold group ids >= 0", key="class_groups")
            self.class_groups = np.unique(self.class_groups, return_inverse=True)[1]


@dataclass
class ClientShard:
    """One client's local data, its sampling weight, and where it came from."""

    data: Dataset
    weight: float
    indices: np.ndarray | None = None


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer apportionment of `total` proportional to `weights` (sum preserved)."""
    w = np.asarray(weights, dtype=np.float64)
    if total == 0 or w.sum() == 0:
        return np.zeros(w.size, dtype=np.int64)
    exact = total * w / w.sum()
    counts = np.floor(exact).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        # np.argsort is stable, so ties break toward lower class ids.
        order = np.argsort(-(exact - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def _class_pools(labels: np.ndarray, num_classes: int, gen: np.random.Generator):
    """Per-class index pools, each pre-shuffled; consumed from the front."""
    pools = []
    for c in range(num_classes):
        members = np.flatnonzero(labels == c)
        pools.append(gen.permutation(members))
    return pools, [0] * num_classes


def _client_class_probs(spec: PartitionSpec, num_classes: int, gen) -> np.ndarray:
    if spec.class_groups is None:
        return sample_dirichlet(gen, spec.alpha, num_classes, key="alpha")
    groups = spec.class_groups
    if groups.size != num_classes:
        raise StructuralError(
            f"class_groups has {groups.size} entries, dataset has {num_classes} classes",
            key="class_groups",
        )
    sizes = np.bincount(groups)
    q_group = sample_dirichlet(gen, spec.alpha, sizes.size, key="alpha")
    return q_group[groups] / sizes[groups]


def _fill_quota(q: np.ndarray, quota: int, pools, cursors) -> list[int]:
    """Draw `quota` indices with target class proportions q, respecting stock.

    When a class runs dry the shortfall is re-apportioned over the classes
    that still have stock, proportionally to the residual q (uniformly if
    the residual mass there is zero).
    """
    taken: list[int] = []
    need = quota
    residual = q.copy()
    while need > 0:
        stock = np.array([len(p) - c for p, c in zip(pools, cursors)], dtype=np.int64)
        open_classes = stock > 0
        if not open_classes.any():
            raise StructuralError("ran out of samples while filling a client quota")
        weights = np.where(open_classes, residual, 0.0)
        if weights.sum() == 0:
            weights = open_classes.astype(np.float64)
        want = _largest_remainder(weights, need)
        got = np.minimum(want, stock)
        for c in np.flatnonzero(got):
            k = int(got[c])
            taken.extend(pools[c][cursors[c] : cursors[c] + k])
            cursors[c] += k
            residual[c] = 0.0 if cursors[c] >= len(pools[c]) else residual[c]
        need -= int(got.sum())
    return taken


def _partition_dirichlet(data: Dataset, spec: PartitionSpec, gen) -> list[np.ndarray]:
    pools, cursors = _class_pools(data.labels, data.num_classes, gen)
    quota = data.n // spec.N
    out = []
    for _ in range(spec.N):
        q = _client_class_probs(spec, data.num_classes, gen)
        out.append(np.array(_fill_quota(q, quota, pools, cursors), dtype=np.int64))
    return out

def _partition_sort(data: Dataset, spec: PartitionSpec) -> list[np.ndarray]:
    """Label-sorted single-class slots dealt contiguously, cpc per client."""
    cpc = spec.classes_per_client
    total_slots = spec.N * cpc
    counts = np.bincount(data.labels, minlength=data.num_classes)
    slots_per_class = _largest_remainder(counts.astype(np.float64), total_slots)
    if np.any(slots_per_class > counts):
        raise StructuralError(
            "more slots than samples in some class; lower num_clients or classes_per_client",
            key="classes_per_client",
        )

    order = np.argsort(data.labels, kind="stable")
    slots: list[np.ndarray] = []
    start = 0
    for c in range(data.num_classes):
        block = order[start : start + counts[c]]
        start += counts[c]
        k = int(slots_per_class[c])
        if k:
            slots.extend(np.array_split(block, k))
    out = []
    for i in range(spec.N):
        out.append(np.concatenate(slots[i * cpc : (i + 1) * cpc]))
    return out


def _partition_uniform(data: Dataset, spec: PartitionSpec, gen) -> list[np.ndarray]:
    quota = data.n // spec.N
    perm = gen.permutation(data.n)
    return [perm[i * quota : (i + 1) * quota] for i in range(spec.N)]


def partition(
    data: Dataset, spec: PartitionSpec, rng: RngStream | np.random.Generator
) -> list[ClientShard]:
    """Cut `data` into N disjoint shards as directed by `spec`."""
    if spec.N > data.n:
        raise StructuralError(
            f"cannot split {data.n} samples across {spec.N} clients", key="num_clients"
        )
    if spec.scheme == "sort" and spec.classes_per_client > data.num_classes:
        raise ParameterError(
            "classes_per_client exceeds the number of classes", key="classes_per_client"
        )
    gen = as_generator(rng)
    if spec.scheme == "dirichlet":
        index_sets = _partition_dirichlet(data, spec, gen)
    elif spec.scheme == "sort":
        index_sets = _partition_sort(data, spec)
    else:
        index_sets = _partition_uniform(data, spec, gen)

    sizes = np.array([idx.size for idx in index_sets], dtype=np.float64)
    if np.any(sizes == 0):
        raise StructuralError("partition produced an empty shard")
    if spec.balance == "equal":
        weights = np.full(spec.N, 1.0 / spec.N)
    else:
        weights = sizes / sizes.sum()
    shards = []
    for idx, w in zip(index_sets, weights):
        ordered = np.sort(idx)
        shards.append(ClientShard(data.subset(ordered), float(w), indices=ordered))
    return shards


def empirical_label_histogram(shards: list[ClientShard], num_classes: int) -> np.ndarray:
    """Row i = client i's normalized class counts; an empty row stays all zero."""
    hist = np.zeros((len(shards), num_classes))
    for i, shard in enumerate(shards):
        counts = np.bincount(shard.data.labels, minlength=num_classes).astype(np.float64)
        if counts.sum() > 0:
            hist[i] = counts / counts.sum()
    return hist


def mean_label_entropy(hist: np.ndarray) -> float:
    """Mean over clients of the label-distribution entropy, in nats."""
    safe = np.where(hist > 0, hist, 1.0)
    return float(np.mean(-(hist * np.log(safe)).sum(axis=1)))


def write_partition_report(path: str, shards: list[ClientShard], num_classes: int) -> None:
    """CSV with one row per client: raw class counts then the weight p_i."""
    header = ["client"] + [f"class_{c}" for c in range(num_classes)] + ["p"]
    lines = [",".join(header)]
    for i, shard in enumerate(shards):
        counts = np.bincount(shard.data.labels, minlength=num_classes)
        lines.append(",".join([str(i)] + [str(int(c)) for c in counts] + [fmt17(shard.weight)]))
    atomic_write_text(path, "\n".join(lines) + "\n")
