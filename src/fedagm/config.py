"""JSON experiment configs -> runnable ExperimentConfig objects.

The format mirrors the module structure: a `task` section builds the
federated problem, `sampling`/`local`/`server` map one-to-one onto their
dataclasses, `schedules` holds the gamma and eta policies. `load_manifest`
and `load_partition_report` read the `compare` and `partition-report`
documents. Every validation failure, a non-finite number included, is raised
as ConfigError with the JSON path of the offending key, so a bad config
points at itself.
"""

from __future__ import annotations

import json
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FedAgmError
from .local import LocalConfig
from .numerics import RngStream, check_indexable
from .orchestrator import (
    TAG_DATA,
    TAG_PARTITION,
    ExperimentConfig,
    FederatedProblem,
    ScheduleSpec,
)
from .partition import ClientShard, PartitionSpec, partition
from .sampling import SamplingSpec
from .serialize import fmt17
from .server import Calibration, ServerOptimizer, named_optimizer, recover_baseline
from .tasks import (
    Dataset,
    LogisticRegressionTask,
    MlpTask,
    load_idx_dataset,
    make_blobs_dataset,
    make_quadratic_client_data,
    make_synthetic_federated_quadratic,
)

_REQUIRED = object()


def _get(section: dict, key: str, path: str, default=_REQUIRED):
    if key in section:
        return section[key]
    if default is _REQUIRED:
        raise ConfigError(f"{path}.{key}: missing required key")
    return default


def _check_number(value, where: str):
    """`value` if it is a JSON number in float range (json reads NaN, Infinity and 1e999)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # also false for NaN, which passes `<` checks
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return value


def _get_number(section, key, path, default=_REQUIRED, minimum=None):
    value = _check_number(_get(section, key, path, default), f"{path}.{key}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {value!r}")
    return value


_INT64 = range(-(2**63), 2**63)


def _check_int(value, where: str, minimum=None, int64=True):
    """`value` if it is a JSON integer of at least `minimum`. With int64 it
    must also fit in NumPy's int64, as every key that sizes an array must;
    only seeds, which are hashed as Python ints, take any size."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {value!r}")
    if int64 and value not in _INT64:
        raise ConfigError(f"{where}: expected an integer in int64 range, got {value!r}")
    return value


def _check_seed(value, where: str):
    return _check_int(value, where, int64=False)


def _get_int(section, key, path, default=_REQUIRED, minimum=None):
    return _check_int(_get(section, key, path, default), f"{path}.{key}", minimum)


def _get_bool(section, key, path, default=_REQUIRED):
    value = _get(section, key, path, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected true or false, got {value!r}")
    return value


def _get_list(section, key, path, default=_REQUIRED, item=_check_number):
    """A list whose every item passes `item` (finite numbers by default); a
    bad item is named by its index."""
    value = _get(section, key, path, default)
    if not isinstance(value, list):
        raise ConfigError(f"{path}.{key}: expected a list, got {value!r}")
    for i, entry in enumerate(value):
        item(entry, f"{path}.{key}[{i}]")
    return value


def _get_seeds(obj, path) -> list[int]:
    """A grid's seeds: a nonempty list of distinct integers, [0] when absent."""
    seeds = _get_list(obj, "seeds", path, default=[0], item=_check_seed)
    if not seeds:
        raise ConfigError(f"{path}.seeds: expected at least one seed")
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ConfigError(f"{path}.seeds[{i}]: seed {seed} is repeated")
    return list(seeds)


def _get_optional(reader, section, key, path, **kwargs):
    """`reader`'s value for `key`, or None when the key is absent or null."""
    return None if section.get(key) is None else reader(section, key, path, **kwargs)


def _get_str(section, key, path, default=_REQUIRED, choices=None):
    value = _get(section, key, path, default)
    if not isinstance(value, str):
        raise ConfigError(f"{path}.{key}: expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}.{key}: expected one of {sorted(choices)}, got {value!r}")
    return value


def _get_section(obj, key, path, default=_REQUIRED) -> dict:
    value = _get(obj, key, path, default)
    if not isinstance(value, dict):
        raise ConfigError(f"{path}.{key}: expected an object")
    return value


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, an integer of over 4300 digits, nesting
        # deeper than the interpreter's recursion limit
        raise ConfigError(f"{path}: {exc}") from exc


def _wrap(path: str, builder, *args, **kwargs):
    """Run a dataclass constructor, re-labelling its errors with the JSON path
    (of the key, when the error names one). At the root, path "", an error
    reads `config`, or the path of the key it names."""
    try:
        return builder(*args, **kwargs)
    except FedAgmError as exc:
        raise ConfigError(f"{'.'.join(filter(None, (path, exc.key))) or 'config'}: {exc}") from exc


def parse_calibration(section: dict, path: str) -> Calibration:
    scheme = _get_str(section, "scheme", path)
    kwargs = {key: _get_number(section, key, path) for key in ("eps", "p", "beta") if key in section}
    return _wrap(path, Calibration, scheme, **kwargs)


def parse_server(section: dict, path: str) -> ServerOptimizer:
    """A preset `name` or an explicit `kind`; the keys given override the
    preset's parameters, and an absent key keeps the preset's or
    ServerOptimizer's default."""
    build, head = (named_optimizer, "name") if "name" in section else (ServerOptimizer, "kind")
    name_or_kind = _get_str(section, head, path)
    eta = float(_get_number(section, "eta", path))
    given = {key: float(_get_number(section, key, path)) for key in ("beta1", "beta2") if key in section}
    if "calibration" in section:
        given["calibration"] = parse_calibration(
            _get_section(section, "calibration", path), path + ".calibration"
        )
    return _wrap(path, build, name_or_kind, eta, **given)


def parse_schedule(section: dict, path: str) -> ScheduleSpec:
    kwargs = {"kind": _get_str(section, "kind", path)}
    if "decay" in section:
        kwargs["decay"] = float(_get_number(section, "decay", path))
    if "fractions" in section:
        kwargs["fractions"] = tuple(float(f) for f in _get_list(section, "fractions", path))
    if "patience" in section:
        kwargs["patience"] = _get_int(section, "patience", path)
    if "factor" in section:
        kwargs["factor"] = float(_get_number(section, "factor", path))
    return _wrap(path, ScheduleSpec, **kwargs)


def parse_local(section: dict, path: str) -> LocalConfig:
    return _wrap(
        path,
        LocalConfig,
        K=_get_int(section, "steps", path, minimum=1),
        gamma=float(_get_number(section, "gamma", path)),
        batch_size=_get_int(section, "batch_size", path),
        variant=_get_str(section, "variant", path, default="sgd"),
        prox_mu=float(_get_number(section, "prox_mu", path, default=0.0)),
        epoch_mode=_get_bool(section, "epoch_mode", path, default=False),
    )


def parse_sampling(section: dict, path: str) -> SamplingSpec:
    return _wrap(
        path,
        SamplingSpec,
        S=_get_int(section, "clients_per_round", path, minimum=1),
        mode=_get_str(section, "mode", path, default="weighted"),
    )


def parse_partition(section: dict, path: str) -> PartitionSpec:
    groups = _get_optional(_get_list, section, "class_groups", path, item=_check_int)
    return _wrap(
        path,
        PartitionSpec,
        scheme=_get_str(section, "scheme", path),
        N=_get_int(section, "num_clients", path, minimum=1),
        alpha=_get_optional(_get_number, section, "alpha", path),
        classes_per_client=_get_optional(_get_int, section, "classes_per_client", path),
        balance=_get_str(section, "balance", path, default="equal"),
        class_groups=np.asarray(groups, dtype=np.int64) if groups is not None else None,
    )


def build_dataset(section: dict, path: str, seed: int, base_dir: str = ".") -> Dataset:
    source = _get_str(section, "source", path, choices=("blobs", "idx"))
    if source == "blobs":
        return _wrap(
            path,
            make_blobs_dataset,
            n=_get_int(section, "n", path, minimum=1),
            num_classes=_get_int(section, "num_classes", path, minimum=2),
            num_features=_get_int(section, "num_features", path, minimum=1),
            rng=RngStream(seed).derive(TAG_DATA, 1),
            center_spread=float(_get_number(section, "center_spread", path, default=3.0)),
            noise=float(_get_number(section, "noise", path, default=1.0)),
        )
    images = os.path.join(base_dir, _get_str(section, "images", path))
    labels = os.path.join(base_dir, _get_str(section, "labels", path))
    return _wrap(path, load_idx_dataset, images, labels)


def partition_for_seed(data: Dataset, spec: PartitionSpec, seed: int) -> list[ClientShard]:
    """`data` cut into shards by `spec`, drawn from `seed`'s partition stream."""
    return _wrap("partition", partition, data, spec, RngStream(seed).derive(TAG_PARTITION))


def _split_train_test(data: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset | None]:
    if test_fraction <= 0.0:
        return data, None
    gen = RngStream(seed).derive(TAG_DATA, 2).generator()
    perm = gen.permutation(data.n)
    n_test = max(1, int(round(test_fraction * data.n)))
    if n_test >= data.n:
        raise ConfigError("task.test_fraction: leaves no training data")
    return data.subset(perm[n_test:]), data.subset(perm[:n_test])


def build_problem(obj: dict, seed: int, base_dir: str = ".") -> FederatedProblem:
    task_sec = _get_section(obj, "task", "config")
    kind = _get_str(task_sec, "kind", "task", choices=("quadratic", "logistic", "mlp"))

    if kind == "quadratic":
        N = _get_int(task_sec, "num_clients", "task", minimum=1)
        dim = _get_int(task_sec, "dim", "task", minimum=1)
        het = float(_get_number(task_sec, "heterogeneity", "task", minimum=0.0))
        crange = _get_list(task_sec, "curvature_range", "task", default=[0.5, 2.0])
        if len(crange) != 2:
            raise ConfigError("task.curvature_range: expected [low, high]")
        samples = _get_int(task_sec, "samples_per_client", "task", default=64, minimum=1)
        noise = float(_get_number(task_sec, "anchor_noise", "task", default=1.0, minimum=0.0))
        wd = float(_get_number(task_sec, "weight_decay", "task", default=0.0, minimum=0.0))
        mode = _get_str(task_sec, "weights", "task", default="equal")
        # the (N * n, d) anchor rows, no fewer than the (N, d) centres
        sizes = {"num_clients": N, "samples_per_client": samples, "dim": dim}
        _wrap("task", check_indexable, N * samples * dim, sizes)
        stream = RngStream(seed).derive(TAG_DATA)
        tasks, p = _wrap(
            "task",
            make_synthetic_federated_quadratic,
            N,
            dim,
            het,
            stream.derive(1),
            curvature_range=(float(crange[0]), float(crange[1])),
            weight_decay=wd,
            weights=mode,
        )
        shards = [
            ClientShard(
                _wrap("task", make_quadratic_client_data, tasks[i], samples, noise, stream.derive(2, i)),
                float(p[i]),
            )
            for i in range(N)
        ]
        return FederatedProblem(tasks, shards)

    data = build_dataset(_get_section(task_sec, "dataset", "task"), "task.dataset", seed, base_dir)
    wd = float(_get_number(task_sec, "weight_decay", "task", default=0.0, minimum=0.0))
    # an IDX dataset's labels set num_classes, which may be 1
    features, classes = data.features.shape[1], data.num_classes
    if kind == "logistic":
        task = _wrap("task", LogisticRegressionTask, features, classes, weight_decay=wd)
    else:
        hidden = _get_int(task_sec, "hidden", "task", minimum=1)
        task = _wrap("task", MlpTask, features, hidden, classes, weight_decay=wd)
        _wrap("task", check_indexable, task.dim, {"hidden": hidden})
    test_fraction = float(_get_number(task_sec, "test_fraction", "task", default=0.2))
    train, test = _split_train_test(data, test_fraction, seed)
    spec = parse_partition(_get_section(obj, "partition", "config"), "partition")
    return FederatedProblem([task] * spec.N, partition_for_seed(train, spec, seed), test_data=test)


def parse_config(obj: dict, base_dir: str = ".") -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config: top level must be a JSON object")
    seed = _check_seed(_get(obj, "seed", "config", default=0), "config.seed")
    problem = build_problem(obj, seed, base_dir)
    schedules = _get_section(obj, "schedules", "config", default={})
    gamma_sched = ScheduleSpec()
    eta_sched = ScheduleSpec()
    if "gamma" in schedules:
        gamma_sched = parse_schedule(_get_section(schedules, "gamma", "schedules"), "schedules.gamma")
    if "eta" in schedules:
        eta_sched = parse_schedule(_get_section(schedules, "eta", "schedules"), "schedules.eta")
    return _wrap(
        "",
        ExperimentConfig,
        problem=problem,
        local=parse_local(_get_section(obj, "local", "config"), "local"),
        sampling=parse_sampling(_get_section(obj, "sampling", "config"), "sampling"),
        server=parse_server(_get_section(obj, "server", "config"), "server"),
        rounds=_get_int(obj, "rounds", "config", minimum=1),
        seed=seed,
        gamma_schedule=gamma_sched,
        eta_schedule=eta_sched,
        eval_every=_get_int(obj, "eval_every", "config", default=1, minimum=1),
    )


def _safe_name(label: str) -> str:
    """`label` as a file-name stem."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label)


@dataclass
class CompareManifest:
    """Grid description for the comparison harness.

    `base` carries the first method's server section, so it parses as it
    stands; every cell runs the seed's parsed config with its own method.
    `methods` holds each method's (label, file stem, optimizer).
    """

    base: dict
    methods: list[tuple[str, str, ServerOptimizer]]
    seeds: list[int]
    out: str
    base_dir: str = "."


def load_manifest(path: str) -> CompareManifest:
    obj = load_json_file(path)
    if not isinstance(obj, dict):
        raise ConfigError("manifest: expected a JSON object")
    base_dir = os.path.dirname(os.path.abspath(path))
    base = _get(obj, "config", "manifest")
    if isinstance(base, str):
        base_path = os.path.join(base_dir, base)
        base = load_json_file(base_path)
        base_dir = os.path.dirname(os.path.abspath(base_path))
    if not isinstance(base, dict):
        raise ConfigError("manifest.config: expected a path or an inline config object")
    methods_raw = _get(obj, "methods", "manifest")
    if not isinstance(methods_raw, list) or not methods_raw:
        raise ConfigError("manifest.methods: expected a nonempty list")
    # Cells are keyed by file stem and seed: a repeat of either would
    # overwrite a cell's files and pool two methods' rows in summary.csv.
    methods = []
    for i, sec in enumerate(methods_raw):
        where = f"manifest.methods[{i}]"
        if not isinstance(sec, dict):
            raise ConfigError(f"{where}: expected an object")
        opt = parse_server(sec, where)
        label = _get_optional(_get_str, sec, "label", where) or sec.get("name") or recover_baseline(opt)
        stem = _safe_name(label)
        for first, (other, other_stem, _) in enumerate(methods):
            if stem == other_stem:
                raise ConfigError(
                    f"{where}: label {label!r} names the same files as "
                    f"manifest.methods[{first}] ({other!r})"
                )
        methods.append((label, stem, opt))
    seeds = _get_seeds(obj, "manifest")
    out = _get_str(obj, "out", "manifest", default="compare-out")
    base = {**base, "server": methods_raw[0]}
    return CompareManifest(base=base, methods=methods, seeds=seeds, out=out, base_dir=base_dir)


@dataclass
class PartitionReport:
    """Grid description for the partition report: one dataset per seed.

    `grid` holds each report's (file stem, alpha or None, spec): one entry
    per `alpha_grid` item, which replaces `partition.alpha`, or else the
    `partition` section as it stands.
    """

    dataset: dict
    grid: list[tuple[str, float | None, PartitionSpec]]
    seeds: list[int]
    out: str
    base_dir: str = "."


def load_partition_report(path: str) -> PartitionReport:
    obj = load_json_file(path)
    if not isinstance(obj, dict):
        raise ConfigError("config: expected a JSON object")
    task_sec = obj.get("task")
    dataset = obj.get("dataset") or (isinstance(task_sec, dict) and task_sec.get("dataset"))
    if not isinstance(dataset, dict):
        raise ConfigError("config: needs a 'dataset' object (or task.dataset)")
    part_sec = _get_section(obj, "partition", "config")
    seeds = _get_seeds(obj, "config")
    alpha_grid = _get_optional(_get_list, obj, "alpha_grid", "config")
    out = _get_str(obj, "out", "config", default="partition-out")
    if alpha_grid is None:
        spec = parse_partition(part_sec, "partition")
        alphas = [spec.alpha] if spec.scheme == "dirichlet" else [None]
        specs = [spec]
    else:
        scheme = _get_str(part_sec, "scheme", "partition")
        if scheme != "dirichlet":
            raise ConfigError(f"config.alpha_grid: needs the dirichlet scheme, got {scheme!r}")
        if not alpha_grid:
            raise ConfigError("config.alpha_grid: expected at least one alpha")
        for i, alpha in enumerate(alpha_grid):
            if alpha <= 0:
                raise ConfigError(f"config.alpha_grid[{i}]: expected an alpha > 0, got {alpha!r}")
        alphas = [float(a) for a in alpha_grid]
        specs = [parse_partition({**part_sec, "alpha": a}, "partition") for a in alphas]
    grid = [
        (f"partition_{_safe_name(spec.scheme if a is None else f'alpha{fmt17(a)}')}", a, spec)
        for a, spec in zip(alphas, specs)
    ]
    base_dir = os.path.dirname(os.path.abspath(path))
    return PartitionReport(dataset=dataset, grid=grid, seeds=seeds, out=out, base_dir=base_dir)
