"""The benchmark's workloads: configs generated from a seed, one pass each,
and the checks that decide whether a cell's outputs are correct.

A workload is a list of cells run back to back by one caller (a closed
loop). `quad-race` and `logreg-eval` call `parse_config` and
`run_experiment` in-process; `mlp-run` and `mlp-compare` go through
`fedagm.cli.main` and are checked from the files it writes. A pass is one
run of every cell; the same seed gives the same cells, so every pass of a
run must produce the same metric digests.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import shutil
import struct
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import fedagm.cli
import fedagm.config
import fedagm.orchestrator
from fedagm.errors import FedAgmError
from fedagm.serialize import RoundMetrics, load_model

NUM_CLASSES = 10


@dataclass
class Cell:
    """One (method, seed) experiment of a pass and what the checks made of it."""

    label: str
    rounds: int
    digest: str = ""
    final_test_acc: float = math.nan
    final_grad_norm_sq: float = math.nan
    error: str | None = None


@dataclass
class RunCall:
    """One `run_experiment` call: its thread, its span, and the cell it ran."""

    thread: int
    start: float
    end: float
    rounds: int
    eval_every: int
    cell: tuple


@dataclass
class Pass:
    """Timings and cells of one pass over a workload.

    `start` is the pass's perf_counter start, `runs` its run_experiment
    calls, and `stamps` the (thread, perf_counter) starts of its rounds (see
    RoundClock; empty in traced passes).
    """

    start: float
    wall_s: float
    runs: list[RunCall]
    cells: list[Cell]
    bytes_written: int = 0
    stamps: list[tuple[int, float]] = field(default_factory=list)

    @property
    def rounds_per_s(self) -> float:
        return sum(c.rounds for c in self.cells) / sum(r.end - r.start for r in self.runs)


@dataclass
class Workload:
    """A named set of cells built from a seed.

    `configs` are the cells' (label, config dict) pairs; building all of
    them is the workload's set-up. `cli_command` is "run" or "compare" for
    the workloads that go through `fedagm.cli.main`, which then writes the
    single config, or `manifest`, to a file and passes its path.
    """

    name: str
    configs: list[tuple[str, dict]]
    rounds: int
    fedopt_threads: int = 1
    cli_command: str | None = None
    manifest: dict | None = None
    model_dim: int = 0

    @property
    def quadratic(self) -> bool:
        """Quadratic tasks log no accuracy; the others are 10-class classifiers."""
        return self.configs[0][1]["task"]["kind"] == "quadratic"


# ---------------------------------------------------------------------------
# Config generation


QUAD_METHODS = [
    ("FedAvg", {"name": "FedAvg", "eta": 1.0}),
    ("FedMomentum", {"name": "FedMomentum", "eta": 1.0}),
    ("eps-FedAdam", {"name": "eps-FedAdam", "eta": 0.1}),
    ("p-FedAdam", {"name": "p-FedAdam", "eta": 0.1}),
    ("s-FedAdam", {"name": "s-FedAdam", "eta": 0.1}),
    # the max-tracking variant with eps-FedAdam's shift, as in acceptance test 08
    (
        "FedAMSGrad",
        {
            "kind": "amsgrad",
            "eta": 0.1,
            "beta1": 0.9,
            "beta2": 0.99,
            "calibration": {"scheme": "epsilon", "eps": 1e-2},
        },
    ),
]

COMPARE_METHODS = [
    {"name": "FedAvg", "eta": 1.0},
    {"name": "FedMomentum", "eta": 0.5},
    {"name": "s-FedAdam", "eta": 0.02},
    {"name": "FedYogi", "eta": 0.02},
]


def mlp_dim(features: int, hidden: int, classes: int = NUM_CLASSES) -> int:
    return hidden * (features + 1) + classes * (hidden + 1)


def quad_race(seed: int, small: bool = False) -> Workload:
    rounds = 200 if small else 2000
    base = {
        "seed": seed,
        "rounds": rounds,
        "eval_every": rounds,
        "task": {
            "kind": "quadratic",
            "num_clients": 20,
            "dim": 4,
            "heterogeneity": 1.0,
            "samples_per_client": 16,
        },
        "local": {"steps": 3, "gamma": 0.008, "batch_size": 8},
        "sampling": {"clients_per_round": 5},
        "schedules": {"gamma": {"kind": "multistage"}},
    }
    methods = QUAD_METHODS[:2] if small else QUAD_METHODS
    configs = [(label, {**copy.deepcopy(base), "server": sec}) for label, sec in methods]
    return Workload("quad-race", configs, rounds)


def logreg_eval(seed: int, small: bool = False) -> Workload:
    rounds = 20 if small else 200
    obj = {
        "seed": seed,
        "rounds": rounds,
        "eval_every": 1,
        "task": {
            "kind": "logistic",
            "weight_decay": 1e-3,
            "test_fraction": 0.2,
            "dataset": {
                "source": "blobs",
                "n": 2000,
                "num_classes": NUM_CLASSES,
                "num_features": 16,
                "center_spread": 0.5,
            },
        },
        "partition": {"scheme": "sort", "num_clients": 100, "classes_per_client": 2},
        "local": {"steps": 10, "gamma": 0.05, "batch_size": 8, "variant": "scaffold"},
        "sampling": {"clients_per_round": 30},
        "server": {"name": "s-FedAdam", "eta": 0.05},
    }
    return Workload("logreg-eval", [("s-FedAdam", obj)], rounds)


def mlp_run(seed: int, small: bool = False) -> Workload:
    features, hidden = (16, 32) if small else (128, 256)
    rounds = 10 if small else 100
    obj = {
        "seed": seed,
        "rounds": rounds,
        "eval_every": 10,
        "task": {
            "kind": "mlp",
            "hidden": hidden,
            "weight_decay": 1e-4,
            "test_fraction": 0.2,
            "dataset": {
                "source": "blobs",
                "n": 3000,
                "num_classes": NUM_CLASSES,
                "num_features": features,
                "center_spread": 0.15,
            },
        },
        "partition": {"scheme": "dirichlet", "num_clients": 50, "alpha": 0.3},
        "local": {"steps": 10, "gamma": 0.05, "batch_size": 16},
        "sampling": {"clients_per_round": 10},
        "server": {"name": "s-FedAdam", "eta": 0.01},
    }
    return Workload(
        "mlp-run",
        [("s-FedAdam", obj)],
        rounds,
        cli_command="run",
        model_dim=mlp_dim(features, hidden),
    )


def mlp_compare(seed: int, small: bool = False) -> Workload:
    rounds = 10 if small else 20
    base = {
        "rounds": rounds,
        "eval_every": 10,
        "task": {
            "kind": "mlp",
            "hidden": 48,
            "weight_decay": 1e-4,
            "test_fraction": 0.2,
            "dataset": {
                "source": "blobs",
                "n": 2000,
                "num_classes": NUM_CLASSES,
                "num_features": 64,
                "center_spread": 0.2,
            },
        },
        "partition": {"scheme": "dirichlet", "num_clients": 50, "alpha": 0.3},
        "local": {"steps": 10, "gamma": 0.05, "batch_size": 16},
        "sampling": {"clients_per_round": 10},
    }
    seeds = [seed, seed + 1]
    manifest = {"config": base, "methods": COMPARE_METHODS, "seeds": seeds}
    configs = [
        (f"{m['name']}_seed{s}", {**copy.deepcopy(base), "server": m, "seed": s})
        for m in COMPARE_METHODS
        for s in seeds
    ]
    return Workload(
        "mlp-compare",
        configs,
        rounds,
        fedopt_threads=len(os.sched_getaffinity(0)),
        cli_command="compare",
        manifest=manifest,
    )


WORKLOADS = {
    "quad-race": quad_race,
    "logreg-eval": logreg_eval,
    "mlp-run": mlp_run,
    "mlp-compare": mlp_compare,
}


# ---------------------------------------------------------------------------
# Checks


def rows_digest(rows) -> str:
    """Digest of metric rows: every logged float by its exact bit pattern."""
    h = hashlib.sha256()
    for r in rows:
        h.update(
            struct.pack(
                "<q6d", r.t, r.train_loss, r.test_acc, r.grad_norm_sq, r.sigma_g, r.gamma, r.eta
            )
        )
        h.update(",".join(map(str, r.clients)).encode())
    return h.hexdigest()


def check_rows(w: Workload, cell: Cell, rows, expect_rows: int) -> None:
    """Fill the cell's quality figures from its metric rows and record the first failure."""
    if not rows:
        cell.error = "no metric rows"
        return
    last = rows[-1]
    if not w.quadratic:
        cell.final_test_acc = float(last.test_acc)
    cell.final_grad_norm_sq = float(last.grad_norm_sq)
    if len(rows) != expect_rows or last.t != w.rounds - 1:
        cell.error = f"{len(rows)} rows ending at t={last.t}, expected {expect_rows} ending at {w.rounds - 1}"
    elif not all(math.isfinite(v) for r in rows for v in (r.train_loss, r.grad_norm_sq)):
        cell.error = "non-finite loss or gradient norm"
    elif w.quadratic:
        if not last.grad_norm_sq < rows[0].grad_norm_sq:
            cell.error = f"final ||grad||^2 {last.grad_norm_sq} not below initial {rows[0].grad_norm_sq}"
    elif not (math.isfinite(last.test_acc) and last.test_acc > 1.0 / NUM_CLASSES):
        cell.error = f"test accuracy {last.test_acc} not above chance"


def expected_rows(rounds: int, eval_every: int) -> int:
    return len([t for t in range(rounds) if t % eval_every == 0 or t == rounds - 1])


def read_metrics_csv(path: str) -> list[RoundMetrics]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        clients = [int(c) for c in f[7].split(";") if c]
        rows.append(RoundMetrics(int(f[0]), *(float(v) for v in f[1:7]), clients, float(f[8])))
    return rows


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


# ---------------------------------------------------------------------------
# Passes


class RunTimer:
    """Each `run_experiment` call as a RunCall; their times are the denominator of rounds/s."""

    def __init__(self, fn, tracer=None):
        self.fn = fn
        self.calls: list[RunCall] = []
        self.traced = tracer.wrap(fn, "orchestrator.run_experiment", cell=True) if tracer else fn

    def __call__(self, cfg, *args, **kwargs):
        start = time.perf_counter()
        try:
            return self.traced(cfg, *args, **kwargs)
        finally:
            self.calls.append(
                RunCall(
                    threading.get_ident(), start, time.perf_counter(), cfg.rounds,
                    cfg.eval_every, (cfg.seed, repr(cfg.server)),
                )
            )


class RoundClock:
    """Start time and thread of every round, recorded from outside the package.

    The round loop calls `fedagm.orchestrator.sample_round` once at the start
    of each round's training, after that round's evaluation; the clock puts a
    wrapper there that appends a (thread, perf_counter) stamp, well under a
    microsecond a round, and hands the call on.
    """

    def __init__(self):
        self.stamps: list[tuple[int, float]] = []
        self._fn = fedagm.orchestrator.sample_round

    def __enter__(self) -> "RoundClock":
        fn, stamps = self._fn, self.stamps

        def stamped(*args, **kwargs):
            stamps.append((threading.get_ident(), time.perf_counter()))
            return fn(*args, **kwargs)

        fedagm.orchestrator.sample_round = stamped
        return self

    def __exit__(self, *exc) -> None:
        fedagm.orchestrator.sample_round = self._fn


def run_pass(w: Workload, scratch: str, tracer=None, tamper=None) -> Pass:
    """Run every cell of the workload once and check its outputs.

    Untraced passes record round starts with a RoundClock. `tamper`, used by
    the self-test, gets each cell's outputs (the result object, or the
    output directory for CLI workloads) before the checks.
    """
    run = _run_inprocess if w.cli_command is None else _run_cli
    if tracer is not None:
        return run(w, scratch, tracer, tamper)
    with RoundClock() as clock:
        p = run(w, scratch, tracer, tamper)
    p.stamps = clock.stamps
    return p


def _run_inprocess(w: Workload, scratch: str, tracer, tamper) -> Pass:
    timer = RunTimer(fedagm.orchestrator.run_experiment, tracer)
    outcomes = []
    start = time.perf_counter()
    for label, obj in w.configs:
        try:
            outcomes.append((label, obj, timer(fedagm.config.parse_config(obj)), None))
        except Exception as exc:  # a cell that raises is a failed cell, not a dead run
            outcomes.append((label, obj, None, f"{type(exc).__name__}: {exc}"))
    wall = time.perf_counter() - start

    cells = []
    for label, obj, result, error in outcomes:
        cell = Cell(label, w.rounds, error=error)
        cells.append(cell)
        if result is None:
            continue
        if tamper is not None:
            tamper(result)
        cell.digest = rows_digest(result.metrics)
        if result.diverged:
            cell.error = f"diverged at round {result.divergence_round}"
            continue
        check_rows(w, cell, result.metrics, expected_rows(obj["rounds"], obj["eval_every"]))
    return Pass(start, wall, timer.calls, cells)


def _run_cli(w: Workload, scratch: str, tracer, tamper) -> Pass:
    out = tempfile.mkdtemp(prefix="pass-", dir=scratch)
    try:
        if w.cli_command == "run":
            _, obj = w.configs[0]
            src = os.path.join(out, "config.json")
            argv = ["run", src, "--out", os.path.join(out, "run")]
        else:
            obj = {**w.manifest, "out": os.path.join(out, "run")}
            src = os.path.join(out, "manifest.json")
            argv = ["compare", src]
        with open(src, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)

        timer = RunTimer(fedagm.cli.run_experiment, tracer)
        fedagm.cli.run_experiment = timer
        main = tracer.wrap(fedagm.cli.main, "cli.main") if tracer else fedagm.cli.main
        try:
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
            except Exception as exc:  # counted as a failed pass, like a nonzero exit
                code = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        finally:
            fedagm.cli.run_experiment = timer.fn

        run_dir = os.path.join(out, "run")
        written = _dir_bytes(run_dir) if os.path.isdir(run_dir) else 0
        if tamper is not None:
            tamper(run_dir)
        cells = _check_cli(w, run_dir, code)
        return Pass(start, wall, timer.calls, cells, written)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _check_cli(w: Workload, run_dir: str, code) -> list[Cell]:
    per_cell = expected_rows(w.rounds, w.configs[0][1]["eval_every"])
    if w.cli_command == "run":
        cells = [Cell(w.configs[0][0], w.rounds)]
        csvs = {cells[0].label: "metrics.csv"}
    else:
        cells = [Cell(label, w.rounds) for label, _ in w.configs]
        csvs = {c.label: c.label + ".csv" for c in cells}

    for cell in cells:
        if code != 0:
            cell.error = f"exit code {code}"
            continue
        try:
            with open(os.path.join(run_dir, csvs[cell.label]), "rb") as fh:
                cell.digest = hashlib.sha256(fh.read()).hexdigest()
            check_rows(w, cell, read_metrics_csv(os.path.join(run_dir, csvs[cell.label])), per_cell)
        except (OSError, ValueError, IndexError) as exc:
            cell.error = f"unreadable metrics: {exc}"
    if code != 0:
        return cells

    if w.cli_command == "run":
        try:
            x = load_model(os.path.join(run_dir, "model.bin"))
            if x.size != w.model_dim or not np.all(np.isfinite(x)):
                raise ValueError(f"{x.size} values (want {w.model_dim}), finite={np.all(np.isfinite(x))}")
            with open(os.path.join(run_dir, "bound_report.json"), encoding="utf-8") as fh:
                if "constants" not in json.load(fh):
                    raise ValueError("bound report has no constants")
        except (OSError, ValueError, FedAgmError) as exc:
            cells[0].error = cells[0].error or f"bad model or bound report: {exc}"
        return cells

    why = "missing"
    try:
        with open(os.path.join(run_dir, "summary.csv"), encoding="utf-8") as fh:
            rows = {f[0]: f for f in (line.split(",") for line in fh.read().splitlines()[1:])}
    except OSError as exc:
        rows = {}
        why = f"no summary.csv: {exc}"
    seeds = str(len(w.manifest["seeds"]))
    for cell in cells:
        method = cell.label.rsplit("_seed", 1)[0]
        row = rows.get(method)
        if row is None or len(row) != 5 or row[1] != seeds or row[4] != "0":
            cell.error = cell.error or f"summary.csv has no clean row for {method}: {row or why}"
    return cells
