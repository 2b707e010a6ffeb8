"""Passes, timing, and the metrics derived from them.

`plain_run` gives the end-to-end metrics of an untraced run; `traced_run`
gives the per-layer metrics from spans (see spans.py). Both check every
cell of every pass; `emit` prints the metrics with their units and the
JSON result line.

The host is shared, and its neighbours slow a pass by up to 2x in phases
of seconds to minutes, so the median pass of a 40 s run mostly measures how
busy the neighbours were. Where a workload runs its cells on the calling
thread, `wall_s` and `rounds_per_s` are therefore best-of-run figures, as
`timeit` reports them: the pass is cut at the starts of its rounds (see
`pieces`), and every piece counts at the fastest time a piece of its kind
took in the run, which is close to what the program costs on a quiet core.
Where a pool runs the cells (mlp-compare), a piece's time depends on what
the other threads do, and the fastest pieces would hide the contention the
workload is there to show; there they are medians over passes, which the
pool's own contention keeps in one mode. `setup_s` is the fastest of the
set-ups timed before every pass. The medians over passes are printed for
every workload as `wall_median_s` and `rounds_per_s_median`.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import fedagm.config
from spans import SpanTable, Tracer
from workloads import Pass, Workload, run_pass

# Set-up is timed before every pass, for at least this many repeats and
# seconds; a repeat takes 4 to 100 ms.
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 0.5


def json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    """HEAD's commit read from .git, or 'unavailable' outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment(root: str, blas_vars) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": blas_build,
        "blas_threads": {v: os.environ.get(v) for v in blas_vars},
        "FEDOPT_THREADS": os.environ.get("FEDOPT_THREADS"),
        "git_commit": _git_commit(root),
    }


# ---------------------------------------------------------------------------
# Passes


def run_passes(w: Workload, out: str, seconds: float, min_passes: int, tracer=None, tamper=None,
               before=None):
    """Passes back to back until `seconds` are used; at least `min_passes`.

    `before`, if given, is called before every pass, inside the time.
    """
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or (
        time.perf_counter() + statistics.median(p.wall_s for p in passes) <= deadline
    ):
        if before is not None:
            before()
        passes.append(run_pass(w, out, tracer, tamper))
    return passes


def check_digests(passes: list[Pass]) -> None:
    """A run is a pure function of its config: every pass repeats pass 0's digests."""
    for p in passes[1:]:
        for cell, first in zip(p.cells, passes[0].cells):
            if cell.error is None and cell.digest != first.digest:
                cell.error = "metric digest differs from the first pass"


class SetupTimer:
    """Seconds to build every ExperimentConfig of one pass, once per repeat."""

    def __init__(self, w: Workload):
        self.configs = [obj for _, obj in w.configs]
        self.times: list[float] = []
        for obj in self.configs:  # warm-up: imports and lazy init are not set-up
            fedagm.config.parse_config(obj)

    def reps(self) -> None:
        start, n = time.perf_counter(), 0
        while n < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_SECONDS:
            t0 = time.perf_counter()
            for obj in self.configs:
                fedagm.config.parse_config(obj)
            self.times.append(time.perf_counter() - t0)
            n += 1


def pieces(p: Pass):
    """(kind, seconds) of an untraced pass cut at its round starts, or None.

    Only a pass that runs its cells one after the other on one thread is
    cut; in a pool, a piece's time depends on what the other threads do
    meanwhile. The piece from the start of round t-1 to the start of round t
    of a cell is round t-1's training plus round t's evaluation, if t is
    evaluated: its kind is (cell, whether t is evaluated), and pieces of one
    kind do the same work. The pieces before the first round (parse_config,
    the CLI's loading), between cells, and after the last round (the last
    round, the bound report, writing outputs) are kinds of their own, named
    by the cells on either side. A pass whose stamps do not match its cells'
    rounds (a cell that stopped early) is not cut.
    """
    if len({r.thread for r in p.runs}) != 1 or {th for th, _ in p.stamps} != {p.runs[0].thread}:
        return None
    stamps = [t for _, t in p.stamps]
    kinds, bounds, prev = [], [p.start], "start"
    for r in p.runs:
        mine = [t for t in stamps if r.start <= t <= r.end]
        if len(mine) != r.rounds:
            return None
        kinds.append(("edge", prev, r.cell))
        kinds += [
            ("round", r.cell, t % r.eval_every == 0 or t == r.rounds - 1) for t in range(1, r.rounds)
        ]
        bounds += mine
        prev = r.cell
    if len(bounds) != len(stamps) + 1:
        return None
    kinds.append(("edge", prev, "end"))
    bounds.append(p.start + p.wall_s)
    return [(k, b - a) for k, a, b in zip(kinds, bounds, bounds[1:])]


def best_of(passes: list[Pass]):
    """Best-of-run seconds per pass and rounds per second, or None.

    Each piece of a pass is replaced by the fastest piece of its kind in the
    whole run: the pass's best time is the sum over its pieces, and its best
    rounds/s the round pieces' count over their summed time. None where a
    pass cannot be cut.
    """
    cut = [pieces(p) for p in passes]
    if not all(cut):
        return None
    fastest: dict = {}
    for kind, seconds in itertools.chain.from_iterable(cut):
        fastest[kind] = min(fastest.get(kind, math.inf), seconds)
    kinds = [k for k, _ in cut[0]]
    rounds = [fastest[k] for k in kinds if k[0] == "round"]
    return sum(fastest[k] for k in kinds), len(rounds) / sum(rounds)


def _median_nan(values) -> float:
    values = [v for v in values if v == v]
    return statistics.median(values) if values else float("nan")


def plain_run(w: Workload, args, out: str, tamper) -> dict:
    setup = SetupTimer(w)
    passes = run_passes(w, out, args.seconds, 2, tamper=tamper, before=setup.reps)
    check_digests(passes)
    cells = [c for p in passes for c in p.cells]
    failed = sum(c.error is not None for c in cells)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    wall_median = statistics.median(p.wall_s for p in passes)
    rate_median = statistics.median(p.rounds_per_s for p in passes)
    best = best_of(passes)
    wall, rate = best if best is not None else (wall_median, rate_median)
    return {
        "passes": passes,
        "attempted": len(cells),
        "failed": failed,
        "timing": "best of the run" if best is not None else "median pass",
        "samples": {"default": len(passes), "setup_s": len(setup.times)},
        "metrics": {
            "wall_s": wall,
            "rounds_per_s": rate,
            "setup_s": min(setup.times),
            "peak_rss_mb": rss / 1024.0,
            "wall_median_s": wall_median,
            "rounds_per_s_median": rate_median,
            "final_test_acc": _median_nan(c.final_test_acc for c in passes[0].cells),
            "final_grad_norm_sq": _median_nan(c.final_grad_norm_sq for c in passes[0].cells),
            "failed_frac": failed / len(cells),
        },
    }


def traced_run(w: Workload, args, out: str, tamper) -> dict:
    """Half the time untraced, half traced; per-layer metrics from the traced half."""
    plain = run_passes(w, out, args.seconds / 2, 1, tamper=tamper)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(w, out, args.seconds / 2, 1, tracer=tracer, tamper=tamper)
    finally:
        tracer.uninstall()
    passes = plain + traced
    check_digests(passes)
    cells = [c for p in passes for c in p.cells]
    spans = tracer.spans()
    np.savez(
        os.path.join(out, f"spans-{w.name}-seed{args.seed}.npz"),
        names=np.array(tracer.names),
        **spans,
    )
    metrics = layer_metrics(w, SpanTable(spans, tracer.names), traced)
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in plain)
        - 1.0
    )
    return {
        "passes": passes,
        "attempted": len(cells),
        "failed": sum(c.error is not None for c in cells),
        "samples": {"default": len(traced), "trace.overhead_frac": len(passes)},
        "metrics": metrics,
    }


def layer_metrics(w: Workload, table: SpanTable, traced: list[Pass]) -> dict:
    n = len(traced)

    def per_call_us(name: str, total=None) -> float:
        calls = table.calls(name)
        return 1e6 * (table.total(name) if total is None else total) / calls if calls else 0.0

    run = table.total("orchestrator.run_experiment")
    evals = table.calls("orchestrator.eval.gradient_stats")
    eval_time = sum(
        table.total(f"orchestrator.eval.{k}") for k in ("train_loss", "gradient_stats", "test_metrics")
    )
    passes_over_clients = ["orchestrator.eval.train_loss", "orchestrator.eval.gradient_stats"]
    client_passes = table.calls_under("tasks.evaluate", passes_over_clients) + table.calls_under(
        "tasks.full_gradient", passes_over_clients
    )
    busy = 0.0
    if w.cli_command == "compare":
        busy = run / (table.total("cli.main") * w.fedopt_threads)

    m = {}
    for name in (
        "numerics.generator",
        "numerics.derive",
        "sampling.sample_round",
        "local.run_local",
        "tasks.stochastic_gradient",
        "orchestrator.run_experiment",
        "server.server_step",
    ):
        m[f"{name}.calls"] = table.calls(name) / n
    for name in (
        "numerics.generator",
        "numerics.derive",
        "sampling.sample_round",
        "tasks.stochastic_gradient",
        "orchestrator.eval.train_loss",
        "orchestrator.eval.gradient_stats",
        "orchestrator.eval.test_metrics",
        "server.aggregate",
        "server.server_step",
        "server.calibrate",
    ):
        m[f"{name}.us_per_call"] = per_call_us(name)
    m["local.run_local.self_us_per_call"] = per_call_us(
        "local.run_local", table.self_total("local.run_local")
    )
    m["local.inner_steps"] = table.calls_under("tasks.stochastic_gradient", ["local.run_local"]) / n
    m["orchestrator.run_experiment.self_share"] = (
        table.self_total("orchestrator.run_experiment") / run if run else 0.0
    )
    m["orchestrator.eval.share"] = eval_time / run if run else 0.0
    m["orchestrator.eval.client_passes_per_eval"] = client_passes / evals if evals else 0.0
    for name in (
        "config.parse_config",
        "partition.partition",
        "tasks.make_blobs_dataset",
        "theory.estimate_problem_constants",
        "serialize.write_metrics",
        "serialize.save_model",
        "serialize.write_json",
    ):
        m[f"{name}.s"] = table.total(name) / n
    m["serialize.bytes_written"] = statistics.median(p.bytes_written for p in traced)
    m["cli.compare.busy_share"] = busy
    return m


# ---------------------------------------------------------------------------
# Output


def emit(w: Workload, args, result: dict, units: dict, declared) -> None:
    """Print every metric with its unit, then the JSON result as the last line."""
    passes = result["passes"]
    failures = [
        f"pass {i} cell {c.label}: {c.error}"
        for i, p in enumerate(passes)
        for c in p.cells
        if c.error is not None
    ]
    for line in failures:
        print("FAILED " + line, file=sys.stderr)
    cells0 = passes[0].cells
    digest = json_line({c.label: c.digest[:16] for c in cells0})
    print(
        f"workload {w.name} seed {args.seed} trace {args.trace}: {len(passes)} passes, "
        f"{result['attempted']} cells attempted, {result['failed']} failed"
    )
    print(f"metrics_digest {digest}")
    if "timing" in result:
        print(f"timings: {result['timing']}")
    samples = result["samples"]
    for name, unit in units.items():
        n = samples.get(name, samples["default"])
        print(f"  {name:<46} {result['metrics'][name]:.6g} {unit}  (n={n})")
    metrics = {
        name: {"value": float(result["metrics"][name]), "unit": units[name]} for name in declared
    }
    print(
        json_line(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
