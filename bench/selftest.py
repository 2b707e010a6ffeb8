"""Self-test of the benchmark at reduced sizes.

    python3 bench/selftest.py

For every workload, in both modes, the benchmark must print every metric
with its unit and end with a JSON result that carries exactly the metrics
BENCHMARK.json declares, with their units and no failed cell; untraced
timings must be best-of-run figures except under the compare pool. Then one
output per workload is corrupted, and the result must count the corrupted
cells as failed. Last, the benchmark must refuse to run, with a nonzero
exit code and no result, from a directory that holds no fedagm sources.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import run

SECONDS = "0.5"


def invoke(workload: str, trace: int, tamper=None) -> tuple[list[str], dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(
            ["--workload", workload, "--seed", "3", "--seconds", SECONDS,
             "--trace", str(trace), "--small"],
            tamper=tamper,
        )
    lines = buf.getvalue().splitlines()
    if code != 0:
        raise AssertionError(f"{workload}: exit code {code}")
    return lines, json.loads(lines[-1])


def check_metrics(workload: str, trace: int, declared: dict, units: dict, problems: list,
                  timing: str | None = None) -> None:
    lines, result = invoke(workload, trace)
    tag = f"{workload} trace={trace}"
    said = [line.split(": ", 1)[1] for line in lines if line.startswith("timings: ")]
    if timing is not None and said != [timing]:
        problems.append(f"{tag}: timings taken as {said}, expected {timing!r}")
    printed = {parts[0]: parts[2] for parts in (line.split() for line in lines) if len(parts) >= 3}
    for name, unit in units.items():
        if printed.get(name) != unit:
            problems.append(f"{tag}: no printed line for {name} in {unit}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        problems.append(f"{tag}: result metrics {got} differ from BENCHMARK.json {declared}")
    if any(not math.isfinite(v["value"]) for v in result["metrics"].values()):
        problems.append(f"{tag}: non-finite metric value")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{tag}: expected a clean result, got {result}")


def _nan_last_row(result) -> None:
    result.metrics[-1].grad_norm_sq = float("nan")


def _drift_second_pass():
    """Perturbs the rows of every pass after the first: only the digest check sees it."""
    calls = []

    def tamper(result):
        calls.append(1)
        if len(calls) > 1:
            result.metrics[-1].train_loss += 1e-12

    return tamper


def _truncate_model(run_dir: str) -> None:
    path = os.path.join(run_dir, "model.bin")
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[:-8])


def _fail_summary(run_dir: str) -> None:
    path = os.path.join(run_dir, "summary.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fields = lines[1].split(",")
    fields[-1] = "1"
    lines[1] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


CORRUPTIONS = [
    ("quad-race", "non-finite gradient norm in the last row", _nan_last_row),
    ("logreg-eval", "rows that change between passes", _drift_second_pass()),
    ("mlp-run", "a truncated model.bin", _truncate_model),
    ("mlp-compare", "a summary.csv that reports a failure", _fail_summary),
]


def check_corruption(workload: str, what: str, tamper, problems: list) -> None:
    lines, result = invoke(workload, 0, tamper)
    frac = [float(line.split()[1]) for line in lines if line.split()[:1] == ["failed_frac"]]
    expected = result["failed"] / max(result["attempted"], 1)
    if result["correct"] or result["failed"] == 0 or not frac or abs(frac[0] - expected) > 1e-5:
        problems.append(f"{workload}: {what} was not counted as a failure ({result})")


def check_refuses_without_sources(problems: list) -> None:
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        here = os.path.dirname(os.path.abspath(__file__))
        shutil.copytree(here, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "quad-race", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode == 0 or proc.stdout.strip().startswith("{") or '"correct"' in proc.stdout:
            problems.append(f"run without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    os.makedirs(run.OUT, exist_ok=True)
    sys.path.insert(0, run.SRC)
    from workloads import WORKLOADS

    problems: list[str] = []
    for name, make in WORKLOADS.items():
        # a pool's passes are not cut into pieces (see measure.py)
        timing = "median pass" if make(3, small=True).fedopt_threads > 1 else "best of the run"
        check_metrics(name, 0, declared[0], run.E2E_UNITS, problems, timing)
        check_metrics(name, 1, declared[1], run.LAYER_UNITS, problems)
    for workload, what, tamper in CORRUPTIONS:
        check_corruption(workload, what, tamper, problems)
    check_refuses_without_sources(problems)
    for p in problems:
        print("FAIL " + p)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
