"""fedagm benchmark: one workload per call, metrics as one JSON line.

    python3 bench/run.py --workload logreg-eval --seed 1 --seconds 40 --trace 0
    python3 bench/selftest.py    # the benchmark's own check, at reduced sizes

Run from the root of a source checkout; the package is imported from
`src/`. The workload's configs are generated from `--seed` and run in
passes, back to back, until `--seconds` have passed (at least two passes,
so that every cell's metric digest can be compared across passes); before
every pass the configs are set up repeatedly for half a second
(`setup_s`). How the timings are taken from the passes is set out in
measure.py. Every cell's outputs are checked; a cell that raises,
diverges, changes digest or fails a check counts as failed.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs half the time
untraced and half with spans around the package's module boundaries (see
spans.py), and reports the per-layer metrics derived from those spans; the
spans are written to `.bench_out/` at the end. Human-readable lines come
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import os
import sys

# Pinned before NumPy loads: the BLAS pool would otherwise size itself to
# the machine, and the recorded environment must say what ran.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

E2E_UNITS = {
    "wall_s": "s",
    "rounds_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wall_median_s": "s",
    "rounds_per_s_median": "1/s",
    "final_test_acc": "ratio",
    "final_grad_norm_sq": "1",
    "failed_frac": "ratio",
}

# Declared in BENCHMARK.json and printed in the JSON result. The others are
# printed above the result line only: the medians over passes spread with
# the load of the shared host far more than wall_s and rounds_per_s (see
# measure.py); failed_frac is 0 on correct code and travels as the result's
# `failed`/`attempted`; final_test_acc is undefined on the quadratic
# workload; final_grad_norm_sq depends on the seed's problem instance far
# more than any bound could allow.
E2E_DECLARED = ("wall_s", "rounds_per_s", "setup_s", "peak_rss_mb")

LAYER_UNITS = {
    "numerics.generator.calls": "count",
    "numerics.generator.us_per_call": "us",
    "numerics.derive.calls": "count",
    "numerics.derive.us_per_call": "us",
    "sampling.sample_round.calls": "count",
    "sampling.sample_round.us_per_call": "us",
    "local.run_local.calls": "count",
    "local.run_local.self_us_per_call": "us",
    "local.inner_steps": "count",
    "tasks.stochastic_gradient.calls": "count",
    "tasks.stochastic_gradient.us_per_call": "us",
    "orchestrator.run_experiment.calls": "count",
    "orchestrator.run_experiment.self_share": "ratio",
    "orchestrator.eval.train_loss.us_per_call": "us",
    "orchestrator.eval.gradient_stats.us_per_call": "us",
    "orchestrator.eval.test_metrics.us_per_call": "us",
    "orchestrator.eval.share": "ratio",
    "orchestrator.eval.client_passes_per_eval": "count",
    "server.aggregate.us_per_call": "us",
    "server.server_step.calls": "count",
    "server.server_step.us_per_call": "us",
    "server.calibrate.us_per_call": "us",
    "config.parse_config.s": "s",
    "partition.partition.s": "s",
    "tasks.make_blobs_dataset.s": "s",
    "theory.estimate_problem_constants.s": "s",
    "serialize.write_metrics.s": "s",
    "serialize.save_model.s": "s",
    "serialize.write_json.s": "s",
    "serialize.bytes_written": "bytes",
    "cli.compare.busy_share": "ratio",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true", help="reduced sizes, for the self-test"
    )
    return parser.parse_args(argv)


def main(argv=None, tamper=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fedagm", "__init__.py")):
        print(f"no fedagm package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)

    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload](args.seed, small=args.small)
    os.environ["FEDOPT_THREADS"] = str(w.fedopt_threads)
    os.makedirs(OUT, exist_ok=True)

    print("env " + measure.json_line(measure.environment(ROOT, BLAS_THREAD_VARS)))
    if args.trace:
        result = measure.traced_run(w, args, OUT, tamper)
        measure.emit(w, args, result, LAYER_UNITS, LAYER_UNITS)
    else:
        result = measure.plain_run(w, args, OUT, tamper)
        measure.emit(w, args, result, E2E_UNITS, E2E_DECLARED)
    return 0


if __name__ == "__main__":
    sys.exit(main())
