"""Command-line entry points.

fedagm run <config.json> [--out DIR] [--seed N] [--timing]
    One experiment; writes metrics.csv/.jsonl, model.bin, bound_report.json.
fedagm compare <manifest.json>
    Method grid x seeds; per-cell metric CSVs plus a mean +/- std summary
    table of final test accuracy.
fedagm partition-report <config.json>
    Per-client class histograms and an entropy summary over an alpha grid,
    from one dataset per seed.

Exit codes: 0 success, 1 bad config, 2 divergence; `main` reports every
ConfigError as `config error: ...` on stderr. `run` steps its sampled
clients in lockstep, and `compare` runs its cells one after another, seed
by seed; it parses each seed's config once, and every method runs on that
seed's problem. Everything runs on the calling thread but two kinds of
sweep. The local steps of any lockstep group whose (slots, d) arrays span
more than one `tasks.row_blocks` block (a 512 KiB budget) are split into
at most W parts, and W - 1 worker threads step all but the first; the
evaluation pass, the dissimilarity's gaps and the bound report's noise
probe split so only for a wide model (`tasks.is_wide`). W is the CPUs
this process may run on (`taskset` bounds them) divided by the threads of
NumPy's OpenBLAS, so the parts take only the cores BLAS leaves idle: with
`OPENBLAS_NUM_THREADS=1` the other cores go to fedagm, and with BLAS on
every core W is 1. The split moves no bit, as the parts
own disjoint rows and the stacked kernels give each slot the bits it gets
alone. No environment variable changes what a command computes or writes.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from .config import (
    build_dataset,
    load_json_file,
    load_manifest,
    load_partition_report,
    parse_config,
    partition_for_seed,
)
from .errors import ConfigError, FedAgmError
from .numerics import RngStream
from .orchestrator import (
    TAG_THEORY,
    ExperimentConfig,
    ExperimentResult,
    initial_point,
    run_experiment,
)
from .partition import empirical_label_histogram, mean_label_entropy, write_partition_report
from .serialize import atomic_write_text, fmt17, save_model, write_json, write_metrics
from .theory import (
    compute_V,
    estimate_problem_constants,
    mu_pair,
    rate_envelope,
    stepsize_admissible,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2


def _bound_report(cfg: ExperimentConfig, result: ExperimentResult) -> dict:
    """Admissibility and trend report for one finished run."""
    report: dict = {
        "method": result.method,
        "diverged": result.diverged,
        "divergence_round": result.divergence_round,
        "rounds_completed": len(result.metrics),
    }
    if result.diverged:
        # The run has blown up; constants probed at its final iterate are not estimates.
        report["notes"] = f"run diverged at round {result.divergence_round}; no constants estimated"
        if result.overflowed is not None:
            report["overflowed"] = result.overflowed
        return report
    try:
        x0 = initial_point(cfg)
        probes = [x0, result.final_x, 0.5 * (x0 + result.final_x)]
        c = estimate_problem_constants(
            cfg.problem,
            K=cfg.local.K,
            gamma=cfg.local.gamma,
            S=cfg.sampling.S,
            x_points=probes,
            rng=RngStream(cfg.seed).derive(TAG_THEORY),
            batch_size=cfg.local.batch_size,
        )
        V = compute_V(c)
        mu = mu_pair(cfg.server.calibration, V)
        ok, gamma_max = stepsize_admissible(c, mu)
        report.update(
            {
                "V": V,
                "mu_lower": mu.mu_lower,
                "mu_upper": mu.mu_upper,
                "gamma": cfg.local.gamma,
                "gamma_max": gamma_max,
                "admissible": ok,
                "constants": {
                    "L": c.L,
                    "sigma_g": c.sigma_g,
                    "sigma_i": [float(s) for s in c.sigma_i],
                    "G_i": [float(g) for g in c.G_i],
                },
            }
        )
        history = result.grad_norm_history
        envelope = rate_envelope(history) if history.size >= 20 else None
        if envelope is None:
            report["rate_envelope"] = {"notes": "fewer than 20 recorded rounds; skipped"}
        elif not math.isfinite(envelope.empirical):
            # a non-finite history or an overflowing running average
            report["rate_envelope"] = {"notes": "running average not finite; skipped"}
        else:
            report["rate_envelope"] = asdict(envelope)
    except (FedAgmError, OverflowError) as exc:
        report["notes"] = f"bound analysis unavailable: {exc}"
    return report


def _overflow_note(result: ExperimentResult) -> str:
    return "" if result.overflowed is None else f"; server {result.overflowed} overflowed"


def cmd_run(args) -> int:
    obj = load_json_file(args.config)
    if args.seed is not None and isinstance(obj, dict):
        obj["seed"] = args.seed
    cfg = parse_config(obj, base_dir=os.path.dirname(os.path.abspath(args.config)))
    cfg.record_walltime = args.timing
    result = run_experiment(cfg)
    out = args.out
    write_metrics(out, result.metrics)
    save_model(os.path.join(out, "model.bin"), result.final_x)
    write_json(os.path.join(out, "bound_report.json"), _bound_report(cfg, result))
    if result.diverged:
        print(
            f"diverged at round {result.divergence_round}; "
            f"last logged round is {result.metrics[-1].t if result.metrics else 'none'}"
            f"{_overflow_note(result)}",
            file=sys.stderr,
        )
        return EXIT_DIVERGED
    print(f"{result.method}: {len(result.metrics)} rounds -> {out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    manifest = load_manifest(args.manifest)
    by_method: dict[str, list[float]] = {label: [] for label, _, _ in manifest.methods}
    failures: dict[str, int] = {label: 0 for label, _, _ in manifest.methods}
    for seed in manifest.seeds:
        seed_cfg = None  # release the previous seed's problem before building this one
        try:
            seed_cfg = parse_config({**manifest.base, "seed": seed}, base_dir=manifest.base_dir)
        except FedAgmError as exc:
            why = str(exc)
        for label, stem, opt in manifest.methods:
            if seed_cfg is not None:
                try:
                    result = run_experiment(replace(seed_cfg, server=opt))
                except FedAgmError as exc:
                    why = str(exc)
                else:
                    if result.metrics and not result.diverged:
                        write_metrics(manifest.out, result.metrics, stem=f"{stem}_seed{seed}")
                        by_method[label].append(result.metrics[-1].test_acc)
                        continue
                    why = f"diverged at round {result.divergence_round}{_overflow_note(result)}"
            failures[label] += 1
            print(f"cell {label} seed {seed}: FAILED ({why})", file=sys.stderr)

    lines = ["method,seeds,final_test_acc_mean,final_test_acc_std,failures"]
    print(f"{'method':<20} final test accuracy (mean +/- std over seeds)")
    for label, stem, _ in manifest.methods:
        accs = np.array(by_method[label])
        mean = float(accs.mean()) if accs.size else float("nan")
        std = float(accs.std(ddof=1)) if accs.size > 1 else 0.0
        lines.append(f"{stem},{accs.size},{fmt17(mean)},{fmt17(std)},{failures[label]}")
        print(f"{label:<20} {fmt17(mean)} +/- {fmt17(std)}  ({accs.size} seeds)")
    atomic_write_text(os.path.join(manifest.out, "summary.csv"), "\n".join(lines) + "\n")
    return EXIT_OK if any(by_method.values()) else EXIT_CONFIG


def cmd_partition_report(args) -> int:
    report = load_partition_report(args.config)
    # The partition stream depends only on the seed, so each seed's dataset
    # serves every alpha; the reports show the first seed's shards.
    entropies = [[] for _ in report.grid]
    for i, seed in enumerate(report.seeds):
        data = build_dataset(report.dataset, "dataset", seed, report.base_dir)
        for (stem, _, spec), per_seed in zip(report.grid, entropies):
            shards = partition_for_seed(data, spec, seed)
            per_seed.append(mean_label_entropy(empirical_label_histogram(shards, data.num_classes)))
            if i == 0:
                write_partition_report(os.path.join(report.out, f"{stem}.csv"), shards, data.num_classes)
    summary = ["alpha,mean_entropy,seeds"] + [
        f"{'' if alpha is None else fmt17(alpha)},{fmt17(float(np.mean(per_seed)))},{len(report.seeds)}"
        for (_, alpha, _), per_seed in zip(report.grid, entropies)
    ]
    atomic_write_text(os.path.join(report.out, "entropy_summary.csv"), "\n".join(summary) + "\n")
    print(f"{len(report.grid)} partition report(s) -> {report.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedagm",
        description="Deterministic simulator of federated rounds with calibrated adaptive server updates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="fedagm-run", help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument(
        "--timing",
        action="store_true",
        help="record real wall-clock times (breaks byte-level reproducibility of the CSV)",
    )
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run a method grid x seeds and summarize")
    p_cmp.add_argument("manifest")
    p_cmp.set_defaults(func=cmd_compare)

    p_part = sub.add_parser("partition-report", help="class histograms over an alpha grid")
    p_part.add_argument("config")
    p_part.set_defaults(func=cmd_partition_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
