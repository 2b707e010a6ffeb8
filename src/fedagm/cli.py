"""Command-line entry points.

fedagm run <config.json> [--out DIR] [--seed N] [--timing]
    One experiment; writes metrics.csv/.jsonl, model.bin, bound_report.json.
fedagm compare <manifest.json>
    Method grid x seeds; per-cell metric CSVs plus a mean +/- std summary
    table of final test accuracy.
fedagm partition-report <config.json>
    Per-client class histograms and an entropy summary over an alpha grid.

Exit codes: 0 success, 1 bad config, 2 divergence. `run` works on one
thread, its sampled clients in lockstep; FEDOPT_THREADS sizes the pool that
`compare` runs its cells in, and outputs are bit-identical for any value
of it.
"""

from __future__ import annotations

import argparse
import copy
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .config import (
    CompareManifest,
    build_dataset,
    load_json_file,
    load_manifest,
    parse_config,
    parse_partition,
    parse_server,
)
from .errors import ConfigError, FedAgmError
from .numerics import RngStream
from .orchestrator import ExperimentConfig, ExperimentResult, initial_point, run_experiment
from .partition import (
    empirical_label_histogram,
    mean_label_entropy,
    partition,
    write_partition_report,
)
from .serialize import atomic_write_text, fmt17, save_model, write_json, write_metrics
from .server import recover_baseline
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


def _threads() -> int:
    return max(1, int(os.environ.get("FEDOPT_THREADS", "1")))


def _safe_name(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label)


def _bound_report(cfg: ExperimentConfig, result: ExperimentResult) -> dict:
    """Admissibility and trend report for one finished run."""
    report: dict = {
        "method": result.method,
        "diverged": result.diverged,
        "divergence_round": result.divergence_round,
        "rounds_completed": len(result.metrics),
    }
    if result.diverged:
        # The final iterate has blown up; constants probed there are not estimates.
        report["notes"] = f"run diverged at round {result.divergence_round}; no constants estimated"
        return report
    try:
        x0 = initial_point(cfg)
        probes = [x0, result.final_x, 0.5 * (x0 + result.final_x)]
        c = estimate_problem_constants(
            cfg.problem,
            K=cfg.local.K,
            gamma=cfg.local.gamma,
            S=cfg.sampling.S,
            eta=cfg.server.eta,
            x_points=probes,
            rng=RngStream(cfg.seed).derive(0x7468656F),
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
        if history.size >= 20 and np.all(np.isfinite(history)):
            report["rate_envelope"] = rate_envelope(history, mu, c).to_dict()
        else:
            report["rate_envelope"] = {"notes": "fewer than 20 recorded rounds; skipped"}
    except (FedAgmError, OverflowError) as exc:
        report["notes"] = f"bound analysis unavailable: {exc}"
    return report


def cmd_run(args) -> int:
    try:
        obj = load_json_file(args.config)
        if args.seed is not None and isinstance(obj, dict):
            obj["seed"] = args.seed
        cfg = parse_config(obj, base_dir=os.path.dirname(os.path.abspath(args.config)))
        if args.timing:
            cfg.record_walltime = True
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    result = run_experiment(cfg)
    out = args.out
    write_metrics(out, result.metrics)
    save_model(os.path.join(out, "model.bin"), result.final_x)
    write_json(os.path.join(out, "bound_report.json"), _bound_report(cfg, result))
    if result.diverged:
        print(
            f"diverged at round {result.divergence_round}; "
            f"last logged round is {result.metrics[-1].t if result.metrics else 'none'}",
            file=sys.stderr,
        )
        return EXIT_DIVERGED
    print(f"{result.method}: {len(result.metrics)} rounds -> {out}")
    return EXIT_OK


def _run_cell(base: dict, base_dir: str, method_sec: dict, seed: int):
    obj = copy.deepcopy(base)
    obj["server"] = method_sec
    obj["seed"] = seed
    cfg = parse_config(obj, base_dir=base_dir)
    return run_experiment(cfg)


def cmd_compare(args) -> int:
    try:
        manifest = load_manifest(args.manifest)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    cells = [
        (label, sec, seed) for label, sec in manifest.methods for seed in manifest.seeds
    ]

    def work(cell):
        label, sec, seed = cell
        try:
            return label, seed, _run_cell(manifest.base, manifest.base_dir, sec, seed), None
        except FedAgmError as exc:
            return label, seed, None, str(exc)

    threads = _threads()
    if threads == 1:
        outcomes = [work(cell) for cell in cells]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(work, cells))

    by_method: dict[str, list[float]] = {label: [] for label, _ in manifest.methods}
    failures: dict[str, int] = {label: 0 for label, _ in manifest.methods}
    any_success = False
    for label, seed, result, error in outcomes:
        if error is not None or result is None or result.diverged or not result.metrics:
            failures[label] += 1
            why = error or f"diverged at round {result.divergence_round}" if result else error
            print(f"cell {label} seed {seed}: FAILED ({why})", file=sys.stderr)
            continue
        any_success = True
        write_metrics(manifest.out, result.metrics, stem=f"{_safe_name(label)}_seed{seed}")
        by_method[label].append(result.metrics[-1].test_acc)

    lines = ["method,seeds,final_test_acc_mean,final_test_acc_std,failures"]
    print(f"{'method':<20} final test accuracy (mean +/- std over seeds)")
    for label, _ in manifest.methods:
        accs = np.array(by_method[label])
        mean = float(accs.mean()) if accs.size else float("nan")
        std = float(accs.std(ddof=1)) if accs.size > 1 else 0.0
        lines.append(
            f"{_safe_name(label)},{accs.size},{fmt17(mean)},{fmt17(std)},{failures[label]}"
        )
        print(f"{label:<20} {fmt17(mean)} +/- {fmt17(std)}  ({accs.size} seeds)")
    atomic_write_text(os.path.join(manifest.out, "summary.csv"), "\n".join(lines) + "\n")
    return EXIT_OK if any_success else EXIT_CONFIG


def cmd_partition_report(args) -> int:
    try:
        obj = load_json_file(args.config)
        dataset_sec = obj.get("dataset") or obj.get("task", {}).get("dataset")
        if dataset_sec is None:
            raise ConfigError("config: needs a 'dataset' section (or task.dataset)")
        part_sec = obj.get("partition")
        if part_sec is None:
            raise ConfigError("config: needs a 'partition' section")
        seeds = obj.get("seeds", [0])
        alpha_grid = obj.get("alpha_grid")
        out = obj.get("out", "partition-out")
        base_dir = os.path.dirname(os.path.abspath(args.config))
        spec = parse_partition(part_sec, "partition")
        alphas = [spec.alpha] if alpha_grid is None else [float(a) for a in alpha_grid]
        if spec.scheme != "dirichlet":
            alphas = [None]

        summary = ["alpha,mean_entropy,seeds"]
        for alpha in alphas:
            entropies = []
            first_shards = None
            for seed in seeds:
                data = build_dataset(dataset_sec, "dataset", seed, base_dir)
                part_spec = spec if alpha is None else parse_partition(
                    {**part_sec, "alpha": alpha}, "partition"
                )
                shards = partition(data, part_spec, RngStream(seed).derive(0x70617274))
                entropies.append(
                    mean_label_entropy(empirical_label_histogram(shards, data.num_classes))
                )
                if first_shards is None:
                    first_shards = (shards, data.num_classes)
            tag = spec.scheme if alpha is None else f"alpha{fmt17(alpha)}"
            write_partition_report(
                os.path.join(out, f"partition_{_safe_name(tag)}.csv"), *first_shards
            )
            summary.append(
                f"{'' if alpha is None else fmt17(alpha)},{fmt17(float(np.mean(entropies)))},{len(seeds)}"
            )
        atomic_write_text(os.path.join(out, "entropy_summary.csv"), "\n".join(summary) + "\n")
        print(f"{len(alphas)} partition report(s) -> {out}")
        return EXIT_OK
    except FedAgmError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
