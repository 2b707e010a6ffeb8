"""Golden outputs: a run is a pure function of its config and seed, bit for bit.

Each case runs `fedagm run` on a small config and hashes the bytes it
writes, then reruns the config through `run_experiment` with iterates and
drift recorded and hashes those arrays and the SCAFFOLD variates. Each grid
case runs `fedagm compare` or `fedagm partition-report` and hashes every
file it writes and its stdout. The digests below were taken with the NumPy named in `GOLDEN_NUMPY`; seeding,
`choice` and the normal and gamma draws may change between NumPy releases,
so a mismatch names both versions.

A change that moves output bits on purpose prints the new digests with
`python tests/test_golden.py` and records the move in CHANGES.md.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from fedagm.cli import main
from fedagm.config import parse_config
from fedagm.orchestrator import run_experiment

GOLDEN_NUMPY = "2.4.6"
ROOT = pathlib.Path(__file__).resolve().parents[1]

QUAD = {"kind": "quadratic", "num_clients": 6, "dim": 4, "heterogeneity": 0.5, "samples_per_client": 12}
BLOBS = {"source": "blobs", "n": 120, "num_classes": 4, "num_features": 3}

CASES = {
    "quad-fedavg-eta1": {
        "seed": 3,
        "rounds": 12,
        "task": QUAD,
        "local": {"steps": 3, "gamma": 0.05, "batch_size": 4},
        "sampling": {"clients_per_round": 3},
        "server": {"name": "FedAvg", "eta": 1.0},
    },
    "quad-s-fedadam": {
        "seed": 4,
        "rounds": 12,
        "task": QUAD | {"weights": "dirichlet"},
        "local": {"steps": 2, "gamma": 0.05, "batch_size": 5},
        "sampling": {"clients_per_round": 4},
        "server": {"name": "s-FedAdam", "eta": 0.05},
        "schedules": {"eta": {"kind": "multistage"}},
    },
    "quad-fedamsgrad-scaffold-repeat": {
        # S = 5 slots over 3 clients: some client is drawn more than once
        "seed": 5,
        "rounds": 10,
        "task": QUAD | {"num_clients": 3, "samples_per_client": 9},
        "local": {"steps": 3, "gamma": 0.05, "batch_size": 4, "variant": "scaffold"},
        "sampling": {"clients_per_round": 5},
        "server": {"name": "FedAMSGrad", "eta": 0.05},
    },
    "logistic-sort-prox-decay": {
        "seed": 6,
        "rounds": 9,
        "eval_every": 3,
        "task": {"kind": "logistic", "dataset": BLOBS, "weight_decay": 0.01},
        "partition": {"scheme": "sort", "num_clients": 6, "classes_per_client": 2},
        "local": {"steps": 3, "gamma": 0.1, "batch_size": 5, "variant": "prox", "prox_mu": 0.1},
        "sampling": {"clients_per_round": 3},
        "server": {"name": "FedAdam", "eta": 0.05},
    },
    "mlp-epoch-plateau": {
        "seed": 7,
        "rounds": 8,
        "task": {"kind": "mlp", "hidden": 5, "dataset": BLOBS},
        "partition": {"scheme": "dirichlet", "num_clients": 5, "alpha": 0.5, "balance": "proportional"},
        "local": {"steps": 1, "gamma": 0.1, "batch_size": 6, "epoch_mode": True},
        "sampling": {"clients_per_round": 3},
        "server": {"name": "FedMomentum", "eta": 1.0},
        "schedules": {"gamma": {"kind": "plateau", "patience": 2, "factor": 0.5}},
    },
    "quad-full-sampling": {
        "seed": 8,
        "rounds": 10,
        "task": QUAD,
        "local": {"steps": 2, "gamma": 0.05, "batch_size": 4},
        "sampling": {"clients_per_round": 6, "mode": "full"},
        "server": {"name": "FedYogi", "eta": 0.05},
    },
    "mlp-wide-scaffold-blocks": {
        # d = 13124: the 6 slots, the 7 clients' evaluation group and the
        # noise probe's 8 draws each span several row blocks
        "seed": 10,
        "rounds": 4,
        "task": {"kind": "mlp", "hidden": 64, "weight_decay": 0.001, "dataset": BLOBS | {"n": 200, "num_features": 200}},
        "partition": {"scheme": "dirichlet", "num_clients": 7, "alpha": 0.5},
        "local": {"steps": 2, "gamma": 0.05, "batch_size": 5, "variant": "scaffold"},
        "sampling": {"clients_per_round": 6},
        "server": {"name": "FedAdam", "eta": 0.05},
    },
    "quad-diverges": {
        "seed": 9,
        "rounds": 30,
        "task": QUAD,
        # every shard fits in one batch: the run draws no minibatch
        "local": {"steps": 3, "gamma": 5.0, "batch_size": 12},
        "sampling": {"clients_per_round": 3},
        "server": {"name": "FedAvg", "eta": 1.0},
    },
}

GRID_CASES = {
    "compare-logistic-dirichlet": (
        "compare",
        {
            "config": {
                "rounds": 6,
                "eval_every": 2,
                "task": {"kind": "logistic", "dataset": BLOBS},
                "partition": {"scheme": "dirichlet", "num_clients": 6, "alpha": 0.5},
                "local": {"steps": 2, "gamma": 0.1, "batch_size": 5},
                "sampling": {"clients_per_round": 3},
                "server": {"name": "FedAvg", "eta": 1.0},
            },
            "methods": [
                {"name": "FedAvg", "eta": 1.0},
                {"name": "FedAdam", "eta": 0.05, "label": "adam small"},
                {"kind": "adam", "eta": 0.05, "beta1": 0.9, "beta2": 0.99, "calibration": {"scheme": "epsilon", "eps": 0.1}},
            ],
            "seeds": [2, 0],
        },
    ),
    "partition-report-alpha-grid": (
        "partition-report",
        {
            "task": {"dataset": BLOBS | {"n": 200, "num_classes": 5}},
            "partition": {"scheme": "dirichlet", "num_clients": 7, "alpha": 1.0, "balance": "proportional"},
            "alpha_grid": [0.05, 0.5, 1, 20.0],
            "seeds": [4, 1, 9],
        },
    ),
}

# sha256 of each artifact, first 16 hex digits
GOLDEN = {
    "compare-logistic-dirichlet": {
        "FedAvg_seed0.csv": "3a768c1c95193a85",
        "FedAvg_seed0.jsonl": "5526d778fa02b2c7",
        "FedAvg_seed2.csv": "11240a2a0c015852",
        "FedAvg_seed2.jsonl": "2dfb5698bf0df3e2",
        "adam_small_seed0.csv": "581655488437b965",
        "adam_small_seed0.jsonl": "0c3a69580e49f462",
        "adam_small_seed2.csv": "593d280db7a07812",
        "adam_small_seed2.jsonl": "fe9484abf2893c5c",
        "eps-FedAdam_seed0.csv": "718bc00db1c71ae9",
        "eps-FedAdam_seed0.jsonl": "213a2c210b125403",
        "eps-FedAdam_seed2.csv": "536c2f15dce4b3f7",
        "eps-FedAdam_seed2.jsonl": "682e4d14335c4ff2",
        "summary.csv": "b4841b5742297ee8",
        "stdout": "07b0f0625e8ace6c",
    },
    "logistic-sort-prox-decay": {
        "metrics.csv": "6821e0e5b036a41a",
        "metrics.jsonl": "f0d2acc3d95c1c23",
        "model.bin": "c5735cccf3bfff55",
        "bound_report.json": "94a321b3f0279573",
        "iterates": "d2e552c668eee7c7",
        "drift": "394e26d6feb89d87",
        "control_variates": "e3b0c44298fc1c14",
    },
    "mlp-epoch-plateau": {
        "metrics.csv": "fd3b0395b680050e",
        "metrics.jsonl": "2e9a52dcf55a9183",
        "model.bin": "9bf405b3beee3134",
        "bound_report.json": "77155454cbca72f7",
        "iterates": "17a8c3494569d6ef",
        "drift": "e3b0c44298fc1c14",
        "control_variates": "e3b0c44298fc1c14",
    },
    "mlp-wide-scaffold-blocks": {
        "metrics.csv": "bc18e20cc477943f",
        "metrics.jsonl": "00aa1937b388d238",
        "model.bin": "5b9a9194fd648738",
        "bound_report.json": "fb6764468acc2283",
        "iterates": "f8c6508a438a8ff6",
        "drift": "28860548dc5c94a4",
        "control_variates": "f9990df9cabaff76",
    },
    "partition-report-alpha-grid": {
        "entropy_summary.csv": "7711bf7b12a3d019",
        "partition_alpha0.050000000000000003.csv": "50ca44bc842ded74",
        "partition_alpha0.5.csv": "b3ceb248c3da3ca1",
        "partition_alpha1.csv": "cb1c4a08e0ffe245",
        "partition_alpha20.csv": "0c45fb8eda546a84",
        "stdout": "8ee9edc71ba5c763",
    },
    "quad-diverges": {
        "metrics.csv": "04a7fce244b604a7",
        "metrics.jsonl": "232cf007d24d1026",
        "model.bin": "c9a638e46ee41b39",
        "bound_report.json": "c290763e6de789d7",
        "iterates": "6d0743b9043aa3b9",
        "drift": "b9ea1e0da2edd253",
        "control_variates": "e3b0c44298fc1c14",
    },
    "quad-fedamsgrad-scaffold-repeat": {
        "metrics.csv": "a02eebfeb874ae12",
        "metrics.jsonl": "9d5dad8f9614dd0d",
        "model.bin": "9a7f436c692f9c7e",
        "bound_report.json": "24f808e09b9f2ffe",
        "iterates": "7cf667aa14010ca3",
        "drift": "a012630860542e0f",
        "control_variates": "0591e8108335bab2",
    },
    "quad-fedavg-eta1": {
        "metrics.csv": "6ce84d2944111eb2",
        "metrics.jsonl": "c5f5758a3d1ef8f6",
        "model.bin": "a2cc37140746abe7",
        "bound_report.json": "923bbe5876810f00",
        "iterates": "f77de8d1685bba71",
        "drift": "ece51b53548f13d9",
        "control_variates": "e3b0c44298fc1c14",
    },
    "quad-full-sampling": {
        "metrics.csv": "d0824824700226ea",
        "metrics.jsonl": "3c8ce7ea1a776bee",
        "model.bin": "0031fd84bc28fa11",
        "bound_report.json": "dac693dc31a9dbad",
        "iterates": "ab8879eb572d2cfa",
        "drift": "ea8cd6c7e1fe2d0f",
        "control_variates": "e3b0c44298fc1c14",
    },
    "quad-s-fedadam": {
        "metrics.csv": "17eeedae670eed70",
        "metrics.jsonl": "87e760aa7d1e2030",
        "model.bin": "c04dcf56614c48f1",
        "bound_report.json": "6550c0d37bc67110",
        "iterates": "41ad2ce7eebf69cc",
        "drift": "2b347597b8144fcf",
        "control_variates": "e3b0c44298fc1c14",
    },
}

FILES = ("metrics.csv", "metrics.jsonl", "model.bin", "bound_report.json")


def blas_build() -> str:
    """The BLAS NumPy was built against: OpenBLAS picks its kernels by CPU,
    and how it sees an operand's layout can move bits."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def array_digest(arrays) -> str:
    return sha(b"".join(np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in arrays))


def digests(name: str, out: pathlib.Path) -> dict:
    obj = CASES[name]
    path = out / "config.json"
    path.write_text(json.dumps(obj))
    code = main(["run", str(path), "--out", str(out / "run")])
    assert code == (2 if name == "quad-diverges" else 0)
    found = {f: sha((out / "run" / f).read_bytes()) for f in FILES}

    cfg = parse_config(obj)
    cfg = dataclasses.replace(cfg, record_iterates=True, record_drift=not cfg.local.epoch_mode)
    result = run_experiment(cfg)
    found["iterates"] = array_digest(result.iterates)
    found["drift"] = array_digest([] if result.drift is None else [result.drift])
    cvs = result.control_variates
    found["control_variates"] = array_digest([] if cvs is None else [cvs])
    return found


def grid_digests(name: str, out: pathlib.Path) -> dict:
    command, obj = GRID_CASES[name]
    (out / "config.json").write_text(json.dumps(obj | {"out": "grid"}))
    stdout = io.StringIO()
    with contextlib.chdir(out), contextlib.redirect_stdout(stdout):
        code = main([command, "config.json"])
    assert code == 0
    found = {f.name: sha(f.read_bytes()) for f in sorted((out / "grid").iterdir())}
    found["stdout"] = sha(stdout.getvalue().encode())
    return found


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_their_golden_digests(name, tmp_path):
    found = digests(name, tmp_path)
    moved = sorted(key for key, value in found.items() if GOLDEN[name].get(key) != value)
    assert not moved, (
        f"{name}: {moved} moved. The digests were taken with NumPy {GOLDEN_NUMPY}, "
        f"this run used NumPy {np.__version__} with BLAS {blas_build()}; new digests: {found}"
    )


@pytest.mark.parametrize("name", sorted(GRID_CASES))
def test_grid_outputs_match_their_golden_digests(name, tmp_path):
    found = grid_digests(name, tmp_path)
    assert found == GOLDEN[name], (
        f"{name}: the files or digests moved. The digests were taken with NumPy {GOLDEN_NUMPY}, "
        f"this run used NumPy {np.__version__} with BLAS {blas_build()}; new digests: {found}"
    )


def test_run_writes_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # d = 13,124 is above the length at which OpenBLAS's ddot splits a sum
    # across its threads; each run sets the count before NumPy loads
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CASES["mlp-wide-scaffold-blocks"]))
    written = []
    for threads in ("1", "2"):
        env = os.environ | {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        out = tmp_path / threads
        done = subprocess.run(
            [sys.executable, "-m", "fedagm.cli", "run", str(config), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        written.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert set(written[0]) >= set(FILES)
    moved = sorted(name for name in written[0] if written[0][name] != written[1].get(name))
    assert written[0].keys() == written[1].keys() and not moved, f"{moved} moved"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {}
        for name in sorted(CASES):
            case_dir = pathlib.Path(tmp) / name
            case_dir.mkdir()
            table[name] = digests(name, case_dir)
        for name in sorted(GRID_CASES):
            case_dir = pathlib.Path(tmp) / name
            case_dir.mkdir()
            table[name] = grid_digests(name, case_dir)
    print(f"# NumPy {np.__version__}")
    json.dump(table, sys.stdout, indent=4)
    print()
