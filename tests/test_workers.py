"""A wide lockstep group's row blocks split across worker threads: how many
workers, which groups split, and that a split moves no output byte."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from fedagm import LocalConfig, RngStream, StackedFederation, local, run_clients
from fedagm import tasks as tasks_module
from fedagm.config import parse_config
from fedagm.orchestrator import run_experiment
from test_golden import CASES
from test_stacked import federation

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_workloads():
    """The benchmark's workload module (its dataclasses need it registered)."""
    name = "bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


class TestWorkerCount:
    @pytest.mark.parametrize("blas, expected", [(1, 2), (2, 1), (3, 1), (None, 1)])
    def test_cpus_over_blas_threads(self, monkeypatch, blas, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(local, "blas_threads", lambda: blas)
        assert local.worker_count.__wrapped__() == expected

    def test_affinity_bounds_the_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3, 4})
        monkeypatch.setattr(local, "blas_threads", lambda: 2)
        assert local.worker_count.__wrapped__() == 2

    def test_the_blas_count_reads_as_a_positive_count_or_none(self):
        count = local.blas_threads()
        assert count is None or count >= 1


class TestWhichGroupsSplit:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Force W = 2 and record every pool the split asks for."""
        asked = []
        pool = local._pool
        monkeypatch.setattr(local, "worker_count", lambda: 2)
        monkeypatch.setattr(local, "_pool", lambda threads: asked.append(threads) or pool(threads))
        return asked

    @pytest.mark.parametrize("name", ["logreg-eval", "mlp-compare"])
    def test_narrow_workloads_run_on_the_calling_thread(self, pools, name):
        workload = load_workloads().WORKLOADS[name](0)
        for _, obj in workload.configs[:2]:
            assert not run_experiment(parse_config(obj | {"rounds": 2})).diverged
        assert pools == []

    def test_the_wide_workload_splits(self, pools):
        (_, obj), = load_workloads().WORKLOADS["mlp-run"](0).configs
        assert not run_experiment(parse_config(obj | {"rounds": 1})).diverged
        assert pools == [1]


SCRIPT = """
import sys, threading
import fedagm.local
fedagm.local.worker_count = lambda: int(sys.argv[1])
from fedagm.cli import main
code = main(["run", sys.argv[2], "--out", sys.argv[3]])
print(sum(t.name.startswith("fedagm-part") for t in threading.enumerate()))
sys.exit(code)
"""


def test_a_split_writes_the_same_bytes_at_one_blas_thread(tmp_path):
    # d = 13124: the 6 slots span two row blocks
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CASES["mlp-wide-scaffold-blocks"]))
    env = os.environ | {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    written, threads = [], []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        # the interpreter must exit on its own once main returns
        done = subprocess.run(
            [sys.executable, "-c", SCRIPT, workers, str(config), str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        threads.append(int(done.stdout.split()[-1]))
        files = ("metrics.csv", "metrics.jsonl", "model.bin", "bound_report.json")
        written.append([(out / f).read_bytes() for f in files])
    assert threads == [0, 1]
    assert written[0] == written[1]


def test_more_workers_than_cores_under_fast_switching(monkeypatch):
    # 12 one-slot blocks in 8 parts at a 1 us switch interval: a part that
    # wrote outside its rows, or raced another on a shared buffer, would
    # move some slot's trajectory
    tasks, datasets = federation("mlp", [7, 9, 8, 11] * 3, 0, width=5, classes=3, hidden=6)
    fed = StackedFederation.build(tasks, datasets)
    clients = list(range(12))
    x = 0.3 * np.random.default_rng(1).normal(size=fed.dim)
    lanes = RngStream(2).derive_lanes(np.arange(12), np.array(clients))
    cfg = LocalConfig(K=4, gamma=0.1, batch_size=5, variant="prox", prox_mu=0.2)
    monkeypatch.setattr(tasks_module, "BLOCK_BYTES", 8 * fed.dim)

    def steps(workers):
        monkeypatch.setattr(local, "worker_count", lambda: workers)
        results = run_clients(fed, clients, x, cfg, lanes, record=True)
        return [[xk.tobytes() for xk in [r.x_final, *r.trajectory]] for r in results]

    expected = steps(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert steps(8) == expected
    finally:
        sys.setswitchinterval(interval)


def test_a_failing_part_raises_once_every_part_has_ended(monkeypatch):
    monkeypatch.setattr(local, "worker_count", lambda: 3)
    ended = []

    def step(part):
        if part[0].start == 1:
            raise ValueError("part")
        time.sleep(0.05)
        ended.append([b.start for b in part])

    with pytest.raises(ValueError, match="part"):
        local.run_parts(step, [slice(i, i + 1) for i in range(4)])
    assert sorted(ended) == [[0], [2, 3]]
