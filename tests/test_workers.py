"""A wide model's row blocks split across worker threads: how many workers,
which sweeps split, and that a split moves no output byte."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from fedagm import LocalConfig, RngStream, StackedFederation, run_clients
from fedagm import tasks as tasks_module
from fedagm.cli import main
from fedagm.config import parse_config
from fedagm.orchestrator import run_experiment
from fedagm.theory import _minibatch_noise
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
        monkeypatch.setattr(tasks_module, "blas_threads", lambda: blas)
        assert tasks_module.worker_count.__wrapped__() == expected

    def test_affinity_bounds_the_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3, 4})
        monkeypatch.setattr(tasks_module, "blas_threads", lambda: 2)
        assert tasks_module.worker_count.__wrapped__() == 2

    def test_the_blas_count_reads_as_a_positive_count_or_none(self):
        count = tasks_module.blas_threads()
        assert count is None or count >= 1


class TestWhichGroupsSplit:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Force W = 2 and record every pool the split asks for: its thread
        count and the function that called `run_parts`."""
        asked = []
        pool = tasks_module._pool

        def ask(threads):
            frame = sys._getframe(1)
            while frame.f_code.co_name != "run_parts":
                frame = frame.f_back
            asked.append((threads, frame.f_back.f_code.co_name))
            return pool(threads)

        monkeypatch.setattr(tasks_module, "worker_count", lambda: 2)
        monkeypatch.setattr(tasks_module, "_pool", ask)
        return asked

    @pytest.mark.parametrize("name", ["logreg-eval", "mlp-compare"])
    def test_narrow_workloads_run_on_the_calling_thread(self, pools, name):
        workload = load_workloads().WORKLOADS[name](0)
        for _, obj in workload.configs[:2]:
            assert not run_experiment(parse_config(obj | {"rounds": 2})).diverged
        assert pools == []

    def test_the_wide_workload_splits(self, pools, tmp_path):
        # one round of `fedagm run`: the local steps, the evaluation pass,
        # the dissimilarity's gaps and the bound report's probes all split
        (_, obj), = load_workloads().WORKLOADS["mlp-run"](0).configs
        config = tmp_path / "config.json"
        config.write_text(json.dumps(obj | {"rounds": 1}))
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
        assert {threads for threads, _ in pools} == {1}
        assert {caller for _, caller in pools} == {
            "run_clients",
            "client_evaluation",
            "weighted_dissimilarity",
            "_minibatch_noise",
        }


SCRIPT = """
import sys, threading
import fedagm.tasks
fedagm.tasks.worker_count = lambda: int(sys.argv[1])
from fedagm.cli import main
code = main(["run", sys.argv[2], "--out", sys.argv[3]])
print(sum(t.name.startswith("fedagm-part") for t in threading.enumerate()))
sys.exit(code)
"""


@pytest.mark.parametrize("hidden", [64, 160])
def test_a_split_writes_the_same_bytes_at_one_blas_thread(tmp_path, hidden):
    # d = 13124: the 6 slots span two row blocks of 4 and 2, and only the
    # local steps split; d = 33770, a wide model: the 6 slots span six row
    # blocks, and the evaluation pass, the dissimilarity's gaps and the
    # noise probe split too
    obj = CASES["mlp-wide-scaffold-blocks"]
    obj = obj | {"task": obj["task"] | {"hidden": hidden}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(obj))
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
    # move some slot's trajectory, some client's evaluation (its clients'
    # ids are scattered, so every block goes through a part's buffer), a
    # gap norm or a noise estimate
    tasks, datasets = federation("mlp", [7, 9, 8, 11] * 3, 0, width=5, classes=3, hidden=6)
    fed = StackedFederation.build(tasks, datasets)
    clients = list(range(12))
    x = 0.3 * np.random.default_rng(1).normal(size=fed.dim)
    p = np.full(12, 1 / 12)
    lanes = RngStream(2).derive_lanes(np.arange(12), np.array(clients))
    cfg = LocalConfig(K=4, gamma=0.1, batch_size=5, variant="prox", prox_mu=0.2)
    monkeypatch.setattr(tasks_module, "BLOCK_BYTES", 8 * fed.dim)

    def steps(workers):
        monkeypatch.setattr(tasks_module, "worker_count", lambda: workers)
        results = run_clients(fed, clients, x, cfg, lanes, record=True)
        losses, grads = tasks_module.client_evaluation(fed, x)
        gaps = tasks_module.weighted_dissimilarity(grads, p)[1]
        noise = _minibatch_noise(fed, x, grads, 5, RngStream(3), 11)
        sweeps = [losses.tobytes(), grads.tobytes(), gaps, noise.tobytes()]
        return [[xk.tobytes() for xk in [r.x_final, *r.trajectory]] for r in results] + sweeps

    expected = steps(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert steps(8) == expected
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "lengths, workers, expected",
    [
        # 13 slots in blocks of 4 and a short last block: 8 | 5 slots
        ([4, 4, 4, 1], 2, [[4, 4], [4, 1]]),
        ([4, 4, 1], 3, [[4], [4], [1]]),
        ([4, 4, 1], 2, [[4], [4, 1]]),
        ([1] * 5, 3, [[1], [1, 1], [1, 1]]),
        ([3, 2], 1, [[3, 2]]),
    ],
)
def test_parts_are_cut_by_block_count(monkeypatch, lengths, workers, expected):
    monkeypatch.setattr(tasks_module, "worker_count", lambda: workers)
    ends = np.cumsum([0, *lengths]).tolist()
    blocks = [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]
    parts = []
    tasks_module.run_parts(parts.append, blocks)
    parts.sort(key=lambda part: part[0].start)
    assert [[b.stop - b.start for b in part] for part in parts] == expected


def test_a_failing_part_raises_once_every_part_has_ended(monkeypatch):
    monkeypatch.setattr(tasks_module, "worker_count", lambda: 3)
    ended = []

    def step(part):
        if part[0].start == 1:
            raise ValueError("part")
        time.sleep(0.05)
        ended.append([b.start for b in part])

    with pytest.raises(ValueError, match="part"):
        tasks_module.run_parts(step, [slice(i, i + 1) for i in range(4)])
    assert sorted(ended) == [[0], [2, 3]]
