"""Spans around calls into fedagm's modules, recorded from outside the package.

`Tracer.install` replaces the names that each calling module binds (for
example `fedagm.orchestrator.run_local`, which the round loop looks up at
call time) with wrappers that record a span; `uninstall` puts the
originals back. Spans stay in memory, one buffer per thread, until the run
ends. Each span records its name, start, end, parent span, thread and cell,
so self time stays correct when a `compare` pool runs cells on several
threads at once.
"""

from __future__ import annotations

import functools
import itertools
import threading
from array import array
from time import perf_counter

import numpy as np

import fedagm.cli
import fedagm.config
import fedagm.local
import fedagm.orchestrator
import fedagm.sampling
import fedagm.server
from fedagm.numerics import RngStream
from fedagm.orchestrator import FederatedProblem

# (object whose attribute is replaced, attribute, span name)
TARGETS = [
    (fedagm.orchestrator, "run_local", "local.run_local"),
    (fedagm.orchestrator, "sample_round", "sampling.sample_round"),
    (fedagm.orchestrator, "aggregate", "server.aggregate"),
    (fedagm.orchestrator, "server_step", "server.server_step"),
    (fedagm.orchestrator, "evaluate", "tasks.evaluate"),
    (fedagm.orchestrator, "full_gradient", "tasks.full_gradient"),
    (FederatedProblem, "train_loss", "orchestrator.eval.train_loss"),
    (FederatedProblem, "gradient_stats", "orchestrator.eval.gradient_stats"),
    (FederatedProblem, "test_metrics", "orchestrator.eval.test_metrics"),
    (fedagm.local, "stochastic_gradient", "tasks.stochastic_gradient"),
    (fedagm.local, "as_generator", "numerics.generator"),
    (fedagm.sampling, "as_generator", "numerics.generator"),
    (RngStream, "derive", "numerics.derive"),
    (fedagm.server, "calibrate", "server.calibrate"),
    (fedagm.config, "parse_config", "config.parse_config"),
    (fedagm.config, "partition", "partition.partition"),
    (fedagm.config, "make_blobs_dataset", "tasks.make_blobs_dataset"),
    (fedagm.cli, "parse_config", "config.parse_config"),
    (fedagm.cli, "estimate_problem_constants", "theory.estimate_problem_constants"),
    (fedagm.cli, "write_metrics", "serialize.write_metrics"),
    (fedagm.cli, "save_model", "serialize.save_model"),
    (fedagm.cli, "write_json", "serialize.write_json"),
]


class _Buffer:
    """One thread's spans, as parallel arrays indexed by span id."""

    def __init__(self, thread: int):
        self.thread = thread
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.cell = array("q")
        self.open: list[int] = []
        self.current_cell = -1


class Tracer:
    """Span recorder; `install` wraps every name in TARGETS, `spans` returns the record."""

    def __init__(self):
        self.names: list[str] = []
        self.buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._cells = itertools.count()
        self._saved: list[tuple] = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer(threading.get_ident())
            with self._lock:
                self.buffers.append(buf)
        return buf

    def wrap(self, fn, name: str, cell: bool = False):
        """`fn` recording one span per call; `cell=True` starts a new cell id."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        new_cell = self._cells.__next__ if cell else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            outer_cell = buf.current_cell
            if new_cell is not None:
                buf.current_cell = new_cell()
            sid = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(buf.open[-1] if buf.open else -1)
            buf.cell.append(buf.current_cell)
            buf.end.append(0.0)
            buf.open.append(sid)
            buf.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[sid] = perf_counter()
                buf.open.pop()
                buf.current_cell = outer_cell

        return traced

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as arrays; `parent` indexes into the same arrays, -1 for none."""
        cols = {k: [] for k in ("name", "start", "end", "parent", "thread", "cell")}
        offset = 0
        for buf in self.buffers:
            n = len(buf.name)
            parent = np.frombuffer(buf.parent, dtype=np.int64)[:n]
            cols["name"].append(np.frombuffer(buf.name, dtype=np.int32)[:n])
            cols["start"].append(np.frombuffer(buf.start, dtype=np.float64)[:n])
            cols["end"].append(np.frombuffer(buf.end, dtype=np.float64)[:n])
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["thread"].append(np.full(n, buf.thread, dtype=np.int64))
            cols["cell"].append(np.frombuffer(buf.cell, dtype=np.int64)[:n])
            offset += n
        return {k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()}


class SpanTable:
    """Per-name sums over a span table: calls, inclusive time and self time."""

    def __init__(self, spans: dict[str, np.ndarray], names: list[str]):
        self.names = names
        self.name = spans["name"].astype(np.int64)
        self.parent = spans["parent"].astype(np.int64)
        self.dur = spans["end"] - spans["start"]
        has_parent = self.parent >= 0
        child = np.zeros_like(self.dur)
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name.shape, dtype=bool)
        return self.name == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def total(self, name: str) -> float:
        return float(self.dur[self._mask(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def calls_under(self, name: str, parents: list[str]) -> int:
        """Calls of `name` whose direct parent is one of `parents`."""
        mask = self._mask(name) & (self.parent >= 0)
        parent_ok = np.zeros(self.name.shape, dtype=bool)
        for p in parents:
            parent_ok |= self._mask(p)
        return int(parent_ok[self.parent[mask]].sum())
