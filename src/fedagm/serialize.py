"""On-disk formats: metrics CSV/JSONL, model binaries, atomic writes.

Every file is written to a temporary sibling and renamed into place, so a
crash leaves either the complete file or nothing. All floats are formatted
with 17 significant digits, enough to round-trip IEEE754 doubles exactly,
which is what makes "bit-identical CSVs" a meaningful determinism check.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import StructuralError


def fmt17(x: float) -> str:
    """Decimal form of a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def _csv_cell(value) -> str:
    # Sampled clients are semicolon-joined in slot order so a row keeps one
    # CSV column per field.
    if isinstance(value, int):
        return str(value)
    if isinstance(value, list):
        return ";".join(str(i) for i in value)
    return fmt17(value)


@dataclass
class RoundMetrics:
    """One row of the per-round metric log. The fields, in order, are the
    columns of metrics.csv and the keys of metrics.jsonl."""

    t: int
    train_loss: float
    test_acc: float
    grad_norm_sq: float
    sigma_g: float
    gamma: float
    eta: float
    clients: list[int] = field(default_factory=list)
    wall_ms: float = 0.0

    def to_csv_row(self) -> str:
        return ",".join(_csv_cell(getattr(self, f.name)) for f in fields(self))

    def to_json_line(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


METRICS_HEADER = ",".join(f.name for f in fields(RoundMetrics))


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write the whole file or nothing (temp file + rename)."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def metrics_to_csv(rows: list[RoundMetrics]) -> str:
    lines = [METRICS_HEADER]
    lines.extend(row.to_csv_row() for row in rows)
    return "\n".join(lines) + "\n"


def metrics_to_jsonl(rows: list[RoundMetrics]) -> str:
    return "\n".join(row.to_json_line() for row in rows) + "\n"


def write_metrics(out_dir: str, rows: list[RoundMetrics], stem: str = "metrics") -> None:
    atomic_write_text(os.path.join(out_dir, stem + ".csv"), metrics_to_csv(rows))
    atomic_write_text(os.path.join(out_dir, stem + ".jsonl"), metrics_to_jsonl(rows))


def save_model(path: str, x: np.ndarray) -> None:
    """Flat little-endian f64 payload behind an 8-byte length header."""
    flat = np.ascontiguousarray(np.asarray(x, dtype="<f8").ravel())
    atomic_write_bytes(path, struct.pack("<Q", flat.size) + flat.tobytes())


def load_model(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8:
        raise StructuralError(f"model file {path!r} too short for a length header")
    (n,) = struct.unpack("<Q", blob[:8])
    payload = blob[8:]
    if len(payload) != 8 * n:
        raise StructuralError(
            f"model file {path!r}: header says {n} values, payload holds {len(payload) // 8}"
        )
    return np.frombuffer(payload, dtype="<f8").astype(np.float64)


def write_json(path: str, obj) -> None:
    """Strict JSON: a NaN or infinity raises ValueError rather than being
    written as the bare `NaN` or `Infinity` that RFC 8259 does not allow."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")
