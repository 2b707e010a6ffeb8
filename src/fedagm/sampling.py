"""Per-round selection of the active client set.

The default mode draws S clients with replacement, categorically by weight;
a client drawn twice really runs twice and its copies enter the round
average with multiplicity. Full mode deterministically selects everyone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructuralError
from .numerics import RngStream, as_generator

MODES = ("weighted", "full")

# How far client weights may sum from 1; every weight check uses this one.
WEIGHT_SUM_TOL = 1e-9


def check_weights(p) -> np.ndarray:
    """p as a float64 vector of client weights: finite and nonnegative
    (else ParameterError), nonempty and summing to 1 (else StructuralError)."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise StructuralError("client weights must be a nonempty vector")
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise ParameterError(f"client weights must be finite and nonnegative, got {p!r}")
    if abs(p.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise StructuralError(f"client weights must sum to 1, got {p.sum()!r}")
    return p


@dataclass(frozen=True)
class SamplingSpec:
    """S participants per round, drawn by weight or all present."""

    S: int
    mode: str = "weighted"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}", key="mode")
        if self.S < 1:
            raise ParameterError("S must be >= 1")


def sample_round(
    p: np.ndarray, spec: SamplingSpec, rng: RngStream | np.random.Generator
) -> np.ndarray:
    """Indices of this round's participants, in draw (slot) order.

    The returned array may contain repeats; the round average divides by S
    regardless, which is what keeps the weighted average unbiased.
    """
    p = check_weights(p)
    if spec.mode == "full":
        if spec.S != p.size:
            raise StructuralError(f"full mode needs S = N = {p.size}, got S = {spec.S}")
        return np.arange(p.size)
    gen = as_generator(rng)
    return gen.choice(p.size, size=spec.S, replace=True, p=p)
