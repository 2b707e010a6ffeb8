"""Flat-vector arithmetic and deterministic stream-derived randomness.

Model parameters, momenta, and update directions are all plain 1-D float64
numpy arrays of a fixed length d. Randomness is organized as named streams:
a stream is a (seed, stream_id) pair, and derived streams are obtained by
mixing integer keys into the id with splitmix64, so the draw sequence of any
(client, round) stream is independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError

# Public alias: 1-D float64 array of fixed length d.
ParamVector = np.ndarray

_MASK64 = (1 << 64) - 1


def splitmix64(z: int) -> int:
    """One splitmix64 step; the core mixer for stream derivation."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """A named, replayable source of pseudo-randomness.

    Identical (seed, stream_id) pairs produce identical draw sequences on
    every run and under any thread schedule. Use ``derive`` to split off
    independent child streams (one per client per round, one for the
    server, ...) and ``generator`` to materialize the stream.
    """

    seed: int
    stream_id: int = 0

    def derive(self, *keys: int) -> "RngStream":
        """Child stream obtained by mixing integer keys into the id."""
        sid = self.stream_id
        for key in keys:
            sid = splitmix64(sid ^ splitmix64(key & _MASK64))
        return RngStream(self.seed, sid)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        root = splitmix64(splitmix64(self.seed & _MASK64) ^ self.stream_id)
        return np.random.Generator(np.random.PCG64(root))


def as_generator(rng: RngStream | np.random.Generator) -> np.random.Generator:
    """Accept either a stream (restarted) or a live generator (continued)."""
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


def l2_norm_sq(x: ParamVector) -> float:
    """Squared Euclidean norm."""
    return float(np.dot(x, x))


def sample_dirichlet(rng: RngStream | np.random.Generator, alpha: float, dim: int) -> np.ndarray:
    """Draw one probability vector from Dir(alpha * ones(dim)).

    Sampled as normalized Gamma(alpha) draws. For very small alpha some
    draws underflow to exactly zero; the vector is redrawn in the (measure
    zero in theory, ~never in practice) event that all of them do.
    """
    if alpha <= 0:
        raise ParameterError(f"dirichlet concentration must be positive, got {alpha}")
    if dim < 1:
        raise ParameterError(f"dirichlet dimension must be >= 1, got {dim}")
    if dim == 1:
        return np.ones(1)
    gen = as_generator(rng)
    for _ in range(16):
        draws = gen.gamma(alpha, 1.0, size=dim)
        total = draws.sum()
        if np.isfinite(total) and total > 0.0:
            return draws / total
    raise NumericError("dirichlet sampling failed: all gamma draws underflowed")
