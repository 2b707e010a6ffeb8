"""Flat-vector arithmetic and deterministic stream-derived randomness.

Model parameters, momenta, and update directions are all plain 1-D float64
numpy arrays of a fixed length d. Randomness is organized as named streams:
a stream is a (seed, stream_id) pair, and derived streams are obtained by
mixing integer keys into the id with splitmix64, so the draw sequence of any
(client, round) stream is independent of execution order.

`StreamBatch` holds many streams as a root stream plus uint64 key arrays.
Building one hashes nothing; its lanes are derived and their PCG64
generators seeded in one array pass when they are seeded, with the bits of
`RngStream.derive` and `RngStream.generator`.
"""

from __future__ import annotations

import functools
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


def _mix_keys(sid: int, keys) -> int:
    for key in keys:
        sid = splitmix64(sid ^ splitmix64(key & _MASK64))
    return sid


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64_lanes(z: np.ndarray, out=None) -> np.ndarray:
    """`splitmix64` elementwise over a uint64 array, into `out` if given (z
    itself for in place); array arithmetic wraps modulo 2**64, as the masks do."""
    z = np.add(z, _GOLDEN, out=out)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


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
        return RngStream(self.seed, _mix_keys(self.stream_id, keys))

    def derive_lanes(self, *keys) -> "StreamBatch":
        """Many `derive` calls as one batch: the keys are ints followed by
        1-D integer arrays of one length L, and lane j of the L-lane result
        is `self.derive(*ints, a0[j], a1[j], ...)`. Only the ints are mixed
        here; the lanes are hashed when they are seeded."""
        n = sum(isinstance(key, (int, np.integer)) for key in keys)
        return StreamBatch(RngStream(self.seed, _mix_keys(self.stream_id, keys[:n])), keys[n:])

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        root = splitmix64(splitmix64(self.seed & _MASK64) ^ self.stream_id)
        return np.random.Generator(np.random.PCG64(root))


# ---------------------------------------------------------------------------
# NumPy's SeedSequence, vectorised over lanes
#
# `PCG64(seed)` hashes an integer seed with `SeedSequence(seed)` and takes
# `generate_state(4, np.uint64)` as its 128-bit state and increment. The hash
# is O'Neill's seed_seq_fe (as in NumPy's bit_generator.pyx, pool size 4):
# every uint32 operation below runs on all lanes at once. A seed below 2**64
# is at most two 32-bit entropy words, low word first; the pool pads a
# one-word seed with a hash of 0, which is also the hash of a zero high
# word, so every lane takes the two-word form. `tests/test_numerics.py` pins
# the equality against the installed NumPy.

_M32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) pair of each of `count` successive hashes: a hash
    of v is `v ^= xor; v *= multiplier; v ^= v >> 16`."""
    xors, mults = [], []
    for _ in range(count):
        xors.append(init)
        init = (init * mult) & _M32
        mults.append(init)
    return np.array(xors, dtype=np.uint32), np.array(mults, dtype=np.uint32)


def _hash(v: np.ndarray, xor: np.ndarray, mult: np.ndarray, out=None) -> np.ndarray:
    v = np.bitwise_xor(v, xor, out=out)
    v *= mult
    v ^= v >> np.uint32(16)
    return v


# mix_entropy: 4 hashes that fill the pool, then 12 that mix it
_POOL_XOR, _POOL_MULT = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
# pool words 2 and 3 hash the zero padding, so they are constants
_POOL_TAIL = _hash(np.zeros(2, dtype=np.uint32), _POOL_XOR[2:4], _POOL_MULT[2:4])


def _by_round(constants: np.ndarray) -> np.ndarray:
    """(4, 4, 1): round src's hash constants by destination word, taken in
    ascending order of the other words; its own slot holds an unused 0."""
    rows = []
    for src in range(4):
        taken = iter(constants[4 + 3 * src : 7 + 3 * src].tolist())
        rows.append([0 if dst == src else next(taken) for dst in range(4)])
    return np.array(rows, dtype=np.uint32)[..., None]


_ROUND_XOR, _ROUND_MULT = _by_round(_POOL_XOR), _by_round(_POOL_MULT)
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
# generate_state: 8 output hashes, reading the pool cyclically
_OUT_XOR, _OUT_MULT = (c.reshape(2, 4) for c in _hash_constants(0x8B51F9DD, 0x58F38DED, 8))


def seed_sequence_words(entropy: np.ndarray) -> np.ndarray:
    """(L, 4) uint64: row j is `SeedSequence(int(entropy[j])).generate_state(4,
    np.uint64)` for a uint64 array `entropy` of L lanes."""
    entropy = np.asarray(entropy, dtype=np.uint64)
    pool = np.empty((4, entropy.size), dtype=np.uint32)
    pool[0] = entropy  # the cast keeps the low word
    pool[1] = entropy >> np.uint64(32)
    low = pool[:2]
    _hash(low, _POOL_XOR[:2, None], _POOL_MULT[:2, None], out=low)
    pool[2:] = _POOL_TAIL[:, None]
    for src in range(4):
        # every other word mixes in its own hash of the source word, which
        # none of those mixes changes: mix all four rows, then put it back
        kept = pool[src].copy()
        hashed = _hash(kept, _ROUND_XOR[src], _ROUND_MULT[src])
        hashed *= _MIX_R
        pool *= _MIX_L
        pool -= hashed
        pool ^= pool >> np.uint32(16)
        pool[src] = kept
    # the 8 output words read the pool twice over, as (lane, 2, 4)
    out = np.empty((entropy.size, 2, 4), dtype=np.uint32)
    _hash(pool.T[:, None, :], _OUT_XOR, _OUT_MULT, out=out)
    # word pairs (2i, 2i + 1) form the i-th uint64, low word first
    return out.reshape(-1, 8).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _seed_words() -> type:
    """A seed sequence whose state is already computed: `PCG64(SeedWords(w))`
    is `PCG64(entropy)` when w is `seed_sequence_words` of that entropy.

    Defined on first use, as `np.random` itself is imported: importing it
    with this module moved logreg-eval's peak RSS up by 0.4 MB.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


@dataclass(frozen=True, eq=False)
class StreamBatch:
    """Lanes of streams under one root: lane j is `root.derive(k0[j], k1[j],
    ...)` for the key arrays `keys`, which are cast to uint64 copies (the
    cast wraps a negative key, as `derive` does). A batch with no keys is
    the single lane `root`.

    Nothing is hashed until `bit_generators` seeds the lanes, so a batch
    whose lanes are never drawn from costs no hashing.
    """

    root: RngStream
    keys: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "keys", tuple(np.asarray(k).astype(np.uint64) for k in self.keys))

    def __len__(self) -> int:
        return self.keys[0].size if self.keys else 1

    def __getitem__(self, j: int) -> RngStream:
        """Lane j, with its seed and id taken modulo 2**64 (which names the same stream)."""
        sid = _mix_keys(self.root.stream_id, [int(key[j]) for key in self.keys])
        return RngStream(self.root.seed & _MASK64, sid & _MASK64)

    def take(self, lanes) -> "StreamBatch":
        return StreamBatch(self.root, tuple(key[lanes] for key in self.keys))

    def bit_generators(self) -> list[np.random.PCG64]:
        """Lane j's `self[j].generator().bit_generator`, at the start of its
        stream: every lane's id is derived, and its PCG64 seeded, in one
        array pass."""
        ids = np.full(len(self), self.root.stream_id & _MASK64, dtype=np.uint64)
        for key in self.keys:  # `_mix_keys`, one key array at a time
            ids ^= _splitmix64_lanes(key)
            _splitmix64_lanes(ids, out=ids)
        ids ^= np.uint64(splitmix64(self.root.seed & _MASK64))
        words = seed_sequence_words(_splitmix64_lanes(ids, out=ids))
        seed_words = _seed_words()
        return [np.random.PCG64(seed_words(row)) for row in words]


def as_generator(rng: RngStream | np.random.Generator) -> np.random.Generator:
    """Accept either a stream (restarted) or a live generator (continued)."""
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


def inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j a_j b_j over the last axis: a scalar for vectors, one sum per
    row for (rows, d) stacks (a row's bits can differ from the same row's
    alone). Every reduction goes through here so that no bit depends on the
    BLAS thread count: `np.dot` and `@` on vectors call OpenBLAS's `ddot`,
    which splits a long sum across its threads; einsum calls no BLAS."""
    return np.einsum("...j,...j->...", a, b)


def l2_norm_sq(x: ParamVector) -> float:
    """Squared Euclidean norm."""
    return float(inner(x, x))


def sample_dirichlet(
    rng: RngStream | np.random.Generator, alpha: float, dim: int, key: str | None = None
) -> np.ndarray:
    """Draw one probability vector from Dir(alpha * ones(dim)).

    Sampled as normalized Gamma(alpha) draws. For very small alpha some
    draws underflow to exactly zero; the vector is redrawn in the (measure
    zero in theory, ~never in practice) event that all of them do. An
    error about alpha carries `key`, the caller's name for it.
    """
    if alpha <= 0:
        raise ParameterError(f"dirichlet concentration must be positive, got {alpha}", key=key)
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
    raise NumericError("dirichlet sampling failed: all gamma draws underflowed", key=key)
