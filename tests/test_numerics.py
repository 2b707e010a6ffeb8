"""Vector arithmetic, counter-based streams, and Dirichlet sampling."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedagm import (
    ParameterError,
    RngStream,
    StreamBatch,
    as_generator,
    l2_norm_sq,
    sample_dirichlet,
    splitmix64,
)
from fedagm.numerics import inner, seed_sequence_words

# First outputs of the reference splitmix64 stream seeded with 0.
GOLDEN = 0x9E3779B97F4A7C15
SPLITMIX_OUT_0 = 0xE220A8397B1DCDAF
SPLITMIX_OUT_1 = 0x6E789E6AA1B965F4


def test_splitmix64_reference_vectors():
    assert splitmix64(0) == SPLITMIX_OUT_0
    assert splitmix64(GOLDEN) == SPLITMIX_OUT_1


def test_splitmix64_matches_independent_reference():
    mask = (1 << 64) - 1

    def reference(z):
        z = (z + GOLDEN) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return (z ^ (z >> 31)) & mask

    rng = np.random.default_rng(7)
    for z in rng.integers(0, 1 << 63, size=200, dtype=np.uint64):
        assert splitmix64(int(z)) == reference(int(z))


def test_splitmix64_wraps_modulo_2_64():
    assert splitmix64((1 << 64) + 5) == splitmix64(5)
    assert 0 <= splitmix64((1 << 64) - 1) < (1 << 64)


class TestNormSq:
    def test_three_four_five(self):
        assert l2_norm_sq([3.0, 4.0]) == 25.0

    def test_zero_vector(self):
        assert l2_norm_sq(np.zeros(11)) == 0.0

    def test_matches_bruteforce_dot(self):
        # Oracle: accumulate x_j * x_j with math.fsum, independent of BLAS.
        gen = np.random.default_rng(123)
        for _ in range(100):
            n = int(gen.integers(1, 64))
            x = gen.uniform(-5.0, 5.0, size=n)
            oracle = math.fsum(float(v) * float(v) for v in x)
            assert l2_norm_sq(x) == pytest.approx(oracle, rel=1e-12, abs=1e-300)

    def test_inner_is_einsum_by_vector_or_by_row(self):
        # vectors and (rows, d) stacks each keep one pinned summation order;
        # d = 35,594 is far above the length at which `ddot` goes threaded
        gen = np.random.default_rng(5)
        a, b = gen.normal(size=(2, 4, 35594))
        assert inner(a[0], b[0]) == np.einsum("i,i->", a[0], b[0])
        np.testing.assert_array_equal(inner(a, b), np.einsum("ij,ij->i", a, b))
        assert inner(a, b).shape == (4,)
        np.testing.assert_allclose(inner(a, b), [math.fsum(u * v) for u, v in zip(a, b)], rtol=1e-9)


class TestDirichlet:
    def test_dim_one_is_exactly_one(self):
        out = sample_dirichlet(RngStream(3), 0.7, 1)
        np.testing.assert_array_equal(out, [1.0])

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            sample_dirichlet(RngStream(0), 0.0, 3)
        with pytest.raises(ParameterError):
            sample_dirichlet(RngStream(0), -1.0, 3)
        with pytest.raises(ParameterError):
            sample_dirichlet(RngStream(0), 1.0, 0)

    def test_simplex_property_over_random_parameters(self):
        gen = np.random.default_rng(2024)
        stream = RngStream(99)
        for i in range(10_000):
            alpha = float(10.0 ** gen.uniform(-2, 3))
            dim = int(gen.integers(1, 33))
            draw = sample_dirichlet(stream.derive(i), alpha, dim)
            assert draw.shape == (dim,)
            assert np.all(draw >= 0.0)
            assert abs(float(draw.sum()) - 1.0) <= 1e-12

    def test_concentrated_alpha_is_near_uniform(self):
        # alpha=1e6, dim=10: entries within 0.01 of 0.1 essentially always.
        stream = RngStream(5)
        hits = 0
        for i in range(1000):
            draw = sample_dirichlet(stream.derive(i), 1e6, 10)
            if np.all(np.abs(draw - 0.1) < 0.01):
                hits += 1
        assert hits / 1000 > 0.99

    def test_sparse_alpha_concentrates_mass(self):
        # alpha=0.01, dim=10: a single coordinate usually dominates.
        stream = RngStream(6)
        hits = 0
        for i in range(1000):
            draw = sample_dirichlet(stream.derive(i), 0.01, 10)
            if float(draw.max()) > 0.9:
                hits += 1
        assert hits / 1000 > 0.80

    def test_mean_matches_symmetric_dirichlet(self):
        # Oracle: E[draw_j] = 1/dim; check the MC mean within 4 standard errors.
        stream = RngStream(7)
        draws = np.stack(
            [sample_dirichlet(stream.derive(i), 2.0, 8) for i in range(4000)]
        )
        se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - 0.125) < 4.0 * se)


class TestStreams:
    def test_same_seed_same_bits(self):
        a = RngStream(42, 17).generator().normal(size=256)
        b = RngStream(42, 17).generator().normal(size=256)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42).derive(1).generator().normal(size=64)
        b = RngStream(42).derive(2).generator().normal(size=64)
        assert not np.array_equal(a, b)

    def test_derive_chaining_is_associative(self):
        s = RngStream(9)
        assert s.derive(3, 4) == s.derive(3).derive(4)
        assert s.derive(3, 4, 5) == s.derive(3, 4).derive(5)

    def test_derive_depends_on_order(self):
        s = RngStream(9)
        assert s.derive(3, 4) != s.derive(4, 3)

    def test_as_generator_restarts_streams(self):
        s = RngStream(11)
        first = as_generator(s).normal(size=8)
        second = as_generator(s).normal(size=8)
        np.testing.assert_array_equal(first, second)

    def test_as_generator_passes_generators_through(self):
        gen = np.random.default_rng(0)
        first = as_generator(gen).normal(size=8)
        second = as_generator(gen).normal(size=8)
        assert not np.array_equal(first, second)

    def test_dirichlet_determinism(self):
        a = sample_dirichlet(RngStream(1, 2), 0.3, 12)
        b = sample_dirichlet(RngStream(1, 2), 0.3, 12)
        np.testing.assert_array_equal(a, b)


# Seeds where the one-word and two-word entropy forms meet, and the ends.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
U64 = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1))
NUMPY_CHANGED = (
    f"NumPy {np.__version__}: SeedSequence or PCG64 seeding no longer matches "
    "numerics.seed_sequence_words"
)


class TestStreamBatch:
    """The vectorised derivation and seeding give each lane the bits of its
    own `RngStream.derive` and `RngStream.generator`."""

    @settings(max_examples=150, deadline=None)
    @given(entropy=st.lists(U64, min_size=1, max_size=12))
    def test_seed_words_equal_seed_sequence(self, entropy):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no uint wraparound may warn
            words = seed_sequence_words(np.array(entropy, dtype=np.uint64))
        assert words.shape == (len(entropy), 4) and words.dtype == np.uint64
        for value, row in zip(entropy, words):
            expected = np.random.SeedSequence(value).generate_state(4, np.uint64)
            np.testing.assert_array_equal(row, expected, err_msg=NUMPY_CHANGED)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.one_of(U64, st.integers(-(2**63), -1)),
        stream_id=U64,
        prefix=st.lists(st.integers(-(2**63), 2**64 - 1), max_size=2),
        lanes=st.lists(
            st.tuples(st.integers(-(2**63), 2**63 - 1), U64), min_size=1, max_size=16
        ),
        words=st.integers(1, 5),
    )
    def test_lanes_equal_one_stream_at_a_time(self, seed, stream_id, prefix, lanes, words):
        signed = np.array([a for a, _ in lanes], dtype=np.int64)
        unsigned = np.array([b for _, b in lanes], dtype=np.uint64)
        root = RngStream(seed, stream_id)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = root.derive_lanes(*prefix, signed, unsigned)
            bit_generators = batch.bit_generators()
        assert len(batch) == len(lanes) == len(bit_generators)
        for j, (a, b) in enumerate(lanes):
            alone = root.derive(*prefix, a, b)
            assert batch[j] == RngStream(seed % 2**64, alone.stream_id)
            np.testing.assert_array_equal(
                bit_generators[j].random_raw(words),
                alone.generator().bit_generator.random_raw(words),
                err_msg=NUMPY_CHANGED,
            )

    def test_take_and_a_keyless_batch_keep_each_lane(self):
        root = RngStream(2**64 - 1, 2**64 - 1)
        keys = np.array([5, -3, 2**40])
        batch = root.derive_lanes(9, keys)
        streams = [root.derive(9, int(k)) for k in keys]
        assert [batch[j] for j in range(3)] == streams
        taken = batch.take([2, 0])
        assert len(taken) == 2 and [taken[j] for j in range(2)] == [streams[2], streams[0]]
        keyless = StreamBatch(RngStream(5, 3))
        assert len(keyless) == 1 and keyless[0] == RngStream(5, 3)
        lanes = taken.bit_generators() + keyless.bit_generators()
        for bit_generator, stream in zip(lanes, [streams[2], streams[0], RngStream(5, 3)]):
            np.testing.assert_array_equal(
                bit_generator.random_raw(3),
                stream.generator().bit_generator.random_raw(3),
                err_msg=NUMPY_CHANGED,
            )
