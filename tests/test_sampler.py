"""The vectorised minibatch sampler returns, bit for bit, what sequential
`Generator.choice(n, batch, replace=False)` calls on each slot's generator
return, including the draws it must hand back to `choice`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedagm.local
from fedagm import (
    ClientShard,
    Dataset,
    LocalConfig,
    MlpTask,
    ParameterError,
    RngStream,
    StackedFederation,
    StructuralError,
    run_clients,
    run_local,
)
from fedagm.local import choice_from_words, draw_minibatches, words32


def sequential(stream, n, batch, steps):
    gen = stream.generator()
    return np.stack([gen.choice(n, size=batch, replace=False) for _ in range(steps)])


def assert_matches_choice(streams, sizes, batch, steps):
    draws = draw_minibatches(streams, sizes, batch, steps)
    assert draws.shape == (len(streams), steps, batch)
    assert draws.dtype == np.int64
    assert draws.flags.c_contiguous
    for s, (stream, n) in enumerate(zip(streams, sizes)):
        np.testing.assert_array_equal(draws[s], sequential(stream, int(n), batch, steps))


def test_streams_are_pcg64_backed():
    gen = RngStream(3, 11).generator()
    assert isinstance(gen.bit_generator, np.random.PCG64), (
        f"draw_minibatches reads PCG64's word layout, but NumPy {np.__version__} "
        f"backs RngStream generators with {type(gen.bit_generator).__name__}"
    )


@settings(max_examples=200, deadline=None)
@given(
    batch=st.integers(1, 20),
    steps=st.integers(1, 12),
    extra=st.lists(st.integers(1, 280), min_size=1, max_size=5),
    seed=st.integers(0, 2**63 - 1),
    stream_id=st.integers(0, 2**64 - 1),
)
def test_draws_equal_sequential_choice(batch, steps, extra, seed, stream_id):
    sizes = [min(batch + e, 300) for e in extra]
    streams = [RngStream(seed, stream_id).derive(s) for s in range(len(sizes))]
    assert_matches_choice(streams, sizes, batch, steps)


@pytest.mark.parametrize(
    "batch",
    [
        300,  # 300 <= 20000 // 50: Floyd's sampling, vectorised
        500,  # above 20000 // 50: NumPy's tail shuffle, redrawn with choice
    ],
)
def test_large_population(batch):
    assert_matches_choice([RngStream(5, 1), RngStream(5, 2)], [20000, 20000], batch, 3)


def test_odd_word_counts_carry_the_high_half_into_the_next_draw():
    # batch=2 takes 3 words a draw, so every second draw starts on a high half
    assert_matches_choice([RngStream(8, 4)], [7], 2, 5)


def test_a_rejected_word_is_redrawn_with_choice():
    # Stream (2024, 2123) hits Lemire's rejection zone in its fourth draw of
    # 200 from 10000: the vectorised pass gets that draw wrong and flags it.
    stream, n, batch, steps = RngStream(2024, 2123), 10000, 200, 4
    per_draw = 2 * batch - 1
    words = words32(stream.generator(), steps * per_draw)
    raw, exact = choice_from_words(words.reshape(steps, per_draw), np.full(steps, n), batch)
    reference = sequential(stream, n, batch, steps)
    assert exact.tolist() == [True, True, True, False]
    assert not np.array_equal(raw[3], reference[3])
    assert_matches_choice([RngStream(2024, 7), stream, RngStream(2024, 9)], [n] * 3, batch, steps)


def test_crafted_words_in_the_rejection_zone_are_flagged():
    # A zero word leaves remainder 0, below 2**32 % bound unless the bound is a
    # power of two: Floyd's first bound here is 7 - 3 + 1 = 5, then 6 and 7.
    words = np.zeros((2, 5), dtype=np.uint64)
    words[1] = np.uint64(2**32 - 1)
    _, exact = choice_from_words(words, np.array([7, 7]), 3)
    assert exact.tolist() == [False, True]


def test_flagged_slots_get_choices_bits(monkeypatch):
    real = fedagm.local.choice_from_words

    def flag_slot_one(words, sizes, batch):
        out, exact = real(words, sizes, batch)
        steps = sizes.size // 3
        out[steps : 2 * steps] = -1  # garbage that only a redraw can repair
        exact[steps + 1] = False
        return out, exact

    monkeypatch.setattr(fedagm.local, "choice_from_words", flag_slot_one)
    assert_matches_choice([RngStream(1, s) for s in range(3)], [30, 12, 40], 4, 3)


def test_population_must_exceed_the_batch():
    with pytest.raises(ParameterError):
        draw_minibatches([RngStream(0)], [4], 4, 1)
    with pytest.raises(StructuralError):
        draw_minibatches([RngStream(0), RngStream(1)], [9], 4, 1)


def test_lockstep_slots_keep_the_bits_of_lone_clients():
    # Rows gathered through a column-major index array come out column-major,
    # and the MLP kernel's products then round some slots differently (one
    # feature, three rows, batch 2: about one seed in ten).
    task = MlpTask(1, 4, 3, weight_decay=0.01)
    cfg = LocalConfig(K=2, gamma=0.05, batch_size=2)
    for seed in range(40):
        gen = np.random.default_rng(seed)
        data = Dataset(gen.normal(size=(3, 1)), gen.integers(0, 3, 3), 3)
        fed = StackedFederation.build([task], [data])
        x0 = 0.3 * gen.normal(size=task.dim)
        streams = [RngStream(seed).derive(slot) for slot in range(3)]
        together = run_clients(fed, [0, 0, 0], x0, cfg, streams)
        for s, stream in enumerate(streams):
            alone = run_local(task, ClientShard(data, 1.0), x0, cfg, rng=stream)
            np.testing.assert_array_equal(together[s].x_final, alone.x_final)
