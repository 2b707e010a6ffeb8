"""The class-major softmax against the row-major one it replaced, bit for bit.

`_softmax_residual` and `_label_log_probs` copy the logits (..., C) into a
class-major (C, R) buffer and take every per-row reduction as an op over
the C class rows. `_class_sum` must add those rows in the order NumPy's
add.reduce uses along a contiguous axis, and the residual must come back
C-contiguous, as the backward's matmuls round a transposed operand
differently.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedagm.tasks import _class_sum, _label_log_probs, _mean_losses, _softmax_residual


# The row-major code the class-major versions replaced, kept as the oracle.


def row_major_label_log_probs(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Log-softmax probability of each row's label, for logits (..., C) and labels (...)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    total = np.exp(shifted).sum(axis=-1)
    return np.take_along_axis(shifted, labels[..., None], axis=-1)[..., 0] - np.log(total)


def row_major_softmax_residual(logits: np.ndarray, labels: np.ndarray, losses=None) -> np.ndarray:
    """softmax(logits) minus the one-hot labels, for logits (S, B, C) and
    labels (S, B), computed in place of the logits.

    With `losses` (S,), each slot's mean cross-entropy is written there,
    from the same shifted logits: the bits of `_label_log_probs`.
    """
    logits -= logits.max(axis=-1, keepdims=True)
    if losses is not None:
        picked = np.take_along_axis(logits, labels[..., None], axis=-1)[..., 0]
    np.exp(logits, out=logits)
    total = logits.sum(axis=-1, keepdims=True)
    if losses is not None:
        # negating before the sum is exact: rounding is symmetric in sign
        losses[...] = _mean_losses(-(picked - np.log(total[..., 0])))
    logits /= total
    logits -= labels[..., None] == np.arange(logits.shape[-1])
    return logits


def bits(a: np.ndarray) -> np.ndarray:
    """The float64 entries as integers, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def class_major_draws(classes: int, rows: int, span: int, seed: int) -> np.ndarray:
    """(classes, rows) positive finite values whose magnitudes spread over 10**+-span."""
    gen = np.random.default_rng(seed)
    shape = (classes, rows)
    return gen.random(shape) * 10.0 ** gen.integers(-span, span + 1, shape)


class TestClassSum:
    @given(
        classes=st.integers(1, 300),
        rows=st.integers(1, 5),
        span=st.sampled_from([0, 3, 20, 300]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_numpys_row_sums(self, classes, rows, span, seed):
        z = class_major_draws(classes, rows, span, seed)
        expected = np.ascontiguousarray(z.T).sum(axis=-1)
        np.testing.assert_array_equal(bits(_class_sum(z)), bits(expected))

    def test_every_class_count_up_to_300(self):
        # every branch and tail length: sequential, one to sixteen blocks of
        # eight with every tail, and the recursive splits above 128
        for classes in range(1, 301):
            z = class_major_draws(classes, 3, 20, classes)
            expected = np.ascontiguousarray(z.T).sum(axis=-1)
            np.testing.assert_array_equal(bits(_class_sum(z)), bits(expected), err_msg=f"C = {classes}")


def draw_logits(style: str, shape: tuple, gen: np.random.Generator) -> np.ndarray:
    if style == "tied":
        # few distinct values, so most rows have tied entries, often at the max
        return gen.integers(-2, 3, shape).astype(np.float64)
    if style == "spread":
        # exp of the shifted logits underflows to 0 in many entries
        return gen.uniform(-700.0, 700.0, shape)
    return 3.0 * gen.standard_normal(shape)


class TestSoftmaxOracle:
    @given(
        classes=st.sampled_from([2, 7, 8, 10, 17, 129]),
        slots=st.integers(1, 4),
        batch=st.integers(1, 6),
        style=st.sampled_from(["normal", "tied", "spread"]),
        with_losses=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_residual_and_losses_keep_the_row_major_bits(
        self, classes, slots, batch, style, with_losses, seed
    ):
        gen = np.random.default_rng(seed)
        logits = draw_logits(style, (slots, batch, classes), gen)
        labels = gen.integers(0, classes, (slots, batch))
        losses = np.empty(slots) if with_losses else None
        expected_losses = np.empty(slots) if with_losses else None

        expected = row_major_softmax_residual(logits.copy(), labels, expected_losses)
        buffer = logits.copy()
        resid = _softmax_residual(buffer, labels, losses)

        # the backward's products take it as it is; its layout sets their bits
        assert resid.shape == (slots, batch, classes)
        assert resid.flags.c_contiguous
        assert resid is buffer
        np.testing.assert_array_equal(bits(resid), bits(expected))
        if with_losses:
            np.testing.assert_array_equal(bits(losses), bits(expected_losses))

    @given(
        classes=st.sampled_from([2, 7, 8, 10, 17, 129]),
        lead=st.sampled_from([(5,), (1, 1), (3, 4)]),
        style=st.sampled_from(["normal", "tied", "spread"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_label_log_probs_keep_the_row_major_bits(self, classes, lead, style, seed):
        gen = np.random.default_rng(seed)
        logits = draw_logits(style, (*lead, classes), gen)
        labels = gen.integers(0, classes, lead)
        before = logits.copy()
        found = _label_log_probs(logits, labels)
        assert found.shape == lead
        np.testing.assert_array_equal(bits(found), bits(row_major_label_log_probs(logits, labels)))
        np.testing.assert_array_equal(bits(logits), bits(before))
