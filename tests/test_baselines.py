import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nrfilter import (
    Chunk,
    ClassSchema,
    baseline_grid,
    decode_spans,
    entropy_filter,
    mc_dropout_aggregate,
    mc_dropout_filter,
    softmax_threshold_filter,
    span_confidence,
    temperature_scale,
)
from nrfilter.baselines import mean_span_entropy
from nrfilter.errors import InvalidConfig, NonPositiveTemperature, PassMisalignment


def chunk_with_rows(rows, chunk_id="c"):
    schema = ClassSchema(("",))
    probs = np.array(rows, dtype=float)
    texts = tuple(f"t{i}" for i in range(len(rows)))
    return Chunk(chunk_id, schema, texts, probs)


def b_span_chunk(b_prob, chunk_id="c"):
    """Two tokens: an O token and a confident B token."""
    chunk = chunk_with_rows([[1, 0, 0], [1 - b_prob, b_prob, 0]], chunk_id)
    (span,) = decode_spans(chunk)
    return chunk, span


class TestSoftmaxThreshold:
    def test_tau_zero_always_keeps(self):
        chunk, span = b_span_chunk(0.55)
        assert softmax_threshold_filter(span, chunk, 0.0)

    def test_confident_false_positive_survives(self, sentence2):
        (span,) = decode_spans(sentence2.chunk)
        assert softmax_threshold_filter(span, sentence2.chunk, 0.95)

    def test_drops_below_threshold(self):
        chunk, span = b_span_chunk(0.90)
        assert not softmax_threshold_filter(span, chunk, 0.95)

    def test_uses_weakest_token_of_span(self):
        chunk = chunk_with_rows([[0, 0.99, 0.01], [0.4, 0.0, 0.6]])
        (span,) = decode_spans(chunk)
        assert span.end == 1
        assert span_confidence(chunk, span) == pytest.approx(0.6)
        assert not softmax_threshold_filter(span, chunk, 0.7)

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(3)
        cases = []
        for i in range(100):
            cases.append(b_span_chunk(rng.uniform(0.51, 1.0), chunk_id=f"c{i}"))
        previous = None
        for tau in (0.0, 0.3, 0.6, 0.9, 0.99, 1.0):
            kept = {c.id for c, s in cases if softmax_threshold_filter(s, c, tau)}
            if previous is not None:
                assert kept <= previous
            previous = kept


class TestTemperatureScale:
    def test_identity_at_one(self):
        rng = np.random.default_rng(4)
        p = rng.dirichlet(np.ones(5), size=1000)
        np.testing.assert_allclose(temperature_scale(p, 1.0), p, atol=1e-12, rtol=0)

    def test_limit_is_uniform(self):
        p = np.array([0.9, 0.05, 0.05])
        np.testing.assert_allclose(temperature_scale(p, 1e6), 1 / 3, atol=1e-4)

    def test_known_value_t2(self):
        # Halving logits takes square roots: sqrt(p) renormalized.
        want = np.sqrt([0.9, 0.05, 0.05])
        want /= want.sum()
        got = temperature_scale(np.array([0.9, 0.05, 0.05]), 2.0)
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)
        assert got.round(4).tolist() == [0.6796, 0.1602, 0.1602]

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(7), size=500)
        T = rng.uniform(0.01, 100.0, size=500)
        for row, t in zip(p, T):
            assert temperature_scale(row, t).sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(1e-6, 1.0), min_size=3, max_size=7),
        st.floats(0.01, 100.0),
    )
    # Rounding ties classes 1 and 2 here, and argmax would take class 1.
    @example([0.5, 0.9999999999999999, 1.0], 3.0)
    def test_argmax_preserved(self, raw, temperature):
        p = np.array(raw) / np.sum(raw)
        scaled = temperature_scale(p, temperature)
        assert int(np.argmax(scaled)) == int(np.argmax(p))

    def test_handles_printed_zeros(self):
        out = temperature_scale(np.array([0.0, 1.0, 0.0]), 2.0)
        assert np.all(np.isfinite(out))
        assert int(np.argmax(out)) == 1

    def test_nonpositive_temperature(self):
        with pytest.raises(NonPositiveTemperature):
            temperature_scale(np.array([0.5, 0.5]), 0.0)


class TestEntropyFilter:
    def test_one_hot_always_kept(self):
        chunk, span = b_span_chunk(1.0)
        assert entropy_filter(span, chunk, 1e-9)

    def test_uniform_dropped_at_one(self):
        chunk = chunk_with_rows([[1, 0, 0], [1 / 3, 1 / 3, 1 / 3]])
        schema = chunk.schema
        # Force a span on the uniform token by making B the argmax tie-winner.
        probs = np.array([[1, 0, 0], [1 / 3 - 1e-9, 1 / 3 + 1e-9, 1 / 3]])
        chunk = Chunk("u", schema, ("a", "b"), probs)
        (span,) = decode_spans(chunk)
        assert not entropy_filter(span, chunk, 1.0)

    def test_keeps_on_exact_boundary(self):
        chunk = chunk_with_rows([[1, 0, 0], [0.25, 0.5, 0.25]])
        (span,) = decode_spans(chunk)
        h = mean_span_entropy(chunk, span)
        assert h == pytest.approx(1.0397207708399179, abs=1e-12)
        assert entropy_filter(span, chunk, h)          # strict inequality: keep
        assert not entropy_filter(span, chunk, h - 1e-9)


class TestMcDropout:
    def test_identical_passes(self):
        chunk, span = b_span_chunk(0.8)
        mean, var = mc_dropout_aggregate([chunk, chunk, chunk], span)
        assert mean == pytest.approx(0.8)
        assert var == pytest.approx(0.0, abs=1e-12)

    def test_two_point_distribution(self):
        c1, span = b_span_chunk(1.0)
        c2 = chunk_with_rows([[1, 0, 0], [1.0, 0.0, 0.0]])
        mean, var = mc_dropout_aggregate([c1, c2], span)
        assert mean == pytest.approx(0.5) and var == pytest.approx(0.25)

    def test_five_pass_example(self):
        values = [0.9, 0.8, 0.95, 0.85, 0.9]
        passes = [chunk_with_rows([[1, 0, 0], [1 - v, v, 0]]) for v in values]
        span = decode_spans(passes[0])[0]
        mean, var = mc_dropout_aggregate(passes, span)
        assert mean == pytest.approx(0.88, abs=1e-12)
        assert var == pytest.approx(0.0026, abs=1e-12)

    def test_variance_zero_iff_agreement(self):
        rng = np.random.default_rng(6)
        for i in range(50):
            v = rng.uniform(0.5, 0.8)
            jitter = 0.0 if i % 2 == 0 else rng.uniform(0.01, 0.2)
            passes = [
                chunk_with_rows([[1, 0, 0], [1 - v, v, 0]]),
                chunk_with_rows([[1, 0, 0], [1 - v - jitter, v + jitter, 0]]),
            ]
            span = decode_spans(passes[0])[0]
            _, var = mc_dropout_aggregate(passes, span)
            assert (var <= 1e-12) == (jitter == 0.0)

    def test_misaligned_passes_rejected(self):
        c1, span = b_span_chunk(0.9)
        c2 = chunk_with_rows([[1, 0, 0], [0.1, 0.9, 0], [1, 0, 0]])
        with pytest.raises(PassMisalignment):
            mc_dropout_aggregate([c1, c2], span)
        with pytest.raises(PassMisalignment):
            mc_dropout_aggregate([c1], span)

    def test_filter_cutoffs(self):
        c1, span = b_span_chunk(1.0)
        c2 = chunk_with_rows([[1, 0, 0], [1.0, 0.0, 0.0]])
        assert not mc_dropout_filter([c1, c2], span, mean_cutoff=0.9, var_cutoff=1.0)
        assert not mc_dropout_filter([c1, c2], span, mean_cutoff=0.0, var_cutoff=0.1)
        assert mc_dropout_filter([c1, c1], span, mean_cutoff=0.9, var_cutoff=0.1)


class TestGrid:
    def test_softmax_grid_rows(self):
        cases = []
        rng = np.random.default_rng(7)
        for i in range(40):
            chunk, span = b_span_chunk(rng.uniform(0.5, 1.0), chunk_id=f"g{i}")
            cases.append((chunk, span, i % 2 == 0))
        rows = baseline_grid("softmax", cases, [0.0, 0.7, 0.9])
        assert len(rows) == 3
        assert rows[0]["tp_drop_pct"] == 0.0 and rows[0]["fp_drop_pct"] == 0.0
        for row in rows:
            assert 0.0 <= row["tp_drop_pct"] <= 100.0

    def test_mcdropout_grid_requires_passes(self):
        with pytest.raises(InvalidConfig):
            baseline_grid("mcdropout", [], [0.5])

    def test_unknown_method(self):
        with pytest.raises(InvalidConfig):
            baseline_grid("nope", [], [0.5])
