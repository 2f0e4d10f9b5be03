import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nrfilter import (
    Chunk,
    ClassSchema,
    baseline_grid,
    decode_spans,
    mc_dropout_aggregate,
    span_confidence,
    temperature_scale,
)
from nrfilter.baselines import mean_span_entropy
from nrfilter.errors import InvalidConfig, NonPositiveTemperature, PassMisalignment

from oracles import reference_baseline_grid


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


def kept(method, chunk, span, value, **kwargs):
    """Whether the grid point ``value`` of ``method`` keeps one span."""
    (row,) = baseline_grid(method, [(chunk, span, True)], [value], **kwargs)
    return row["tp_drop_pct"] == 0.0


class TestSoftmaxThreshold:
    def test_tau_zero_always_keeps(self):
        chunk, span = b_span_chunk(0.55)
        assert kept("softmax", chunk, span, 0.0)

    def test_confident_false_positive_survives(self, sentence2):
        (span,) = decode_spans(sentence2.chunk)
        assert kept("softmax", sentence2.chunk, span, 0.95)

    def test_drops_below_threshold(self):
        chunk, span = b_span_chunk(0.90)
        assert not kept("softmax", chunk, span, 0.95)

    def test_uses_weakest_token_of_span(self):
        chunk = chunk_with_rows([[0, 0.99, 0.01], [0.4, 0.0, 0.6]])
        (span,) = decode_spans(chunk)
        assert span.end == 1
        assert span_confidence(chunk, span) == pytest.approx(0.6)
        assert not kept("softmax", chunk, span, 0.7)

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(3)
        cases = []
        for i in range(100):
            cases.append(b_span_chunk(rng.uniform(0.51, 1.0), chunk_id=f"c{i}"))
        previous = None
        for tau in (0.0, 0.3, 0.6, 0.9, 0.99, 1.0):
            kept_ids = {c.id for c, s in cases if kept("softmax", c, s, tau)}
            if previous is not None:
                assert kept_ids <= previous
            previous = kept_ids


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
        assert kept("entropy", chunk, span, 1e-9)

    def test_uniform_dropped_at_one(self):
        chunk = chunk_with_rows([[1, 0, 0], [1 / 3, 1 / 3, 1 / 3]])
        schema = chunk.schema
        # Force a span on the uniform token by making B the argmax tie-winner.
        probs = np.array([[1, 0, 0], [1 / 3 - 1e-9, 1 / 3 + 1e-9, 1 / 3]])
        chunk = Chunk("u", schema, ("a", "b"), probs)
        (span,) = decode_spans(chunk)
        assert not kept("entropy", chunk, span, 1.0)

    def test_keeps_on_exact_boundary(self):
        chunk = chunk_with_rows([[1, 0, 0], [0.25, 0.5, 0.25]])
        (span,) = decode_spans(chunk)
        h = mean_span_entropy(chunk, span)
        assert h == pytest.approx(1.0397207708399179, abs=1e-12)
        assert kept("entropy", chunk, span, h)          # strict inequality: keep
        assert not kept("entropy", chunk, span, h - 1e-9)


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
        def keeps(passes, mean_cutoff, var_cutoff):
            return kept("mcdropout", c1, span, mean_cutoff,
                        passes_by_chunk={c1.id: passes}, var_grid=[var_cutoff])

        assert not keeps([c1, c2], mean_cutoff=0.9, var_cutoff=1.0)
        assert not keeps([c1, c2], mean_cutoff=0.0, var_cutoff=0.1)
        assert keeps([c1, c1], mean_cutoff=0.9, var_cutoff=0.1)


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

    @pytest.mark.parametrize("method, grid, var_grid, error", [
        ("softmax", [0.5, float("nan")], None, InvalidConfig),
        ("softmax", [1.5], None, InvalidConfig),
        ("temp", [float("nan")], None, NonPositiveTemperature),
        ("temp", [1.0, 0.0], None, NonPositiveTemperature),
        ("entropy", [float("nan")], None, InvalidConfig),
        ("entropy", [-0.1], None, InvalidConfig),
        ("mcdropout", [float("nan")], None, InvalidConfig),
        ("mcdropout", [7.0], None, InvalidConfig),
        ("mcdropout", [-0.5], None, InvalidConfig),
        ("mcdropout", [0.5], [float("nan")], InvalidConfig),
        ("mcdropout", [0.5], [0.1, -1.0], InvalidConfig),
    ])
    def test_grid_values_checked_first(self, method, grid, var_grid, error):
        """A value outside its method's domain is rejected before any span
        is scored: here the span's chunk has no passes, which would be a
        PassMisalignment."""
        chunk, span = b_span_chunk(0.8)
        with pytest.raises(error):
            baseline_grid(method, [(chunk, span, True)], grid, {}, var_grid)

    def test_keep_rules_at_a_grid_value(self):
        """A score equal to its grid value is kept: confidence and the pass
        mean by >=, entropy and the pass variance by <=."""
        chunk, span = b_span_chunk(0.8)
        other = chunk_with_rows([[1, 0, 0], [0.4, 0.6, 0]])
        passes = {chunk.id: [chunk, other]}
        mean, var = mc_dropout_aggregate(passes[chunk.id], span)
        for method, value, var_grid in (
            ("softmax", span_confidence(chunk, span), None),
            ("entropy", mean_span_entropy(chunk, span), None),
            ("mcdropout", mean, [var]),
        ):
            assert kept(method, chunk, span, value, passes_by_chunk=passes, var_grid=var_grid)
            assert baseline_grid(method, [(chunk, span, True)], [value], passes, var_grid) \
                == reference_baseline_grid(method, [(chunk, span, True)], [value], passes, var_grid)

    @pytest.mark.parametrize("method", ["softmax", "temp", "entropy", "mcdropout"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_per_span_oracle(self, method, data):
        labeled, passes = data.draw(labeled_spans_with_passes())
        var_grid = None
        if method == "softmax":
            own, domain = [span_confidence(c, s) for c, s, _ in labeled], st.floats(0.0, 1.0)
        elif method == "entropy":
            own, domain = [mean_span_entropy(c, s) for c, s, _ in labeled], st.floats(0.0, 1.2)
        elif method == "temp":
            own, domain = [1.0], st.floats(0.05, 20.0)
        else:
            aggregates = [mc_dropout_aggregate(passes[c.id], s) for c, s, _ in labeled]
            own, domain = [m for m, _ in aggregates], st.floats(0.0, 1.0)
            own_var = [v for _, v in aggregates] + [0.0]
            var_grid = data.draw(st.lists(st.sampled_from(own_var) | st.floats(0.0, 0.3),
                                          min_size=1, max_size=4))
        # Grid values at the spans' own scores, where the keep rule decides.
        values = st.sampled_from(own) | domain if own else domain
        grid = data.draw(st.lists(values, min_size=1, max_size=5))
        assert baseline_grid(method, labeled, grid, passes, var_grid) \
            == reference_baseline_grid(method, labeled, grid, passes, var_grid)


@st.composite
def labeled_spans_with_passes(draw):
    """Up to eight one-span chunks of one entity type (O, B, I), each span
    one to three tokens long with its TP flag, and two to four passes per
    chunk that differ at the anchor or are all the chunk itself."""
    unit = st.floats(0.01, 1.0)

    def row(top):
        low, mid, high = sorted(draw(st.lists(unit, min_size=3, max_size=3)))
        values = [low, mid]
        if draw(st.booleans()):
            values.reverse()
        values.insert(top, high + 0.01)  # a strict argmax
        return [v / sum(values) for v in values]

    labeled, passes = [], {}
    for i in range(draw(st.integers(0, 8))):
        rows = [[1.0, 0.0, 0.0]] + [row(1 if t == 0 else 2)
                                    for t in range(draw(st.integers(1, 3)))]
        chunk = chunk_with_rows(rows, f"c{i}")
        (span,) = decode_spans(chunk)
        labeled.append((chunk, span, draw(st.booleans())))
        n_passes = draw(st.integers(2, 4))
        if draw(st.booleans()):
            passes[chunk.id] = [chunk] * n_passes
        else:
            passes[chunk.id] = [
                chunk_with_rows(rows[:span.anchor] + [row(1)] + rows[span.anchor + 1:], chunk.id)
                for _ in range(n_passes)
            ]
    return labeled, passes
