"""The per-record feature kernel against the per-span reference.

featurize_chunk featurizes every span of a chunk in one batched pass;
tests/oracles.py holds the span-at-a-time reference it replaced. Every
feature must agree within 1e-12 relative, except the *_cov_prob
features, which go through E[x^2] - E[x]^2 and must agree within 1e-12
absolute.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrfilter import (
    Chunk,
    ClassSchema,
    DecayConfig,
    EntitySpan,
    FeatureConfig,
    assemble_features,
    build_feature_schema,
    compute_pdm,
    featurize_chunk,
)
from nrfilter.errors import AnchorOutOfRange, SchemaMismatch
from nrfilter.features import SCOPE_ORDER

from oracles import reference_features

RTOL = 1e-12
COV_ATOL = 1e-12


@st.composite
def chunks_with_spans(draw):
    K = draw(st.sampled_from((3, 5, 7)))
    T = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.dirichlet(np.full(K, draw(st.sampled_from((0.05, 0.3, 1.0)))), size=T)
    # Taggers also print exact one-hot rows, with exact zeros.
    one_hot = rng.random(T) < draw(st.sampled_from((0.0, 0.3)))
    probs[one_hot] = np.eye(K)[rng.integers(0, K, int(one_hot.sum()))]
    word_ids = None
    if draw(st.booleans()):
        # Few distinct ids in random order: words interleave, so a span's
        # Word scope is often non-contiguous.
        word_ids = tuple(int(w) for w in rng.integers(0, 3, size=T))
    schema = ClassSchema(tuple(f"E{j}" for j in range((K - 1) // 2)))
    chunk = Chunk("c", schema, tuple(f"t{i}" for i in range(T)), probs, word_ids)

    def span(start, end):
        anchor = draw(st.integers(start, end))
        return EntitySpan("c", "E0", start, end, anchor, "")

    spans = [
        span(0, T - 1),  # the whole chunk: empty Context
        span(0, draw(st.integers(0, T - 1))),  # at position 0
        span(draw(st.integers(0, T - 1)), T - 1),  # at position T - 1
    ]
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, T - 1))
        spans.append(span(start, draw(st.integers(start, T - 1))))
    spans = draw(st.permutations(spans))
    config = FeatureConfig(
        decay=DecayConfig(draw(st.sampled_from((0.5, 1.0, 2.5))),
                          draw(st.sampled_from((4, 10)))),
        neighbor_window=draw(st.sampled_from((0, 1, 3))),
        scopes=tuple(draw(st.lists(st.sampled_from(SCOPE_ORDER), unique=True, max_size=5))),
    )
    return chunk, spans, config


def assert_matches_reference(chunk, spans, config, got):
    names = build_feature_schema(chunk.schema, config).names
    want = np.array([
        reference_features(
            chunk.probs, s.start, s.end, s.anchor, chunk.word_ids, config.decay.decay_rate,
            config.decay.bins, config.neighbor_window, config.scopes,
        )
        for s in spans
    ])
    assert got.shape == want.shape == (len(spans), len(names))
    cov = np.array([name.endswith("_cov_prob") for name in names], dtype=bool)
    np.testing.assert_allclose(got[:, ~cov], want[:, ~cov], rtol=RTOL, atol=0)
    np.testing.assert_allclose(got[:, cov], want[:, cov], rtol=0, atol=COV_ATOL)


class TestKernelAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(chunks_with_spans())
    def test_every_feature_of_every_span(self, case):
        chunk, spans, config = case
        assert_matches_reference(chunk, spans, config, featurize_chunk(chunk, spans, config))

    def test_fixture_spans(self, sentence1, sentence2):
        from nrfilter import decode_spans

        for record in (sentence1, sentence2):
            spans = decode_spans(record.chunk)
            config = FeatureConfig()
            assert_matches_reference(
                record.chunk, spans, config, featurize_chunk(record.chunk, spans, config)
            )


class TestKernelShape:
    @settings(max_examples=100, deadline=None)
    @given(chunks_with_spans())
    def test_rows_equal_one_span_calls(self, case):
        chunk, spans, config = case
        matrix = featurize_chunk(chunk, spans, config)
        for span, row in zip(spans, matrix):
            np.testing.assert_array_equal(assemble_features(chunk, span, config).values, row)

    @settings(max_examples=100, deadline=None)
    @given(chunks_with_spans())
    def test_density_block_is_compute_pdm(self, case):
        # One PDM implementation: the kernel's block is bit-for-bit the
        # one-anchor map with the span excluded.
        chunk, spans, config = case
        bins, K = config.decay.bins, chunk.schema.K
        matrix = featurize_chunk(chunk, spans, config)
        for span, row in zip(spans, matrix):
            pdm = compute_pdm(chunk, span.anchor, config.decay, exclude=span.positions)
            np.testing.assert_array_equal(row[: bins * K], pdm.values.T.ravel())

    def test_many_spans_of_a_long_record(self):
        # Density maps are built a block of spans at a time, so featurizing
        # 200 spans of a 3,000-token record allocates far less than one
        # (n_spans, T, K) float array (34 MB).
        rng = np.random.default_rng(5)
        T, K = 3000, 7
        schema = ClassSchema(("A", "B", "C"))
        chunk = Chunk("long", schema, ("t",) * T, rng.dirichlet(np.full(K, 0.3), size=T))
        spans = [EntitySpan("long", "A", s, s + 2, s + 1, "") for s in range(0, T - 3, 15)]
        tracemalloc.start()
        try:
            matrix = featurize_chunk(chunk, spans)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(spans) == 200
        assert peak < 8 * 2**20
        for i in (0, 1, 2, 3, 99, 199):
            np.testing.assert_array_equal(assemble_features(chunk, spans[i]).values, matrix[i])

    def test_no_spans(self, sentence1):
        config = FeatureConfig()
        matrix = featurize_chunk(sentence1.chunk, [], config)
        assert matrix.shape == (0, len(build_feature_schema(sentence1.chunk.schema, config)))

    def test_span_outside_chunk(self, sentence1):
        T = sentence1.chunk.n_tokens
        with pytest.raises(AnchorOutOfRange):
            featurize_chunk(sentence1.chunk, [EntitySpan("c", "", T - 1, T, T - 1, "")])

    def test_schema_from_other_config(self, sentence1):
        other = build_feature_schema(sentence1.chunk.schema, FeatureConfig(scopes=("Token",)))
        span = EntitySpan("c", "", 4, 4, 4, "")
        with pytest.raises(SchemaMismatch):
            featurize_chunk(sentence1.chunk, [span], FeatureConfig(), other)


class TestWordIds:
    @pytest.mark.parametrize("word_ids", [
        ("a", "b", "b", "a", "c"),
        (5, "5", 5, "5", 5),
        ([0], [1], [1], [0, 1], [1]),
        (0, 1.0, 1, 2.5, 1),
        (0, 1, float("nan"), 1, float("nan")),
    ], ids=["strings", "int-and-string", "lists", "mixed-numbers", "nan"])
    def test_any_json_word_id(self, word_ids):
        # Chunks may carry any word ids; they group by Python equality, as
        # in the reference, so a NaN anchor has an empty Word scope.
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(3), size=5)
        chunk = Chunk("w", ClassSchema(("",)), tuple("abcde"), probs, word_ids)
        spans = [EntitySpan("w", "", 0, 4, a, "") for a in range(5)]
        config = FeatureConfig()
        assert_matches_reference(chunk, spans, config, featurize_chunk(chunk, spans, config))
