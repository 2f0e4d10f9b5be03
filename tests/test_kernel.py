"""The feature kernel against the per-span reference, and block calls
against one-record calls.

featurize_chunks featurizes every span of a block of chunks in one
batched pass; tests/oracles.py holds the span-at-a-time reference it
replaced. Every feature must agree within 1e-12 relative, except the
*_cov_prob features, which must agree within 1e-12 absolute: the
reference takes the two-pass sqrt(mean((x - mean)^2)) / mean, and the
kernel E[x^2] - E[x]^2 wherever that cannot cancel. A block's rows must
equal one-record calls bit for bit.
"""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrfilter import (
    Chunk,
    ClassSchema,
    EntitySpan,
    FeatureConfig,
    compute_pdm,
    feature_names,
)
from nrfilter import features
from nrfilter.errors import AnchorOutOfRange, SchemaMismatch
from nrfilter.features import SCOPE_ORDER, featurize_chunks

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
        decay_rate=draw(st.sampled_from((0.5, 1.0, 2.5))),
        bins=draw(st.sampled_from((4, 10))),
        neighbor_window=draw(st.sampled_from((0, 1, 3))),
        scopes=tuple(draw(st.lists(st.sampled_from(SCOPE_ORDER), unique=True, max_size=5))),
    )
    return chunk, spans, config


def assert_matches_reference(chunk, spans, config, got):
    names = feature_names(chunk.schema, config)
    want = np.array([
        reference_features(
            chunk.probs, s.start, s.end, s.anchor, chunk.word_ids, config.decay_rate,
            config.bins, config.neighbor_window, config.scopes,
        )
        for s in spans
    ])
    assert got.shape == want.shape == (len(spans), len(names))
    cov = np.array([name.endswith("_cov_prob") for name in names], dtype=bool)
    np.testing.assert_allclose(got[:, ~cov], want[:, ~cov], rtol=RTOL, atol=0)
    np.testing.assert_allclose(got[:, cov], want[:, cov], rtol=0, atol=COV_ATOL)


def exact_cov(values):
    """Population CoV in rational arithmetic, rounded at the end."""
    xs = [Fraction(v) for v in values]
    mean = sum(xs) / len(xs)
    return math.sqrt(sum((x - mean) ** 2 for x in xs) / len(xs)) / float(mean)


# A Neighbor scope's I-class values from a block that the one-pass CoV
# missed by 4.2e-11: E[x^2] - E[x]^2 cancels where values nearly agree.
NEARLY_EQUAL = (0.9999993653748577, 0.999999882108715, 1.0)


class TestKernelAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(chunks_with_spans())
    def test_every_feature_of_every_span(self, case):
        chunk, spans, config = case
        assert_matches_reference(chunk, spans, config, featurize_chunks([chunk], [spans], config))

    def test_fixture_spans(self, sentence1, sentence2):
        from nrfilter import decode_spans

        for record in (sentence1, sentence2):
            spans = decode_spans(record.chunk)
            config = FeatureConfig()
            assert_matches_reference(
                record.chunk, spans, config, featurize_chunks([record.chunk], [spans], config)
            )

    @pytest.mark.parametrize("span, word_ids, scope", [
        ((3, 3, 3), None, "Neighbor"),
        ((0, 2, 0), None, "Phrase"),
        ((0, 2, 0), (0, 0, 0, 1), "Word"),
    ], ids=["Neighbor", "Phrase", "Word-ids"])
    def test_nearly_equal_values(self, span, word_ids, scope):
        probs = np.zeros((4, 5))
        probs[:3, 2] = NEARLY_EQUAL
        probs[:3, 0] = 1.0 - probs[:3, 2]
        probs[3, 1] = 1.0
        chunk = Chunk("c", ClassSchema(("E0", "E1")), ("t",) * 4, probs, word_ids)
        spans = [EntitySpan("c", "E0", *span, "")]
        config = FeatureConfig(neighbor_window=3)
        got = featurize_chunks([chunk], [spans], config)
        name = f"{scope}_I-E0-tag_cov_prob"
        cov = got[0, feature_names(chunk.schema, config).index(name)]
        assert abs(cov - exact_cov(NEARLY_EQUAL)) <= COV_ATOL
        assert_matches_reference(chunk, spans, config, got)


class TestKernelShape:
    @settings(max_examples=100, deadline=None)
    @given(chunks_with_spans())
    def test_rows_equal_one_span_calls(self, case):
        chunk, spans, config = case
        matrix = featurize_chunks([chunk], [spans], config)
        for span, row in zip(spans, matrix):
            np.testing.assert_array_equal(featurize_chunks([chunk], [[span]], config)[0], row)

    @settings(max_examples=100, deadline=None)
    @given(chunks_with_spans())
    def test_density_block_is_compute_pdm(self, case):
        # One PDM implementation: the kernel's block is bit-for-bit the
        # one-anchor map with the span excluded.
        chunk, spans, config = case
        bins, K = config.bins, chunk.schema.K
        matrix = featurize_chunks([chunk], [spans], config)
        for span, row in zip(spans, matrix):
            pdm = compute_pdm(chunk, span.anchor, config, exclude=span.positions)
            np.testing.assert_array_equal(row[: bins * K], pdm.T.ravel())

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
            matrix = featurize_chunks([chunk], [spans])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(spans) == 200
        assert peak < 8 * 2**20
        for i in (0, 1, 2, 3, 99, 199):
            np.testing.assert_array_equal(featurize_chunks([chunk], [[spans[i]]])[0], matrix[i])

    def test_no_spans(self, sentence1):
        config = FeatureConfig()
        matrix = featurize_chunks([sentence1.chunk], [[]], config)
        assert matrix.shape == (0, len(feature_names(sentence1.chunk.schema, config)))

    def test_span_outside_chunk(self, sentence1):
        T = sentence1.chunk.n_tokens
        with pytest.raises(AnchorOutOfRange):
            featurize_chunks([sentence1.chunk], [[EntitySpan("c", "", T - 1, T, T - 1, "")]])


class TestWordIds:
    @pytest.mark.parametrize("word_ids", [
        ("a", "b", "b", "a", "c"),
        (5, "5", 5, "5", 5),
        ([0], [1], [1], [0, 1], [1]),
        (0, 1.0, 1, 2.5, 1),
        (0, 1, float("nan"), 1, float("nan")),
        (None, 0, None, 0, None),
        # Ids that no int64 or uint64 holds, or big ints beside a
        # float: float64 would round distinct ids together.
        (2**63, 2**63 + 1, -1, 2**63 + 1, 0),
        (2**53, 2**53 + 1, 0.5, 2**53, 1),
    ], ids=["strings", "int-and-string", "lists", "mixed-numbers", "nan", "none",
            "beyond-int64", "beyond-float53"])
    def test_any_json_word_id(self, word_ids):
        # Chunks may carry any word ids; they group by Python equality, as
        # in the reference, so a NaN anchor has an empty Word scope; a None
        # id is a word of its own.
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(3), size=5)
        chunk = Chunk("w", ClassSchema(("",)), tuple("abcde"), probs, word_ids)
        spans = [EntitySpan("w", "", 0, 4, a, "") for a in range(5)]
        config = FeatureConfig()
        assert_matches_reference(chunk, spans, config, featurize_chunks([chunk], [spans], config))


@st.composite
def blocks(draw):
    """1-20 records of one class schema, T from 1 to 40, each with 0-4
    spans, often at its first or last token; word ids absent, integer or
    string, per record."""
    K = draw(st.sampled_from((3, 5, 7, 9)))
    schema = ClassSchema(tuple(f"E{j}" for j in range((K - 1) // 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chunks, spans = [], []
    for r in range(draw(st.integers(1, 20))):
        T = draw(st.integers(1, 40))
        probs = rng.dirichlet(np.full(K, draw(st.sampled_from((0.05, 0.3, 1.0)))), size=T)
        one_hot = rng.random(T) < 0.2
        probs[one_hot] = np.eye(K)[rng.integers(0, K, int(one_hot.sum()))]
        kind = draw(st.sampled_from(("none", "int", "str", "mixed")))
        word_ids = {
            "none": None,
            "int": tuple(int(w) for w in rng.integers(0, 3, size=T)),
            "str": tuple(f"w{w}" for w in rng.integers(0, 3, size=T)),
            "mixed": tuple(int(w) if w % 2 else str(w) for w in rng.integers(0, 4, size=T)),
        }[kind]
        chunk = Chunk(f"r{r}", schema, ("t",) * T, probs, word_ids)
        chunk_spans = []
        for _ in range(draw(st.integers(0, 4))):
            start = draw(st.sampled_from((0, T - 1, int(rng.integers(0, T)))))
            end = draw(st.sampled_from((start, T - 1, int(rng.integers(start, T)))))
            anchor = int(rng.integers(start, end + 1))
            chunk_spans.append(EntitySpan(chunk.id, "E0", start, end, anchor, ""))
        chunks.append(chunk)
        spans.append(chunk_spans)
    config = FeatureConfig(
        decay_rate=draw(st.sampled_from((0.5, 1.0, 2.5))),
        bins=draw(st.sampled_from((4, 10))),
        neighbor_window=draw(st.sampled_from((0, 1, 3, 50))),
        scopes=tuple(draw(st.lists(st.sampled_from(SCOPE_ORDER), unique=True, max_size=5))),
    )
    return chunks, spans, config


def one_record_calls(chunks, spans, config):
    width = len(feature_names(chunks[0].schema, config))
    rows = [featurize_chunks([c], [s], config) for c, s in zip(chunks, spans)]
    return np.concatenate(rows) if rows else np.empty((0, width))


class TestBlockKernel:
    @settings(max_examples=300, deadline=None)
    @given(blocks(), st.sampled_from((1, 40, features._PDM_CELLS)))
    def test_block_equals_one_record_calls(self, case, cells):
        # Small _PDM_CELLS split a block's density maps into many groups.
        chunks, spans, config = case
        want = one_record_calls(chunks, spans, config)
        with mock.patch.object(features, "_PDM_CELLS", cells):
            got = featurize_chunks(chunks, spans, config)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(blocks())
    def test_block_matches_reference(self, case):
        chunks, spans, config = case
        got = featurize_chunks(chunks, spans, config)
        lo = 0
        for chunk, chunk_spans in zip(chunks, spans):
            if chunk_spans:
                rows = got[lo : lo + len(chunk_spans)]
                assert_matches_reference(chunk, chunk_spans, config, rows)
            lo += len(chunk_spans)

    def test_long_chunk_among_short_ones_pads_little(self):
        # A group's chunks are padded to its longest one; one 3,000-token
        # chunk among 1,500 short ones must not pad them all.
        rng = np.random.default_rng(8)
        schema = ClassSchema(("A",))
        chunks = [Chunk("long", schema, ("t",) * 3000, rng.dirichlet(np.ones(3), size=3000))]
        chunks += [Chunk(f"s{i}", schema, ("t",) * 10, rng.dirichlet(np.ones(3), size=10))
                   for i in range(1500)]
        spans = [[EntitySpan(c.id, "A", 2, 3, 2, "")] for c in chunks]
        tracemalloc.start()
        try:
            got = featurize_chunks(chunks, spans)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert got.tobytes() == one_record_calls(chunks, spans, FeatureConfig()).tobytes()

    def test_class_schemas_must_agree(self):
        rng = np.random.default_rng(9)
        a = Chunk("a", ClassSchema(("A",)), ("t",) * 3, rng.dirichlet(np.ones(3), size=3))
        b = Chunk("b", ClassSchema(("B",)), ("t",) * 3, rng.dirichlet(np.ones(3), size=3))
        span = [EntitySpan("a", "A", 0, 0, 0, "")]
        with pytest.raises(SchemaMismatch, match="'b'"):
            featurize_chunks([a, b], [span, span])
