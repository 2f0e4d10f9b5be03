import json

import numpy as np
import pytest

from nrfilter import (
    STRONG,
    WEAK,
    SynthConfig,
    decode_spans,
    generate,
    iter_generate,
    record_to_obj,
    train_matrix,
    validate_chunk,
)
from nrfilter import feature_names, featurize_chunks
from nrfilter.errors import InvalidConfig
from nrfilter.features import SCOPE_CONTEXT
from nrfilter.tree import Internal, TrainConfig

from oracles import reference_scopes


def context_i_values(record):
    chunk = record.chunk
    (span,) = decode_spans(chunk)
    context = reference_scopes(chunk.n_tokens, span.start, span.end, span.anchor)[SCOPE_CONTEXT]
    return chunk.probs[list(context), 2]


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        config = SynthConfig(n_strong=30, n_weak=30, seed=123)
        a = [json.dumps(record_to_obj(r)) for r in generate(config)]
        b = [json.dumps(record_to_obj(r)) for r in generate(config)]
        assert a == b

    def test_streaming_equals_materialized(self):
        config = SynthConfig(n_strong=10, n_weak=10, seed=5)
        streamed = [record_to_obj(r) for r in iter_generate(config)]
        stored = [record_to_obj(r) for r in generate(config)]
        assert streamed == stored

    def test_different_seed_differs(self):
        a = [record_to_obj(r) for r in generate(SynthConfig(n_strong=5, n_weak=5, seed=1))]
        b = [record_to_obj(r) for r in generate(SynthConfig(n_strong=5, n_weak=5, seed=2))]
        assert a != b


class TestGeneratedChunks:
    def test_every_chunk_valid_with_one_confident_span(self):
        config = SynthConfig(n_strong=50, n_weak=50, noise_sigma=0.01, seed=9)
        n_strong = n_weak = 0
        for record in generate(config):
            validate_chunk(record.chunk)
            spans = decode_spans(record.chunk)
            assert len(spans) == 1
            span = spans[0]
            b_index = record.chunk.schema.b_index(0)
            assert record.chunk.probs[span.anchor, b_index] >= 0.85
            n_strong += record.label == STRONG
            n_weak += record.label == WEAK
        assert n_strong == 50 and n_weak == 50

    def test_gold_spans_follow_labels(self):
        for record in generate(SynthConfig(n_strong=20, n_weak=20, seed=11)):
            if record.label == STRONG:
                (gold,) = record.gold_spans
                (span,) = decode_spans(record.chunk)
                assert gold.match_key() == span.match_key()
            else:
                assert record.gold_spans == ()

    def test_semantic_pull_contrast_without_flips(self):
        config = SynthConfig(n_strong=100, n_weak=100, seed=13)
        for record in generate(config):
            context_i = context_i_values(record)
            if record.label == STRONG:
                assert context_i.max() > 0.01
            else:
                assert context_i.max() < 0.001

    def test_leak_profile_matches_reference_shape(self):
        # pull_strength 0.048 must reproduce the 0.048 / 0.003 / 0.002
        # nearest-to-farthest leak pattern.
        config = SynthConfig(n_strong=200, n_weak=1, pull_strength=0.048, seed=17)
        seen_three = False
        for record in generate(config):
            if record.label != STRONG:
                continue
            values = sorted((v for v in context_i_values(record) if v > 0), reverse=True)
            if len(values) == 3:
                np.testing.assert_allclose(values, [0.048, 0.003, 0.002], atol=1e-12)
                seen_three = True
        assert seen_three

    def test_anchor_confident_for_both_classes(self):
        for record in generate(SynthConfig(n_strong=40, n_weak=40, seed=19)):
            (span,) = decode_spans(record.chunk)
            assert record.chunk.probs[span.anchor].max() >= 0.9


class TestSeparability:
    def test_depth_one_tree_on_bottom_bin_density(self):
        config = SynthConfig(n_strong=80, n_weak=80, seed=23)
        records = generate(config)
        names = feature_names(records[0].chunk.schema)
        column = names.index("PDM_I-tag_WCount_bkt_0.0-0.1")
        X, labels = [], []
        for record in records:
            (row,) = featurize_chunks([record.chunk], [decode_spans(record.chunk)])
            X.append([row[column]])
            labels.append(record.label)
        model = train_matrix(np.array(X), labels, ("bottom_bin_i_density",),
                             TrainConfig(max_depth=1, min_samples_leaf=1))
        verdicts = [model.verdict(p) for p in model.p_weak(model.walk(np.array(X)))]
        hits = sum(verdict == label for verdict, label in zip(verdicts, labels))
        assert hits == len(labels)

    def test_full_depth_one_tree_splits_on_bottom_bin(self):
        config = SynthConfig(n_strong=80, n_weak=80, seed=29)
        records = generate(config)
        X = np.vstack([featurize_chunks([r.chunk], [decode_spans(r.chunk)]) for r in records])
        labels = [record.label for record in records]
        model = train_matrix(X, labels, feature_names(records[0].chunk.schema),
                             TrainConfig(max_depth=1, min_samples_leaf=1))
        root = model.nodes[0]
        assert isinstance(root, Internal)
        assert model.feature_names[root.feature].endswith("_WCount_bkt_0.0-0.1")
        verdicts = [model.verdict(p) for p in model.p_weak(model.walk(X))]
        hits = sum(verdict == label for verdict, label in zip(verdicts, labels))
        assert hits == len(labels)


class TestConfigValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(pull_strength=0.0)
        with pytest.raises(InvalidConfig):
            SynthConfig(pull_strength=0.2)
        with pytest.raises(InvalidConfig):
            SynthConfig(n_strong=0, n_weak=0)
        with pytest.raises(InvalidConfig):
            SynthConfig(min_tokens=10, max_tokens=9)
        with pytest.raises(InvalidConfig):
            SynthConfig(label_flip_rate=1.5)

    def test_flip_rate_flips_roughly_that_many(self):
        config = SynthConfig(n_strong=400, n_weak=400, label_flip_rate=0.05, seed=31)
        flipped = 0
        for index, record in enumerate(generate(config)):
            expected = STRONG if index % 2 == 0 else WEAK  # classes alternate
            flipped += record.label != expected
        assert 15 <= flipped <= 70  # ~5% of 800
