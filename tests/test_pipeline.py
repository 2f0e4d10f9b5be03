import csv
import dataclasses
import io
import itertools
import json
import os
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrfilter import (
    PipelineConfig,
    decode_spans,
    featurize_chunks,
    STRONG,
    SynthConfig,
    WEAK,
    iter_generate,
    load_model,
    run_pipeline,
    stream_classify,
    write_records,
)
from nrfilter.cli import main
from nrfilter.core import (
    EntitySpan,
    iter_records,
    parse_record,
    read_config,
    read_config_file,
    record_to_obj,
)
from nrfilter.errors import InvalidConfig, SchemaMismatch
from nrfilter.features import read_feature_csv
from nrfilter import pipeline
from nrfilter.pipeline import featurize_blocks, validation_draws
from nrfilter.tree import Internal, Leaf, TrainConfig, TreeModel, cut_threshold

from oracles import reference_decision_path, reference_leaf_for, reference_verdict_line


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("corpus") / "synth.jsonl")
    write_records(path, iter_generate(SynthConfig(n_strong=300, n_weak=300, seed=41)))
    return path


@pytest.fixture(scope="module")
def pipeline_run(corpus_path, tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("run"))
    result = run_pipeline(corpus_path, out_dir, PipelineConfig())
    return result, out_dir


class TestRunPipeline:
    def test_validation_drops_meet_targets(self, pipeline_run):
        result, _ = pipeline_run
        val = result.report["validation"]
        assert val["tp_drop_pct"] <= 6.0
        assert val["fp_drop_pct"] >= 50.0

    def test_artifacts_written(self, pipeline_run):
        result, out_dir = pipeline_run
        for key in ("features", "model", "predictions", "report"):
            assert os.path.exists(result.paths[key])
        model = load_model(result.paths["model"])
        assert model.decision_threshold == result.tune.threshold

    def test_predictions_keep_dropped_spans_with_paths(self, pipeline_run):
        result, _ = pipeline_run
        verdicts = {STRONG: 0, WEAK: 0}
        with open(result.paths["predictions"], "r", encoding="utf-8") as handle:
            for line in handle:
                obj = json.loads(line)
                verdicts[obj["verdict"]] += 1
                assert obj["path"].startswith("(")
                assert 0.0 <= obj["p_weak"] <= 1.0
        assert verdicts[WEAK] > 0 and verdicts[STRONG] > 0
        assert verdicts[STRONG] + verdicts[WEAK] == result.report["n_spans"]

    def test_rerun_is_byte_identical(self, corpus_path, pipeline_run, tmp_path):
        _, first_dir = pipeline_run
        second_dir = str(tmp_path / "again")
        run_pipeline(corpus_path, second_dir, PipelineConfig())
        for name in ("features.csv", "model.json", "predictions.jsonl", "report.json"):
            with open(os.path.join(first_dir, name), "rb") as a:
                first = a.read()
            with open(os.path.join(second_dir, name), "rb") as b:
                second = b.read()
            assert first == second, name

    def test_entity_f1_improves(self, pipeline_run):
        result, _ = pipeline_run
        block = result.report["entity_f1_validation"]
        base = block["base"]["totals"]
        filtered = block["filtered"]["totals"]
        assert filtered["precision"] > base["precision"]
        assert filtered["f1"] >= base["f1"]

    def test_walks_each_span_once(self, corpus_path, tmp_path):
        """θ, the verdicts and the report all read one walk per span, and θ
        is the one ``cut_threshold`` picks from the validation rows' leaves."""
        with mock.patch.object(TreeModel, "leaf", autospec=True, side_effect=TreeModel.leaf) as leaf:
            result = run_pipeline(corpus_path, str(tmp_path), PipelineConfig())
        assert leaf.call_count == result.report["n_spans"]
        table = read_feature_csv(result.paths["features"])
        with open(result.paths["predictions"], "r", encoding="utf-8") as handle:
            val = np.array([json.loads(line)["split"] == "validation" for line in handle])
        is_tp = np.array([label == STRONG for label in table.labels])
        model = result.model
        scores = model.p_weak(model.walk(table.matrix[val]))
        assert cut_threshold(scores, is_tp[val], model.config.max_tp_drop) == result.tune

    def test_unlabeled_corpus_rejected(self, tmp_path):
        record = parse_record({
            "id": "x", "classes": ["O", "B", "I"],
            "tokens": [{"text": "a", "probs": [0.0, 1.0, 0.0]}],
        })
        path = str(tmp_path / "nolabel.jsonl")
        write_records(path, [record])
        with pytest.raises(InvalidConfig):
            run_pipeline(path, str(tmp_path / "out"), PipelineConfig())


class TestStreamClassify:
    def test_counts_and_order(self, corpus_path, pipeline_run):
        result, _ = pipeline_run
        out = io.StringIO()
        counts = stream_classify(corpus_path, result.model, out)
        lines = out.getvalue().strip().split("\n")
        assert counts[STRONG] + counts[WEAK] == len(lines)
        ids = [json.loads(line)["chunk_id"] for line in lines]
        assert ids == sorted(ids, key=lambda s: int(s.split("-")[1]))

    def test_schema_guard(self, tmp_path, pipeline_run):
        """A corpus of another class list gives other feature names."""
        result, _ = pipeline_run
        record = parse_record({
            "id": "k5", "classes": ["O", "B-A", "I-A", "B-B", "I-B"],
            "tokens": [{"text": "a", "probs": [0.0, 1.0, 0.0, 0.0, 0.0]}],
        })
        corpus = str(tmp_path / "k5.jsonl")
        write_records(corpus, [record])
        with pytest.raises(SchemaMismatch):
            stream_classify(corpus, result.model, io.StringIO())

    def test_no_path_flag(self, corpus_path, pipeline_run):
        result, _ = pipeline_run
        out = io.StringIO()
        stream_classify(corpus_path, result.model, out, include_path=False)
        first = json.loads(out.getvalue().split("\n", 1)[0])
        assert "path" not in first and "verdict" in first


def merged_corpus(path, records, per_record=3):
    """Join runs of single-span synth records into multi-span records whose
    tokens pair up into words, so every scope, word ids included, is in
    play; each strong record's span becomes a gold span."""
    with open(path, "w", encoding="utf-8") as out:
        for i in range(0, len(records) - per_record + 1, per_record):
            tokens, gold, offset = [], [], 0
            for record in records[i : i + per_record]:
                obj = record_to_obj(record)
                if record.label == STRONG:
                    for span in decode_spans(record.chunk):
                        gold.append({"entity_type": span.entity_type,
                                     "start": span.start + offset, "end": span.end + offset})
                tokens.extend(obj["tokens"])
                offset += record.chunk.n_tokens
            for t, tok in enumerate(tokens):
                tok["word_id"] = t // 2
            merged = {"id": f"merged-{i}", "classes": obj["classes"], "tokens": tokens}
            if gold:
                merged["gold_spans"] = gold
            else:
                merged["label"] = WEAK
            out.write(json.dumps(merged) + "\n")


class TestStreamMatchesPipeline:
    @pytest.mark.parametrize("config", [
        PipelineConfig(),
        PipelineConfig(decay_rate=2.0, bins=8, neighbor_window=3, orphan_policy="ignore"),
    ], ids=["default", "non-default"])
    def test_verdicts_p_weak_and_paths(self, tmp_path, config):
        """``stream_classify`` without a config, and ``classify`` without
        feature flags, featurize as the model records."""
        corpus = str(tmp_path / "merged.jsonl")
        merged_corpus(corpus, list(iter_generate(SynthConfig(n_strong=240, n_weak=240, seed=43))))
        result = run_pipeline(corpus, str(tmp_path / "run"), config)
        with open(result.paths["predictions"], "r", encoding="utf-8") as handle:
            batch = [json.loads(line) for line in handle]
        out = io.StringIO()
        stream_classify(corpus, result.model, out)
        classified = tmp_path / "classify.jsonl"
        assert main(["classify", "--input", corpus, "--model", result.paths["model"],
                     "--out", str(classified)]) == 0
        for lines in (out.getvalue().splitlines(), classified.read_text("utf-8").splitlines()):
            streamed = [json.loads(line) for line in lines]
            assert len(streamed) == len(batch) == result.report["n_spans"]
            assert {obj["verdict"] for obj in streamed} == {STRONG, WEAK}
            for got, want in zip(streamed, batch):
                for key in ("chunk_id", "start", "end", "anchor", "verdict", "p_weak", "path"):
                    assert got[key] == want[key], key


def recount_report(paths):
    """Each split's counts and drop rates, recounted from the split and
    verdict of every line of predictions.jsonl and the label of the same
    row of features.csv."""
    with open(paths["features"], "r", encoding="utf-8", newline="") as handle:
        _, *rows = csv.reader(handle)
    with open(paths["predictions"], "r", encoding="utf-8") as handle:
        predictions = [json.loads(line) for line in handle]
    assert len(predictions) == len(rows)
    cells = {"train": Counter(), "validation": Counter()}
    for pred, (chunk_id, _, start, end, _, label, *_) in zip(predictions, rows):
        assert (pred["chunk_id"], pred["start"], pred["end"]) == (chunk_id, int(start), int(end))
        cells[pred["split"]][label, pred["verdict"]] += 1
    splits = {}
    for split, cell in cells.items():
        n_tp = cell[STRONG, STRONG] + cell[STRONG, WEAK]
        n_fp = cell[WEAK, STRONG] + cell[WEAK, WEAK]
        splits[split] = {
            "n_tp": n_tp,
            "n_fp": n_fp,
            "tp_drop_pct": 100.0 * cell[STRONG, WEAK] / n_tp if n_tp else 0.0,
            "fp_drop_pct": 100.0 * cell[WEAK, WEAK] / n_fp if n_fp else 0.0,
        }
    return splits


class TestReportMatchesPredictions:
    @pytest.mark.parametrize("supervision", ["labels", "gold"])
    def test_split_counts(self, tmp_path, supervision):
        corpus = str(tmp_path / "corpus.jsonl")
        records = list(iter_generate(SynthConfig(n_strong=240, n_weak=240, seed=47)))
        if supervision == "labels":
            write_records(corpus, [dataclasses.replace(r, gold_spans=()) for r in records])
        else:
            merged_corpus(corpus, records)
        result = run_pipeline(corpus, str(tmp_path / "run"), PipelineConfig())
        with open(result.paths["report"], "r", encoding="utf-8") as handle:
            report = json.load(handle)
        recount = recount_report(result.paths)
        for split in ("train", "validation"):
            assert report[split] == recount[split], split
        assert recount["validation"]["fp_drop_pct"] > 0.0
        assert ("entity_f1_validation" in report) == (supervision == "gold")


def one_record_at_a_time(records, config):
    """The oracle: (spans, rows) of each record, one kernel call per
    record."""
    for record in records:
        spans = decode_spans(record.chunk, config.orphan_policy)
        yield spans, featurize_chunks([record.chunk], [spans], config)


def one_record_at_a_time_lines(records, model, config):
    """The oracle's classify output: each span's line, rendered whole by
    json.dumps, from one kernel call per record."""
    for spans, rows in one_record_at_a_time(records, config):
        for span, row in zip(spans, rows):
            leaf, _ = reference_leaf_for(model, row)
            p_weak = model.nodes[leaf].p_weak
            verdict = model.verdict(p_weak)
            path = reference_decision_path(model, row)
            yield reference_verdict_line(span, verdict, p_weak, path=path) + "\n"


def without_spans(record, suffix):
    """A copy of a K=3 record whose every token is a confident O."""
    obj = record_to_obj(record)
    obj["id"] += suffix
    for tok in obj["tokens"]:
        tok["probs"] = [1.0, 0.0, 0.0]
    return parse_record(obj)


def widening_corpus():
    """Short records, then wider ones from partway through (so the widest
    record seen grows), with records without spans in between."""
    def synth(seed, tokens):
        return [parse_record(record_to_obj(r)) for r in iter_generate(SynthConfig(
            n_strong=12, n_weak=12, min_tokens=tokens[0], max_tokens=tokens[1], seed=seed))]

    records = synth(61, (8, 10)) + synth(62, (30, 40)) + synth(63, (8, 14))
    for i in range(0, len(records), 5):
        records.insert(i + 1, without_spans(records[i], "-none"))
    return records


class TestFeaturizeBlocks:
    @pytest.mark.parametrize("cells", [1, 300, pipeline._BLOCK_CELLS])
    def test_blocks_equal_one_record_at_a_time(self, cells):
        # Records of two class schemas interleave, so blocks also end
        # where the schema changes; a record's rows are the same bits in
        # the pipeline's blocks and in a stream's.
        records = [parse_record(record_to_obj(r)) for r in
                   iter_generate(SynthConfig(n_strong=30, n_weak=30, seed=44))]
        for i, record in enumerate(parse_record(record_to_obj(r)) for r in
                                   iter_generate(SynthConfig(n_strong=5, n_weak=5, seed=45,
                                                             entity_name="Drug"))):
            records.insert(7 * i, record)
        config = PipelineConfig()
        single = list(one_record_at_a_time(records, config))
        assert len({record.chunk.schema for record in records}) == 2
        for batch in (True, False):
            with mock.patch.object(pipeline, "_BLOCK_CELLS", cells):
                blocks = [list(block) for block in featurize_blocks(records, config, batch=batch)]
            assert all(len({r.chunk.schema for r, *_ in block}) == 1 for block in blocks)
            blocked = [item for block in blocks for item in block]
            assert [r.chunk.id for r, *_ in blocked] == [r.chunk.id for r in records]
            for (_, spans_a, a), (spans_b, b) in zip(blocked, single):
                assert spans_a == spans_b
                assert a.tobytes() == b.tobytes()

    def test_stream_holds_at_most_its_budget(self):
        records = widening_corpus()
        consumed = 0
        held_records = []

        def pulled():
            # What the stream holds when it pulls record k: every record
            # pulled and not yet handed out.
            for k, record in enumerate(records):
                held = records[consumed:k]
                widest = max((r.chunk.n_tokens for r in records[:k]), default=0)
                assert sum(r.chunk.n_tokens for r in held) <= pipeline._STREAM_WIDTHS * widest
                held_records.append(len(held))
                yield record

        blocks = featurize_blocks(pulled(), PipelineConfig())
        for record, *_ in itertools.chain.from_iterable(blocks):
            assert record is records[consumed]
            consumed += 1
        assert consumed == len(records)
        assert max(held_records) > 1  # the stream does batch records

    def test_stream_classify_equals_one_record_at_a_time(self, tmp_path, pipeline_run):
        result, _ = pipeline_run
        model, config = result.model, PipelineConfig()
        records = widening_corpus()
        corpus = str(tmp_path / "widening.jsonl")
        write_records(corpus, records)
        want = list(one_record_at_a_time_lines(records, model, config))
        assert len(want) < len(records)  # some records have no spans
        out = io.StringIO()
        stream_classify(corpus, model, out)
        assert out.getvalue() == "".join(want)

    def test_stream_blocks_hold_several_long_records(self, tmp_path, pipeline_run):
        # Every record is over _BLOCK_CELLS cells, yet a stream's block
        # holds several of them, within its token budget.
        result, _ = pipeline_run
        model, config = result.model, PipelineConfig()
        corpus = str(tmp_path / "long.jsonl")
        merged_corpus(corpus, list(iter_generate(SynthConfig(n_strong=60, n_weak=60, seed=48))),
                      per_record=12)
        records = list(iter_records(corpus))
        for record in records:
            chunk = record.chunk
            cells = len(decode_spans(chunk)) * chunk.n_tokens * chunk.schema.K
            assert cells > pipeline._BLOCK_CELLS
        sizes, seen = [], []
        for block in featurize_blocks(iter(records), config):
            held = [record.chunk.n_tokens for record, *_ in block]
            seen.extend(held)
            assert sum(held) <= pipeline._STREAM_WIDTHS * max(seen)
            sizes.append(len(held))
        assert sum(sizes) == len(records) and max(sizes) > 1
        out = io.StringIO()
        stream_classify(corpus, model, out)
        assert out.getvalue() == "".join(one_record_at_a_time_lines(records, model, config))


# Strings that json.dumps escapes: quotes, backslashes, control and
# non-ASCII characters, and a lone surrogate.
ESCAPED = st.text(st.sampled_from('a"\\\n\r\t\x00\x1f\x7f\u00e9\u4e2d\u2028\ud800')
                  | st.characters(), max_size=8)
# Three leaves, weak from p_weak 0.5 on.
VERDICT_TREE = TreeModel(
    ("f0", "f1"),
    (Internal(0, 0.5, 1, 2), Leaf(3, 1, 0.25), Internal(1, 0.0, 3, 4), Leaf(1, 3, 0.75),
     Leaf(0, 4, 1.0)),
    0.5, TrainConfig(),
)


@st.composite
def classified_spans(draw):
    start = draw(st.integers(0, 10**6))
    end = start + draw(st.integers(0, 3))
    span = EntitySpan(draw(ESCAPED), draw(ESCAPED), start, end, draw(st.integers(start, end)),
                      draw(ESCAPED))
    row = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)))
    return span, row, draw(st.sampled_from(["train", "validation"]))


class TestVerdictLines:
    @pytest.mark.parametrize("include_path", [True, False])
    @pytest.mark.parametrize("with_split", [True, False])
    @settings(max_examples=60, deadline=None)
    @given(items=st.lists(classified_spans(), min_size=1, max_size=6))
    def test_lines_equal_json_dumps(self, include_path, with_split, items):
        model = VERDICT_TREE
        spans, rows, splits = zip(*items)
        if not with_split:
            splits = [None] * len(spans)
        want = []
        for span, row, split in zip(spans, rows, splits):
            leaf, _ = reference_leaf_for(model, row)
            p_weak = model.nodes[leaf].p_weak
            verdict = model.verdict(p_weak)
            path = reference_decision_path(model, row) if include_path else None
            want.append((verdict, reference_verdict_line(span, verdict, p_weak, split, path)))
        lines = pipeline._verdict_lines(model, include_path)
        given_splits = splits if with_split else None
        leaves = model.walk(rows)
        assert list(lines(spans, leaves, given_splits)) == want
        # One span per call, as a stream of one-span records: the tails
        # rendered by the first calls are reused.
        one_by_one = [line for i in range(len(spans)) for line in lines(
            spans[i : i + 1], leaves[i : i + 1], given_splits and given_splits[i : i + 1])]
        assert one_by_one == want


class TestValidationDraws:
    # The first four draws of two seeds (the second takes three entropy
    # words): a change to numpy's stream would change every split.
    PINNED = {
        0: ("0x1.583691e713a38p-4", "0x1.cf532773542d6p-2",
            "0x1.30e5de2ab5510p-1", "0x1.45cfb8ae85128p-3"),
        2**70 + 3: ("0x1.b70a36c647310p-2", "0x1.8e7311304106ap-1",
                    "0x1.14ef4bc23614cp-3", "0x1.5a50086b92bafp-1"),
    }

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**80 - 1), n=st.integers(0, 50), m=st.integers(0, 50))
    def test_draw_depends_only_on_seed_and_index(self, seed, n, m):
        got = validation_draws(seed, n)
        assert got.tobytes() == validation_draws(seed, n + m)[:n].tobytes()

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_pinned_draws(self, seed):
        assert tuple(float(x).hex() for x in validation_draws(seed, 4)) == self.PINNED[seed]

    def test_no_records(self):
        assert validation_draws(3, 0).shape == (0,)

    def test_fraction_of_records(self):
        assert 1_800 < (validation_draws(3, 10_000) < 0.2).sum() < 2_200


class TestHelpers:
    def test_span_is_tp_prefers_gold(self):
        record = parse_record({
            "id": "g", "classes": ["O", "B", "I"],
            "tokens": [{"text": "a", "probs": [0.0, 1.0, 0.0]},
                        {"text": "b", "probs": [1.0, 0.0, 0.0]}],
            "label": "weak",
            "gold_spans": [{"entity_type": "", "start": 0, "end": 0}],
        })
        span = EntitySpan("g", "", 0, 0, 0, "a")
        other = EntitySpan("g", "", 1, 1, 1, "b")
        # The gold match wins over the weak label.
        assert record.span_labels([span, other]) == [STRONG, WEAK]

    def test_span_is_tp_requires_supervision(self):
        record = parse_record({
            "id": "u", "classes": ["O", "B", "I"],
            "tokens": [{"text": "a", "probs": [0.0, 1.0, 0.0]}],
        })
        span = EntitySpan("u", "", 0, 0, 0, "a")
        assert record.span_labels([span]) == [None]
        with pytest.raises(InvalidConfig, match="neither label nor gold_spans"):
            record.span_labels([], required=True)


class TestPipelineConfigFile:
    def test_roundtrip(self, tmp_path):
        config = PipelineConfig(decay_rate=2.0, bins=8, seed=2)
        path = str(tmp_path / "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(dataclasses.asdict(config), handle)
        assert read_config(PipelineConfig, read_config_file(path), "config") == config

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidConfig):
            read_config(PipelineConfig, {"decay": 1.0}, "config")

    def test_validation_fraction_bounds(self):
        with pytest.raises(InvalidConfig):
            PipelineConfig(validation_fraction=0.0)
