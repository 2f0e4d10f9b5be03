import dataclasses
import io
import json
import os
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from nrfilter import (
    PipelineConfig,
    decode_spans,
    STRONG,
    SynthConfig,
    WEAK,
    iter_generate,
    load_model,
    run_pipeline,
    stream_classify,
    write_records,
)
from nrfilter.core import EntitySpan, parse_record, record_to_obj
from nrfilter.errors import InvalidConfig, SchemaMismatch
from nrfilter.features import read_feature_csv
from nrfilter import pipeline
from nrfilter.pipeline import _tp_flags, assign_validation, featurize_records


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
        counts = stream_classify(corpus_path, result.model, out, PipelineConfig())
        lines = out.getvalue().strip().split("\n")
        assert counts[STRONG] + counts[WEAK] == len(lines)
        ids = [json.loads(line)["chunk_id"] for line in lines]
        assert ids == sorted(ids, key=lambda s: int(s.split("-")[1]))

    def test_schema_guard(self, corpus_path, pipeline_run):
        result, _ = pipeline_run
        with pytest.raises(SchemaMismatch):
            stream_classify(
                corpus_path, result.model, io.StringIO(),
                PipelineConfig(bins=5),
            )

    def test_no_path_flag(self, corpus_path, pipeline_run):
        result, _ = pipeline_run
        out = io.StringIO()
        stream_classify(corpus_path, result.model, out, PipelineConfig(),
                        include_path=False)
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
    def test_verdicts_p_weak_and_paths(self, tmp_path):
        corpus = str(tmp_path / "merged.jsonl")
        merged_corpus(corpus, list(iter_generate(SynthConfig(n_strong=240, n_weak=240, seed=43))))
        result = run_pipeline(corpus, str(tmp_path / "run"), PipelineConfig())
        with open(result.paths["predictions"], "r", encoding="utf-8") as handle:
            batch = [json.loads(line) for line in handle]
        out = io.StringIO()
        stream_classify(corpus, result.model, out, PipelineConfig())
        streamed = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(streamed) == len(batch) == result.report["n_spans"]
        assert {obj["verdict"] for obj in streamed} == {STRONG, WEAK}
        for got, want in zip(streamed, batch):
            for key in ("chunk_id", "start", "end", "anchor", "verdict", "p_weak", "path"):
                assert got[key] == want[key], key


def recount_report(paths):
    """Each split's counts and drop rates, recounted from the split and
    verdict of every line of predictions.jsonl and the label of the same
    row of features.csv."""
    table = read_feature_csv(paths["features"])
    with open(paths["predictions"], "r", encoding="utf-8") as handle:
        predictions = [json.loads(line) for line in handle]
    assert len(predictions) == len(table.labels)
    cells = {"train": Counter(), "validation": Counter()}
    for pred, label, span in zip(predictions, table.labels, table.spans):
        assert (pred["chunk_id"], pred["start"], pred["end"]) == (span.chunk_id, span.start, span.end)
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


class TestFeaturizeBlocks:
    @pytest.mark.parametrize("cells", [1, 300, pipeline._BLOCK_CELLS])
    def test_blocks_equal_one_record_at_a_time(self, cells):
        # Records of two class schemas interleave, so blocks also end
        # where the schema changes; a record's rows are the same bits.
        records = [parse_record(record_to_obj(r)) for r in
                   iter_generate(SynthConfig(n_strong=30, n_weak=30, seed=44))]
        for i, record in enumerate(parse_record(record_to_obj(r)) for r in
                                   iter_generate(SynthConfig(n_strong=5, n_weak=5, seed=45,
                                                             entity_name="Drug"))):
            records.insert(7 * i, record)
        config = PipelineConfig()
        with mock.patch.object(pipeline, "_BLOCK_CELLS", cells):
            blocked = list(featurize_records(records, config, batch=True))
        single = list(featurize_records(records, config))
        assert [r.chunk.id for r, *_ in blocked] == [r.chunk.id for r, *_ in single]
        for (_, spans_a, schema_a, a), (_, spans_b, schema_b, b) in zip(blocked, single):
            assert spans_a == spans_b and schema_a is schema_b
            assert a.tobytes() == b.tobytes()
        assert len({schema.class_schema for *_, schema, _ in single}) == 2


class TestHelpers:
    def test_assign_validation_deterministic(self):
        a = [assign_validation(3, i, 0.2) for i in range(1000)]
        b = [assign_validation(3, i, 0.2) for i in range(1000)]
        assert a == b
        assert 100 < sum(a) < 300

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
        assert _tp_flags(record, [span, other]) == [True, False]

    def test_span_is_tp_requires_supervision(self):
        record = parse_record({
            "id": "u", "classes": ["O", "B", "I"],
            "tokens": [{"text": "a", "probs": [0.0, 1.0, 0.0]}],
        })
        with pytest.raises(InvalidConfig):
            _tp_flags(record, [EntitySpan("u", "", 0, 0, 0, "a")])


class TestPipelineConfigFile:
    def test_roundtrip(self, tmp_path):
        config = PipelineConfig(decay_rate=2.0, bins=8, seed=2)
        path = str(tmp_path / "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config.to_obj(), handle)
        assert PipelineConfig.from_file(path) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidConfig):
            PipelineConfig.from_obj({"decay": 1.0})

    def test_validation_fraction_bounds(self):
        with pytest.raises(InvalidConfig):
            PipelineConfig(validation_fraction=0.0)
