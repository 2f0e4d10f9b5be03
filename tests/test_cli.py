import argparse
import csv
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict

import pytest

from nrfilter import (
    STRONG,
    SynthConfig,
    baselines,
    decode_spans,
    iter_generate,
    iter_records,
    load_model,
    record_to_obj,
    stream_classify,
    write_records,
)
from nrfilter.cli import (
    EXIT_CONFIG,
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SCHEMA,
    EXIT_VALIDATION,
    build_parser,
    main,
)
from nrfilter.core import MAX_BINS
from nrfilter.errors import NoFeasibleThreshold, NrFilterError
from nrfilter.features import read_feature_csv
from nrfilter.pipeline import _STREAM_WIDTHS
from nrfilter.tree import cut_threshold

from conftest import fixture_path
from test_golden import write_corpus as write_golden_corpus


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = str(root / "corpus.jsonl")
    write_records(corpus, iter_generate(SynthConfig(n_strong=120, n_weak=120, seed=51)))
    return {"root": root, "corpus": corpus}


def run(argv):
    return main([str(a) for a in argv])


# A JSON value nested too deeply for the decoder, and an integer of more
# digits than Python converts: malformed like any other text that does
# not decode, whichever reader meets it.
TOO_DEEP = "[" * 100_000 + "]" * 100_000
TOO_LONG = "1" * 5000


class TestValidate:
    def test_ok(self, workdir, capsys):
        assert run(["validate", "--input", workdir["corpus"]]) == EXIT_OK
        assert "240 records" in capsys.readouterr().out

    def test_missing_file_is_io_error(self, workdir, capsys):
        missing = str(workdir["root"] / "absent.jsonl")
        assert run(["validate", "--input", missing]) == EXIT_IO
        assert "absent.jsonl" in capsys.readouterr().err

    def test_malformed_line_cites_number(self, workdir, capsys):
        bad = str(workdir["root"] / "bad.jsonl")
        with open(workdir["corpus"], "r", encoding="utf-8") as src:
            lines = src.readlines()[:10]
        lines[6] = "{oops\n"
        with open(bad, "w", encoding="utf-8") as out:
            out.writelines(lines)
        assert run(["validate", "--input", bad]) == EXIT_PARSE
        assert ":7" in capsys.readouterr().err

    def test_probability_violation(self, workdir, capsys):
        bad = str(workdir["root"] / "sum.jsonl")
        record = {"id": "x", "classes": ["O", "B", "I"],
                  "tokens": [{"text": "a", "probs": [0.5, 0.6, 0.1]}]}
        with open(bad, "w", encoding="utf-8") as out:
            out.write(json.dumps(record) + "\n")
        assert run(["validate", "--input", bad]) == EXIT_VALIDATION


class TestSynthDecodeFeaturize:
    def test_synth_writes_corpus(self, workdir, capsys):
        out = str(workdir["root"] / "gen.jsonl")
        code = run(["synth", "--out", out, "--n-strong", 5, "--n-weak", 5, "--seed", 3])
        assert code == EXIT_OK and os.path.exists(out)

    def test_synth_rejects_bad_config(self, workdir):
        out = str(workdir["root"] / "gen2.jsonl")
        assert run(["synth", "--out", out, "--pull-strength", 0.5]) == EXIT_CONFIG

    def test_decode(self, workdir):
        out = str(workdir["root"] / "spans.jsonl")
        assert run(["decode", "--input", workdir["corpus"], "--out", out]) == EXIT_OK
        with open(out, "r", encoding="utf-8") as handle:
            spans = [json.loads(line) for line in handle]
        assert len(spans) == 240
        assert {"chunk_id", "entity_type", "start", "end", "anchor", "text"} <= set(spans[0])

    def test_featurize_csv_and_pdm_dump(self, workdir):
        out = str(workdir["root"] / "features.csv")
        dump = str(workdir["root"] / "grids.jsonl")
        code = run(["featurize", "--input", workdir["corpus"], "--out", out,
                    "--dump-pdm", dump])
        assert code == EXIT_OK
        with open(out, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header, first = next(reader), next(reader)
        assert "PDM_B-tag_WCount_bkt_0.9-1.0" in header
        assert "Token_prob_class_ratio_3_by_2" in header
        with open(dump, "r", encoding="utf-8") as handle:
            grid = json.loads(handle.readline())
        assert grid["bins"] == 10 and len(grid["values"]) == 10
        # The first span's (bins, K) map, K = 3 classes (O, B, I).
        assert grid["anchor"] == int(first[header.index("anchor")])
        assert len(grid["values"][0]) == 3


@pytest.fixture(scope="module")
def trained(workdir):
    features = str(workdir["root"] / "train_features.csv")
    model = str(workdir["root"] / "model.json")
    assert run(["featurize", "--input", workdir["corpus"], "--out", features]) == EXIT_OK
    assert run(["train", "--features", features, "--model", model]) == EXIT_OK
    return {"features": features, "model": model}


class TestTrainTuneClassifyExplain:
    def test_tune_updates_threshold(self, trained, tmp_path, capsys):
        model = str(tmp_path / "model.json")
        shutil.copyfile(trained["model"], model)
        code = run(["tune", "--model", model,
                    "--features", trained["features"], "--max-tp-drop", 0.06])
        assert code == EXIT_OK
        assert "tp_drop" in capsys.readouterr().out
        table = read_feature_csv(trained["features"])
        is_tp = [label == STRONG for label in table.labels]
        untuned = load_model(trained["model"])
        want = cut_threshold(untuned.p_weak(untuned.walk(table.matrix)), is_tp, 0.06).threshold
        assert want != untuned.decision_threshold
        assert load_model(model) == untuned.with_threshold(want)

    def test_tune_does_not_import_numpy_ma(self, trained, tmp_path):
        """``tune`` finds its candidate cuts without np.unique, which
        imports numpy.ma in a fresh interpreter."""
        model = str(tmp_path / "model.json")
        shutil.copyfile(trained["model"], model)
        code = ("import sys; from nrfilter.cli import main; "
                f"code = main(['tune', '--model', {model!r}, '--features', {trained['features']!r}]); "
                "print(code, 'numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-2:] == [str(EXIT_OK), "False"]

    def test_tune_records_its_budget(self, trained, tmp_path):
        """``tune --max-tp-drop B`` saves B as the model's budget, so a later
        ``tune`` without the flag cuts under B too."""
        model = str(tmp_path / "model.json")
        shutil.copyfile(trained["model"], model)
        assert run(["tune", "--model", model, "--features", trained["features"],
                    "--max-tp-drop", 0.3]) == EXIT_OK
        tuned = load_model(model)
        assert tuned.config.max_tp_drop == 0.3
        table = read_feature_csv(trained["features"])
        is_tp = [label == STRONG for label in table.labels]
        untuned = load_model(trained["model"])
        want = cut_threshold(untuned.p_weak(untuned.walk(table.matrix)), is_tp, 0.3)
        assert tuned.decision_threshold == want.threshold
        assert run(["tune", "--model", model, "--features", trained["features"]]) == EXIT_OK
        assert load_model(model) == tuned

    def test_classify_stream(self, workdir, trained):
        out = str(workdir["root"] / "verdicts.jsonl")
        code = run(["classify", "--input", workdir["corpus"],
                    "--model", trained["model"], "--out", out])
        assert code == EXIT_OK
        with open(out, "r", encoding="utf-8") as handle:
            first = json.loads(handle.readline())
        assert first["verdict"] in ("strong", "weak") and "path" in first

    def test_classify_schema_mismatch(self, workdir, trained, tmp_path):
        """A model whose recorded bin count does not make its 10-bin
        feature names."""
        model = tmp_path / "model.json"
        mangle_model(trained["model"], model, lambda p: p["featurization"].update(bins=5))
        out = str(workdir["root"] / "nope.jsonl")
        code = run(["classify", "--input", workdir["corpus"], "--model", model, "--out", out])
        assert code == EXIT_SCHEMA

    def test_explain_prints_path_block(self, workdir, trained, tmp_path, capsys):
        record_file = str(workdir["root"] / "one.jsonl")
        with open(workdir["corpus"], "r", encoding="utf-8") as src, \
                open(record_file, "w", encoding="utf-8") as dst:
            dst.write(src.readline())
        code = run(["explain", "--model", trained["model"], "--record", record_file])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "Decision Path:" in out
        assert "(" in out and ("<=" in out or ">" in out)
        # A span index past the record's spans, a record without spans and
        # a file without records.
        code = run(["explain", "--model", trained["model"], "--record", record_file,
                    "--span-index", 99])
        assert code == EXIT_CONFIG
        assert "no span matched --span-index" in capsys.readouterr().err
        with open(record_file, "r", encoding="utf-8") as handle:
            record = json.loads(handle.readline())
        for token in record["tokens"]:
            token["probs"] = [1.0, 0.0, 0.0]
        record_file = write_lines(tmp_path / "no_span.jsonl", [json.dumps(record) + "\n"])
        code = run(["explain", "--model", trained["model"], "--record", record_file])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"no span was decoded in {record_file}" in err and "--span-index" not in err
        empty = write_lines(tmp_path / "empty.jsonl", [])
        assert run(["explain", "--model", trained["model"], "--record", empty]) == EXIT_CONFIG
        assert f"no records in {empty}" in capsys.readouterr().err

    def test_explain_agrees_with_classify(self, workdir, trained, tmp_path, capsys):
        """Every span's verdict, p_weak and path block printed by explain
        are its classify line's."""
        verdicts = str(tmp_path / "verdicts.jsonl")
        assert run(["classify", "--input", workdir["corpus"], "--model", trained["model"],
                    "--out", verdicts]) == EXIT_OK
        capsys.readouterr()
        assert run(["explain", "--model", trained["model"],
                    "--record", workdir["corpus"]]) == EXIT_OK
        blocks = capsys.readouterr().out.split("\n\n")
        assert blocks.pop() == ""
        with open(verdicts, "r", encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert len(blocks) == len(lines) > 100
        for block, obj in zip(blocks, lines):
            head, title, path = block.split("\n", 2)
            assert head == (
                f"chunk {obj['chunk_id']} span [{obj['start']}, {obj['end']}] "
                f"{obj['text']!r} -> {obj['verdict']} (p_weak={obj['p_weak']!r})"
            )
            assert (title, path) == ("Decision Path:", obj["path"])

    def test_evaluate_reports_drops(self, workdir, trained, tmp_path, capsys):
        base = str(tmp_path / "base_spans.jsonl")
        pred = str(tmp_path / "verdicts.jsonl")
        report = str(tmp_path / "report.json")
        assert run(["decode", "--input", workdir["corpus"], "--out", base]) == EXIT_OK
        assert run(["classify", "--input", workdir["corpus"],
                    "--model", trained["model"], "--out", pred]) == EXIT_OK
        code = run(["evaluate", "--pred", pred, "--gold", workdir["corpus"],
                    "--base", base, "--out", report])
        assert code == EXIT_OK
        with open(report, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
        assert obj["filtered"]["totals"]["precision"] >= obj["base"]["totals"]["precision"]
        out = capsys.readouterr().out
        assert "tp_drop_pct" in out

    def test_train_missing_labels_detected(self, workdir, trained, tmp_path):
        unlabeled = str(workdir["root"] / "unlabeled.csv")
        with open(trained["features"], "r", encoding="utf-8") as src:
            rows = src.readlines()
        rows[1] = rows[1].replace(",strong,", ",,", 1).replace(",weak,", ",,", 1)
        with open(unlabeled, "w", encoding="utf-8") as out:
            out.writelines(rows)
        model = str(tmp_path / "m.json")
        assert run(["train", "--features", unlabeled, "--model", model]) == EXIT_CONFIG


class TestBaselineCommand:
    def test_softmax_grid_csv(self, workdir):
        out = str(workdir["root"] / "softmax.csv")
        code = run(["baseline", "--method", "softmax", "--input", workdir["corpus"],
                    "--grid", "0.0,0.9,0.99", "--out", out])
        assert code == EXIT_OK
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3
        assert rows[0]["method"] == "softmax"
        assert float(rows[0]["fp_drop_pct"]) == 0.0

    def test_mcdropout_needs_passes(self, workdir, capsys):
        out = str(workdir["root"] / "mc.csv")
        code = run(["baseline", "--method", "mcdropout", "--input", workdir["corpus"],
                    "--grid", "0.9", "--out", out])
        assert code == EXIT_CONFIG
        assert "--passes" in capsys.readouterr().err

    def test_mcdropout_with_passes(self, workdir):
        out = str(workdir["root"] / "mc2.csv")
        code = run(["baseline", "--method", "mcdropout", "--input", workdir["corpus"],
                    "--grid", "0.5,0.9", "--var-grid", "0.001,0.1",
                    "--passes", ",".join([workdir["corpus"]] * 3), "--out", out])
        assert code == EXIT_OK
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4


class TestPipelineCommand:
    def test_end_to_end(self, workdir, capsys):
        out_dir = str(workdir["root"] / "pipeline_out")
        code = run(["pipeline", "--corpus", workdir["corpus"], "--out-dir", out_dir])
        assert code == EXIT_OK
        with open(os.path.join(out_dir, "report.json"), "r", encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["validation"]["tp_drop_pct"] <= 6.0
        assert report["validation"]["fp_drop_pct"] >= 50.0

    def test_config_file_plus_flag_overrides(self, workdir, tmp_path):
        config_path = str(tmp_path / "config.json")
        from nrfilter import PipelineConfig

        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(asdict(PipelineConfig(bins=10)), handle)
        out_dir = str(tmp_path / "out")
        code = run(["pipeline", "--corpus", workdir["corpus"], "--out-dir", out_dir,
                    "--config", config_path, "--max-tp-drop", 0.02])
        assert code == EXIT_OK
        with open(os.path.join(out_dir, "report.json"), "r", encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["config"]["tree"]["max_tp_drop"] == 0.02
        assert report["validation"]["tp_drop_pct"] <= 2.0

    def test_integer_and_float_spellings_write_one_model(self, workdir, tmp_path):
        """A float field stores a float: ``{"decay_rate": 2}`` and
        ``--decay-rate 2`` write byte-identical models and reports."""
        config = tmp_path / "config.json"
        config.write_text('{"decay_rate": 2}', encoding="utf-8")
        for name, flags in (("file", ["--config", config]), ("flag", ["--decay-rate", 2])):
            assert run(["pipeline", "--corpus", workdir["corpus"], "--out-dir", tmp_path / name,
                        *flags]) == EXIT_OK
        for artifact in ("model.json", "report.json"):
            assert (tmp_path / "file" / artifact).read_bytes() == \
                (tmp_path / "flag" / artifact).read_bytes(), artifact

    def test_train_records_the_config_as_pipeline_does(self, workdir, tmp_path):
        """``train --config`` writes the featurization and tree settings that
        ``pipeline --config`` writes, and ``classify`` reads them back."""
        config = tmp_path / "config.json"
        config.write_text('{"bins": 8, "decay_rate": 2.0, "tree": {"max_depth": 4}}',
                          encoding="utf-8")
        out_dir = tmp_path / "out"
        assert run(["pipeline", "--corpus", workdir["corpus"], "--out-dir", out_dir,
                    "--config", config]) == EXIT_OK
        model = tmp_path / "retrain.json"
        assert run(["train", "--features", out_dir / "features.csv", "--model", model,
                    "--config", config]) == EXIT_OK
        payloads = []
        for path in (out_dir / "model.json", model):
            with open(path, "r", encoding="utf-8") as handle:
                payloads.append(json.load(handle))
        assert payloads[0]["featurization"] == payloads[1]["featurization"]
        assert payloads[0]["featurization"]["bins"] == 8
        assert payloads[0]["config"] == payloads[1]["config"]
        assert payloads[1]["config"]["max_depth"] == 4
        assert run(["classify", "--input", workdir["corpus"], "--model", model,
                    "--out", tmp_path / "verdicts.jsonl"]) == EXIT_OK


FEATURIZATION_FLAGS = {"--config", "--decay-rate", "--bins", "--neighbor-window",
                       "--orphan-policy"}


class TestFeaturizationFlags:
    @pytest.mark.parametrize("command, kept", [
        ("decode", {"--config", "--orphan-policy"}),  # decoding reads nothing else
        ("classify", set()),  # the model records the featurization
        ("explain", set()),
        ("train", FEATURIZATION_FLAGS),  # to record it
    ])
    def test_flags_in_help(self, capsys, command, kept):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        assert {flag for flag in FEATURIZATION_FLAGS if flag in text} == kept


# Each subcommand's options, as "option dest" in parser order, apart from
# --help. Every config flag is built from its field, and none may change
# its spelling or dest in doing so.
COMMAND_OPTIONS = {
    "validate": ["--input input"],
    "decode": ["--input input", "--out out", "--config config", "--orphan-policy orphan_policy"],
    "featurize": ["--input input", "--out out", "--format format", "--dump-pdm dump_pdm",
                  "--config config", "--orphan-policy orphan_policy", "--decay-rate decay_rate",
                  "--bins bins", "--neighbor-window neighbor_window"],
    "synth": ["--out out", "--config synth_config", "--n-strong n_strong", "--n-weak n_weak",
              "--min-tokens min_tokens", "--max-tokens max_tokens",
              "--pull-strength pull_strength", "--noise-sigma noise_sigma",
              "--label-flip-rate label_flip_rate", "--seed seed"],
    "train": ["--features features", "--model model", "--max-depth max_depth",
              "--min-samples-leaf min_samples_leaf",
              "--min-impurity-decrease min_impurity_decrease", "--max-tp-drop max_tp_drop",
              "--no-class-weights class_weighted", "--config config",
              "--orphan-policy orphan_policy", "--decay-rate decay_rate", "--bins bins",
              "--neighbor-window neighbor_window"],
    "tune": ["--model model", "--features features", "--max-tp-drop max_tp_drop"],
    "classify": ["--input input", "--model model", "--out out", "--threshold threshold",
                 "--no-path no_path"],
    "explain": ["--model model", "--record record", "--span-index span_index"],
    "evaluate": ["--pred pred", "--gold gold", "--base base", "--out out"],
    "baseline": ["--method method", "--input input", "--grid grid", "--var-grid var_grid",
                 "--passes passes", "--out out"],
    "pipeline": ["--corpus corpus", "--out-dir out_dir", "--max-tp-drop max_tp_drop",
                 "--seed seed", "--validation-fraction validation_fraction", "--config config",
                 "--orphan-policy orphan_policy", "--decay-rate decay_rate", "--bins bins",
                 "--neighbor-window neighbor_window"],
}


def test_every_subcommands_options_are_pinned():
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    got = {name: [f"{' '.join(a.option_strings)} {a.dest}" for a in sub._actions
                  if a.dest != "help"]
           for name, sub in subs.choices.items()}
    assert got == COMMAND_OPTIONS


class TestConsoleEntrypoint:
    def test_module_invocation(self, workdir):
        proc = subprocess.run(
            [sys.executable, "-m", "nrfilter", "validate", "--input", workdir["corpus"]],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "240 records" in proc.stdout

    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nrfilter", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0 and "nrfilter" in proc.stdout

    def test_log_level_env_var(self, workdir):
        env = dict(os.environ, NRF_LOG="DEBUG")
        proc = subprocess.run(
            [sys.executable, "-m", "nrfilter", "validate", "--input", workdir["corpus"]],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0


# The token a bad value goes in, the value, the exit code it must give
# and a word of its message.
BAD_TOKENS = {
    "nan": (1, {"probs": [float("nan"), 0.5, 0.5]}, EXIT_VALIDATION, "token 1"),
    "ragged": (1, {"probs": [[1], 0, 0]}, EXIT_PARSE, "is not a number"),
    "string": (1, {"probs": ["1.0", 0, 0]}, EXIT_PARSE, "is not a number"),
    "boolean": (1, {"probs": [True, False, False]}, EXIT_PARSE, "is not a number"),
    "nan-word-id": (0, {"word_id": float("nan")}, EXIT_PARSE, "word_id"),
    # Three characters or three keys for K=3: not a list, whatever its length.
    "probs-string": (1, {"probs": "abc"}, EXIT_PARSE, "token 1 probabilities must be a list"),
    "probs-object": (1, {"probs": {"a": 0, "b": 1, "c": 0}}, EXIT_PARSE,
                     "token 1 probabilities must be a list"),
    "probability-huge-int": (1, {"probs": [10**400, 0, 0]}, EXIT_PARSE, "too large"),
}


def write_bad_corpus(workdir, name):
    """Three valid records, then one whose B token (token 0) or the
    token after it carries the bad value, so a span would be featurized
    over it."""
    index, fields, _, _ = BAD_TOKENS[name]
    path = str(workdir["root"] / f"bad_{name}.jsonl")
    with open(workdir["corpus"], "r", encoding="utf-8") as src:
        lines = src.readlines()[:3]
    record = {"id": f"bad-{name}", "classes": ["O", "B", "I"],
              "tokens": [{"text": "a", "probs": [0.0, 1.0, 0.0], "word_id": 0},
                         {"text": "b", "probs": [0.8, 0.1, 0.1], "word_id": 1},
                         {"text": "c", "probs": [1.0, 0.0, 0.0], "word_id": 2}]}
    record["tokens"][index].update(fields)
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(lines)
        out.write(json.dumps(record) + "\n")
    return path


# A record-level field that breaks the corpus contract: the field (None:
# the value replaces the whole record), its value, and the gold span to
# put it in (None: the record itself).
BAD_FIELDS = {
    "record-list": (None, [1, 2], None),
    "label-unknown": ("label", "maybe", None),
    "gold-end-outside": ("end", 99, 0),
    "tokens-number": ("tokens", 5, None),
    "tokens-boolean": ("tokens", True, None),
    "gold-spans-number": ("gold_spans", 3, None),
    "gold-spans-boolean": ("gold_spans", True, None),
    "gold-start-fraction": ("start", 0.5, 0),
    "gold-start-string": ("start", "0", 0),
    "gold-start-boolean": ("start", True, 0),
    "gold-end-fraction": ("end", 1.5, 0),
    "classes-string": ("classes", "OBI", None),
}


class TestInputContract:
    @pytest.mark.parametrize("name", sorted(BAD_FIELDS))
    def test_validate_bad_field(self, workdir, tmp_path, capsys, name):
        key, value, gold = BAD_FIELDS[name]
        lines = corpus_lines(workdir, 3)
        record = json.loads(lines[0])
        record["id"] = "bad"
        # Without the bad value the span [0, 1] is valid, and it stays
        # valid if true is read as 1.
        record["gold_spans"] = [{"entity_type": "Biomarker", "start": 0, "end": 1}]
        if key == "classes":
            del record["gold_spans"]  # "OBI" would read as an unnamed entity type
        if key is None:
            record = value
        else:
            (record if gold is None else record["gold_spans"][gold])[key] = value
        path = write_lines(tmp_path / "bad.jsonl", lines + [json.dumps(record) + "\n"])
        assert run(["validate", "--input", path]) == EXIT_PARSE
        assert ":4:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(BAD_TOKENS))
    def test_validate(self, workdir, capsys, name):
        _, _, code, word = BAD_TOKENS[name]
        path = write_bad_corpus(workdir, name)
        assert run(["validate", "--input", path]) == code
        err = capsys.readouterr().err
        assert word in err and ((":4:" in err) or code != EXIT_PARSE)

    @pytest.mark.parametrize("name", sorted(BAD_TOKENS))
    def test_classify(self, workdir, trained, capsys, name):
        _, _, code, word = BAD_TOKENS[name]
        path = write_bad_corpus(workdir, name)
        out = str(workdir["root"] / f"bad_{name}_out.jsonl")
        assert run(["classify", "--input", path, "--model", trained["model"],
                    "--out", out]) == code
        err = capsys.readouterr().err
        assert word in err and ((":4:" in err) or code != EXIT_PARSE)

    def test_classify_k7_corpus_with_k3_model(self, workdir, trained):
        path = str(workdir["root"] / "k7.jsonl")
        classes = ["O", "B-A", "I-A", "B-B", "I-B", "B-C", "I-C"]
        record = {"id": "k7", "classes": classes,
                  "tokens": [{"text": "x", "probs": [0.1, 0.9, 0, 0, 0, 0, 0]},
                             {"text": "y", "probs": [1.0, 0, 0, 0, 0, 0, 0]}],
                  "label": "strong"}
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(record) + "\n")
        out = str(workdir["root"] / "k7_out.jsonl")
        assert run(["classify", "--input", path, "--model", trained["model"],
                    "--out", out]) == EXIT_SCHEMA


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(lines)
    return str(path)


def corpus_lines(workdir, n):
    with open(workdir["corpus"], "r", encoding="utf-8") as src:
        return src.readlines()[:n]


class TestCorpusContract:
    """Corpus-level defects: each exits with its documented code, not 1."""

    def test_pipeline_empty_training_split(self, workdir, tmp_path, capsys):
        # Every draw of two records is below the fraction.
        path = write_lines(tmp_path / "two.jsonl", corpus_lines(workdir, 2))
        code = run(["pipeline", "--corpus", path, "--out-dir", tmp_path / "out",
                    "--validation-fraction", 1 - 1e-9])
        assert code == EXIT_DOMAIN
        assert "empty training split" in capsys.readouterr().err

    def test_pipeline_empty_validation_split(self, workdir, tmp_path, capsys):
        # No draw of three records is below the fraction.
        path = write_lines(tmp_path / "three.jsonl", corpus_lines(workdir, 3))
        code = run(["pipeline", "--corpus", path, "--out-dir", tmp_path / "out",
                    "--validation-fraction", 1e-9])
        assert code == EXIT_DOMAIN
        assert "empty validation split" in capsys.readouterr().err

    def test_pipeline_class_lists_change(self, workdir, tmp_path, capsys):
        classes = ["O", "B-A", "I-A", "B-B", "I-B"]
        k5 = [json.dumps({"id": f"k5-{i}", "classes": classes, "label": "weak",
                          "tokens": [{"text": "x", "probs": [0.1, 0.9, 0, 0, 0]},
                                     {"text": "y", "probs": [1.0, 0, 0, 0, 0]}]}) + "\n"
              for i in range(10)]
        path = write_lines(tmp_path / "mixed.jsonl", corpus_lines(workdir, 40) + k5)
        assert run(["pipeline", "--corpus", path, "--out-dir", tmp_path / "out"]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert f"record 'k5-0' has classes {classes}" in err
        assert "the corpus began with ['O', 'B-Biomarker', 'I-Biomarker']" in err

    def test_pipeline_single_entity_names_change(self, workdir, tmp_path, capsys):
        # Both schemas have one entity type, so their feature names agree.
        drug = []
        for line in corpus_lines(workdir, 120):
            record = json.loads(line)
            record["id"] = "drug-" + record["id"]
            record["classes"] = ["O", "B-Drug", "I-Drug"]
            for gold in record.get("gold_spans", []):
                gold["entity_type"] = "Drug"
            drug.append(json.dumps(record) + "\n")
        mixed = [line for pair in zip(corpus_lines(workdir, 120), drug) for line in pair]
        path = write_lines(tmp_path / "mixed.jsonl", mixed)
        assert run(["pipeline", "--corpus", path, "--out-dir", tmp_path / "out"]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "record 'drug-synth-000000' has classes ['O', 'B-Drug', 'I-Drug']" in err
        assert "the corpus began with ['O', 'B-Biomarker', 'I-Biomarker']" in err

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_featurize_feature_names_change(self, tmp_path, capsys, fmt):
        # Two schemas of the same width (K = 5) whose names differ: one CSV
        # header cannot hold both, while each JSONL line names its own.
        lines = []
        for entities in (("A", "B"), ("C", "D")):
            classes = ["O"] + [f"{p}-{e}" for e in entities for p in "BI"]
            lines += [json.dumps({"id": f"{entities[0]}-{i}", "classes": classes,
                                  "tokens": [{"text": "x", "probs": [0.1, 0.9, 0, 0, 0]},
                                             {"text": "y", "probs": [1.0, 0, 0, 0, 0]}]}) + "\n"
                      for i in range(3)]
        path = write_lines(tmp_path / "mixed.jsonl", lines)
        out = tmp_path / f"features.{fmt}"
        code = run(["featurize", "--input", path, "--out", out, "--format", fmt])
        if fmt == "csv":
            assert code == EXIT_SCHEMA
            assert "feature rows use differing schemas" in capsys.readouterr().err
            assert not out.exists()  # not a header and the A/B rows that train would read
        else:
            assert code == EXIT_OK
            rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
            assert len(rows) == 6
            assert "PDM_B-A-tag_WCount_bkt_0.9-1.0" in rows[2]["features"]
            assert "PDM_B-C-tag_WCount_bkt_0.9-1.0" in rows[3]["features"]

    def test_token_without_word_id_is_a_word_of_its_own(self, tmp_path):
        # Span [0, 2] is anchored at token 0, whose word is tokens 0-1.
        # Token 2's id is omitted or null, so it joins no word, even one
        # whose explicit id equals its index.
        probs = [[0.0, 1.0, 0.0], [0.1, 0.0, 0.9], [0.1, 0.0, 0.9], [1.0, 0.0, 0.0]]
        lines = []
        for i, (word, absent) in enumerate([(2, "omitted"), (9, "omitted"),
                                            (2, "null"), (9, "null")]):
            tokens = [{"text": text, "probs": p} for text, p in zip("abcd", probs)]
            tokens[0]["word_id"] = tokens[1]["word_id"] = word
            tokens[3]["word_id"] = 7
            if absent == "null":
                tokens[2]["word_id"] = None
            lines.append(json.dumps({"id": f"r{i}", "classes": ["O", "B", "I"],
                                     "tokens": tokens}) + "\n")
        path = write_lines(tmp_path / "words.jsonl", lines)
        out = tmp_path / "features.csv"
        assert run(["featurize", "--input", path, "--out", out]) == EXIT_OK
        table = read_feature_csv(str(out))
        assert table.matrix[:, table.names.index("Word_size")].tolist() == [2.0] * 4
        for record in iter_records(path):
            assert record.chunk.word_ids[2] is None
            assert "word_id" not in record_to_obj(record)["tokens"][2]

    @pytest.mark.parametrize("command", ["decode", "featurize", "classify"])
    def test_failed_stream_leaves_no_output(self, workdir, trained, tmp_path, capsys, command):
        lines = corpus_lines(workdir, 60)
        record = json.loads(lines[50])
        del record["classes"]
        lines[50] = json.dumps(record) + "\n"
        path = write_lines(tmp_path / "bad.jsonl", lines)
        out, dump = tmp_path / "out", tmp_path / "grids.jsonl"
        argv = {
            "decode": [],
            "featurize": ["--dump-pdm", dump],
            "classify": ["--model", trained["model"]],
        }[command]
        assert run([command, "--input", path, "--out", out] + argv) == EXIT_PARSE
        assert ":51" in capsys.readouterr().err
        assert not out.exists() and not dump.exists()

    @pytest.mark.parametrize("name", ["parse", "nan"])
    def test_classify_error_in_a_blocks_middle(self, workdir, trained, tmp_path, capsys, name):
        # Copies of one record have one width, so the stream holds
        # _STREAM_WIDTHS of them per block: the bad record is the second
        # of the second block, after the first block was written.
        record = json.loads(corpus_lines(workdir, 1)[0])
        lines = []
        for i in range(3 * _STREAM_WIDTHS):
            record["id"] = f"copy-{i}"
            lines.append(json.dumps(record) + "\n")
        bad = _STREAM_WIDTHS + 1
        if name == "parse":
            lines[bad] = "{not json\n"
        else:
            broken = json.loads(lines[bad])
            broken["tokens"][1]["probs"][0] = float("nan")
            lines[bad] = json.dumps(broken) + "\n"
        path = write_lines(tmp_path / "bad.jsonl", lines)
        out = tmp_path / "verdicts.jsonl"
        code = run(["classify", "--input", path, "--model", trained["model"], "--out", out])
        assert code == {"parse": EXIT_PARSE, "nan": EXIT_VALIDATION}[name]
        err = capsys.readouterr().err
        assert (f":{bad + 1}:" in err) if name == "parse" else ("token 1" in err)
        assert not out.exists()
        # A caller's own handle keeps the blocks before the bad record's.
        handle = io.StringIO()
        with pytest.raises(NrFilterError):
            stream_classify(path, load_model(trained["model"]), handle)
        ids = [json.loads(line)["chunk_id"] for line in handle.getvalue().splitlines()]
        assert ids == [f"copy-{i}" for i in range(_STREAM_WIDTHS)]

    @pytest.mark.parametrize("command, flag", [
        ("decode", "--config"), ("featurize", "--config"), ("train", "--config"),
        ("pipeline", "--config"), ("synth", "--config"), ("evaluate", "--out"),
        ("featurize", "--dump-pdm"),
    ])
    def test_empty_path_exits_io(self, workdir, trained, tmp_path, capsys, command, flag):
        """An empty path is a path that does not open, not a flag left out."""
        spans = tmp_path / "spans.jsonl"
        argv = {
            "decode": ["--input", workdir["corpus"], "--out", tmp_path / "out"],
            "featurize": ["--input", workdir["corpus"], "--out", tmp_path / "out"],
            "train": ["--features", trained["features"], "--model", tmp_path / "model.json"],
            "pipeline": ["--corpus", workdir["corpus"], "--out-dir", tmp_path / "run"],
            "synth": ["--out", tmp_path / "out"],
            "evaluate": ["--pred", spans, "--gold", workdir["corpus"], "--base", spans],
        }[command]
        if command == "evaluate":
            assert run(["decode", "--input", workdir["corpus"], "--out", spans]) == EXIT_OK
        assert run([command, *argv, flag, ""]) == EXIT_IO
        assert "No such file or directory: ''" in capsys.readouterr().err

    def test_failed_command_keeps_file_it_did_not_open(self, workdir, tmp_path):
        out = tmp_path / "verdicts.jsonl"
        out.write_text("an earlier run\n", encoding="utf-8")
        code = run(["classify", "--input", workdir["corpus"],
                    "--model", tmp_path / "absent.json", "--out", out])
        assert code == EXIT_IO
        assert out.read_text(encoding="utf-8") == "an earlier run\n"

    @pytest.mark.parametrize("command", ["validate", "decode", "featurize", "classify",
                                         "explain", "evaluate", "baseline", "pipeline"])
    def test_bytes_not_utf8_exit_parse(self, workdir, trained, tmp_path, capsys, command):
        # Line 30 lies past the first 8 KB that a text handle decodes
        # ahead of the line being read.
        lines = [line.encode() for line in corpus_lines(workdir, 40)]
        assert sum(map(len, lines[:29])) > 8192
        lines[29] = b"\xff\xfe\n"
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"".join(lines))
        out = tmp_path / "out"
        spans = tmp_path / "spans.jsonl"
        assert run(["decode", "--input", workdir["corpus"], "--out", spans]) == EXIT_OK
        argv = {
            "validate": ["--input", path],
            "decode": ["--input", path, "--out", out],
            "featurize": ["--input", path, "--out", out],
            "classify": ["--input", path, "--model", trained["model"], "--out", out],
            "explain": ["--record", path, "--model", trained["model"]],
            "evaluate": ["--gold", path, "--pred", spans, "--base", spans],
            "baseline": ["--method", "softmax", "--input", path, "--out", out],
            "pipeline": ["--corpus", path, "--out-dir", out],
        }[command]
        assert run([command] + argv) == EXIT_PARSE
        assert ":30: bytes that are not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "pipeline"])
    def test_duplicate_record_id(self, workdir, tmp_path, capsys, command):
        lines = corpus_lines(workdir, 30)
        lines.append(lines[4])
        path = write_lines(tmp_path / "dup.jsonl", lines)
        argv = ["validate", "--input", path] if command == "validate" else \
            ["pipeline", "--corpus", path, "--out-dir", tmp_path / "out"]
        assert run(argv) == EXIT_PARSE
        err = capsys.readouterr().err
        assert ":31:" in err and "duplicate record id" in err and "line 5" in err

    def test_classify_does_not_check_ids(self, workdir, trained, tmp_path):
        lines = corpus_lines(workdir, 3)
        path = write_lines(tmp_path / "dup.jsonl", lines + lines[:1])
        assert run(["classify", "--input", path, "--model", trained["model"],
                    "--out", tmp_path / "out.jsonl"]) == EXIT_OK

    @pytest.mark.parametrize("text", [pytest.param(TOO_DEEP, id="nested-too-deep"),
                                      pytest.param(TOO_LONG, id="int-too-long")])
    def test_value_does_not_decode(self, workdir, tmp_path, capsys, text):
        path = write_lines(tmp_path / "deep.jsonl", corpus_lines(workdir, 3) + [text + "\n"])
        assert run(["validate", "--input", path]) == EXIT_PARSE
        assert ":4: invalid JSON" in capsys.readouterr().err

    def test_gold_span_of_unknown_type(self, workdir, tmp_path, capsys):
        record = json.loads(corpus_lines(workdir, 1)[0])
        record["gold_spans"] = [{"entity_type": "Drug", "start": 0, "end": 0}]
        path = write_lines(tmp_path / "gold.jsonl", [json.dumps(record) + "\n"])
        assert run(["validate", "--input", path]) == EXIT_PARSE
        assert "'Drug'" in capsys.readouterr().err


# A malformed pipeline config: the config file's text (None: no file),
# extra flags, and a word the error message must contain.
BAD_CONFIGS = {
    "orphan-policy": ('{"orphan_policy": "drop"}', [], "orphan_policy"),
    "bins-zero-flag": (None, ["--bins", 0], "bin count"),
    "bins-zero": ('{"bins": 0}', [], "bin count"),
    "bins-fraction": ('{"bins": 2.5}', [], "bins"),
    "tree-unknown-key": ('{"tree": {"max_dept": 3}}', [], "max_dept"),
    "fraction-string": ('{"validation_fraction": "0.2"}', [], "validation_fraction"),
    "not-json": ("bins = 10\n", [], "JSON"),
    "removed-threads": ('{"threads": 2}', [], "threads"),
    "removed-baseline-grids": ('{"baseline_grids": {}}', [], "baseline_grids"),
    "removed-tree-seed": ('{"tree": {"seed": 0}}', [], "seed"),
    "seed-negative-flag": (None, ["--seed", -1], "seed must be >= 0"),
    "seed-negative": ('{"seed": -1}', [], "seed must be >= 0"),
    "scopes-repeated": ('{"scopes": ["Token", "Token"]}', [], "more than once"),
    "nested-too-deep": (TOO_DEEP, [], "JSON"),
    "int-too-long": ('{"bins": ' + TOO_LONG + "}", [], "JSON"),
    # A JSON integer that no float holds: not a finite number.
    "decay-rate-huge-int": ('{"decay_rate": 1' + "0" * 400 + "}", [], "decay_rate"),
    "tree-max-depth-zero": ('{"tree": {"max_depth": 0}}', [], "max_depth must be >= 1"),
    "tree-min-samples-leaf-zero": ('{"tree": {"min_samples_leaf": 0}}', [],
                                   "min_samples_leaf must be >= 1"),
    "tree-min-impurity-decrease-negative": ('{"tree": {"min_impurity_decrease": -1}}', [],
                                            "min_impurity_decrease must be >= 0"),
    "neighbor-window-negative": ('{"neighbor_window": -1}', [], "neighbor window must be >= 0"),
    # Refused before a bin is labelled or a density cell allocated.
    "bins-too-many": (f'{{"bins": {2**40}}}', [], "bin count"),
    "bins-too-many-flag": (None, ["--bins", MAX_BINS + 1], "bin count"),
    # The second --corpus wins: an empty corpus decodes no span.
    "corpus-without-spans": (None, ["--corpus", os.devnull], "no predicted spans"),
    # A flag whose text is not of its field's kind, as a file's value.
    "bins-fraction-flag": (None, ["--bins", "2.5"], "'bins' must be an integer"),
    "seed-fraction-flag": (None, ["--seed", "1e3"], "'seed' must be an integer"),
    "max-tp-drop-text-flag": (None, ["--max-tp-drop", "six"], "'max_tp_drop' must be a finite"),
    "validation-fraction-text-flag": (None, ["--validation-fraction", "1/5"],
                                      "'validation_fraction' must be a finite"),
}


class TestConfigContract:
    @pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
    def test_pipeline_exits_config(self, workdir, tmp_path, capsys, name):
        text, flags, word = BAD_CONFIGS[name]
        argv = ["pipeline", "--corpus", workdir["corpus"], "--out-dir", tmp_path / "out"]
        if text is not None:
            (tmp_path / "config.json").write_text(text, encoding="utf-8")
            argv += ["--config", tmp_path / "config.json"]
        assert run(argv + flags) == EXIT_CONFIG
        assert word in capsys.readouterr().err

    def test_flags_read_as_python_reads_their_type(self, workdir, tmp_path):
        """Each spelling argparse's int and float took is still read."""
        out_dir = tmp_path / "run"
        assert run(["pipeline", "--corpus", workdir["corpus"], "--out-dir", out_dir,
                    "--max-tp-drop", ".06", "--decay-rate", "1e-3", "--bins", " +12",
                    "--validation-fraction", "2.5E-1"]) == EXIT_OK
        config = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))["config"]
        assert (config["tree"]["max_tp_drop"], config["decay_rate"], config["bins"],
                config["validation_fraction"]) == (0.06, 0.001, 12, 0.25)

    def test_synth_flag_of_wrong_kind_exits_config(self, tmp_path, capsys):
        out = tmp_path / "gen.jsonl"
        assert run(["synth", "--out", out, "--n-strong", "1e3"]) == EXIT_CONFIG
        assert "synth config field 'n_strong' must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["decode", "featurize", "train", "pipeline"])
    def test_orphan_policy_flag_exits_config(self, workdir, trained, tmp_path, capsys,
                                             command):
        """The flag has no check of its own: FeatureConfig refuses its value
        as it refuses a file's, before any output is opened."""
        out = tmp_path / "out"
        argv = {"decode": ["--input", workdir["corpus"], "--out", out],
                "featurize": ["--input", workdir["corpus"], "--out", out],
                "train": ["--features", trained["features"], "--model", out],
                "pipeline": ["--corpus", workdir["corpus"], "--out-dir", out]}[command]
        assert run([command, *argv, "--orphan-policy", "drop"]) == EXIT_CONFIG
        assert "orphan_policy" in capsys.readouterr().err
        assert not out.exists()

    def test_size_fields_without_a_bound(self, workdir, tmp_path):
        """neighbor_window, max_depth and min_samples_leaf need no upper
        bound: the window is clipped to its chunk, and the two tree limits
        are only compared."""
        huge = 2**70
        out_dir, model = tmp_path / "run", tmp_path / "model.json"
        verdicts = tmp_path / "verdicts.jsonl"
        assert run(["pipeline", "--corpus", workdir["corpus"], "--out-dir", out_dir,
                    "--neighbor-window", huge]) == EXIT_OK
        assert run(["classify", "--input", workdir["corpus"], "--model", out_dir / "model.json",
                    "--out", verdicts]) == EXIT_OK
        # Every record is shorter than 1,000 tokens.
        assert run(["featurize", "--input", workdir["corpus"], "--out", tmp_path / "wide.csv",
                    "--neighbor-window", 1000]) == EXIT_OK
        assert (tmp_path / "wide.csv").read_bytes() == (out_dir / "features.csv").read_bytes()
        assert run(["train", "--features", out_dir / "features.csv", "--model", model,
                    "--max-depth", huge, "--min-samples-leaf", huge]) == EXIT_OK
        with pytest.warns(NoFeasibleThreshold):  # a single leaf keeps every span
            assert run(["tune", "--features", out_dir / "features.csv",
                        "--model", model]) == EXIT_OK
        assert run(["classify", "--input", workdir["corpus"], "--model", model,
                    "--out", verdicts]) == EXIT_OK


def mangle_model(model_path, out_path, change):
    with open(model_path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    change(payload)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


# A malformed "featurization" object of a model file, by case name.
BAD_FEATURIZATIONS = {
    "featurization-not-object": ["bins", 10],
    "featurization-unknown-key": {"decay": 1.0},
    "featurization-pipeline-key": {"seed": 0},  # a config field, but not a featurization one
    "featurization-bins-zero": {"bins": 0},
    "featurization-decay-zero": {"decay_rate": 0.0},
    "featurization-unknown-scope": {"scopes": ["Token", "Sentence"]},
    "featurization-decay-rate-huge-int": {"decay_rate": 10**400},
    "featurization-bins-too-many": {"bins": 2**40},  # refused before a bin is labelled
}
# A malformed field of a model file's first node that holds it, by case
# name: a leaf's "ns"/"pw" or a split's "f"/"t"/"l". An index is a JSON
# integer and a threshold or p_weak a JSON number; a value that would
# convert to one (a string, a bool, an integral float) is malformed too.
BAD_NODE_FIELDS = {
    "leaf-p-weak-nan": ("pw", float("nan")),  # would print "p_weak": NaN, which is not JSON
    "leaf-p-weak-above-one": ("pw", 7.5),
    "leaf-p-weak-string": ("pw", "0.5"),
    "leaf-p-weak-bool": ("pw", True),
    "leaf-count-negative": ("ns", -3),
    "split-threshold-nan": ("t", float("nan")),  # would render "(... > nan)"
    "split-threshold-string": ("t", "0.5"),
    "split-threshold-huge-int": ("t", 10**400),  # overflows a float
    "split-feature-fraction": ("f", 1.9),
    "split-feature-string": ("f", "0"),
    "split-feature-bool": ("f", True),
    "split-left-float": ("l", 1.0),  # the root's left child is node 1
}
# A malformed decision_threshold of a model file, by case name.
BAD_THRESHOLDS = {
    "threshold-nan": float("nan"),  # would keep every span
    "threshold-string": "0.5",
}
BAD_MODELS = ["not-json", "not-utf8", "nested-too-deep", "int-too-long", "no-nodes",
              "unknown-config-key",
              "self-loop", "shared-child", "feature-out-of-range", "feature-name-not-string",
              *BAD_THRESHOLDS, *BAD_FEATURIZATIONS, *BAD_NODE_FIELDS]


def write_bad_model(trained, model, name):
    """Write the malformed model file ``name`` of BAD_MODELS to ``model``."""
    if name == "not-json":
        model.write_text("nodes: []\n", encoding="utf-8")
    elif name == "not-utf8":
        model.write_bytes(b"\xff\xfe{}\n")
    elif name == "nested-too-deep":
        model.write_text(TOO_DEEP, encoding="utf-8")
    elif name == "int-too-long":
        model.write_text(TOO_LONG, encoding="utf-8")
    elif name == "no-nodes":
        mangle_model(trained["model"], model, lambda p: p.pop("nodes"))
    elif name == "unknown-config-key":
        mangle_model(trained["model"], model, lambda p: p["config"].update(depth=3))
    elif name == "feature-name-not-string":  # a name that is a number
        mangle_model(trained["model"], model, lambda p: p["feature_names"].insert(3, 3))
    elif name == "self-loop":  # a walk that never reaches a leaf
        mangle_model(trained["model"], model, lambda p: p["nodes"][0].update(l=0))
    elif name == "shared-child":  # node 3's path would be one parent's only
        mangle_model(trained["model"], model, lambda p: p.update(nodes=[
            {"f": 0, "t": 0.5, "l": 1, "r": 2}, {"f": 1, "t": 0.5, "l": 3, "r": 4},
            {"f": 1, "t": 0.7, "l": 3, "r": 4}, {"ns": 1, "nw": 1, "pw": 0.5},
            {"ns": 1, "nw": 1, "pw": 0.5},
        ]))
    elif name in BAD_THRESHOLDS:
        mangle_model(trained["model"], model,
                     lambda p: p.update(decision_threshold=BAD_THRESHOLDS[name]))
    elif name in BAD_NODE_FIELDS:
        key, value = BAD_NODE_FIELDS[name]
        mangle_model(trained["model"], model, lambda p: next(
            node for node in p["nodes"] if key in node).update({key: value}))
    elif name in BAD_FEATURIZATIONS:
        mangle_model(trained["model"], model,
                     lambda p: p.update(featurization=BAD_FEATURIZATIONS[name]))
    else:
        mangle_model(trained["model"], model, lambda p: p["nodes"][0].update(f=10**6))


class TestModelContract:
    @pytest.mark.parametrize("name", BAD_MODELS)
    def test_classify_exits_schema(self, workdir, trained, tmp_path, name):
        model = tmp_path / "model.json"
        write_bad_model(trained, model, name)
        code = run(["classify", "--input", workdir["corpus"], "--model", model,
                    "--out", tmp_path / "out.jsonl"])
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize("name", BAD_MODELS)
    def test_explain_exits_schema(self, workdir, trained, tmp_path, name):
        model = tmp_path / "model.json"
        write_bad_model(trained, model, name)
        assert run(["explain", "--model", model, "--record", workdir["corpus"]]) == EXIT_SCHEMA

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-0.5", "1.5"])
    def test_classify_threshold_out_of_range(self, workdir, trained, tmp_path, capsys,
                                             threshold):
        out = tmp_path / "out.jsonl"
        code = run(["classify", "--input", workdir["corpus"], "--model", trained["model"],
                    "--out", out, "--threshold", threshold])
        assert code == EXIT_CONFIG
        assert "decision_threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_seeded_v1_model_classifies_as_before(self, tmp_path):
        """tests/data/v1_model.json was written while TrainConfig still had a
        seed ("seed": 0); v1_verdicts.jsonl is what classify printed then."""
        out = tmp_path / "verdicts.jsonl"
        with open(fixture_path("v1_model.json"), "r", encoding="utf-8") as handle:
            assert json.load(handle)["config"]["seed"] == 0
        assert run(["classify", "--input", fixture_path("v1_heldout.jsonl"),
                    "--model", fixture_path("v1_model.json"), "--out", out]) == EXIT_OK
        with open(fixture_path("v1_verdicts.jsonl"), "rb") as want:
            assert out.read_bytes() == want.read()


def on_line_4(change):
    """An edit of the third data row, which is line 4."""
    return 4, lambda rows: rows[:3] + [change(rows[3])] + rows[4:]


# A malformed feature CSV: the line of its bad row, and how its rows
# (header first) are changed. Every case must be a parse error that
# cites that line, but for a bad header (line None), a schema mismatch;
# lines count as csv.reader counts them.
BAD_FEATURE_ROWS = {
    "header-without-meta-columns": (None, lambda rows: [rows[0][6:]] + rows[1:]),
    "nan": on_line_4(lambda row: row[:-1] + ["nan"]),
    "inf": on_line_4(lambda row: row[:-1] + ["inf"]),
    "minus-inf": on_line_4(lambda row: row[:-1] + ["-inf"]),
    "non-numeric": on_line_4(lambda row: row[:-1] + ["abc"]),
    "ragged": on_line_4(lambda row: row[:-1]),
    "fractional-start": on_line_4(lambda row: row[:2] + ["1.5"] + row[3:]),
    # float() reads 1_0 as 10; the feature reader takes no separators.
    "underscore": on_line_4(lambda row: row[:-1] + ["1_0"]),
    # The row before the bad one spans lines 3 and 4.
    "after-multiline-id": (5, lambda rows: rows[:2] + [["two\nlines"] + rows[2][1:]]
                           + [rows[3][:-1] + ["abc"]] + rows[4:]),
    "after-blank-line": (5, lambda rows: rows[:3] + [[], rows[3][:-1] + ["nan"]] + rows[4:]),
    "anchor-outside": on_line_4(lambda row: row[:4] + [str(int(row[3]) + 5)] + row[5:]),
    # Written as the bytes ff fe: not UTF-8.
    "not-utf8": on_line_4(lambda row: ["\udcff\udcfe"]),
}


class TestFeatureCsvContract:
    @pytest.mark.parametrize("command", ["train", "tune"])
    @pytest.mark.parametrize("name", sorted(BAD_FEATURE_ROWS))
    def test_exits_parse(self, workdir, trained, tmp_path, capsys, command, name):
        with open(trained["features"], newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        line, change = BAD_FEATURE_ROWS[name]
        bad = tmp_path / "features.csv"
        with open(bad, "w", newline="", encoding="utf-8", errors="surrogateescape") as handle:
            csv.writer(handle).writerows(change(rows))
        if command == "train":
            argv = ["train", "--features", bad, "--model", tmp_path / "model.json"]
        else:
            argv = ["tune", "--model", trained["model"], "--features", bad]
        if line is None:
            assert run(argv) == EXIT_SCHEMA
            assert "header missing metadata columns" in capsys.readouterr().err
        else:
            assert run(argv) == EXIT_PARSE
            assert f":{line}:" in capsys.readouterr().err

    def test_header_only_train_exits_domain(self, trained, tmp_path):
        with open(trained["features"], newline="", encoding="utf-8") as handle:
            header = next(csv.reader(handle))
        path = tmp_path / "features.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerow(header)
        assert run(["train", "--features", path, "--model", tmp_path / "model.json"]) \
            == EXIT_DOMAIN

    @pytest.mark.parametrize("name", BAD_MODELS)
    def test_tune_exits_schema_and_keeps_model(self, trained, tmp_path, name):
        model = tmp_path / "model.json"
        write_bad_model(trained, model, name)
        before = model.read_bytes()
        assert run(["tune", "--model", model, "--features", trained["features"]]) == EXIT_SCHEMA
        assert model.read_bytes() == before
        # The model is checked before the feature CSV is read.
        missing = tmp_path / "absent.csv"
        assert run(["tune", "--model", model, "--features", missing]) == EXIT_SCHEMA

    def test_tune_checks_feature_names(self, trained, tmp_path, capsys):
        # Two feature columns swapped, names and values together: the
        # table is self-consistent, but not in the model's order.
        with open(trained["features"], newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        for row in rows:
            row[6], row[7] = row[7], row[6]
        path = tmp_path / "features.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(rows)
        model = tmp_path / "model.json"
        shutil.copyfile(trained["model"], model)
        assert run(["tune", "--model", model, "--features", path]) == EXIT_SCHEMA
        assert "differ from the model's features" in capsys.readouterr().err
        with open(trained["model"], "rb") as handle:
            assert model.read_bytes() == handle.read()


def labeled_table(trained, tmp_path, change):
    """``--features`` for the trained fixture's feature rows with their
    label column passed through ``change``."""
    with open(trained["features"], newline="", encoding="utf-8") as handle:
        header, *rows = list(csv.reader(handle))
    labels = change([row[5] for row in rows])
    features = tmp_path / "features.csv"
    with open(features, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(
            [header] + [row[:5] + [label] + row[6:] for row, label in zip(rows, labels)]
        )
    return ["--features", features]


def train_or_tune(command, trained, tmp_path, table_args):
    model = tmp_path / "model.json"
    if command == "tune":
        shutil.copyfile(trained["model"], model)
    return run([command, "--model", model] + table_args), model


class TestTrainingLabels:
    """train and tune read labels only from the CSV's label column, and
    both accept only "strong" and "weak"."""

    @pytest.mark.parametrize("command", ["train", "tune"])
    def test_unknown_label_exits_config(self, trained, tmp_path, capsys, command):
        args = labeled_table(trained, tmp_path,
                             lambda labels: ["maybe" if label == "weak" else label
                                             for label in labels])
        assert train_or_tune(command, trained, tmp_path, args)[0] == EXIT_CONFIG
        assert "'maybe'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "tune"])
    def test_no_labels_flag(self, command, capsys):
        with pytest.raises(SystemExit):
            run([command, "--help"])
        assert "--labels" not in capsys.readouterr().out


class TestOneSupervisionRule:
    """featurize labels each span as pipeline does: the gold match when
    its record has gold spans, else the record's label."""

    @pytest.mark.parametrize("supervision", ["gold", "label"])
    def test_featurize_writes_pipelines_features(self, workdir, tmp_path, supervision):
        corpus = tmp_path / "corpus.jsonl"
        if supervision == "gold":
            write_golden_corpus(str(corpus), 200, 11)
        else:
            records = [json.loads(line) for line in corpus_lines(workdir, 240)]
            for record in records:
                record.pop("gold_spans", None)
            write_lines(corpus, [json.dumps(record) + "\n" for record in records])
        config = tmp_path / "config.json"
        config.write_text('{"bins": 8, "neighbor_window": 2}', encoding="utf-8")
        features = tmp_path / "features.csv"
        assert run(["pipeline", "--corpus", corpus, "--out-dir", tmp_path / "run",
                    "--config", config]) == EXIT_OK
        assert run(["featurize", "--input", corpus, "--out", features,
                    "--config", config]) == EXIT_OK
        assert features.read_bytes() == (tmp_path / "run" / "features.csv").read_bytes()
        assert set(read_feature_csv(str(features)).labels) == {STRONG, "weak"}
        model = tmp_path / "model.json"
        assert run(["train", "--features", features, "--model", model,
                    "--config", config]) == EXIT_OK
        assert run(["tune", "--features", features, "--model", model]) == EXIT_OK

    def test_unsupervised_record(self, workdir, tmp_path, capsys):
        records = [json.loads(line) for line in corpus_lines(workdir, 20)]
        records[-1].pop("label")  # the last record has neither label nor gold spans
        records[-1].pop("gold_spans", None)
        chunk_id = records[-1]["id"]
        corpus = write_lines(tmp_path / "corpus.jsonl",
                             [json.dumps(record) + "\n" for record in records])
        features = tmp_path / "features.csv"
        assert run(["featurize", "--input", corpus, "--out", features]) == EXIT_OK
        with open(features, newline="", encoding="utf-8") as handle:
            _, *rows = csv.reader(handle)
        assert [row[0] for row in rows if not row[5]] == [chunk_id]
        for command in (["pipeline", "--corpus", corpus, "--out-dir", tmp_path / "run"],
                        ["baseline", "--method", "softmax", "--input", corpus,
                         "--out", tmp_path / "softmax.csv"]):
            assert run(command) == EXIT_CONFIG
            assert f"record {chunk_id!r} has neither label nor gold_spans" \
                in capsys.readouterr().err


class TestSynthConfigContract:
    # A config file's text, or a list of flags given in its place.
    @pytest.mark.parametrize("text, word", [('{"n_strongs": 3}', "n_strongs"),
                                            ("n_strong = 3\n", "JSON"),
                                            pytest.param(TOO_DEEP, "JSON", id="nested-too-deep"),
                                            ('{"seed": -1}', "seed must be >= 0"),
                                            pytest.param(["--noise-sigma", 0.1], "noise_sigma",
                                                         id="noise-sigma-flag"),
                                            pytest.param(["--max-tokens", 2**64], "max_tokens",
                                                         id="max-tokens-flag"),
                                            pytest.param('{"max_tokens": 100001}', "max_tokens",
                                                         id="max-tokens")])
    def test_exits_config(self, tmp_path, capsys, text, word):
        out = tmp_path / "gen.jsonl"
        argv = ["synth", "--out", out]
        if isinstance(text, list):
            argv += text
        else:
            (tmp_path / "synth.json").write_text(text, encoding="utf-8")
            argv += ["--config", tmp_path / "synth.json"]
        assert run(argv) == EXIT_CONFIG
        assert word in capsys.readouterr().err
        assert not out.exists()

    def test_flags_override_config_file(self, tmp_path):
        (tmp_path / "synth.json").write_text('{"n_strong": 3, "n_weak": 2}', encoding="utf-8")
        out = tmp_path / "gen.jsonl"
        assert run(["synth", "--out", out, "--config", tmp_path / "synth.json",
                    "--n-weak", 4]) == EXIT_OK
        assert len(out.read_text(encoding="utf-8").splitlines()) == 7


class TestBaselineGridContract:
    @pytest.mark.parametrize("flag", ["--passes", "--var-grid"])
    def test_mcdropout_flag_with_other_method(self, workdir, tmp_path, capsys, flag):
        """Exits 7 before reading a pass file (an absent one would exit 3)."""
        out = tmp_path / "out.csv"
        value = tmp_path / "absent.jsonl" if flag == "--passes" else "0.1"
        code = run(["baseline", "--method", "softmax", "--input", workdir["corpus"],
                    flag, value, "--out", out])
        assert code == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--grid", "--var-grid"])
    def test_empty_grid(self, workdir, tmp_path, capsys, flag):
        passes = f"{workdir['corpus']},{workdir['corpus']}"
        code = run(["baseline", "--method", "mcdropout", "--input", workdir["corpus"],
                    "--passes", passes, flag, "", "--out", tmp_path / "out.csv"])
        assert code == EXIT_CONFIG
        assert flag in capsys.readouterr().err

    def test_grid_not_numbers(self, workdir, tmp_path, capsys):
        code = run(["baseline", "--method", "softmax", "--input", workdir["corpus"],
                    "--grid", "a,b", "--out", tmp_path / "out.csv"])
        assert code == EXIT_CONFIG
        assert "--grid" in capsys.readouterr().err

    def test_var_grid_not_numbers(self, workdir, tmp_path, capsys):
        code = run(["baseline", "--method", "mcdropout", "--input", workdir["corpus"],
                    "--grid", "0.5", "--var-grid", "0.1,x",
                    "--passes", ",".join([workdir["corpus"]] * 3),
                    "--out", tmp_path / "out.csv"])
        assert code == EXIT_CONFIG
        assert "--var-grid" in capsys.readouterr().err

    @pytest.mark.parametrize("method, flags", [
        ("entropy", ["--grid", "nan"]),
        ("mcdropout", ["--grid", "nan"]),
        ("mcdropout", ["--grid", "7"]),
        ("mcdropout", ["--grid", "0.5", "--var-grid", "nan"]),
        ("mcdropout", ["--grid", "0.5", "--var-grid", "-1"]),
    ], ids=["entropy-nan", "mean-nan", "mean-above-1", "var-nan", "var-negative"])
    def test_grid_value_outside_its_domain(self, workdir, tmp_path, capsys, method, flags):
        """A NaN or out-of-domain cutoff exits 7 and writes no grid."""
        out = tmp_path / "out.csv"
        passes = ["--passes", f"{workdir['corpus']},{workdir['corpus']}"]
        code = run(["baseline", "--method", method, "--input", workdir["corpus"], *flags,
                    *(passes if method == "mcdropout" else []), "--out", out])
        assert code == EXIT_CONFIG
        assert "cutoff must be" in capsys.readouterr().err
        assert not out.exists()

    def test_mcdropout_aggregates_each_span_once(self, workdir, tmp_path, monkeypatch):
        calls = []
        aggregate = baselines.mc_dropout_aggregate
        monkeypatch.setattr(baselines, "mc_dropout_aggregate",
                            lambda passes, span: calls.append(span) or aggregate(passes, span))
        counts = []
        for grid, var_grid in (("0.5", "0.1"), ("0,0.3,0.6,0.9", "0,0.01,0.1")):
            calls.clear()
            assert run(["baseline", "--method", "mcdropout", "--input", workdir["corpus"],
                        "--grid", grid, "--var-grid", var_grid,
                        "--passes", f"{workdir['corpus']},{workdir['corpus']}",
                        "--out", tmp_path / "out.csv"]) == EXIT_OK
            counts.append(len(calls))
        n_spans = sum(len(decode_spans(r.chunk)) for r in iter_records(workdir["corpus"]))
        assert counts == [n_spans, n_spans]

    @pytest.mark.parametrize("name", ["chunk-in-no-pass", "other-classes", "fewer-tokens"])
    def test_mcdropout_passes_differ_from_corpus(self, tmp_path, capsys, name):
        """Passes that agree with each other but not with the corpus chunk
        exit 8 and name the chunk."""
        corpus = str(tmp_path / "corpus.jsonl")
        write_records(corpus, iter_generate(SynthConfig(n_strong=20, n_weak=20, seed=3)))
        with open(corpus, "r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        target = records[0]  # its one span is anchored at token 1
        assert [s["start"] for s in target["gold_spans"]] == [1]
        for record in records:
            record.pop("gold_spans", None)  # the passes need only their tokens
        if name == "chunk-in-no-pass":
            records.remove(target)
        elif name == "other-classes":
            target["classes"] = ["O", "B-Drug", "I-Drug"]
        else:
            del target["tokens"][1:]  # the span's anchor is past the pass's end
        passes = tmp_path / "pass.jsonl"
        write_lines(passes, [json.dumps(record) + "\n" for record in records])
        code = run(["baseline", "--method", "mcdropout", "--input", corpus, "--grid", "0.5",
                    "--passes", f"{passes},{passes}", "--out", tmp_path / "out.csv"])
        assert code == EXIT_DOMAIN
        assert repr(target["id"]) in capsys.readouterr().err


# A span that `decode` writes for the `workdir` corpus, and changes to it
# that must exit 4 with the line number, not be coerced: a field of the
# wrong JSON type, or an anchor outside [start, end].
SPAN = {"chunk_id": "synth-000001", "entity_type": "Biomarker", "start": 5, "end": 5,
        "anchor": 5, "text": "BRAF"}
BAD_SPANS = {
    "position-fractions": {"start": 0.4, "end": 0.4, "anchor": 0.4},
    "start-boolean": {"start": True},
    "end-string": {"end": "5"},
    "anchor-fraction": {"anchor": 5.0},
    "anchor-outside-span": {"anchor": 7},
    "chunk-id-number": {"chunk_id": 5},
    "entity-type-null": {"entity_type": None},
    "text-number": {"text": 3},
}


class TestEvaluateSpanContract:
    def test_type_without_filtered_spans(self, tmp_path):
        # Gold holds one Drug span; the base adds a Dose FP, which the
        # filter drops, so no Dose entry is left in the filtered report.
        classes = ["O", "B-Drug", "I-Drug", "B-Dose", "I-Dose"]
        gold = write_lines(tmp_path / "gold.jsonl", [json.dumps({
            "id": "n1", "classes": classes,
            "tokens": [{"text": t, "probs": [0.0, 1.0, 0.0, 0.0, 0.0]} for t in "abc"],
            "gold_spans": [{"entity_type": "Drug", "start": 0, "end": 0}]}) + "\n"])
        drug = {"chunk_id": "n1", "entity_type": "Drug", "start": 0, "end": 0}
        dose = {"chunk_id": "n1", "entity_type": "Dose", "start": 2, "end": 2}
        base = write_lines(tmp_path / "base.jsonl", [json.dumps(drug) + "\n",
                                                     json.dumps(dose) + "\n"])
        pred = write_lines(tmp_path / "pred.jsonl", [
            json.dumps({**drug, "verdict": "strong"}) + "\n",
            json.dumps({**dose, "verdict": "weak"}) + "\n"])
        out = tmp_path / "report.json"
        code = run(["evaluate", "--pred", pred, "--gold", gold, "--base", base, "--out", out])
        assert code == EXIT_OK
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["drops"] == {
            "Dose": {"tp_drop_pct": 0.0, "fp_drop_pct": 100.0},
            "Drug": {"tp_drop_pct": 0.0, "fp_drop_pct": 0.0},
        }
        assert report["total_drops"] == {"tp_drop_pct": 0.0, "fp_drop_pct": 100.0}

    @pytest.mark.parametrize("flag", ["--pred", "--base"])
    # "\udcff\udcfe" is written as the bytes ff fe: not UTF-8.
    @pytest.mark.parametrize("line", ['{"chunk_id": "x"}', "{oops", "[1, 2]",
                                      pytest.param(TOO_DEEP, id="nested-too-deep"),
                                      pytest.param(TOO_LONG, id="int-too-long"),
                                      pytest.param('{"chunk_id": "\udcff\udcfe"}',
                                                   id="not-utf8")]
                             + [pytest.param(json.dumps({**SPAN, **fields}), id=name)
                                for name, fields in BAD_SPANS.items()])
    def test_exits_parse(self, workdir, tmp_path, capsys, flag, line):
        base = tmp_path / "base.jsonl"
        assert run(["decode", "--input", workdir["corpus"], "--out", base]) == EXIT_OK
        first = base.read_text(encoding="utf-8").splitlines()[0]
        bad = tmp_path / "bad.jsonl"
        bad.write_text(first + "\n" + line + "\n", encoding="utf-8", errors="surrogateescape")
        files = {"--pred": base, "--base": base, flag: bad}
        code = run(["evaluate", "--pred", files["--pred"], "--gold", workdir["corpus"],
                    "--base", files["--base"]])
        assert code == EXIT_PARSE
        assert ":2:" in capsys.readouterr().err
