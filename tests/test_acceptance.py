"""Shipping criteria, one test per criterion.

Each test prints a [PASS] line with its measured numbers (visible under
pytest -s or in the captured-output section), and every tolerance is
asserted exactly as shipped, not recalibrated per run.
"""

import gc
import itertools
import os
import re
import time
import tracemalloc

import numpy as np
import pytest

from nrfilter import (
    EntityCounts,
    PipelineConfig,
    STRONG,
    SynthConfig,
    TrainConfig,
    WEAK,
    build_feature_schema,
    classify,
    compute_pdm,
    cumulative_bins,
    decode_spans,
    drop_rates,
    entity_f1,
    explain,
    featurize_chunk,
    generate,
    iter_generate,
    run_pipeline,
    serialize_model,
    span_confidence,
    temperature_scale,
    train_matrix,
    tune_threshold,
    write_records,
)
from nrfilter.core import EntitySpan
from nrfilter.pipeline import assign_validation, stream_classify

from conftest import random_chunk
from oracles import brute_force_pdm, parse_decision_path, reference_path_steps

O, B, I = 0, 1, 2  # class columns: O first, then B, I


def report(criterion: int, detail: str):
    print(f"[PASS] criterion {criterion}: {detail}")


class TestCriterion1WorkedExampleGrids:
    def test_golden_tables(self, sentence1, sentence2):
        start = time.perf_counter()

        cum1 = cumulative_bins(sentence1.chunk, 4, 10)
        assert cum1[9][O] == pytest.approx(6.946, abs=0.001)
        assert cum1[0][I] == pytest.approx(0.053, abs=0.001)
        assert cum1[0][B] == pytest.approx(0.001, abs=0.001)

        cum2 = cumulative_bins(sentence2.chunk, 7, 10)
        # printed 6.999 for an exact 7.0; +/-0.001 inclusive up to one ulp
        assert cum2[9][O] == pytest.approx(6.999, abs=0.001 * (1 + 1e-9))

        pdm1 = compute_pdm(sentence1.chunk, 4)
        assert pdm1.values[0][I] == pytest.approx(0.004, abs=0.0005)
        assert pdm1.values[9][O] == pytest.approx(0.185, abs=0.0005)

        pdm2 = compute_pdm(sentence2.chunk, 7)
        assert pdm2.values[9][O] == pytest.approx(0.094, abs=0.0005)

        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        report(1, f"both sentence grids reproduced in {elapsed * 1000:.0f} ms")


class TestCriterion2PdmOracleEquivalence:
    def test_thousand_random_chunks(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            chunk = random_chunk(rng, max_tokens=32, k_choices=(3, 5, 7))
            anchor = int(rng.integers(chunk.n_tokens))
            got = compute_pdm(chunk, anchor).values
            want = brute_force_pdm(chunk.probs.tolist(), anchor, 1.0, 10)
            np.testing.assert_allclose(got, np.array(want), atol=1e-12, rtol=0)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        report(2, f"1000 chunks matched the double-loop oracle to 1e-12 in {elapsed:.1f} s")


class TestCriterion3CalibrationIdentities:
    def test_identity_argmax_and_sums(self):
        rng = np.random.default_rng(3)
        vectors = rng.dirichlet(np.ones(5), size=1000)
        scaled = temperature_scale(vectors, 1.0)
        np.testing.assert_allclose(scaled, vectors, atol=1e-12, rtol=0)

        temperatures = rng.uniform(1e-3, 100.0, size=1000)
        for row, T in zip(vectors, temperatures):
            out = temperature_scale(row, T)
            assert int(np.argmax(out)) == int(np.argmax(row))
            assert abs(out.sum() - 1.0) <= 1e-12
        report(3, "T=1 identity at 1e-12, argmax preserved, unit sums on 1000 vectors")


# ---------------------------------------------------------------------------
# Criteria 4-7 share one trained run over the seed-fixed contrast corpus.
# ---------------------------------------------------------------------------

CORPUS_SEED = 20250808
MAX_TP_DROP = 0.06


@pytest.fixture(scope="module")
def noise_filter_run():
    start = time.perf_counter()
    config = SynthConfig(
        n_strong=2000, n_weak=2000, min_tokens=8, max_tokens=14,
        label_flip_rate=0.05, noise_sigma=0.002, seed=CORPUS_SEED,
    )
    records = generate(config)
    fschema = build_feature_schema(records[0].chunk.schema)
    rows = []
    for index, record in enumerate(records):
        (span,) = decode_spans(record.chunk)
        fv = featurize_chunk(record.chunk, [span], schema=fschema)[0]
        rows.append({
            "fv": fv,
            "is_tp": record.label == STRONG,
            "is_val": assign_validation(CORPUS_SEED, index, 0.2),
            "confidence": span_confidence(record.chunk, span),
        })
    train_rows = [r for r in rows if not r["is_val"]]
    val_rows = [r for r in rows if r["is_val"]]
    X = np.vstack([r["fv"] for r in train_rows])
    labels = [STRONG if r["is_tp"] else WEAK for r in train_rows]
    model = train_matrix(X, labels, fschema.names, TrainConfig())
    tune = tune_threshold(model, np.vstack([r["fv"] for r in val_rows]),
                          [r["is_tp"] for r in val_rows], MAX_TP_DROP)
    elapsed = time.perf_counter() - start
    return {
        "model": model.with_threshold(tune.threshold),
        "tune": tune,
        "train_X": X,
        "train_labels": labels,
        "names": fschema.names,
        "val_rows": val_rows,
        "elapsed": elapsed,
    }


class TestCriterion4ThresholdFailureDemonstration:
    def test_confident_fps_defeat_thresholding_but_not_the_tree(self, noise_filter_run):
        run = noise_filter_run
        assert run["elapsed"] < 60.0

        # Naive confidence thresholding, every achievable operating point.
        tp_scores = np.sort([r["confidence"] for r in run["val_rows"] if r["is_tp"]])
        fp_scores = np.sort([r["confidence"] for r in run["val_rows"] if not r["is_tp"]])
        all_scores = np.concatenate([tp_scores, fp_scores])
        taus = np.unique(np.concatenate([[0.0], all_scores, np.nextafter(all_scores, 2.0)]))
        tp_drops = np.searchsorted(tp_scores, taus, side="left") / tp_scores.size
        fp_drops = np.searchsorted(fp_scores, taus, side="left") / fp_scores.size
        feasible = tp_drops <= MAX_TP_DROP
        best_softmax = float(fp_drops[feasible].max())
        assert best_softmax < 0.10

        tune = run["tune"]
        assert tune.tp_drop <= MAX_TP_DROP
        assert tune.fp_drop >= 0.50
        report(
            4,
            f"softmax removes at most {100 * best_softmax:.1f}% of FPs within the "
            f"TP budget; the tree removes {100 * tune.fp_drop:.1f}% "
            f"(TP drop {100 * tune.tp_drop:.1f}%) in {run['elapsed']:.1f} s",
        )


class TestCriterion5TuneConstraintIsHard:
    def test_validation_tp_drop_within_budget(self, noise_filter_run):
        run = noise_filter_run
        tune = run["tune"]
        assert tune.tp_drop <= MAX_TP_DROP
        # Recompute from scratch at the tuned threshold: same verdicts.
        model = run["model"]
        dropped_tp = total_tp = 0
        for r in run["val_rows"]:
            if r["is_tp"]:
                total_tp += 1
                dropped_tp += classify(model, r["fv"])[0] == WEAK
        assert dropped_tp / total_tp <= MAX_TP_DROP
        report(5, f"validation TP drop {100 * dropped_tp / total_tp:.2f}% <= {100 * MAX_TP_DROP:.0f}%")


PATH_PATTERN = re.compile(
    r"^\([^\s()]+ (<=|>) [^\s()]+\)(\n& \([^\s()]+ (<=|>) [^\s()]+\))*$"
)


class TestCriterion6DecisionPathFidelity:
    def test_hundred_random_instances(self, noise_filter_run):
        run = noise_filter_run
        model = run["model"]
        index = {name: i for i, name in enumerate(model.feature_names)}
        rng = np.random.default_rng(6)
        picks = rng.choice(len(run["val_rows"]), size=100, replace=False)
        for pick in picks:
            fv = run["val_rows"][int(pick)]["fv"]
            text = explain(model, fv)
            assert PATH_PATTERN.match(text), text
            steps = parse_decision_path(text)
            assert len(steps) >= 1
            for feature, op, threshold in steps:
                observed = fv[index[feature]]
                if op == "<=":
                    assert observed <= threshold
                else:
                    assert observed > threshold
            assert steps == reference_path_steps(model, fv)
        report(6, "100 paths: every predicate holds and is the reference walk's")


class TestCriterion7TreeDeterminism:
    def test_byte_identical_models(self, noise_filter_run):
        run = noise_filter_run
        config = TrainConfig()
        first = serialize_model(
            train_matrix(run["train_X"].copy(), list(run["train_labels"]), run["names"], config)
        )
        second = serialize_model(
            train_matrix(run["train_X"].copy(), list(run["train_labels"]), run["names"], config)
        )
        assert first.encode("utf-8") == second.encode("utf-8")
        report(7, f"two train runs serialized to identical {len(first)} bytes")


class TestCriterion8EvalArithmetic:
    def test_table_shapes(self):
        assert drop_rates(EntityCounts(100, 100), EntityCounts(94, 12)) == (6.0, 88.0)

        def span(i, matched=True):
            return EntitySpan("c", "T", i, i, i, "")

        gold = [span(i) for i in range(10)]
        predicted = [span(i) for i in range(8)] + [span(100), span(101)]
        totals = entity_f1(predicted, gold).totals
        assert (totals.tp, totals.fp, totals.fn) == (8, 2, 2)
        assert totals.f1 == 0.8
        report(8, "drop rates (6%, 88%) and F1 = 0.8 exact")


class TestCriterion9StreamingMemoryBound:
    @pytest.mark.slow
    def test_hundred_thousand_records(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("stream")
        corpus = str(root / "big.jsonl")
        write_records(
            corpus,
            iter_generate(SynthConfig(
                n_strong=50_000, n_weak=50_000, min_tokens=10, max_tokens=22, seed=77,
            )),
        )
        max_record = 0
        with open(corpus, "rb") as handle:
            for line in handle:
                max_record = max(max_record, len(line))

        train_corpus = str(root / "train.jsonl")
        write_records(
            train_corpus,
            iter_generate(SynthConfig(
                n_strong=1000, n_weak=1000, min_tokens=10, max_tokens=22, seed=78,
            )),
        )
        result = run_pipeline(train_corpus, str(root / "model_dir"), PipelineConfig())
        model = result.model
        model_bytes = os.path.getsize(result.paths["model"])
        bound = 10 * max_record + model_bytes

        warmup = str(root / "warmup.jsonl")
        with open(corpus, "r", encoding="utf-8") as src, \
                open(warmup, "w", encoding="utf-8") as dst:
            dst.writelines(itertools.islice(src, 8000))

        pc = PipelineConfig()
        out_path = str(root / "verdicts.jsonl")
        samples: list[int] = []
        state = {"base": None, "settled": False}

        def sampled_lines():
            # Checkpoint every 2000 records: collect (clears interpreter
            # free-lists, which tracemalloc counts but which are bounded
            # interpreter recycling pools, not per-record state) and read
            # live traced bytes. The first checkpoint lets IO buffers
            # reach steady state; the second fixes the baseline.
            with open(corpus, "r", encoding="utf-8") as handle:
                for i, line in enumerate(handle):
                    if i % 2000 == 0 and i > 0:
                        gc.collect()
                        current = tracemalloc.get_traced_memory()[0]
                        if not state["settled"]:
                            state["settled"] = True
                        elif state["base"] is None:
                            state["base"] = current
                        else:
                            samples.append(current - state["base"])
                    yield line

        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            with open(str(root / "warm_out.jsonl"), "w", encoding="utf-8") as out:
                stream_classify(warmup, model, out, pc)
            with open(out_path, "w", encoding="utf-8") as out:
                counts = stream_classify(sampled_lines(), model, out, pc)
            gc.collect()
            final = tracemalloc.get_traced_memory()[0] - state["base"]
        finally:
            tracemalloc.stop()

        assert counts[STRONG] + counts[WEAK] == 100_000
        worst = max(samples)
        assert len(samples) >= 40
        assert worst < bound, f"live {worst} B exceeds bound {bound} B"
        assert final < bound
        report(
            9,
            f"100k records classified; worst sampled live memory {worst} B "
            f"< bound {bound} B (10 x {max_record} B record + {model_bytes} B model)",
        )
