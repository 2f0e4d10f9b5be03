import pytest

from nrfilter import EntityCounts, drop_rates, entity_f1
from nrfilter.core import EntitySpan
from nrfilter.errors import ChunkIdMismatch, CountInflation
from nrfilter.metrics import format_drop_table


def span(chunk_id, start, end, entity_type="Biomarker"):
    return EntitySpan(chunk_id, entity_type, start, end, start, text="")


class TestEntityF1:
    def test_exact_match_is_perfect(self):
        gold = [span("c1", 0, 1), span("c2", 3, 3)]
        report = entity_f1(gold, gold)
        totals = report.totals
        assert (totals.tp, totals.fp, totals.fn) == (2, 0, 0)
        assert totals.precision == totals.recall == totals.f1 == 1.0

    def test_no_predictions(self):
        gold = [span("c1", 0, 0)]
        totals = entity_f1([], gold).totals
        assert (totals.tp, totals.fp, totals.fn) == (0, 0, 1)
        assert totals.precision == 0.0 and totals.recall == 0.0 and totals.f1 == 0.0

    def test_eight_two_two(self):
        gold = [span("c", i, i) for i in range(10)]
        predicted = [span("c", i, i) for i in range(8)] + [
            span("c", 20, 20), span("c", 21, 21)
        ]
        totals = entity_f1(predicted, gold).totals
        assert (totals.tp, totals.fp, totals.fn) == (8, 2, 2)
        assert totals.precision == 0.8
        assert totals.recall == 0.8
        assert totals.f1 == 0.8  # exactly: 2*8 / (2*8 + 2 + 2)

    def test_type_must_match(self):
        gold = [span("c", 0, 0, "Gene")]
        predicted = [span("c", 0, 0, "Drug")]
        report = entity_f1(predicted, gold)
        assert report.per_type["Drug"].fp == 1
        assert report.per_type["Gene"].fn == 1

    def test_boundary_must_match_exactly(self):
        gold = [span("c", 2, 4)]
        predicted = [span("c", 2, 3)]
        totals = entity_f1(predicted, gold).totals
        assert (totals.tp, totals.fp, totals.fn) == (0, 1, 1)

    def test_duplicate_predictions_match_once(self):
        gold = [span("c", 1, 1)]
        predicted = [span("c", 1, 1), span("c", 1, 1)]
        totals = entity_f1(predicted, gold).totals
        assert (totals.tp, totals.fp) == (1, 1)

    def test_unknown_chunk_rejected(self):
        gold = [span("known", 0, 0)]
        predicted = [span("unknown", 0, 0)]
        with pytest.raises(ChunkIdMismatch):
            entity_f1(predicted, gold, chunk_ids=["known"])

    def test_report_dict_shape(self):
        report = entity_f1([span("c", 0, 0)], [span("c", 0, 0)])
        obj = report.to_dict()
        assert obj["totals"]["f1"] == 1.0
        assert "Biomarker" in obj["per_type"]


class TestDropRates:
    def test_identical_reports(self):
        counts = EntityCounts(tp=10, fp=5)
        assert drop_rates(counts, counts) == (0.0, 0.0)

    def test_table_row_shape(self):
        base = EntityCounts(tp=100, fp=100)
        filtered = EntityCounts(tp=94, fp=12)
        assert drop_rates(base, filtered) == (6.0, 88.0)

    def test_fp_only_drop(self):
        assert drop_rates(EntityCounts(50, 20), EntityCounts(50, 10)) == (0.0, 50.0)

    def test_zero_base_is_zero_drop(self):
        assert drop_rates(EntityCounts(0, 0), EntityCounts(0, 0)) == (0.0, 0.0)

    def test_inflation_rejected(self):
        with pytest.raises(CountInflation):
            drop_rates(EntityCounts(10, 10), EntityCounts(11, 2))
        with pytest.raises(CountInflation):
            drop_rates(EntityCounts(10, 10), EntityCounts(4, 12))


def label_counts(labeled):
    """Counts from (is_tp, kept) pairs, for corpora supervised by labels
    rather than gold spans: a dropped TP counts as FN, a kept FP as FP."""
    counts = EntityCounts()
    for is_tp, kept in labeled:
        if is_tp and kept:
            counts.tp += 1
        elif is_tp:
            counts.fn += 1
        elif kept:
            counts.fp += 1
    return counts


class TestLabelCounts:
    def test_partitions(self):
        pairs = [
            (True, True), (True, True), (True, False),
            (False, True), (False, False), (False, False),
        ]
        counts = label_counts(pairs)
        assert (counts.tp, counts.fn, counts.fp) == (2, 1, 1)

    def test_drop_rates_from_labels(self):
        base = label_counts([(True, True)] * 100 + [(False, True)] * 100)
        filt = label_counts([(True, True)] * 94 + [(True, False)] * 6 +
                            [(False, True)] * 12 + [(False, False)] * 88)
        assert drop_rates(base, filt) == (6.0, 88.0)


class TestFormatting:
    def test_table_mentions_every_entity_and_method(self):
        rows = {
            "Biomarkers": {"softmax": (6.0, 0.0), "tree": (6.0, 88.0)},
            "Surgery": {"softmax": (1.0, 32.0), "tree": (2.0, 55.0)},
        }
        text = format_drop_table(rows)
        assert "Biomarkers" in text and "Surgery" in text
        assert "softmax" in text and "tree" in text
        assert "(6%, 88%)" in text

    def test_f1_bounds_sanity(self):
        counts = EntityCounts(tp=7, fp=3, fn=5)
        assert counts.f1 <= 1.0
        assert counts.f1 <= 2 * counts.precision
        assert counts.f1 <= 2 * counts.recall
        assert counts.f1 >= max(0.0, counts.precision + counts.recall - 1)
