import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrfilter import (
    Chunk,
    ClassSchema,
    FeatureConfig,
    canonical_feature_name,
    decode_spans,
    feature_names,
    featurize_chunks,
)
from nrfilter.core import EntitySpan
from nrfilter.errors import InvalidConfig, ParseError, SchemaMismatch
from nrfilter import features
from nrfilter.features import (
    SCOPE_CONTEXT,
    SCOPE_NEIGHBOR,
    SCOPE_PHRASE,
    SCOPE_TOKEN,
    SCOPE_WORD,
    class_tags,
    read_feature_csv,
    token_entropies,
    write_feature_csv,
)

from conftest import random_chunk
from oracles import (
    reference_read_feature_csv,
    reference_scopes,
    reference_write_feature_csv,
    scalar_entropy,
)
from test_kernel import assert_matches_reference

def single_token_chunk(probs_row):
    schema = ClassSchema(("",))
    return Chunk("one", schema, ("x",), np.array([probs_row], dtype=float))


def named_row(chunk, span, config=FeatureConfig()):
    """One span's feature row, keyed by its schema's names."""
    names = feature_names(chunk.schema, config)
    return dict(zip(names, featurize_chunks([chunk], [[span]], config)[0].tolist()))


def single_token_row(probs_row):
    """The feature row of a one-token span over a one-token chunk, whose
    Token scope is that token and whose Neighbor scope is empty."""
    chunk = single_token_chunk(probs_row)
    return named_row(chunk, EntitySpan(chunk.id, "", 0, 0, 0, "x"))


def scopes_of(chunk, span, neighbor_window=1):
    """The span's scope positions by the oracle, once the kernel's row is
    checked against the oracle's row over them and each ``*_size`` column
    against their count."""
    config = FeatureConfig(neighbor_window=neighbor_window)
    assert_matches_reference(chunk, [span], config, featurize_chunks([chunk], [[span]], config))
    scopes = reference_scopes(chunk.n_tokens, span.start, span.end, span.anchor,
                              chunk.word_ids, neighbor_window)
    row = named_row(chunk, span, config)
    assert {kind: row[f"{kind}_size"] for kind in scopes} \
        == {kind: len(positions) for kind, positions in scopes.items()}
    return scopes


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert token_entropies(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_uniform_is_log_k(self):
        assert token_entropies(np.full(3, 1 / 3)) == pytest.approx(math.log(3), abs=1e-12)

    def test_half_quarter_quarter(self):
        # Frozen from the scalar oracle: 0.5*ln2 + 2*0.25*ln4
        want = scalar_entropy([0.5, 0.25, 0.25])
        assert want == pytest.approx(1.0397207708399179, abs=1e-12)
        assert token_entropies(np.array([0.5, 0.25, 0.25])) == pytest.approx(want, abs=1e-12)


class TestMaxProbability:
    def test_one_hot(self):
        assert single_token_row([0.0, 1.0, 0.0])["Token_B-tag_max_prob"] == 1.0

    def test_sentence1_context_i(self, sentence1):
        (span,) = decode_spans(sentence1.chunk)
        context_i = named_row(sentence1.chunk, span)["Context_I-tag_max_prob"]
        assert context_i == pytest.approx(0.048)

    def test_sentence2_context_i_is_zero(self, sentence2):
        (span,) = decode_spans(sentence2.chunk)
        assert named_row(sentence2.chunk, span)["Context_I-tag_max_prob"] == 0.0

    def test_empty_scope_is_zero(self):
        assert single_token_row([1.0, 0.0, 0.0])["Neighbor_O-tag_max_prob"] == 0.0


class TestStatisticalFeatures:
    def test_single_one_hot_token(self):
        out = single_token_row([0.0, 1.0, 0.0])
        assert out["Token_B-tag_count"] == 1.0
        assert out["Token_B-tag_ratio"] == 1.0
        assert out["Token_B-tag_max_prob"] == 1.0
        assert out["Token_B-tag_mean_prob"] == 1.0
        assert out["Token_B-tag_cov_prob"] == 0.0
        assert out["Token_prob_diff_mean"] == 1.0
        assert out["Token_prob_class_ratio_2_by_1"] == 0.0
        assert out["Token_size"] == 1.0

    def test_six_three_one(self):
        out = single_token_row([0.6, 0.3, 0.1])
        assert out["Token_prob_diff_mean"] == pytest.approx(0.3, abs=1e-12)
        assert out["Token_prob_class_ratio_2_by_1"] == pytest.approx(0.5, abs=1e-12)
        assert out["Token_prob_class_ratio_3_by_2"] == pytest.approx(1 / 3, abs=1e-12)

    def test_empty_scope_all_zero_with_size(self):
        row = single_token_row([1.0, 0.0, 0.0])
        out = {name: v for name, v in row.items() if name.startswith(f"{SCOPE_NEIGHBOR}_")}
        assert set(v for v in out.values()) == {0.0}
        assert out["Neighbor_size"] == 0.0

    def test_required_split_feature_name_exists(self, sentence1):
        names = feature_names(sentence1.chunk.schema)
        # each must exist under exactly this name
        assert "Token_prob_class_ratio_3_by_2" in names
        assert "PDM_B-tag_WCount_bkt_0.9-1.0" in names
        assert "Context_B-tag_mean_prob" in names


class TestScopes:
    def test_nesting_and_context(self, sentence1):
        (span,) = decode_spans(sentence1.chunk)
        scopes = scopes_of(sentence1.chunk, span)
        token = set(scopes[SCOPE_TOKEN])
        word = set(scopes[SCOPE_WORD])
        phrase = set(scopes[SCOPE_PHRASE])
        assert token <= word <= phrase
        assert scopes[SCOPE_NEIGHBOR] == (3, 5)
        assert set(scopes[SCOPE_CONTEXT]) == {0, 1, 2, 3, 5, 6, 7}

    def test_wordpieces_share_word_scope(self):
        schema = ClassSchema(("",))
        probs = np.array([[1, 0, 0], [0, 0.9, 0.1], [0.05, 0.05, 0.9], [1, 0, 0]], dtype=float)
        chunk = Chunk("wp", schema, ("a", "bio", "##marker", "b"), probs,
                      word_ids=(0, 1, 1, 2))
        (span,) = decode_spans(chunk)
        scopes = scopes_of(chunk, span)
        assert scopes[SCOPE_WORD] == (1, 2)
        assert scopes[SCOPE_PHRASE] == (1, 2)

    def test_neighbor_window_width(self, sentence1):
        (span,) = decode_spans(sentence1.chunk)
        scopes = scopes_of(sentence1.chunk, span, neighbor_window=2)
        assert scopes[SCOPE_NEIGHBOR] == (2, 3, 5, 6)

    def test_span_at_edges_has_onesided_neighbors(self, sentence2):
        (span,) = decode_spans(sentence2.chunk)  # last token
        scopes = scopes_of(sentence2.chunk, span)
        assert scopes[SCOPE_NEIGHBOR] == (6,)


class TestAssembledVector:
    def test_schema_size_k3_b10(self, sentence1):
        (span,) = decode_spans(sentence1.chunk)
        row = featurize_chunks([sentence1.chunk], [[span]])[0]
        # 30 density cells + 5 scopes x (3 classes x 5 stats + 6 scope stats)
        assert row.shape == (30 + 5 * 21,) == (135,)
        assert len(feature_names(sentence1.chunk.schema)) == 135

    def test_sentence_fixture_density_cells(self, sentence1, sentence2):
        (span1,) = decode_spans(sentence1.chunk)
        fv1 = named_row(sentence1.chunk, span1)
        assert fv1["PDM_I-tag_WCount_bkt_0.0-0.1"] == pytest.approx(0.004, abs=0.0005)
        (span2,) = decode_spans(sentence2.chunk)
        fv2 = named_row(sentence2.chunk, span2)
        assert fv2["PDM_I-tag_WCount_bkt_0.0-0.1"] == 0.0

    def test_separation_of_true_and_false_contexts(self, sentence1, sentence2):
        (span1,) = decode_spans(sentence1.chunk)
        (span2,) = decode_spans(sentence2.chunk)
        v1 = named_row(sentence1.chunk, span1)
        v2 = named_row(sentence2.chunk, span2)
        linf = np.abs(np.array(list(v1.values())) - np.array(list(v2.values()))).max()
        assert linf >= 0.004
        # The low-probability density cell carries the contrast: the true
        # entity's context leaks I mass into the bottom bin, the false
        # entity's context does not.
        name = "PDM_I-tag_WCount_bkt_0.0-0.1"
        assert v1[name] > 0.003 and v2[name] == 0.0

    def test_schema_stable_across_1000_random_spans(self):
        rng = np.random.default_rng(5)
        config = FeatureConfig()
        reference = None
        count = 0
        while count < 1000:
            chunk = random_chunk(rng, max_tokens=12, k_choices=(3,))
            names = feature_names(chunk.schema, config)
            for span in decode_spans(chunk):
                row = featurize_chunks([chunk], [[span]], config)[0]
                if reference is None:
                    reference = names
                assert names == reference and row.shape == (len(names),)
                count += 1

    def test_value_ranges(self):
        rng = np.random.default_rng(6)
        count = 0
        while count < 300:
            chunk = random_chunk(rng, max_tokens=10)
            log_k = math.log(chunk.schema.K)
            for span in decode_spans(chunk):
                d = named_row(chunk, span)
                assert all(np.isfinite(v) for v in d.values())
                for name, value in d.items():
                    if name.endswith(("_ratio", "_ratio_2_by_1", "_ratio_3_by_2")):
                        assert 0.0 <= value <= 1.0 + 1e-12, name
                    if "_prob_diff_" in name:
                        assert 0.0 <= value <= 1.0 + 1e-12, name
                    if name.endswith("_cov_prob"):
                        assert value >= 0.0, name
                    if name.endswith("_mean_entropy"):
                        assert -1e-12 <= value <= log_k + 1e-9, name
                count += 1

    def test_multi_entity_tags_are_qualified(self):
        schema = ClassSchema(("Gene", "Drug"))
        assert class_tags(schema) == (
            "O-tag", "B-Gene-tag", "I-Gene-tag", "B-Drug-tag", "I-Drug-tag"
        )
        names = feature_names(schema)
        assert "PDM_B-Gene-tag_WCount_bkt_0.9-1.0" in names
        assert "Context_I-Drug-tag_mean_prob" in names

    def test_scope_subset_config(self, sentence1):
        (span,) = decode_spans(sentence1.chunk)
        config = FeatureConfig(scopes=(SCOPE_TOKEN, SCOPE_CONTEXT))
        row = featurize_chunks([sentence1.chunk], [[span]], config)[0]
        assert row.shape == (30 + 2 * 21,)
        with pytest.raises(InvalidConfig):
            FeatureConfig(scopes=("Sentence",))


class TestAliasAndExport:
    def test_spd_prefix_alias(self, sentence1):
        pdm_name = "PDM_O-tag_WCount_bkt_0.9-1.0"
        assert canonical_feature_name("SPD_O-tag_WCount_bkt_0.9-1.0") == pdm_name
        (span,) = decode_spans(sentence1.chunk)
        names = feature_names(sentence1.chunk.schema)
        legacy = tuple("SPD_" + n[4:] if n.startswith("PDM_") else n for n in names)
        buffer = io.StringIO()
        write_feature_csv(buffer, [(legacy, [span], [None],
                                    featurize_chunks([sentence1.chunk], [[span]]))])
        buffer.seek(0)
        assert read_feature_csv(buffer).names == names

    def test_jsonl_roundtrip(self, sentence1):
        import json

        from nrfilter.core import EntitySpan
        from nrfilter.features import feature_row_obj

        (span,) = decode_spans(sentence1.chunk)
        names = feature_names(sentence1.chunk.schema)
        row = featurize_chunks([sentence1.chunk], [[span]])[0]
        obj = json.loads(json.dumps(feature_row_obj(span, "strong", names, row)))
        got_span = EntitySpan(obj["chunk_id"], obj["entity_type"], obj["start"],
                              obj["end"], obj["anchor"], text="")
        assert got_span.match_key() == span.match_key()
        assert obj["label"] == "strong"
        assert obj["features"] == dict(zip(names, row.tolist()))

    def test_csv_roundtrip(self, sentence1, sentence2):
        names = feature_names(sentence1.chunk.schema)
        blocks = []
        for record in (sentence1, sentence2):
            spans = decode_spans(record.chunk)
            blocks.append((names, spans, [record.label], featurize_chunks([record.chunk], [spans])))
        buffer = io.StringIO()
        assert write_feature_csv(buffer, blocks) == 2
        buffer.seek(0)
        table = read_feature_csv(buffer)
        assert table.names == names
        assert table.labels == ["strong", "weak"]
        np.testing.assert_array_equal(table.matrix[0], blocks[0][3][0])
        np.testing.assert_array_equal(table.matrix[1], blocks[1][3][0])

    def test_csv_blocks_share_one_schema(self, sentence1):
        # The header comes from the first block with a span; a block
        # without spans is skipped, and a later block with other names, or
        # rows of another width, is a SchemaMismatch. No block with a span
        # writes nothing at all.
        (span,) = decode_spans(sentence1.chunk)
        names = feature_names(sentence1.chunk.schema)
        row = featurize_chunks([sentence1.chunk], [[span]])
        other = names[:-1] + ("other",)
        empty = np.empty((0, len(names)))
        buffer = io.StringIO()
        assert write_feature_csv(buffer, [(other, [], [], empty)]) == 0
        assert buffer.getvalue() == ""
        assert write_feature_csv(buffer, [(other, [], [], empty), (names, [span], [None], row),
                                          (tuple(names), [span], ["weak"], row)]) == 2
        buffer.seek(0)
        assert read_feature_csv(buffer).names == names
        with pytest.raises(SchemaMismatch, match="differing schemas"):
            write_feature_csv(io.StringIO(), [(names, [span], [None], row),
                                              (other, [span], [None], row)])
        with pytest.raises(SchemaMismatch, match="shape"):
            write_feature_csv(io.StringIO(), [(names, [span], [None], row),
                                              (names, [span], [None], row[:, :-1])])

    @pytest.mark.parametrize("chunk_id", ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "", "plain"])
    def test_csv_bytes_equal_csv_writer(self, sentence1, chunk_id):
        # Only the meta columns go through csv.writer; the bytes must be
        # those of one csv.writer row per span, quoting included.
        import csv
        from dataclasses import replace

        (span,) = decode_spans(sentence1.chunk)
        names = feature_names(sentence1.chunk.schema)
        values = featurize_chunks([sentence1.chunk], [[span]])[0]
        values[:3] = (-0.0, 1e-300, 1 / 3)
        spans = [replace(span, chunk_id=chunk_id)] * 2
        labels = ["strong", None]
        got = io.StringIO()
        write_feature_csv(got, [(names, spans, labels, np.vstack([values, values]))])
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(["chunk_id", "entity_type", "start", "end", "anchor", "label", *names])
        for s, label in zip(spans, labels):
            writer.writerow([s.chunk_id, s.entity_type, s.start, s.end, s.anchor, label or "",
                             *values.tolist()])
        assert got.getvalue() == want.getvalue()
        got.seek(0)
        table = read_feature_csv(got)
        assert table.labels == labels
        assert table.matrix.tobytes() == np.vstack([values, values]).tobytes()


# A small real schema's 27 names, so that Hypothesis can vary every cell.
SMALL_NAMES = feature_names(ClassSchema(("",)), FeatureConfig(bins=2, scopes=(SCOPE_TOKEN,)))
# Chunk ids that need quoting, and cells at the edges of float repr:
# signed zero, the smallest subnormal, the largest double, 1 + 1 ulp.
QUOTED_IDS = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", ""]
EDGE_CELLS = [-0.0, 5e-324, 1.7976931348623157e308, 1.0000000000000002]


# Cells whose repr changes form (exponent or not) at the edges, and both
# zeros, which compare equal but write differently.
WRITER_CELLS = [0.0, -0.0, 5e-324, 1e16, 1e-05, 9.999999999999999e-05]


@st.composite
def feature_rows(draw, edge_cells=EDGE_CELLS):
    chunk_id = draw(st.sampled_from(QUOTED_IDS) | st.text(max_size=6))
    start, anchor, end = sorted(draw(st.lists(st.integers(0, 10**6), min_size=3, max_size=3)))
    span = EntitySpan(chunk_id, draw(st.sampled_from(["B", "Drug,x"])), start, end, anchor,
                      text="")
    label = draw(st.sampled_from(["strong", "weak", None]))
    cells = st.sampled_from(edge_cells) | st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(cells, min_size=len(SMALL_NAMES), max_size=len(SMALL_NAMES)))
    return span, label, np.array(values)


def assert_same_table(got, want):
    assert got.names == want.names
    assert got.labels == want.labels
    assert got.matrix.shape == want.matrix.shape
    assert got.matrix.tobytes() == want.matrix.tobytes()


class TestFeatureCsvReader:
    """The numpy reader against the csv-module oracle."""

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(feature_rows(), min_size=1, max_size=5))
    def test_matches_reference_reader(self, rows):
        buffer = io.StringIO(newline="")
        write_feature_csv(buffer, [(SMALL_NAMES, [span], [label], values[None])
                                   for span, label, values in rows])
        got = read_feature_csv(io.StringIO(buffer.getvalue(), newline=""))
        assert_same_table(got, reference_read_feature_csv(io.StringIO(buffer.getvalue(),
                                                                      newline="")))
        assert got.matrix.tobytes() == np.vstack([values for _, _, values in rows]).tobytes()

    def test_header_only(self):
        header = ",".join(("chunk_id", "entity_type", "start", "end", "anchor", "label")
                          + SMALL_NAMES) + "\r\n"
        got = read_feature_csv(io.StringIO(header, newline=""))
        assert got.matrix.shape == (0, len(SMALL_NAMES))
        assert_same_table(got, reference_read_feature_csv(io.StringIO(header, newline="")))

    def write_table(self, tmp_path, change):
        """A 40-row SMALL_NAMES table on disk, its line 30 (the 29th
        row) passed through ``change`` as bytes. Rows are about 400
        bytes, so line 30 lies past the first 8 KB that a text handle
        decodes ahead of the line being read."""
        meta = ("chunk_id", "entity_type", "start", "end", "anchor", "label")
        lines = [",".join(meta + SMALL_NAMES).encode()]
        for i in range(40):
            cells = [f"c{i}", "B", "2", "4", "3", "strong"] + ["0.123456789"] * len(SMALL_NAMES)
            lines.append(",".join(cells).encode())
        lines[29] = change(lines[29])
        path = tmp_path / "features.csv"
        path.write_bytes(b"\r\n".join(lines) + b"\r\n")
        return str(path)

    @pytest.mark.parametrize("cell", [0, 1, 5, 6, -1, None],
                             ids=["chunk_id", "entity_type", "label", "first-feature",
                                  "last-feature", "whole-line"])
    def test_bytes_not_utf8_cite_their_line(self, tmp_path, cell):
        def change(line):
            if cell is None:
                return b"\xff\xfe"
            cells = line.split(b",")
            cells[cell] += b"\xff\xfe"
            return b",".join(cells)

        with pytest.raises(ParseError, match=r":30: bytes that are not UTF-8"):
            read_feature_csv(self.write_table(tmp_path, change))

    def test_non_ascii_utf8_text_reads(self, tmp_path):
        path = self.write_table(tmp_path, lambda line: "é".encode() + line)
        assert read_feature_csv(path).matrix.shape == (40, len(SMALL_NAMES))

    @pytest.mark.parametrize("anchor", [b"1", b"5"])
    def test_anchor_outside_span_cites_its_line(self, tmp_path, anchor):
        def change(line):
            cells = line.split(b",")
            cells[4] = anchor
            return b",".join(cells)

        match = rf":30: anchor {int(anchor)} outside \[2, 4\]"
        with pytest.raises(ParseError, match=match):
            read_feature_csv(self.write_table(tmp_path, change))


class TestFeatureCsvWriter:
    """The writer that formats each distinct value of a group once, against
    the oracle that formats every cell."""

    @pytest.mark.parametrize("group_cells", [1, 60, features._CSV_CELLS])
    @settings(max_examples=100, deadline=None)
    @given(blocks=st.lists(st.lists(feature_rows(EDGE_CELLS + WRITER_CELLS), max_size=4),
                           min_size=1, max_size=5))
    def test_matches_reference_writer(self, group_cells, blocks):
        width = len(SMALL_NAMES)
        blocks = [(SMALL_NAMES, [span for span, _, _ in rows],
                   [label for _, label, _ in rows],
                   np.array([values for _, _, values in rows]).reshape(-1, width))
                  for rows in blocks]
        got, want = io.StringIO(newline=""), io.StringIO(newline="")
        with mock.patch.object(features, "_CSV_CELLS", group_cells):
            n = write_feature_csv(got, blocks)
        assert n == reference_write_feature_csv(want, blocks)
        assert got.getvalue() == want.getvalue()

    def test_signed_zeros_in_one_group(self):
        span = EntitySpan("a,b", "B", 0, 0, 0, text="")
        values = np.zeros((2, len(SMALL_NAMES)))
        values[0, :2] = (-0.0, 0.0)
        values[1, :2] = (0.0, -0.0)
        buffer = io.StringIO(newline="")
        write_feature_csv(buffer, [(SMALL_NAMES, [span] * 2, ["weak", None], values)])
        rows = buffer.getvalue().split("\r\n")[1:3]
        zeros = ",0.0" * (len(SMALL_NAMES) - 2)
        assert rows == ['"a,b",B,0,0,0,weak,-0.0,0.0' + zeros, '"a,b",B,0,0,0,,0.0,-0.0' + zeros]
