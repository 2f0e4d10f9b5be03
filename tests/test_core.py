import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nrfilter import (
    Chunk,
    ClassSchema,
    CorpusRecord,
    decode_spans,
    featurize_chunks,
    iter_records,
    parse_record,
    record_to_obj,
    validate_chunk,
    write_records,
)
from nrfilter.errors import (
    NrFilterError,
    ParseError,
    ProbabilityOutOfRange,
    ProbabilitySumViolation,
    SchemaMismatch,
)


def one_hot_chunk(tags, n_entities=1, chunk_id="c"):
    schema = ClassSchema(tuple(f"E{j}" for j in range(n_entities)))
    probs = np.zeros((len(tags), schema.K))
    probs[np.arange(len(tags)), tags] = 1.0
    texts = tuple(f"t{i}" for i in range(len(tags)))
    return Chunk(chunk_id, schema, texts, probs)


class TestClassSchema:
    def test_k_is_2e_plus_1(self):
        assert ClassSchema(("",)).K == 3
        assert ClassSchema(("Gene", "Drug")).K == 5
        assert ClassSchema(("a", "b", "c")).K == 7

    def test_class_layout(self):
        schema = ClassSchema(("Gene", "Drug"))
        assert schema.class_names == ("O", "B-Gene", "I-Gene", "B-Drug", "I-Drug")
        assert schema.b_index(1) == 3 and schema.i_index(1) == 4
        assert schema.entity_of_class(3) == 1
        assert schema.is_i(4) and not schema.is_i(3) and not schema.is_i(0)

    def test_from_class_names_roundtrip(self):
        for names in (["O", "B", "I"], ["O", "B-Gene", "I-Gene", "B-Drug", "I-Drug"]):
            assert list(ClassSchema.from_class_names(names).class_names) == names

    def test_from_class_names_rejects_garbage(self):
        with pytest.raises(SchemaMismatch):
            ClassSchema.from_class_names(["B", "I", "O"])
        with pytest.raises(SchemaMismatch):
            ClassSchema.from_class_names(["O", "B-Gene", "I-Drug"])
        with pytest.raises(SchemaMismatch):
            ClassSchema.from_class_names(["O", "B"])


class TestValidateChunk:
    def test_one_hot_is_valid(self):
        chunk = one_hot_chunk([0, 1, 2])
        assert validate_chunk(chunk) is chunk

    def test_sum_violation(self):
        schema = ClassSchema(("",))
        probs = np.array([[0.5, 0.6, 0.1]])
        chunk = Chunk("bad", schema, ("x",), probs)
        with pytest.raises(ProbabilitySumViolation) as err:
            validate_chunk(chunk)
        assert err.value.position == 0
        assert err.value.total == pytest.approx(1.2)

    def test_out_of_range(self):
        schema = ClassSchema(("",))
        chunk = Chunk("bad", schema, ("x",), np.array([[-0.1, 0.6, 0.5]]))
        with pytest.raises(ProbabilityOutOfRange) as err:
            validate_chunk(chunk)
        assert err.value.position == 0 and err.value.value == pytest.approx(-0.1)

    def test_rounded_sum_within_tolerance(self):
        # Display-rounded rows like 0.951 + 0.048 + 0.001 must stay valid.
        schema = ClassSchema(("",))
        chunk = Chunk("r", schema, ("x",), np.array([[0.95105, 0.04799, 0.001]]))
        validate_chunk(chunk)

    def test_sentence1_fixture_valid(self, sentence1):
        assert validate_chunk(sentence1.chunk) is sentence1.chunk

    def test_k_mismatch(self):
        schema = ClassSchema(("", "X"))
        chunk = Chunk("bad", schema, ("x",), np.array([[1.0, 0.0, 0.0]]))
        with pytest.raises(SchemaMismatch):
            validate_chunk(chunk)


class TestDecodeSpans:
    def test_canonical_run(self):
        spans = decode_spans(one_hot_chunk([0, 0, 1, 2, 0]))
        assert len(spans) == 1
        span = spans[0]
        assert (span.start, span.end, span.anchor) == (2, 3, 2)
        assert span.text == "t2 t3"

    def test_sentence1_single_token_span(self, sentence1):
        spans = decode_spans(sentence1.chunk)
        assert len(spans) == 1
        assert (spans[0].start, spans[0].end, spans[0].anchor) == (4, 4, 4)
        assert spans[0].text == "ER"

    def test_orphan_promote_vs_ignore(self):
        chunk = one_hot_chunk([0, 2, 0])
        promoted = decode_spans(chunk, orphan_policy="promote")
        assert [(s.start, s.end, s.anchor) for s in promoted] == [(1, 1, 1)]
        assert decode_spans(chunk, orphan_policy="ignore") == []

    def test_orphan_of_other_entity_starts_new_span(self):
        # B-E0 then I-E1: the I token belongs to no open span.
        chunk = one_hot_chunk([1, 4, 0], n_entities=2)
        spans = decode_spans(chunk)
        assert [(s.entity_type, s.start, s.end) for s in spans] == [
            ("E0", 0, 0),
            ("E1", 1, 1),
        ]

    def test_adjacent_b_tokens_are_two_spans(self):
        spans = decode_spans(one_hot_chunk([1, 1, 2]))
        assert [(s.start, s.end) for s in spans] == [(0, 0), (1, 2)]

    def test_spans_sorted_and_disjoint(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            tags = rng.integers(0, 5, size=rng.integers(1, 20)).tolist()
            spans = decode_spans(one_hot_chunk(tags, n_entities=2))
            for a, b in zip(spans, spans[1:]):
                assert a.end < b.start

    def test_pure_function(self):
        chunk = one_hot_chunk([0, 1, 2, 0, 1])
        assert decode_spans(chunk) == decode_spans(chunk)

    def test_argmax_tie_prefers_lowest_class(self):
        schema = ClassSchema(("",))
        chunk = Chunk("tie", schema, ("x",), np.array([[0.5, 0.5, 0.0]]))
        assert decode_spans(chunk) == []  # O wins the tie, no span


@st.composite
def bio_tags_without_orphans(draw):
    n_entities = draw(st.integers(1, 2))
    length = draw(st.integers(1, 16))
    tags = []
    open_entity = None
    for _ in range(length):
        choices = ["O", "B"] + (["I"] if open_entity is not None else [])
        kind = draw(st.sampled_from(choices))
        if kind == "O":
            tags.append(0)
            open_entity = None
        elif kind == "B":
            open_entity = draw(st.integers(0, n_entities - 1))
            tags.append(1 + 2 * open_entity)
        else:
            tags.append(2 + 2 * open_entity)
    return n_entities, tags


def retag_spans(chunk_len, schema, spans):
    """Rebuild an argmax tag sequence from spans over an O background."""
    tags = np.zeros(chunk_len, dtype=np.int64)
    for span in spans:
        entity = schema.entity_names.index(span.entity_type)
        tags[span.start] = schema.b_index(entity)
        tags[span.start + 1 : span.end + 1] = schema.i_index(entity)
    return tags


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(bio_tags_without_orphans())
    def test_retag_reproduces_tags(self, case):
        n_entities, tags = case
        chunk = one_hot_chunk(tags, n_entities=n_entities)
        spans = decode_spans(chunk)
        rebuilt = retag_spans(len(tags), chunk.schema, spans)
        assert rebuilt.tolist() == tags


class TestRecordIO:
    def test_unknown_fields_ignored(self):
        obj = {
            "id": "x",
            "classes": ["O", "B", "I"],
            "tokens": [{"text": "a", "probs": [1.0, 0.0, 0.0], "extra": 1}],
            "some_future_field": {"nested": True},
        }
        record = parse_record(obj)
        assert record.chunk.n_tokens == 1

    def test_roundtrip(self, sentence1):
        rebuilt = parse_record(record_to_obj(sentence1))
        assert rebuilt.chunk.texts == sentence1.chunk.texts
        assert np.array_equal(rebuilt.chunk.probs, sentence1.chunk.probs)
        assert rebuilt.label == sentence1.label
        assert rebuilt.gold_spans == sentence1.gold_spans

    def test_parse_error_carries_line_number(self):
        lines = io.StringIO('{"id": "a", "classes": ["O","B","I"], "tokens": [{"text":"x","probs":[1,0,0]}]}\n{broken\n')
        with pytest.raises(ParseError) as err:
            list(iter_records(lines))
        assert err.value.line_no == 2

    def test_wrong_prob_count_is_parse_error(self):
        obj = {"id": "x", "classes": ["O", "B", "I"],
               "tokens": [{"text": "a", "probs": [1.0, 0.0]}]}
        with pytest.raises(ParseError):
            parse_record(obj, line_no=7)

    def test_word_ids_default_to_token_index(self):
        obj = {"id": "x", "classes": ["O", "B", "I"],
               "tokens": [{"text": "a", "probs": [1, 0, 0]},
                          {"text": "b", "probs": [1, 0, 0]}]}
        record = parse_record(obj)
        assert record.chunk.word_ids is None

    def test_write_then_read(self, tmp_path, sentence1, sentence2):
        path = str(tmp_path / "tiny.jsonl")
        assert write_records(path, [sentence1, sentence2]) == 2
        ids = [r.chunk.id for r in iter_records(path)]
        assert ids == ["sentence-1", "sentence-2"]

    @pytest.mark.parametrize("field,edit", [
        pytest.param("'id'", lambda obj: obj.update(id=None), id="id-null"),
        pytest.param("'id'", lambda obj: obj.update(id=5), id="id-number"),
        pytest.param("'id'", lambda obj: obj.update(id=["a"]), id="id-list"),
        pytest.param("'text'", lambda obj: obj["tokens"][1].update(text={"a": 1}),
                     id="text-object"),
        pytest.param("'text'", lambda obj: obj["tokens"][1].update(text=None), id="text-null"),
        pytest.param("'text'", lambda obj: obj["tokens"][1].update(text=1.5), id="text-number"),
        pytest.param("'entity_type'", lambda obj: obj["gold_spans"][0].update(entity_type=None),
                     id="entity_type-null"),
        pytest.param("'entity_type'", lambda obj: obj["gold_spans"][0].update(entity_type=0),
                     id="entity_type-number"),
    ])
    def test_string_fields_must_be_strings(self, field, edit):
        obj = {"id": "x", "classes": ["O", "B-0", "I-0"],
               "tokens": [{"text": "a", "probs": [1, 0, 0]},
                          {"text": "b", "probs": [0, 1, 0]}],
               "gold_spans": [{"entity_type": "0", "start": 1, "end": 1}]}
        assert parse_record(obj).gold_spans[0].entity_type == "0"
        edit(obj)
        with pytest.raises(ParseError, match=field):
            parse_record(obj, line_no=3)

    def test_numeric_and_string_ids_do_not_collide(self):
        payload = record_to_obj_minimal()
        lines = [json.dumps(dict(payload, id="5")), json.dumps(dict(payload, id=5))]
        with pytest.raises(ParseError, match="'id' must be a string") as err:
            list(iter_records(io.StringIO("\n".join(lines) + "\n"), unique_ids=True))
        assert err.value.line_no == 2

    def test_streaming_skips_blank_lines(self):
        payload = json.dumps(record_to_obj_minimal())
        lines = io.StringIO(payload + "\n\n" + payload + "\n")
        assert len(list(iter_records(lines))) == 2

    @pytest.mark.parametrize("where", ["text", "line"])
    def test_bytes_not_utf8_cite_their_line(self, tmp_path, where):
        # 40 lines of about 400 bytes: line 30 lies past the first 8 KB
        # that a text handle decodes ahead of the line being read.
        payload = dict(record_to_obj_minimal(), note="x" * 300)
        lines = [json.dumps(dict(payload, id=f"r{i}")).encode() for i in range(40)]
        lines[29] = b"\xff\xfe" if where == "line" else lines[29].replace(b"xx", b"\xff\xfe", 1)
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ParseError, match=r":30: bytes that are not UTF-8"):
            list(iter_records(str(path)))

    def test_non_ascii_utf8_text_reads(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        line = json.dumps(dict(record_to_obj_minimal(), note="é"), ensure_ascii=False)
        path.write_bytes(line.encode() + b"\n")
        assert len(list(iter_records(str(path)))) == 1


# Any JSON value, and record objects whose every field is mostly well
# formed and otherwise any JSON value, so that the fuzz reaches the checks
# of the inner fields too.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12,
)


def mostly(valid):
    return st.one_of(valid, valid, valid, json_values)


_probs = mostly(st.sampled_from([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                                 [0.5, 0.5, 0.0], [0.1, 0.2, 0.7]])) \
    | st.lists(mostly(st.sampled_from([0.0, 0.5, 1.0])), min_size=3, max_size=3)
_token = mostly(st.fixed_dictionaries(
    {"text": mostly(st.text(max_size=3)), "probs": _probs},
    optional={"word_id": mostly(st.integers(0, 3))},
))
_gold_span = mostly(st.fixed_dictionaries(
    {"entity_type": mostly(st.just("")), "start": mostly(st.integers(0, 3)),
     "end": mostly(st.integers(0, 3))}
))
near_records = st.fixed_dictionaries(
    {"id": mostly(st.text(max_size=3)), "classes": mostly(st.just(["O", "B", "I"])),
     "tokens": mostly(st.lists(_token, min_size=1, max_size=4))},
    optional={"label": mostly(st.sampled_from(["strong", "weak"])),
              "gold_spans": mostly(st.lists(_gold_span, max_size=3))},
)


class TestParseFuzz:
    @settings(max_examples=500, deadline=None)
    @given(obj=near_records | st.dictionaries(st.text(max_size=8), json_values, max_size=5))
    def test_any_object_parses_or_raises_domain_error(self, obj):
        # A corpus line either becomes a valid record that featurizes, or
        # raises an NrFilterError, which the CLI maps to an exit code.
        line = json.dumps(obj)
        try:
            (record,) = iter_records(io.StringIO(line))
        except NrFilterError:
            return
        assert isinstance(record, CorpusRecord)
        featurize_chunks([record.chunk], [decode_spans(record.chunk)])


def record_to_obj_minimal():
    return {"id": "m", "classes": ["O", "B", "I"],
            "tokens": [{"text": "a", "probs": [1.0, 0.0, 0.0]}]}


class TestChunkConstruction:
    def test_probs_are_frozen(self):
        chunk = one_hot_chunk([0, 1])
        with pytest.raises(ValueError):
            chunk.probs[0, 0] = 0.5
