"""Domain types for NER probability output and BIO span decoding.

A chunk is one model output unit: T tokens, each carrying a K-class
probability vector over a BIO class schema (one O class plus B/I per
entity type). Everything downstream (density maps, features, the
strong/weak classifier) consumes these types.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from itertools import chain
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    InvalidConfig,
    NonPositiveDecayRate,
    ParseError,
    ProbabilityOutOfRange,
    ProbabilitySumViolation,
    SchemaMismatch,
)

# Tables upstream tend to print rounded probabilities, so exact-sum
# validation would reject otherwise valid rows.
PROB_SUM_TOL = 1e-4

O_INDEX = 0

STRONG = "strong"
WEAK = "weak"

# How decode_spans treats an I token with no open span of its entity.
ORPHAN_POLICIES = ("promote", "ignore")

# The token sets a span's statistics are taken over, in feature-column order.
SCOPE_TOKEN = "Token"
SCOPE_WORD = "Word"
SCOPE_PHRASE = "Phrase"
SCOPE_NEIGHBOR = "Neighbor"
SCOPE_CONTEXT = "Context"
SCOPE_ORDER = (SCOPE_TOKEN, SCOPE_WORD, SCOPE_PHRASE, SCOPE_NEIGHBOR, SCOPE_CONTEXT)

# A span's feature row holds bins x K float64 density cells: at this
# bound 56 KB at K = 7, so the feature matrix of 10,000 spans stays under
# 600 MB. A larger count is refused before anything is built.
MAX_BINS = 1000


@dataclass(frozen=True)
class FeatureConfig:
    """The featurization: the density maps' Gaussian decay rate and bin
    count, the neighbor window, the scopes and the orphan policy. Every
    field changes a decoded span or a feature row, so a model records
    them all (``TreeModel.featurization``)."""

    decay_rate: float = 1.0
    bins: int = 10
    neighbor_window: int = 1
    scopes: tuple[str, ...] = SCOPE_ORDER
    orphan_policy: str = "promote"

    def __post_init__(self):
        if not self.decay_rate > 0:
            raise NonPositiveDecayRate(f"decay rate must be > 0, got {self.decay_rate}")
        if not 1 <= self.bins <= MAX_BINS:
            raise InvalidConfig(f"bin count must be in [1, {MAX_BINS}], got {self.bins}")
        if self.orphan_policy not in ORPHAN_POLICIES:
            raise InvalidConfig(
                f"orphan_policy must be one of {list(ORPHAN_POLICIES)}, got {self.orphan_policy!r}"
            )
        if self.neighbor_window < 0:
            raise InvalidConfig(f"neighbor window must be >= 0, got {self.neighbor_window}")
        unknown = [s for s in self.scopes if s not in SCOPE_ORDER]
        if unknown:
            raise InvalidConfig(f"unknown scopes: {unknown}")
        # A scope named twice would name each of its columns twice.
        repeated = [s for s in SCOPE_ORDER if self.scopes.count(s) > 1]
        if repeated:
            raise InvalidConfig(f"scopes named more than once: {repeated}")

    @property
    def featurization(self) -> FeatureConfig:
        """The FeatureConfig of this config's five fields (a
        PipelineConfig's too): what a model records so that it is
        classified as it was trained."""
        return FeatureConfig(*(getattr(self, f.name) for f in fields(FeatureConfig)))


@dataclass(frozen=True)
class ClassSchema:
    """BIO class layout for E entity types: K = 2E + 1 classes.

    Index 0 is always O; entity j owns B at index 1 + 2j and I at
    index 2 + 2j. An empty entity name yields the bare class names
    "B" / "I" used by single-entity corpora.
    """

    entity_names: tuple[str, ...]

    def __post_init__(self):
        if len(self.entity_names) < 1:
            raise SchemaMismatch("schema needs at least one entity type")
        if len(set(self.entity_names)) != len(self.entity_names):
            raise SchemaMismatch(f"duplicate entity names: {self.entity_names}")

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    @property
    def K(self) -> int:
        return 2 * self.n_entities + 1

    @property
    def class_names(self) -> tuple[str, ...]:
        names = ["O"]
        for name in self.entity_names:
            suffix = f"-{name}" if name else ""
            names.append(f"B{suffix}")
            names.append(f"I{suffix}")
        return tuple(names)

    def b_index(self, entity: int) -> int:
        return 1 + 2 * entity

    def i_index(self, entity: int) -> int:
        return 2 + 2 * entity

    def entity_of_class(self, k: int) -> int:
        if k <= 0 or k >= self.K:
            raise SchemaMismatch(f"class {k} has no entity (K={self.K})")
        return (k - 1) // 2

    def is_i(self, k: int) -> bool:
        return k > 0 and k % 2 == 0

    @classmethod
    def from_class_names(cls, names: Iterable[str]) -> "ClassSchema":
        names = list(names)
        if len(names) < 3 or len(names) % 2 == 0:
            raise SchemaMismatch(f"class list must have odd length >= 3, got {len(names)}")
        if names[0] != "O":
            raise SchemaMismatch(f"class 0 must be 'O', got {names[0]!r}")
        entities = []
        for j in range((len(names) - 1) // 2):
            b, i = names[1 + 2 * j], names[2 + 2 * j]
            b_ent = b[2:] if b.startswith("B-") else ("" if b == "B" else None)
            i_ent = i[2:] if i.startswith("I-") else ("" if i == "I" else None)
            if b_ent is None or i_ent is None or b_ent != i_ent:
                raise SchemaMismatch(f"classes {b!r}/{i!r} are not a B/I pair")
            entities.append(b_ent)
        return cls(tuple(entities))


@dataclass(frozen=True, eq=False)
class Chunk:
    """An ordered token sequence with a (T, K) probability matrix.

    Immutable after construction; the probability matrix is marked
    read-only. ``word_ids`` groups sub-word tokens into words; None means
    every token is its own word, and so is a token whose id is None.
    """

    id: str
    schema: ClassSchema
    texts: tuple[str, ...]
    probs: np.ndarray
    word_ids: tuple[int | float | str | None, ...] | None = None

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 2:
            raise SchemaMismatch(f"chunk {self.id!r}: probs must be 2-D, got {probs.ndim}-D")
        if probs.shape[0] != len(self.texts) or probs.shape[0] < 1:
            raise SchemaMismatch(
                f"chunk {self.id!r}: {len(self.texts)} tokens vs {probs.shape[0]} prob rows"
            )
        if self.word_ids is not None and len(self.word_ids) != len(self.texts):
            raise SchemaMismatch(f"chunk {self.id!r}: word_ids length mismatch")
        probs = probs.copy()
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @property
    def n_tokens(self) -> int:
        return len(self.texts)

    def argmax_classes(self) -> np.ndarray:
        """Per-token argmax class; ties resolve to the lowest class index."""
        return np.argmax(self.probs, axis=1)


@dataclass(frozen=True)
class EntitySpan:
    """A decoded B/I token run: the prediction unit classified strong/weak.

    `anchor` is the position the span was opened at (the B token, or the
    promoted orphan I token).
    """

    chunk_id: str
    entity_type: str
    start: int
    end: int
    anchor: int
    text: str

    def __post_init__(self):
        if not (self.start <= self.anchor <= self.end):
            raise SchemaMismatch(
                f"span anchor {self.anchor} outside [{self.start}, {self.end}]"
            )

    @property
    def positions(self) -> range:
        return range(self.start, self.end + 1)

    def match_key(self) -> tuple[str, str, int, int]:
        return (self.chunk_id, self.entity_type, self.start, self.end)


@dataclass(frozen=True)
class CorpusRecord:
    """One corpus line: a chunk plus optional supervision."""

    chunk: Chunk
    label: str | None = None
    gold_spans: tuple[EntitySpan, ...] = ()

    def span_labels(self, spans: Sequence[EntitySpan], required: bool = False) -> list[str | None]:
        """The supervision of each of this record's decoded spans: "strong"
        iff it matches a gold span exactly when the record has gold spans,
        otherwise the record's label, otherwise None. With ``required`` a
        record with neither label nor gold spans is InvalidConfig."""
        if self.gold_spans:
            keys = {g.match_key() for g in self.gold_spans}
            return [STRONG if span.match_key() in keys else WEAK for span in spans]
        if self.label is None and required:
            raise InvalidConfig(f"record {self.chunk.id!r} has neither label nor gold_spans")
        return [self.label] * len(spans)


def validate_chunk(chunk: Chunk) -> Chunk:
    """Check every token's probability vector; return the chunk unchanged.

    Raises ProbabilityOutOfRange or ProbabilitySumViolation naming the
    offending token position.
    """
    probs = chunk.probs
    if probs.shape[1] != chunk.schema.K:
        raise SchemaMismatch(
            f"chunk {chunk.id!r}: {probs.shape[1]} classes vs schema K={chunk.schema.K}"
        )
    # Written so that NaN, which fails every comparison, fails the check.
    if not (probs.min() >= 0.0 and probs.max() <= 1.0):
        t, k = np.argwhere(~((probs >= 0.0) & (probs <= 1.0)))[0]
        raise ProbabilityOutOfRange(chunk.id, int(t), float(probs[t, k]))
    sums = probs.sum(axis=1)
    deviation = np.abs(sums - 1.0)
    if deviation.max() > PROB_SUM_TOL:
        t = int(np.argmax(deviation))
        raise ProbabilitySumViolation(chunk.id, t, float(sums[t]))
    return chunk


def decode_spans(chunk: Chunk, orphan_policy: str = "promote") -> list[EntitySpan]:
    """Decode argmax BIO tags into entity spans, left to right.

    A B token opens a span; following I tokens of the same entity extend
    it. An I token with no live span of its entity is an orphan:
    ``promote`` (default) opens a new span there, ``ignore`` skips it.
    Output spans are non-overlapping and sorted by start.
    """
    if orphan_policy not in ORPHAN_POLICIES:
        raise ValueError(f"unknown orphan policy {orphan_policy!r}")
    schema = chunk.schema
    tags = chunk.argmax_classes()
    spans: list[EntitySpan] = []
    t = 0
    T = chunk.n_tokens
    while t < T:
        k = int(tags[t])
        if k == O_INDEX or (schema.is_i(k) and orphan_policy == "ignore"):
            t += 1
            continue
        entity = schema.entity_of_class(k)
        start = anchor = t
        t += 1
        i_class = schema.i_index(entity)
        while t < T and int(tags[t]) == i_class:
            t += 1
        spans.append(
            EntitySpan(
                chunk_id=chunk.id,
                entity_type=schema.entity_names[entity],
                start=start,
                end=t - 1,
                anchor=anchor,
                text=" ".join(chunk.texts[start:t]),
            )
        )
    return spans


# ---------------------------------------------------------------------------
# JSON Lines corpus format
#
# One record per line:
#   {"id": str, "classes": [str, ...],
#    "tokens": [{"text": str, "probs": [float, ...], "word_id": int|float|str?}, ...],
#    "label": "strong"|"weak"?, "gold_spans": [{"entity_type", "start", "end"}]?}
# A token without a word_id (or with null) is a word of its own. Unknown
# fields are ignored.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _class_schema(names: tuple) -> ClassSchema:
    # A corpus repeats one class list on every line; parse it once.
    return ClassSchema.from_class_names(names)


def _probability_matrix(rows: list, fail) -> np.ndarray:
    """The (T, K) float matrix of parsed probability rows; ``fail`` on any
    entry that is not a number.

    numpy's own dtype discovery screens the rows: strings, None and
    nested lists give a non-numeric or non-2-D array. A boolean would
    pass as 0 or 1, so the entries equal to 0 or 1, and only those, get
    an exact type check.
    """
    try:
        probs = np.array(rows)
        numeric = probs.ndim == 2 and probs.dtype.kind in "fi"
    except ValueError:  # nested lists of differing lengths
        numeric = False
    if numeric:
        hits = np.flatnonzero((probs == 0.0) | (probs == 1.0)).tolist()
        if hits:
            entries = list(chain.from_iterable(rows))
            numeric = bool not in set(map(type, map(entries.__getitem__, hits)))
    if not numeric:
        for i, row in enumerate(rows):
            for value in row:
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    fail(f"token {i} probability {value!r} is not a number")
        fail("a probability is too large to convert to a float")
    return probs.astype(np.float64, copy=False)


_WORD_ID_TYPES = frozenset((int, float, str, type(None)))


def _check_word_ids(word_ids: list, fail) -> None:
    """Word ids group tokens by equality, so each must be an integer, a
    finite number or a string (None: a word of its own): NaN equals
    nothing, not even itself."""
    types = set(map(type, word_ids))
    if types <= _WORD_ID_TYPES and (
        float not in types or all(map(math.isfinite, (w for w in word_ids if type(w) is float)))
    ):
        return
    for i, wid in enumerate(word_ids):
        if type(wid) not in _WORD_ID_TYPES or (type(wid) is float and not math.isfinite(wid)):
            fail(f"token {i} word_id {wid!r} is not an integer, a finite number or a string")


def parse_record(obj: dict, line_no: int = 0, path: str | None = None) -> CorpusRecord:
    """Build a CorpusRecord from one decoded JSON object."""

    def fail(msg: str):
        raise ParseError(line_no, msg, path)

    if not isinstance(obj, dict):
        fail(f"record must be an object, got {type(obj).__name__}")
    try:
        chunk_id = obj["id"]
        classes = obj["classes"]
        if not isinstance(classes, list):
            raise TypeError
        schema = _class_schema(tuple(classes))
        raw_tokens = obj["tokens"]
    except KeyError as exc:
        fail(f"missing field {exc.args[0]!r}")
    except SchemaMismatch as exc:
        fail(str(exc))
    except (TypeError, AttributeError):
        fail("'classes' must be a list of class-name strings")
    if not is_json(chunk_id, str):
        fail(f"'id' must be a string, got {type(chunk_id).__name__}")
    if not is_json(raw_tokens, list):
        fail(f"'tokens' must be a list, got {type(raw_tokens).__name__}")
    if not raw_tokens:
        fail("record has no tokens")

    K = schema.K
    texts = []
    word_ids = []
    rows = []
    has_word_ids = False
    for i, tok in enumerate(raw_tokens):
        try:
            texts.append(tok["text"])
            row = tok["probs"]
        except (KeyError, TypeError):
            fail(f"token {i} missing 'text' or 'probs'")
        if type(row) is not list:  # a string or an object has a length too
            fail(f"token {i} probabilities must be a list, got {type(row).__name__}")
        if len(row) != K:
            fail(f"token {i} has {len(row)} probabilities, schema K={K}")
        rows.append(row)
        wid = tok.get("word_id")
        has_word_ids = has_word_ids or wid is not None
        word_ids.append(wid)
    try:
        "".join(texts)  # one C-level check that every text is a str
    except TypeError:
        i = next(i for i, text in enumerate(texts) if type(text) is not str)
        fail(f"token {i} 'text' must be a string, got {type(texts[i]).__name__}")
    probs = _probability_matrix(rows, fail)
    if has_word_ids:
        _check_word_ids(word_ids, fail)
    chunk = Chunk(chunk_id, schema, tuple(texts), probs,
                  tuple(word_ids) if has_word_ids else None)

    label = obj.get("label")
    if label is not None:
        if label not in (STRONG, WEAK):
            fail(f"label must be 'strong' or 'weak', got {label!r}")
        # The shared constant: a span's label outlives its record.
        label = STRONG if label == STRONG else WEAK

    raw_gold = obj.get("gold_spans")
    if raw_gold is not None and not is_json(raw_gold, list):
        fail(f"'gold_spans' must be a list, got {type(raw_gold).__name__}")
    gold = []
    for g in raw_gold or ():
        try:  # evaluate's span rule; the record gives the id and text, the start is the anchor
            span = span_from_obj({**g, "chunk_id": chunk_id, "anchor": g["start"],
                                  "text": " ".join(texts[g["start"] : g["end"] + 1])})
        except (KeyError, TypeError, SchemaMismatch) as exc:
            fail(f"gold span needs integer 'start' <= 'end' and string 'entity_type': {exc!r}")
        if not (0 <= span.start and span.end < chunk.n_tokens):
            fail(f"gold span [{span.start}, {span.end}] outside chunk of {chunk.n_tokens} tokens")
        if span.entity_type not in schema.entity_names:
            fail(f"gold span type {span.entity_type!r} is not among the record's entity types "
                 f"{list(schema.entity_names)}")
        gold.append(span)
    return CorpusRecord(chunk, label, tuple(gold))


def record_to_obj(record: CorpusRecord) -> dict:
    """Inverse of parse_record, suitable for json.dumps."""
    chunk = record.chunk
    tokens = []
    for i in range(chunk.n_tokens):
        tok: dict = {"text": chunk.texts[i], "probs": [float(p) for p in chunk.probs[i]]}
        if chunk.word_ids is not None and chunk.word_ids[i] is not None:
            tok["word_id"] = chunk.word_ids[i]
        tokens.append(tok)
    obj: dict = {"id": chunk.id, "classes": list(chunk.schema.class_names), "tokens": tokens}
    if record.label is not None:
        obj["label"] = record.label
    if record.gold_spans:
        obj["gold_spans"] = [
            {"entity_type": g.entity_type, "start": g.start, "end": g.end}
            for g in record.gold_spans
        ]
    return obj


def is_utf8(text: str) -> bool:
    """Whether ``text``, read with errors="surrogateescape", came from
    UTF-8 bytes: a byte that is not UTF-8 reads as a lone surrogate, which
    does not encode, on its own line rather than in the decoder's
    read-ahead. ASCII text, the usual case, is not scanned."""
    try:
        return text.isascii() or bool(text.encode("utf-8"))
    except UnicodeEncodeError:
        return False


def json_lines(source: str | IO[str]) -> Iterator[tuple[int, object]]:
    """(line number, decoded value) of each non-blank line of a JSONL path
    or open text handle; a line that is not UTF-8 or does not decode is a
    ParseError. A value is not kept once yielded: its caller may drop it."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", errors="surrogateescape") as handle:
            yield from json_lines(handle)
        return
    path = getattr(source, "name", None)
    for line_no, line in enumerate(source, start=1):
        if not is_utf8(line):
            raise ParseError(line_no, "bytes that are not UTF-8", path)
        line = line.strip()
        if not line:
            continue
        try:  # the yield is inside, so this frame keeps no reference to the value
            yield line_no, decode_json(line)
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, f"invalid JSON: {exc.msg}", path) from exc


def iter_records(source: str | IO[str], unique_ids: bool = False) -> Iterator[CorpusRecord]:
    """Stream validated CorpusRecords from a JSONL path or open text handle
    (``json_lines``); memory stays bounded by the largest record.
    ``unique_ids`` makes a repeated record id a ParseError; it keeps every
    id seen, so a stream that must stay bounded does not ask for it."""
    path = source if isinstance(source, str) else getattr(source, "name", None)
    first_line: dict[str, int] | None = {} if unique_ids else None
    for line_no, obj in json_lines(source):
        record = parse_record(obj, line_no, path)
        obj = None  # drop the raw dict before yielding; it dominates the working set
        if first_line is not None:
            seen = first_line.setdefault(record.chunk.id, line_no)
            if seen != line_no:
                raise ParseError(
                    line_no, f"duplicate record id {record.chunk.id!r} (first on line {seen})", path
                )
        validate_chunk(record.chunk)
        yield record
        del record  # keep nothing of the consumed record while reading the next line


def write_records(target: str | IO[str], records: Iterable[CorpusRecord]) -> int:
    """Write records as JSONL; returns the number written."""
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            return write_records(handle, records)
    n = 0
    for record in records:
        target.write(json.dumps(record_to_obj(record)) + "\n")
        n += 1
    return n


# A span's JSON object: EntitySpan's fields in order, with the JSON kind
# each must have.
_SPAN_FIELDS = (("chunk_id", str), ("entity_type", str), ("start", int), ("end", int),
                ("anchor", int), ("text", str))


def span_to_obj(span: EntitySpan) -> dict:
    return {name: getattr(span, name) for name, _ in _SPAN_FIELDS}


def span_from_obj(obj: dict) -> EntitySpan:
    """The span of one JSON object, for span files and gold spans alike:
    positions must be JSON integers and the id, type and text JSON
    strings, else TypeError (so 0.4, "2" or true is never a position)."""
    obj = {"anchor": obj["start"], "text": "", **obj}
    for name, kind in _SPAN_FIELDS:
        if not is_json(obj[name], kind):
            raise TypeError(f"{name!r} must be {_KIND_NAMES[kind]}, got {obj[name]!r}")
    return EntitySpan(*(obj[name] for name, _ in _SPAN_FIELDS))


# ---------------------------------------------------------------------------
# JSON input: every reader decodes and type-checks through these
# ---------------------------------------------------------------------------


def decode_json(text: str):
    """One JSON text's value. A text the decoder cannot hold (nested too
    deeply, an integer of too many digits) is a json.JSONDecodeError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except (RecursionError, ValueError) as exc:
        raise json.JSONDecodeError(str(exc), text, 0) from None


# What each JSON kind is called in a message. A config field's kind is the
# first that holds its default, so int comes before float.
_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string",
               list: "a list", dict: "an object"}


def is_json(value, kind: type) -> bool:
    """Whether ``value`` is a JSON ``kind`` of _KIND_NAMES: a bool is only a
    boolean, a float is an int or float finite as a float, and a list may
    be a tuple (the kind of a config's tuple field, or of its ``asdict``)."""
    if isinstance(value, bool) != (kind is bool):
        return False
    if kind is float:
        try:
            return isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            return False
    return isinstance(value, (list, tuple) if kind is list else kind)


def read_config_file(path: str):
    """The parsed JSON of a config file; InvalidConfig if it is not JSON."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return decode_json(handle.read())
        except ValueError as exc:
            raise InvalidConfig(f"{path}: not a JSON config file ({exc})") from exc


def read_config(cls, obj, what: str):
    """The config dataclass ``cls`` of a parsed JSON object: the one rule
    for config files, command-line flags and a model file's records.

    Every key must name a field of ``cls`` and every value must be of the
    JSON kind of that field's default, else InvalidConfig names the key.
    A float field stores a float (``2`` and ``2.0`` are one config and
    write one value), a tuple field takes a list, and a field whose
    default is a config takes an object, read by this rule. Range checks
    stay with ``cls``.
    """
    if not isinstance(obj, dict):
        raise InvalidConfig(f"{what} must be a JSON object, got {obj!r}")
    defaults = cls()
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise InvalidConfig(f"unknown {what} fields: {unknown}")
    kwargs = {}
    for key, value in obj.items():
        default = getattr(defaults, key)
        kind = dict if is_dataclass(default) else next(
            kind for kind in _KIND_NAMES if is_json(default, kind))
        if not is_json(value, kind):
            raise InvalidConfig(f"{what} field {key!r} must be {_KIND_NAMES[kind]}, got {value!r}")
        if kind is dict:
            value = read_config(type(default), value, f"{key} config")
        elif kind is float:
            value = float(value)
        elif isinstance(default, tuple):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)
