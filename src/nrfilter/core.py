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
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import chain
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import (
    InvalidConfig,
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
    every token is its own word.
    """

    id: str
    schema: ClassSchema
    texts: tuple[str, ...]
    probs: np.ndarray
    word_ids: tuple[int, ...] | None = None

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
#    "tokens": [{"text": str, "probs": [float, ...], "word_id": int?}, ...],
#    "label": "strong"|"weak"?, "gold_spans": [{"entity_type", "start", "end"}]?}
# Unknown fields are ignored.
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


_WORD_ID_TYPES = frozenset((int, float, str))


def _check_word_ids(word_ids: list, fail) -> None:
    """Word ids group tokens by equality, so each must be an integer, a
    finite number or a string: NaN equals nothing, not even itself."""
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
    if type(chunk_id) is not str:
        fail(f"'id' must be a string, got {type(chunk_id).__name__}")
    if not isinstance(raw_tokens, list):
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
        try:
            n_probs = len(row)
        except TypeError:
            fail(f"token {i} probabilities must be a list, got {type(row).__name__}")
        if n_probs != K:
            fail(f"token {i} has {n_probs} probabilities, schema K={K}")
        rows.append(row)
        wid = tok.get("word_id")
        has_word_ids = has_word_ids or wid is not None
        word_ids.append(wid if wid is not None else i)
    try:
        "".join(texts)  # one C-level check that every text is a str
    except TypeError:
        i = next(i for i, text in enumerate(texts) if type(text) is not str)
        fail(f"token {i} 'text' must be a string, got {type(texts[i]).__name__}")
    probs = _probability_matrix(rows, fail)
    if has_word_ids:
        _check_word_ids(word_ids, fail)
    chunk = Chunk(
        chunk_id,
        schema,
        tuple(texts),
        probs,
        tuple(word_ids) if has_word_ids else None,
    )

    label = obj.get("label")
    if label is not None and label not in (STRONG, WEAK):
        fail(f"label must be 'strong' or 'weak', got {label!r}")

    raw_gold = obj.get("gold_spans")
    if raw_gold is not None and not isinstance(raw_gold, list):
        fail(f"'gold_spans' must be a list, got {type(raw_gold).__name__}")
    gold = []
    for g in raw_gold or ():
        try:
            start, end = g["start"], g["end"]
            entity_type = g["entity_type"]
            if type(start) is not int or type(end) is not int:  # not 0.5, "0" or true
                raise TypeError
        except (KeyError, TypeError):
            fail("gold span needs integer 'start'/'end' and 'entity_type'")
        if type(entity_type) is not str:
            fail(f"gold span 'entity_type' must be a string, got {type(entity_type).__name__}")
        if not (0 <= start <= end < chunk.n_tokens):
            fail(f"gold span [{start}, {end}] outside chunk of {chunk.n_tokens} tokens")
        if entity_type not in schema.entity_names:
            fail(f"gold span type {entity_type!r} is not among the record's entity types "
                 f"{list(schema.entity_names)}")
        gold.append(
            EntitySpan(
                chunk_id=chunk_id,
                entity_type=entity_type,
                start=start,
                end=end,
                anchor=start,
                text=" ".join(texts[start : end + 1]),
            )
        )
    return CorpusRecord(chunk, label, tuple(gold))


def record_to_obj(record: CorpusRecord) -> dict:
    """Inverse of parse_record, suitable for json.dumps."""
    chunk = record.chunk
    tokens = []
    for i in range(chunk.n_tokens):
        tok: dict = {"text": chunk.texts[i], "probs": [float(p) for p in chunk.probs[i]]}
        if chunk.word_ids is not None:
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


def iter_records(source: str | IO[str], unique_ids: bool = False) -> Iterator[CorpusRecord]:
    """Stream validated CorpusRecords from a JSONL path or open text handle.

    Reads one line at a time; memory stays bounded by the largest record.
    A line with bytes that are not UTF-8 is a ParseError. ``unique_ids``
    makes a repeated record id a ParseError; it keeps every id seen, so a
    stream that must stay bounded does not ask for it.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", errors="surrogateescape") as handle:
            yield from iter_records(handle, unique_ids=unique_ids)
        return
    path = getattr(source, "name", None)
    first_line: dict[str, int] | None = {} if unique_ids else None
    for line_no, line in enumerate(source, start=1):
        if not is_utf8(line):
            raise ParseError(line_no, "bytes that are not UTF-8", path)
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, f"invalid JSON: {exc.msg}", path) from exc
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


# A span's JSON object: EntitySpan's fields in order, with the JSON type
# each must have.
_SPAN_FIELDS = (("chunk_id", str), ("entity_type", str), ("start", int), ("end", int),
                ("anchor", int), ("text", str))


def span_to_obj(span: EntitySpan) -> dict:
    return {name: getattr(span, name) for name, _ in _SPAN_FIELDS}


def span_from_obj(obj: dict) -> EntitySpan:
    """The span of one JSON object, by ``parse_record``'s rule: positions
    must be JSON integers and the id, type and text JSON strings, else
    TypeError (so 0.4, "2" or true is never a position)."""
    obj = {"anchor": obj["start"], "text": "", **obj}
    for name, kind in _SPAN_FIELDS:
        if type(obj[name]) is not kind:
            raise TypeError(f"{name!r} must be a JSON {'string' if kind is str else 'integer'}, "
                            f"got {obj[name]!r}")
    return EntitySpan(*(obj[name] for name, _ in _SPAN_FIELDS))


# ---------------------------------------------------------------------------
# JSON config objects
# ---------------------------------------------------------------------------

# The JSON values a config field accepts, by the type of its default.
# bool comes first: it is an int subclass.
_JSON_KINDS = (
    (bool, (bool,), "a boolean"),
    (int, (int,), "an integer"),
    (float, (int, float), "a finite number"),
    (str, (str,), "a string"),
    (tuple, (list, tuple), "a list"),
    (dict, (dict,), "an object"),
)


def read_config_file(path: str):
    """The parsed JSON of a config file; InvalidConfig if it is not JSON."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as exc:
            raise InvalidConfig(f"{path}: not a JSON config file ({exc})") from exc


def config_kwargs(cls, obj, what: str) -> dict:
    """Keyword arguments for the config dataclass ``cls`` from a parsed
    JSON object.

    Every key must name a field of ``cls`` and every value must be of the
    JSON kind of that field's default (a nested config is an object);
    otherwise InvalidConfig names the key. Range checks stay with ``cls``.
    """
    if not isinstance(obj, dict):
        raise InvalidConfig(f"{what} must be a JSON object, got {obj!r}")
    defaults = asdict(cls())
    unknown = sorted(set(obj) - set(defaults))
    if unknown:
        raise InvalidConfig(f"unknown {what} fields: {unknown}")
    for key, value in obj.items():
        default = defaults[key]
        _, accepted, kind = next(k for k in _JSON_KINDS if isinstance(default, k[0]))
        if (
            isinstance(value, bool) != isinstance(default, bool)
            or not isinstance(value, accepted)
            or (isinstance(value, float) and not math.isfinite(value))
        ):
            raise InvalidConfig(f"{what} field {key!r} must be {kind}, got {value!r}")
    return dict(obj)
