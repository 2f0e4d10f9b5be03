"""End-to-end orchestration: featurize, train, tune, classify, report.

The training pipeline materializes the feature matrix (training needs
it anyway); classification is a streaming pass that holds one small
block at a time, a few times its widest record, so corpus size does not
affect memory. A stream's block holds what the kernel and the verdict
lines read of each record (``HeldChunk`` and the decoded spans), not the
parsed record, so one kernel call serves twice as many records in the
memory a block of records took.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import asdict, dataclass, field, replace
from json.encoder import encode_basestring_ascii as _quote
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .core import (
    Chunk,
    CorpusRecord,
    EntitySpan,
    STRONG,
    WEAK,
    decode_spans,
    iter_records,
)
from .errors import InvalidConfig, SchemaMismatch, SingleClassTrainingSet
from .features import (
    FeatureConfig,
    feature_names,
    featurize_chunks,
    write_feature_csv,
)
from .metrics import drop_pcts, entity_f1, filter_counts
from .tree import (
    TrainConfig,
    TreeModel,
    TuneResult,
    cut_threshold,
    save_model,
    train_matrix,
)

_SPLIT_SALT = 104729
# A batch block (the pipeline's, featurize's) holds at most this many
# (span, token, class) cells, unless it is one record (a record without
# spans counts as one span): the kernel's temporaries stay a few MB.
_BLOCK_CELLS = 1 << 12
# A stream's block holds at most this many times the tokens of the
# widest record seen so far, whatever its cells. A kernel call costs
# about 64 numpy calls whatever its size: a block of several records
# pays that once, even records of over _BLOCK_CELLS cells each (a
# 130-token note of 12 spans is about 11,000), while the density maps
# still go in groups of _PDM_CELLS. A HeldChunk and its spans take
# 55-75 B per token (synth, one-span and 130-token note corpora),
# against 137-161 B for a parsed record and its spans, so 8 widths hold
# no more than 4 widths of records did, and 9 would not on the notes: a
# stream's memory stays a small multiple of its widest record, inside
# the streaming bound of ten.
_STREAM_WIDTHS = 8


@dataclass(frozen=True)
class PipelineConfig(FeatureConfig):
    """Every knob of the pipeline, serializable to one JSON file: the
    featurization's fields, the tree's TrainConfig, and the validation
    split's fraction and seed."""

    tree: TrainConfig = field(default_factory=TrainConfig)
    validation_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.validation_fraction < 1.0:
            raise InvalidConfig(
                f"validation_fraction must be in (0, 1), got {self.validation_fraction}"
            )
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")


def validation_draws(seed: int, n: int) -> np.ndarray:
    """The split draws of records 0..n-1, one ``default_rng([seed,
    _SPLIT_SALT])`` stream: a record is in the validation split iff its
    draw is below the fraction. Record i's draw depends only on the seed
    and i, however many records follow it."""
    return np.random.default_rng([seed, _SPLIT_SALT]).random(n)


class HeldChunk:
    """What a stream's block keeps of a record once its spans are
    decoded: the parts of its chunk that ``featurize_chunks`` reads (id,
    class schema, token count, probabilities and word ids). The texts,
    which nothing reads after decoding, and the record's label and gold
    spans are dropped."""

    __slots__ = ("id", "schema", "n_tokens", "probs", "word_ids")

    def __init__(self, chunk: Chunk):
        self.id = chunk.id
        self.schema = chunk.schema
        self.n_tokens = chunk.n_tokens
        self.probs = chunk.probs
        self.word_ids = _narrow_word_ids(chunk.word_ids)


def _narrow_word_ids(word_ids):
    """Integer word ids as the narrowest integer array that holds them,
    a byte or two per token where a tuple takes eight; any other ids as
    they are. The kernel compares ids only for equality, as the array
    ``np.asarray`` makes of them, so this changes no feature."""
    if word_ids is None:
        return None
    try:
        ids = np.asarray(word_ids)
    except ValueError:  # ids of differing shapes
        return word_ids
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        return word_ids
    return ids.astype(np.result_type(np.min_scalar_type(ids.min()), np.min_scalar_type(ids.max())))


def featurize_blocks(
    records: Iterable[CorpusRecord],
    config: FeatureConfig,
    names: tuple[str, ...] | None = None,
    batch: bool = False,
) -> Iterator[Iterator[tuple[CorpusRecord | HeldChunk, list[EntitySpan], np.ndarray]]]:
    """Decode and featurize records in blocks: yields one iterator per
    block over each of its records with its decoded spans and
    (n_spans, n_features) rows, in order. No reference to a block's
    records survives once its iterator is exhausted.

    ``names``, when given, must equal every record's ``feature_names``
    (a model's training names). One kernel call featurizes a block, and a
    block ends where the class schema changes. With ``batch`` a block
    holds the records themselves, at most _BLOCK_CELLS (span, token,
    class) cells of them unless it is one record. Without it (a stream)
    a block holds each record's ``HeldChunk`` in its place, and it is
    that which comes out with the spans and rows: the record is dropped
    as soon as its spans are decoded. A stream's block holds at most
    _STREAM_WIDTHS times the tokens of the widest record seen so far, so
    its memory follows its widest record, not the corpus. A record's
    rows are the same bits in any block.
    """

    def featurized(items: list, spans: list) -> Iterator[tuple]:
        chunks = [record.chunk for record in items] if batch else items
        matrix = featurize_chunks(chunks, spans, config)
        lo = 0
        for item, item_spans in zip(items, spans):
            yield item, item_spans, matrix[lo : lo + len(item_spans)]
            lo += len(item_spans)

    items: list = []  # the block's records, or their HeldChunks
    spans_of: list[list[EntitySpan]] = []
    schema = None
    cells = tokens = widest = 0
    for record in records:
        chunk = record.chunk
        new_schema = chunk.schema is not schema and chunk.schema != schema
        if new_schema and names is not None and feature_names(chunk.schema, config) != names:
            raise SchemaMismatch(
                f"record {chunk.id!r}: the model was trained under a different "
                "feature schema than this corpus/configuration produces"
            )
        spans = decode_spans(chunk, config.orphan_policy)
        n_cells = max(len(spans), 1) * chunk.n_tokens * chunk.schema.K
        widest = max(widest, chunk.n_tokens)
        if items and (
            new_schema
            or (cells + n_cells > _BLOCK_CELLS if batch
                else tokens + chunk.n_tokens > _STREAM_WIDTHS * widest)
        ):
            yield featurized(items, spans_of)
            items, spans_of, cells, tokens = [], [], 0, 0
        schema = chunk.schema
        items.append(record if batch else HeldChunk(chunk))
        spans_of.append(spans)
        cells += n_cells
        tokens += chunk.n_tokens
        # A stream's record goes now, not when the next one is read.
        del record, chunk
    if items:
        yield featurized(items, spans_of)


@dataclass
class PipelineResult:
    report: dict
    model: TreeModel
    tune: TuneResult
    paths: dict[str, str]


def run_pipeline(
    corpus: str | IO[str],
    out_dir: str,
    config: PipelineConfig = PipelineConfig(),
) -> PipelineResult:
    """Train, tune, classify, and evaluate over one labeled corpus.

    Writes features.csv, model.json, predictions.jsonl, and report.json
    under ``out_dir``; reruns with identical inputs produce byte-identical
    artifacts. The returned report carries validation drop rates.
    """
    spans: list[EntitySpan] = []
    labels: list[str] = []
    blocks: list[np.ndarray] = []  # each record's rows, a view into the kernel's block
    golds: list[tuple[EntitySpan, ...]] = []  # each record's gold spans
    schema = None
    featurized = featurize_blocks(iter_records(corpus, unique_ids=True), config, batch=True)
    for record, rec_spans, matrix in itertools.chain.from_iterable(featurized):
        rec_schema = record.chunk.schema
        if schema is None:
            schema = rec_schema
        elif rec_schema is not schema and rec_schema != schema:
            raise SchemaMismatch(
                f"record {record.chunk.id!r} has classes {list(rec_schema.class_names)}; "
                f"the corpus began with {list(schema.class_names)}"
            )
        spans.extend(rec_spans)
        labels.extend(record.span_labels(rec_spans, required=True))
        blocks.append(matrix)
        golds.append(record.gold_spans)
    if not spans:
        raise InvalidConfig("corpus produced no predicted spans")
    names = feature_names(schema, config)
    in_val = (validation_draws(config.seed, len(blocks)) < config.validation_fraction).tolist()
    tp = np.array([label == STRONG for label in labels])
    val = np.repeat(in_val, [len(rows) for rows in blocks])
    if val.all():
        raise SingleClassTrainingSet(
            "empty training split: no predicted span is in a training record"
        )
    if not val.any():
        raise SingleClassTrainingSet(
            "empty validation split: no predicted span is in a validation record"
        )

    # The training rows are copied out of the blocks for this call alone.
    model = train_matrix(np.vstack([rows for rows, v in zip(blocks, in_val) if not v]),
                         list(itertools.compress(labels, ~val)), names, config.tree)
    # Each span is walked once: θ, the verdicts and the report read its leaf.
    leaves = model.walk(itertools.chain.from_iterable(blocks))
    p_weak = model.p_weak(leaves)
    tune = cut_threshold(p_weak[val], tp[val], config.tree.max_tp_drop)
    model = replace(model, decision_threshold=tune.threshold, featurization=config.featurization)
    kept = p_weak < tune.threshold

    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "features": os.path.join(out_dir, "features.csv"),
        "model": os.path.join(out_dir, "model.json"),
        "predictions": os.path.join(out_dir, "predictions.jsonl"),
        "report": os.path.join(out_dir, "report.json"),
    }

    ends = np.cumsum([len(rows) for rows in blocks]).tolist()
    with open(paths["features"], "w", encoding="utf-8", newline="") as handle:
        write_feature_csv(handle, (
            (names, spans[end - len(rows) : end], labels[end - len(rows) : end], rows)
            for end, rows in zip(ends, blocks)
        ))
    save_model(model, paths["model"])

    split_of = ["validation" if v else "train" for v in val.tolist()]
    with open(paths["predictions"], "w", encoding="utf-8") as handle:
        for _, line in _verdict_lines(model, True)(spans, leaves, split_of):
            handle.write(line + "\n")

    report: dict = {
        "n_records": len(blocks),
        "n_spans": len(spans),
        "decision_threshold": tune.threshold,
        "config": asdict(config),
    }
    for split, mask in (("train", ~val), ("validation", val)):
        base, filtered = filter_counts(tp[mask], kept[mask])
        report[split] = {"n_tp": base.tp, "n_fp": base.fp, **drop_pcts(base, filtered)}
    if any(golds):
        val_gold = list(itertools.chain.from_iterable(itertools.compress(golds, in_val)))
        report["entity_f1_validation"] = {
            "base": entity_f1(itertools.compress(spans, val), val_gold).to_dict(),
            "filtered": entity_f1(itertools.compress(spans, val & kept), val_gold).to_dict(),
        }
    with open(paths["report"], "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return PipelineResult(report, model, tune, paths)


def stream_classify(
    corpus: str | IO[str],
    model: TreeModel,
    out: IO[str],
    include_path: bool = True,
) -> dict[str, int]:
    """Classify every decoded span of a corpus in input order, one block
    of records at a time (see ``featurize_blocks``).

    The spans are decoded and featurized as the model records
    (``model.featurization``).

    Dropped spans are kept in the output flagged "weak" so rejections
    stay reviewable. ``out`` is flushed after each block. A record that
    fails to parse, validate or match the model raises before the
    earlier records of its block are written, so ``out`` then holds
    only the blocks before it. Returns verdict counts.
    """
    counts = {STRONG: 0, WEAK: 0}
    lines = _verdict_lines(model, include_path)
    blocks = featurize_blocks(iter_records(corpus), model.featurization, model.feature_names)
    for block in blocks:
        for _, spans, matrix in block:
            for verdict, line in lines(spans, model.walk(matrix)):
                out.write(line + "\n")
                counts[verdict] += 1
        # The next block is read while these names would still hold this
        # one's last spans and its whole matrix; the flush empties the
        # handle's pending writes, which would otherwise grow to its
        # buffer size.
        del spans, matrix
        out.flush()
    return counts


def _verdict_lines(model: TreeModel, include_path: bool):
    """A function (spans, leaves, splits=None) -> iterator of (verdict,
    JSON line) per span, given the leaf id each span reaches; ``splits``,
    when given, names each span's split in its line.

    A line is the bytes of ``json.dumps`` of the span's object with its
    verdict, p_weak, split and path added. Everything from "verdict" on
    is the same for every span of one leaf and split, so it is rendered
    once per (leaf, split) for the life of the returned function; the
    span's fields are formatted here, each string escaped by the encoder
    ``json.dumps`` uses."""
    tails: dict[tuple[int, str | None], tuple[str, str]] = {}

    def tail(leaf: int, split: str | None) -> tuple[str, str]:
        p_weak = model.nodes[leaf].p_weak
        obj = {"verdict": model.verdict(p_weak), "p_weak": p_weak}
        if split is not None:
            obj["split"] = split
        if include_path:
            obj["path"] = model.paths[leaf]
        return obj["verdict"], ", " + json.dumps(obj)[1:]  # without its "{"

    def lines(spans: Sequence[EntitySpan], leaves: Sequence[int],
              splits: Sequence[str] | None = None) -> Iterator[tuple[str, str]]:
        for i, (span, leaf) in enumerate(zip(spans, leaves)):
            key = (leaf, None if splits is None else splits[i])
            if key not in tails:
                tails[key] = tail(*key)
            verdict, rest = tails[key]
            yield verdict, (
                f'{{"chunk_id": {_quote(span.chunk_id)}, '
                f'"entity_type": {_quote(span.entity_type)}, "start": {span.start}, '
                f'"end": {span.end}, "anchor": {span.anchor}, "text": {_quote(span.text)}{rest}'
            )

    return lines
