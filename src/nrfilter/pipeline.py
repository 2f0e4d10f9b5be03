"""End-to-end orchestration: featurize, train, tune, classify, report.

The training pipeline materializes the feature matrix (training needs
it anyway); classification is a streaming pass that holds one small
block of records at a time, a few times its widest record, so corpus
size does not affect memory.
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
    CorpusRecord,
    EntitySpan,
    STRONG,
    WEAK,
    config_kwargs,
    decode_spans,
    iter_records,
    read_config_file,
)
from .errors import InvalidConfig, SchemaMismatch, SingleClassTrainingSet
from .features import (
    FeatureConfig,
    FeatureSchema,
    build_feature_schema,
    featurize_chunks,
    write_feature_csv,
)
from .metrics import drop_pcts, entity_f1, filter_counts
from .tree import (
    TrainConfig,
    TreeModel,
    TuneResult,
    save_model,
    train_matrix,
    tune_threshold,
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
# still go in groups of _PDM_CELLS. What a stream holds stays a small
# multiple of its widest record, inside the streaming bound of ten.
_STREAM_WIDTHS = 4


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

    def to_obj(self) -> dict:
        return asdict(self)

    @classmethod
    def from_obj(cls, obj: dict) -> "PipelineConfig":
        kwargs = config_kwargs(cls, obj, "config")
        if "scopes" in kwargs:
            kwargs["scopes"] = tuple(kwargs["scopes"])
        if "tree" in kwargs:
            tree = config_kwargs(TrainConfig, kwargs["tree"], "tree config")
            kwargs["tree"] = TrainConfig(**tree)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        return cls.from_obj(read_config_file(path))

    @classmethod
    def from_model(cls, model: TreeModel) -> "PipelineConfig":
        """The config of a model's recorded featurization, its other
        fields at their defaults. A model that records none was trained
        under the defaults; a malformed record is a SchemaMismatch, like
        any other malformed part of a model file."""
        try:
            return cls.from_obj(config_kwargs(FeatureConfig, model.featurization, "featurization"))
        except InvalidConfig as exc:
            raise SchemaMismatch(f"malformed model file: {exc}") from exc


def _tp_flags(record: CorpusRecord, spans: Sequence[EntitySpan]) -> list[bool]:
    """Supervision for each span of one record: exact gold match when
    gold spans exist, otherwise the record-level label."""
    if record.gold_spans:
        keys = {g.match_key() for g in record.gold_spans}
        return [span.match_key() in keys for span in spans]
    if record.label is not None:
        return [record.label == STRONG] * len(spans)
    raise InvalidConfig(
        f"record {record.chunk.id!r} has neither label nor gold_spans"
    )


def assign_validation(seed: int, index: int, fraction: float) -> bool:
    """Deterministic per-record split assignment, independent of order."""
    return bool(np.random.default_rng([seed, _SPLIT_SALT, index]).random() < fraction)


Featurized = tuple[CorpusRecord, list[EntitySpan], FeatureSchema, np.ndarray]


def featurize_records(
    records: Iterable[CorpusRecord],
    config: PipelineConfig,
    feature_names: tuple[str, ...] | None = None,
    batch: bool = False,
) -> Iterator[Featurized]:
    """Decode and featurize records: yields each record with its decoded
    spans, feature schema and (n_spans, n_features) matrix, in order.

    ``feature_names``, when given, must equal every record's schema (a
    model's training schema). One kernel call featurizes a block of
    records of one class schema. With ``batch`` a block holds at most
    _BLOCK_CELLS (span, token, class) cells, unless it is one record.
    Without it (a stream) a block holds at most _STREAM_WIDTHS times the
    tokens of the widest record seen so far, so a stream's memory follows
    its widest record, not the corpus. A record's rows are the same bits
    in any block.
    """
    return itertools.chain.from_iterable(
        _featurized_blocks(records, config, feature_names, batch)
    )


def _featurized_blocks(
    records: Iterable[CorpusRecord],
    config: PipelineConfig,
    feature_names: tuple[str, ...] | None,
    batch: bool,
) -> Iterator[Iterator[Featurized]]:
    """The blocks of ``featurize_records``, each an iterator over its
    records. No reference to a block's records survives once its
    iterator is exhausted."""

    def decode(record: CorpusRecord):
        """(record, spans, schema, the record's cells in a block)"""
        chunk = record.chunk
        schema = build_feature_schema(chunk.schema, config)
        if feature_names is not None and schema.names != feature_names:
            raise SchemaMismatch(
                f"record {chunk.id!r}: the model was trained under a different "
                "feature schema than this corpus/configuration produces"
            )
        spans = decode_spans(chunk, config.orphan_policy)
        return record, spans, schema, max(len(spans), 1) * chunk.n_tokens * chunk.schema.K

    block: list = []
    cells = tokens = widest = 0
    for record in records:
        item = decode(record)
        n_tokens = record.chunk.n_tokens
        del record
        widest = max(widest, n_tokens)
        if block and (
            item[2] is not block[0][2]
            or (cells + item[3] > _BLOCK_CELLS if batch
                else tokens + n_tokens > _STREAM_WIDTHS * widest)
        ):
            yield _featurize_block(block, config)
            block, cells, tokens = [], 0, 0
        block.append(item)
        cells += item[3]
        tokens += n_tokens
        del item
    if block:
        yield _featurize_block(block, config)


def _featurize_block(block: list, config: FeatureConfig) -> Iterator[Featurized]:
    """One kernel call over a block of decoded records of one schema."""
    matrix = featurize_chunks(
        [record.chunk for record, *_ in block], [spans for _, spans, *_ in block],
        config, block[0][2],
    )
    lo = 0
    for record, spans, schema, _ in block:
        yield record, spans, schema, matrix[lo : lo + len(spans)]
        lo += len(spans)


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
    tp: list[bool] = []
    blocks: list[np.ndarray] = []  # each record's rows, a view into the kernel's block
    in_val: list[bool] = []  # each record's split
    val_gold: list[EntitySpan] = []
    any_gold = False
    schema: FeatureSchema | None = None
    records = iter_records(corpus, unique_ids=True)
    for index, (record, rec_spans, rec_schema, matrix) in enumerate(
        featurize_records(records, config, batch=True)
    ):
        if schema is None:
            schema = rec_schema
        elif rec_schema is not schema and rec_schema.class_schema != schema.class_schema:
            raise SchemaMismatch(
                f"record {record.chunk.id!r} has classes "
                f"{list(record.chunk.schema.class_names)}; the corpus began with "
                f"{list(schema.class_schema.class_names)}"
            )
        is_val = assign_validation(config.seed, index, config.validation_fraction)
        any_gold = any_gold or bool(record.gold_spans)
        if is_val:
            val_gold.extend(record.gold_spans)
        spans.extend(rec_spans)
        tp.extend(_tp_flags(record, rec_spans))
        blocks.append(matrix)
        in_val.append(is_val)
    if not spans:
        raise InvalidConfig("corpus produced no predicted spans")
    # Per-span flags. The label and split lists hold the shared constants,
    # not one new string per span.
    labels = [STRONG if t else WEAK for t in tp]
    tp = np.array(tp)
    val = np.repeat(in_val, [len(rows) for rows in blocks])
    if val.all():
        raise SingleClassTrainingSet(
            "empty training split: no predicted span is in a training record"
        )

    def split_rows(is_val: bool) -> np.ndarray:
        """The rows of one split, copied out of the blocks."""
        chosen = [rows for rows, v in zip(blocks, in_val) if v == is_val]
        return np.vstack(chosen or [np.empty((0, len(schema)))])

    # Each split's rows live only for the call that reads them.
    train_labels = list(itertools.compress(labels, ~val))
    model = train_matrix(split_rows(False), train_labels, schema.names, config.tree)
    tune = tune_threshold(model, split_rows(True), tp[val], config.tree.max_tp_drop)
    model = replace(model, decision_threshold=tune.threshold, featurization=config.featurization)

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
            (schema.names, spans[end - len(rows) : end], labels[end - len(rows) : end], rows)
            for end, rows in zip(ends, blocks)
        ))
    save_model(model, paths["model"])

    split_of = ["validation" if v else "train" for v in val.tolist()]
    lines = _verdict_lines(model, True)(spans, itertools.chain.from_iterable(blocks), split_of)
    kept = []
    with open(paths["predictions"], "w", encoding="utf-8") as handle:
        for verdict, line in lines:
            handle.write(line + "\n")
            kept.append(verdict == STRONG)
    kept = np.array(kept)

    report: dict = {
        "n_records": len(blocks),
        "n_spans": len(spans),
        "decision_threshold": tune.threshold,
        "config": config.to_obj(),
    }
    for split, mask in (("train", ~val), ("validation", val)):
        base, filtered = filter_counts(tp[mask], kept[mask])
        report[split] = {"n_tp": base.tp, "n_fp": base.fp, **drop_pcts(base, filtered)}
    if any_gold:
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
    config: PipelineConfig | None = None,
    include_path: bool = True,
) -> dict[str, int]:
    """Classify every decoded span of a corpus in input order, one block
    of records at a time (see ``featurize_records``).

    The spans are decoded and featurized as the model records
    (``PipelineConfig.from_model``); a ``config`` whose featurization
    differs from the model's is a SchemaMismatch.

    Dropped spans are kept in the output flagged "weak" so rejections
    stay reviewable. ``out`` is flushed after each block. A record that
    fails to parse, validate or match the model raises before the
    earlier records of its block are written, so ``out`` then holds
    only the blocks before it. Returns verdict counts.
    """
    recorded = PipelineConfig.from_model(model)
    if config is None:
        config = recorded
    elif config.featurization != recorded.featurization:
        raise SchemaMismatch(
            f"the config's featurization {config.featurization} differs from the "
            f"model's {recorded.featurization}"
        )
    counts = {STRONG: 0, WEAK: 0}
    lines = _verdict_lines(model, include_path)
    blocks = _featurized_blocks(iter_records(corpus), config, model.feature_names, batch=False)
    for block in blocks:
        for _, spans, _, matrix in block:
            for verdict, line in lines(spans, matrix):
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
    """A function (spans, rows, splits=None) -> iterator of (verdict, JSON
    line) per span; ``splits``, when given, names each span's split in
    its line.

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

    def lines(spans: Sequence[EntitySpan], rows: Iterable[np.ndarray],
              splits: Sequence[str] | None = None) -> Iterator[tuple[str, str]]:
        for i, (span, values) in enumerate(zip(spans, rows)):
            key = (model.leaf(values), None if splits is None else splits[i])
            if key not in tails:
                tails[key] = tail(*key)
            verdict, rest = tails[key]
            yield verdict, (
                f'{{"chunk_id": {_quote(span.chunk_id)}, '
                f'"entity_type": {_quote(span.entity_type)}, "start": {span.start}, '
                f'"end": {span.end}, "anchor": {span.anchor}, "text": {_quote(span.text)}{rest}'
            )

    return lines
