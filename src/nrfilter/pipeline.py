"""End-to-end orchestration: featurize, train, tune, classify, report.

The training pipeline materializes the feature matrix (training needs
it anyway); classification is a pure streaming pass that holds one
record at a time, so corpus size does not affect memory.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import asdict, dataclass, field
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .core import (
    ORPHAN_POLICIES,
    CorpusRecord,
    EntitySpan,
    STRONG,
    WEAK,
    config_kwargs,
    decode_spans,
    iter_records,
    read_config_file,
    span_to_obj,
)
from .errors import InvalidConfig, SchemaMismatch, SingleClassTrainingSet
from .features import (
    SCOPE_ORDER,
    FeatureConfig,
    FeatureSchema,
    build_feature_schema,
    featurize_chunks,
    write_feature_csv,
)
from .metrics import drop_pcts, entity_f1, filter_counts
from .pdm import DecayConfig
from .tree import (
    TrainConfig,
    TreeModel,
    TuneResult,
    save_model,
    train_matrix,
    tune_threshold,
)

_SPLIT_SALT = 104729
# (span, token, class) cells of one block of records featurized in one
# kernel call (a record without spans counts as one span). Larger blocks
# are no faster, and the parsed records a block holds cost memory.
_BLOCK_CELLS = 1 << 12


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the pipeline, serializable to one JSON file."""

    decay_rate: float = DecayConfig.decay_rate
    bins: int = DecayConfig.bins
    neighbor_window: int = FeatureConfig.neighbor_window
    scopes: tuple[str, ...] = SCOPE_ORDER
    tree: TrainConfig = field(default_factory=TrainConfig)
    validation_fraction: float = 0.2
    orphan_policy: str = "promote"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.validation_fraction < 1.0:
            raise InvalidConfig(
                f"validation_fraction must be in (0, 1), got {self.validation_fraction}"
            )
        if self.orphan_policy not in ORPHAN_POLICIES:
            raise InvalidConfig(
                f"orphan_policy must be one of {list(ORPHAN_POLICIES)}, got {self.orphan_policy!r}"
            )
        self.feature_config  # checks decay_rate, bins, neighbor_window and scopes

    @property
    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(
            decay=DecayConfig(self.decay_rate, self.bins),
            neighbor_window=self.neighbor_window,
            scopes=self.scopes,
        )

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
    model's training schema). With ``batch``, one kernel call featurizes
    a block of records: about _BLOCK_CELLS (span, token, class) cells, or
    fewer where the class schema changes. Without it every block is one
    record, and no reference to a record survives while the next one is
    parsed, so a stream holds one record at a time.
    """
    fconfig = config.feature_config

    def decode(record: CorpusRecord):
        """(record, spans, schema, the record's cells in a block)"""
        chunk = record.chunk
        schema = build_feature_schema(chunk.schema, fconfig)
        if feature_names is not None and schema.names != feature_names:
            raise SchemaMismatch(
                f"record {chunk.id!r}: the model was trained under a different "
                "feature schema than this corpus/configuration produces"
            )
        spans = decode_spans(chunk, config.orphan_policy)
        return record, spans, schema, max(len(spans), 1) * chunk.n_tokens * chunk.schema.K

    block: list = []
    cells = 0
    for record in records:
        item = decode(record)
        del record
        if block and (item[2] is not block[0][2] or cells + item[3] > _BLOCK_CELLS):
            yield from _featurize_block(block, fconfig)
            block, cells = [], 0
        block.append(item)
        cells += item[3]
        del item
        if not batch:
            yield from _featurize_block(block, fconfig)
            block, cells = [], 0
    if block:
        yield from _featurize_block(block, fconfig)


def _featurize_block(block: list, fconfig: FeatureConfig) -> Iterator[Featurized]:
    """One kernel call over a block of decoded records of one schema."""
    matrix = featurize_chunks(
        [record.chunk for record, *_ in block], [spans for _, spans, *_ in block],
        fconfig, block[0][2],
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
    model = model.with_threshold(tune.threshold)

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
    lines = _verdict_lines(model, spans, itertools.chain.from_iterable(blocks), True, split_of)
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
    config: PipelineConfig = PipelineConfig(),
    include_path: bool = True,
) -> dict[str, int]:
    """Classify every decoded span of a corpus, one record at a time.

    Dropped spans are kept in the output flagged "weak" so rejections
    stay reviewable. Returns verdict counts.
    """
    counts = {STRONG: 0, WEAK: 0}
    featurized = featurize_records(iter_records(corpus), config, model.feature_names)
    for _, spans, _, matrix in featurized:
        for verdict, line in _verdict_lines(model, spans, matrix, include_path):
            out.write(line + "\n")
            counts[verdict] += 1
    return counts


def _verdict_lines(
    model: TreeModel,
    spans: Sequence[EntitySpan],
    rows: Iterable[np.ndarray],
    include_path: bool,
    splits: Sequence[str] | None = None,
) -> Iterator[tuple[str, str]]:
    """(verdict, JSON line) per span; ``splits``, when given, names each
    span's split in its line."""
    tree = model.compiled
    for i, (span, values) in enumerate(zip(spans, rows)):
        leaf = tree.leaf(values)
        p_weak = tree.p_weak[leaf]
        verdict = model.verdict(p_weak)
        obj = span_to_obj(span)
        obj.update(verdict=verdict, p_weak=p_weak)
        if splits is not None:
            obj["split"] = splits[i]
        if include_path:
            obj["path"] = tree.path[leaf]
        yield verdict, json.dumps(obj)
