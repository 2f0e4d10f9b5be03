"""End-to-end orchestration: featurize, train, tune, classify, report.

The training pipeline materializes the feature matrix (training needs
it anyway); classification is a pure streaming pass that holds one
record at a time, so corpus size does not affect memory.
"""

from __future__ import annotations

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
    FeatureVector,
    build_feature_schema,
    featurize_chunks,
    write_feature_csv,
)
from .metrics import EntityCounts, drop_rates, entity_f1
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
    rows: list[np.ndarray] = []  # each span's feature row, a view into its block
    in_val: list[bool] = []
    tp: list[bool] = []
    val_gold: list[EntitySpan] = []
    val_base: list[EntitySpan] = []
    any_gold = False
    schema: FeatureSchema | None = None
    n_records = 0
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
        n_records += 1
        is_val = assign_validation(config.seed, index, config.validation_fraction)
        any_gold = any_gold or bool(record.gold_spans)
        if is_val:
            val_gold.extend(record.gold_spans)
            val_base.extend(rec_spans)
        spans.extend(rec_spans)
        rows.extend(matrix)
        in_val.extend([is_val] * len(rec_spans))
        tp.extend(_tp_flags(record, rec_spans))
    if not spans:
        raise InvalidConfig("corpus produced no predicted spans")
    labels = [STRONG if t else WEAK for t in tp]
    train = [i for i, val in enumerate(in_val) if not val]
    if not train:
        raise SingleClassTrainingSet(
            "empty training split: no predicted span is in a training record"
        )
    X = np.vstack([rows[i] for i in train])
    model = train_matrix(X, [labels[i] for i in train], schema.names, config.tree)
    del X
    val_rows = [(row, t) for row, val, t in zip(rows, in_val, tp) if val]
    tune = tune_threshold(model, val_rows, config.tree.max_tp_drop)
    model = model.with_threshold(tune.threshold)

    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "features": os.path.join(out_dir, "features.csv"),
        "model": os.path.join(out_dir, "model.json"),
        "predictions": os.path.join(out_dir, "predictions.jsonl"),
        "report": os.path.join(out_dir, "report.json"),
    }

    write_feature_csv(
        paths["features"],
        ((span, label, FeatureVector(schema, values))
         for span, label, values in zip(spans, labels, rows)),
    )
    save_model(model, paths["model"])

    filtered = {"train": EntityCounts(), "validation": EntityCounts()}
    base = {"train": EntityCounts(), "validation": EntityCounts()}
    val_kept: list[EntitySpan] = []
    split_of = ["validation" if val else "train" for val in in_val]
    lines = _verdict_lines(model, spans, rows, True, split_of)
    with open(paths["predictions"], "w", encoding="utf-8") as handle:
        for span, split, span_tp, (verdict, line) in zip(spans, split_of, tp, lines):
            handle.write(line + "\n")
            kept = verdict == STRONG
            part, whole = filtered[split], base[split]
            whole.tp += span_tp
            whole.fp += not span_tp
            if kept:
                part.tp += span_tp
                part.fp += not span_tp
            elif span_tp:
                part.fn += 1
            if split == "validation" and kept:
                val_kept.append(span)

    report: dict = {
        "n_records": n_records,
        "n_spans": len(spans),
        "decision_threshold": tune.threshold,
        "config": config.to_obj(),
    }
    for split in ("train", "validation"):
        tp_drop, fp_drop = drop_rates(base[split], filtered[split])
        report[split] = {
            "n_tp": base[split].tp,
            "n_fp": base[split].fp,
            "tp_drop_pct": tp_drop,
            "fp_drop_pct": fp_drop,
        }
    if any_gold:
        report["entity_f1_validation"] = {
            "base": entity_f1(val_base, val_gold).to_dict(),
            "filtered": entity_f1(val_kept, val_gold).to_dict(),
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
    matrix: Sequence[np.ndarray],
    include_path: bool,
    splits: Sequence[str] | None = None,
) -> Iterator[tuple[str, str]]:
    """(verdict, JSON line) per span; ``splits``, when given, names each
    span's split in its line."""
    tree = model.compiled
    for i, (span, values) in enumerate(zip(spans, matrix)):
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
