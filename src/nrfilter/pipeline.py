"""End-to-end orchestration: featurize, train, tune, classify, report.

The training pipeline materializes the feature matrix (training needs
it anyway); classification is a pure streaming pass that holds one
record at a time, so corpus size does not affect memory.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import IO, Iterable, Iterator

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
from .errors import InvalidConfig, SchemaMismatch
from .features import (
    SCOPE_ORDER,
    FeatureConfig,
    FeatureSchema,
    FeatureVector,
    build_feature_schema,
    featurize_chunk,
    write_feature_csv,
)
from .metrics import EntityCounts, drop_rates, entity_f1
from .pdm import DecayConfig
from .tree import (
    TrainConfig,
    TreeModel,
    TuneResult,
    explain,
    serialize_model,
    train_matrix,
    tune_threshold,
)

_SPLIT_SALT = 104729


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

    def to_file(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_obj(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def span_is_tp(record: CorpusRecord, span: EntitySpan) -> bool:
    """Supervision for one span: exact gold match when gold spans exist,
    otherwise the record-level label."""
    if record.gold_spans:
        keys = {g.match_key() for g in record.gold_spans}
        return span.match_key() in keys
    if record.label is not None:
        return record.label == STRONG
    raise InvalidConfig(
        f"record {record.chunk.id!r} has neither label nor gold_spans"
    )


def assign_validation(seed: int, index: int, fraction: float) -> bool:
    """Deterministic per-record split assignment, independent of order."""
    return bool(np.random.default_rng([seed, _SPLIT_SALT, index]).random() < fraction)


def featurize_records(
    records: Iterable[CorpusRecord],
    config: PipelineConfig,
    feature_names: tuple[str, ...] | None = None,
) -> Iterator[tuple[CorpusRecord, list[EntitySpan], FeatureSchema, np.ndarray]]:
    """Decode and featurize one record at a time: yields each record with
    its decoded spans, feature schema and (n_spans, n_features) matrix.

    ``feature_names``, when given, must equal every record's schema (a
    model's training schema). No reference to a record survives while the
    next one is parsed, so a stream holds one record at a time.
    """
    fconfig = config.feature_config

    def featurize(record: CorpusRecord):
        chunk = record.chunk
        schema = build_feature_schema(chunk.schema, fconfig)
        if feature_names is not None and schema.names != feature_names:
            raise SchemaMismatch(
                f"record {chunk.id!r}: the model was trained under a different "
                "feature schema than this corpus/configuration produces"
            )
        spans = decode_spans(chunk, config.orphan_policy)
        return record, spans, schema, featurize_chunk(chunk, spans, fconfig, schema)

    for record in records:
        result = featurize(record)
        del record
        yield result
        del result


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
    rows: list[tuple[EntitySpan, FeatureVector, str | None, bool, bool]] = []
    val_gold: list[EntitySpan] = []
    val_base: list[EntitySpan] = []
    any_gold = False
    n_records = 0
    featurized = featurize_records(iter_records(corpus), config)
    for index, (record, spans, schema, matrix) in enumerate(featurized):
        n_records += 1
        is_val = assign_validation(config.seed, index, config.validation_fraction)
        any_gold = any_gold or bool(record.gold_spans)
        if is_val:
            val_gold.extend(record.gold_spans)
            val_base.extend(spans)
        for span, values in zip(spans, matrix):
            fv = FeatureVector(schema, values)
            rows.append((span, fv, record.label, is_val, span_is_tp(record, span)))
    if not rows:
        raise InvalidConfig("corpus produced no predicted spans")

    train_rows = [(fv, WEAK if not is_tp else STRONG) for _, fv, _, is_val, is_tp in rows if not is_val]
    names = rows[0][1].schema.names
    X = np.vstack([fv.values for fv, _ in train_rows])
    model = train_matrix(X, [label for _, label in train_rows], names, config.tree)

    val_rows = [(fv, is_tp) for _, fv, _, is_val, is_tp in rows if is_val]
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
        ((span, WEAK if not is_tp else STRONG, fv) for span, fv, _, _, is_tp in rows),
    )
    with open(paths["model"], "w", encoding="utf-8") as handle:
        handle.write(serialize_model(model))
        handle.write("\n")

    splits = {"train": EntityCounts(), "validation": EntityCounts()}
    base = {"train": EntityCounts(), "validation": EntityCounts()}
    val_kept: list[EntitySpan] = []
    with open(paths["predictions"], "w", encoding="utf-8") as handle:
        for span, fv, _, is_val, is_tp in rows:
            path = explain(model, fv)
            split = "validation" if is_val else "train"
            kept = path.verdict == STRONG
            obj = span_to_obj(span)
            obj.update(
                verdict=path.verdict,
                p_weak=path.p_weak,
                split=split,
                path=path.serialize(),
            )
            handle.write(json.dumps(obj) + "\n")
            part, whole = splits[split], base[split]
            whole.tp += is_tp
            whole.fp += not is_tp
            if kept:
                part.tp += is_tp
                part.fp += not is_tp
            elif is_tp:
                part.fn += 1
            if is_val and kept:
                val_kept.append(span)

    report: dict = {
        "n_records": n_records,
        "n_spans": len(rows),
        "decision_threshold": tune.threshold,
        "config": config.to_obj(),
    }
    for split in ("train", "validation"):
        tp_drop, fp_drop = drop_rates(base[split], splits[split])
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
    model: TreeModel, spans: list[EntitySpan], matrix: np.ndarray, include_path: bool
) -> Iterator[tuple[str, str]]:
    """(verdict, JSON line) per span of one record. A generator, so its
    decision paths are freed when the record is done."""
    for span, values in zip(spans, matrix):
        path = explain(model, values)
        obj = span_to_obj(span)
        obj.update(verdict=path.verdict, p_weak=path.p_weak)
        if include_path:
            obj["path"] = path.serialize()
        yield path.verdict, json.dumps(obj)
