"""Noise filtering for token-level NER predictions.

The package consumes per-token class probability output of a sequence
labeler, decodes predicted entity spans, describes each span with
probability-density and statistical uncertainty features, and uses an
explainable decision tree to flag weak predictions for removal while
keeping true-positive loss within a configured budget.
"""

__version__ = "0.1.0"

from .core import (
    Chunk,
    ClassSchema,
    CorpusRecord,
    EntitySpan,
    STRONG,
    WEAK,
    decode_spans,
    iter_records,
    parse_record,
    record_to_obj,
    validate_chunk,
    write_records,
)
from .pdm import (
    compute_pdm,
    cumulative_bins,
)
from .features import (
    FeatureConfig,
    canonical_feature_name,
    feature_names,
    featurize_chunks,
)
from .baselines import (
    baseline_grid,
    mc_dropout_aggregate,
    span_confidence,
    temperature_scale,
)
from .tree import (
    TrainConfig,
    TreeModel,
    TuneResult,
    deserialize_model,
    load_model,
    save_model,
    serialize_model,
    train_matrix,
)
from .metrics import EntityCounts, EvalReport, entity_f1
from .synth import SynthConfig, generate, iter_generate
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    featurize_blocks,
    run_pipeline,
    stream_classify,
)

__all__ = [
    "Chunk",
    "ClassSchema",
    "CorpusRecord",
    "EntitySpan",
    "STRONG",
    "WEAK",
    "decode_spans",
    "iter_records",
    "parse_record",
    "record_to_obj",
    "validate_chunk",
    "write_records",
    "compute_pdm",
    "cumulative_bins",
    "FeatureConfig",
    "canonical_feature_name",
    "feature_names",
    "featurize_chunks",
    "baseline_grid",
    "mc_dropout_aggregate",
    "span_confidence",
    "temperature_scale",
    "TrainConfig",
    "TreeModel",
    "TuneResult",
    "deserialize_model",
    "load_model",
    "save_model",
    "serialize_model",
    "train_matrix",
    "EntityCounts",
    "EvalReport",
    "entity_f1",
    "SynthConfig",
    "generate",
    "iter_generate",
    "PipelineConfig",
    "PipelineResult",
    "featurize_blocks",
    "run_pipeline",
    "stream_classify",
]
