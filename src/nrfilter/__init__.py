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
    DecayConfig,
    ProbabilityDensityMap,
    compute_pdm,
    cumulative_bins,
)
from .features import (
    FeatureConfig,
    FeatureSchema,
    SpanScope,
    build_feature_schema,
    build_scopes,
    canonical_feature_name,
    featurize_chunk,
    featurize_chunks,
    statistical_features,
)
from .baselines import (
    baseline_grid,
    entropy_filter,
    mc_dropout_aggregate,
    mc_dropout_filter,
    softmax_threshold_filter,
    span_confidence,
    temperature_scale,
)
from .tree import (
    TrainConfig,
    TreeModel,
    TuneResult,
    classify,
    deserialize_model,
    explain,
    load_model,
    save_model,
    serialize_model,
    train_matrix,
    tune_threshold,
)
from .metrics import EntityCounts, EvalReport, drop_rates, entity_f1
from .synth import SynthConfig, generate, iter_generate
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    featurize_records,
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
    "DecayConfig",
    "ProbabilityDensityMap",
    "compute_pdm",
    "cumulative_bins",
    "FeatureConfig",
    "FeatureSchema",
    "SpanScope",
    "build_feature_schema",
    "build_scopes",
    "canonical_feature_name",
    "featurize_chunk",
    "featurize_chunks",
    "statistical_features",
    "baseline_grid",
    "entropy_filter",
    "mc_dropout_aggregate",
    "mc_dropout_filter",
    "softmax_threshold_filter",
    "span_confidence",
    "temperature_scale",
    "TrainConfig",
    "TreeModel",
    "TuneResult",
    "classify",
    "deserialize_model",
    "explain",
    "load_model",
    "save_model",
    "serialize_model",
    "train_matrix",
    "tune_threshold",
    "EntityCounts",
    "EvalReport",
    "drop_rates",
    "entity_f1",
    "SynthConfig",
    "generate",
    "iter_generate",
    "PipelineConfig",
    "PipelineResult",
    "featurize_records",
    "run_pipeline",
    "stream_classify",
]
