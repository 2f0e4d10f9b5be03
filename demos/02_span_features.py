# Anatomy of a span's feature vector.
#
# Each predicted span is described by (a) the decay-weighted density map
# cells around it and (b) statistical summaries over five operand scopes:
# the predicted token, its word, the whole phrase, the immediate
# neighbors, and everything else in the chunk.
#
# Run: python demos/02_span_features.py

import numpy as np

from nrfilter import (
    ClassSchema,
    Chunk,
    build_feature_schema,
    build_scopes,
    canonical_feature_name,
    decode_spans,
    featurize_chunk,
    statistical_features,
)
from nrfilter.features import SCOPE_ORDER

schema = ClassSchema(("",))
chunk = Chunk(
    "demo", schema,
    ("Patient", "is", "treated", "for", "ER", "positive", "breast", "carcinoma"),
    np.array([
        [1.000, 0.000, 0.000],
        [1.000, 0.000, 0.000],
        [1.000, 0.000, 0.000],
        [1.000, 0.000, 0.000],
        [0.000, 1.000, 0.000],
        [0.951, 0.001, 0.048],
        [0.997, 0.000, 0.003],
        [0.998, 0.000, 0.002],
    ]),
)
(span,) = decode_spans(chunk)

print("1. Scopes for the span", (span.start, span.end), repr(span.text))
scopes = build_scopes(chunk, span, neighbor_window=1)
for kind in SCOPE_ORDER:
    print(f"   {kind:<9} -> positions {scopes[kind].positions}")

print()
print("2. Statistical block for one scope (the context):")
context_stats = statistical_features(chunk, scopes["Context"])
for name in (
    "Context_I-tag_max_prob",
    "Context_I-tag_mean_prob",
    "Context_O-tag_ratio",
    "Context_prob_class_ratio_3_by_2",
    "Context_mean_entropy",
    "Context_size",
):
    print(f"   {name:<36} = {context_stats[name]:.6f}")

print()
print("3. The full row: density cells first, then every scope block.")
row = featurize_chunk(chunk, [span])[0]  # one span's row of the (n_spans, n_features) matrix
names = build_feature_schema(chunk.schema).names  # the matrix's columns
print("   total features:", len(row))
print("   first three names:", names[:3])
print("   last three names: ", names[-3:])

print()
print("4. Names follow one grammar, so models and humans read the same string:")
for name in (
    "PDM_I-tag_WCount_bkt_0.0-0.1",     # density cell: class, then bin edges
    "Token_prob_class_ratio_3_by_2",    # scope statistic
    "Neighbor_B-tag_count",
):
    print(f"   {name:<36} = {row[names.index(name)]:.6f}")

print()
print("5. The legacy SPD_ prefix is accepted as an alias for PDM_ on input:")
print("   SPD_I-tag_WCount_bkt_0.0-0.1 ->", canonical_feature_name("SPD_I-tag_WCount_bkt_0.0-0.1"))
