# Reference filters vs the noise tree on confident false positives.
#
# Confidence thresholding, temperature scaling, and entropy cutoffs all
# read the same per-token numbers the tagger emitted, so when false
# positives are as confident as true ones they remove either nothing or
# everything. The tree reads the neighborhood instead.
#
# Run: python demos/04_baseline_comparison.py

import numpy as np

from nrfilter import (
    STRONG,
    SynthConfig,
    TrainConfig,
    baseline_grid,
    build_feature_schema,
    decode_spans,
    featurize_chunk,
    generate,
    train_matrix,
    tune_threshold,
)
from nrfilter.metrics import format_drop_table
from nrfilter.pipeline import assign_validation

SEED = 23
records = generate(SynthConfig(n_strong=700, n_weak=700, seed=SEED))
fschema = build_feature_schema(records[0].chunk.schema)

labeled_spans = []
rows = []
for index, record in enumerate(records):
    (span,) = decode_spans(record.chunk)
    is_tp = record.label == STRONG
    is_val = assign_validation(SEED, index, 0.25)
    if is_val:
        labeled_spans.append((record.chunk, span, is_tp))
    rows.append((featurize_chunk(record.chunk, [span], schema=fschema)[0], is_tp, is_val))

# Grid-search each reference method on the validation spans.
results = {}
for method, grid in (
    ("softmax", [0.0, 0.9, 0.95, 0.99, 0.999]),
    ("temp", [0.5, 1.0, 2.0, 4.0]),
    ("entropy", [0.01, 0.05, 0.2, 1.0]),
):
    best = None
    for row in baseline_grid(method, labeled_spans, grid):
        # keep the configuration with the best FP removal at <= 6% TP loss
        if row["tp_drop_pct"] <= 6.0 and (best is None or row["fp_drop_pct"] > best["fp_drop_pct"]):
            best = row
    results[method] = (best["tp_drop_pct"], best["fp_drop_pct"])

# The noise tree, trained on the rest and tuned under the same budget.
X = np.vstack([row for row, _, _ in rows])  # columns: fschema.names
is_tp = np.array([tp for _, tp, _ in rows])
is_val = np.array([val for _, _, val in rows])
labels = ["strong" if tp else "weak" for tp in is_tp[~is_val]]
model = train_matrix(X[~is_val], labels, fschema.names, TrainConfig())
tune = tune_threshold(model, X[is_val], is_tp[is_val], 0.06)
results["noise tree"] = (100 * tune.tp_drop, 100 * tune.fp_drop)

print("validation spans:", len(labeled_spans))
print("(%TP drop, %FP drop) at the best configuration with TP drop <= 6%:\n")
print(format_drop_table({"Biomarker": results}))
print("\nEvery reference method is stuck near zero FP removal: the false")
print("positives are exactly as confident as the real entities. The tree,")
print("reading context features, removes nearly all of them.")
