# Train the strong/weak tree, tune its threshold under a TP budget, and
# read the decision paths it produces.
#
# Run: python demos/03_train_tune_explain.py

import numpy as np

from nrfilter import (
    STRONG,
    SynthConfig,
    TrainConfig,
    build_feature_schema,
    classify,
    decode_spans,
    explain,
    featurize_chunk,
    generate,
    train_matrix,
    tune_threshold,
)
from nrfilter.pipeline import assign_validation

# A corpus where every prediction is confident but only half are real:
# strong chunks carry a faint entity-class footprint on their context
# tokens, weak chunks do not. 5% of labels are flipped to mimic
# imperfect review.
config = SynthConfig(n_strong=800, n_weak=800, label_flip_rate=0.05, seed=11)
records = generate(config)
fschema = build_feature_schema(records[0].chunk.schema)

# One row per span; the matrix's columns are fschema.names.
X = np.vstack([featurize_chunk(r.chunk, decode_spans(r.chunk), schema=fschema) for r in records])
labels = np.array([record.label for record in records])  # one span per record
is_val = np.array([assign_validation(11, index, 0.2) for index in range(len(records))])
is_tp = labels == STRONG

model = train_matrix(X[~is_val], labels[~is_val].tolist(), fschema.names, TrainConfig())
print(f"trained: {len(model.nodes)} nodes, {len(model.leaves)} leaves")

# Sweep the leaf weak-probability threshold on held-out data: keep the
# most aggressive cutoff whose true-positive loss stays within budget.
for budget in (0.0, 0.02, 0.06):
    result = tune_threshold(model, X[is_val], is_tp[is_val], max_tp_drop=budget)
    print(f"budget {budget:4.0%}: threshold {result.threshold:.3f} "
          f"-> drops {result.fp_drop:6.1%} of FPs at {result.tp_drop:5.1%} TP loss")

tuned = model.with_threshold(tune_threshold(model, X[is_val], is_tp[is_val], 0.06).threshold)

# Every verdict is explainable as the chain of comparisons that produced it.
print()
print("example decision paths:")
shown = {"strong": False, "weak": False}
for row, label in zip(X[is_val], labels[is_val].tolist()):
    verdict, p_weak = classify(tuned, row)
    if shown[verdict]:
        continue
    shown[verdict] = True
    print(f"\n  span labeled {label!r}, verdict {verdict!r} (p_weak={p_weak:.3f})")
    for line in explain(tuned, row).split("\n"):
        print("   ", line)
    if all(shown.values()):
        break
