# Train the strong/weak tree, tune its threshold under a TP budget, and
# read the decision paths it produces.
#
# Run: python demos/03_train_tune_explain.py

import numpy as np

from nrfilter import (
    STRONG,
    SynthConfig,
    TrainConfig,
    decode_spans,
    feature_names,
    featurize_chunks,
    generate,
    train_matrix,
)
from nrfilter.pipeline import validation_draws
from nrfilter.tree import cut_threshold

# A corpus where every prediction is confident but only half are real:
# strong chunks carry a faint entity-class footprint on their context
# tokens, weak chunks do not. 5% of labels are flipped to mimic
# imperfect review.
config = SynthConfig(n_strong=800, n_weak=800, label_flip_rate=0.05, seed=11)
records = generate(config)
names = feature_names(records[0].chunk.schema)

# One kernel call, one row per span; the matrix's columns are `names`.
chunks = [r.chunk for r in records]
X = featurize_chunks(chunks, [decode_spans(chunk) for chunk in chunks])
labels = np.array([record.label for record in records])  # one span per record
is_val = validation_draws(11, len(records)) < 0.2
is_tp = labels == STRONG

model = train_matrix(X[~is_val], labels[~is_val].tolist(), names, TrainConfig())
print(f"trained: {len(model.nodes)} nodes, {len(model.leaves)} leaves")

# Sweep the leaf weak-probability threshold on held-out data: keep the
# most aggressive cutoff whose true-positive loss stays within budget.
val_leaves = model.walk(X[is_val])  # the leaf each held-out span reaches
val_p_weak = model.p_weak(val_leaves)
for budget in (0.0, 0.02, 0.06):
    result = cut_threshold(val_p_weak, is_tp[is_val], max_tp_drop=budget)
    print(f"budget {budget:4.0%}: threshold {result.threshold:.3f} "
          f"-> drops {result.fp_drop:6.1%} of FPs at {result.tp_drop:5.1%} TP loss")

tuned = model.with_threshold(cut_threshold(val_p_weak, is_tp[is_val], 0.06).threshold)

# Every verdict is explainable as the chain of comparisons that produced it.
print()
print("example decision paths:")
shown = {"strong": False, "weak": False}
for leaf, label in zip(val_leaves, labels[is_val].tolist()):
    p_weak = tuned.nodes[leaf].p_weak
    verdict = tuned.verdict(p_weak)
    if shown[verdict]:
        continue
    shown[verdict] = True
    print(f"\n  span labeled {label!r}, verdict {verdict!r} (p_weak={p_weak:.3f})")
    for line in tuned.paths[leaf].split("\n"):
        print("   ", line)
    if all(shown.values()):
        break
