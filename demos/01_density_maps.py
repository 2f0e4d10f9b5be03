# Why confidence thresholds fail, and what the token neighborhood knows.
#
# Two sentences, one surface form. A biomarker tagger sees "ER" in both:
# once as Estrogen Receptor (a real entity), once as Emergency Room (a
# false positive). The tagger is *confident in both cases*, so no
# probability cutoff can separate them. The context tokens can.
#
# Run: python demos/01_density_maps.py

import numpy as np

from nrfilter import (
    ClassSchema,
    Chunk,
    compute_pdm,
    cumulative_bins,
    decode_spans,
    validate_chunk,
)

schema = ClassSchema(("",))  # single entity type: classes O, B, I
O, B, I = 0, 1, 2

# Per-token class probabilities as the tagger emitted them (O, B, I).
true_case = Chunk(
    "true-entity", schema,
    ("Patient", "is", "treated", "for", "ER", "positive", "breast", "carcinoma"),
    np.array([
        [1.000, 0.000, 0.000],
        [1.000, 0.000, 0.000],
        [1.000, 0.000, 0.000],
        [1.000, 0.000, 0.000],
        [0.000, 1.000, 0.000],   # the predicted entity token
        [0.951, 0.001, 0.048],   # "positive" leaks a little B/I mass
        [0.997, 0.000, 0.003],   # so do "breast" ...
        [0.998, 0.000, 0.002],   # ... and "carcinoma"
    ]),
)

false_case = Chunk(
    "false-entity", schema,
    ("Patient", "reported", "severe", "chest", "pain", "admitted", "to", "ER"),
    np.array(
        [[1.0, 0.0, 0.0]] * 7 +
        [[0.001, 0.999, 0.0]]    # confident, and wrong
    ),
)

for chunk in (true_case, false_case):
    validate_chunk(chunk)
    (span,) = decode_spans(chunk)
    print(f"--- {chunk.id} ---")
    print("tokens:", " ".join(chunk.texts))
    print(f"predicted span: {span.text!r} at position {span.anchor}, "
          f"B probability {chunk.probs[span.anchor, B]:.3f}")

    # Max-probability filtering cannot see any difference:
    print("anchor max prob:", chunk.probs[span.anchor].max(), "-> survives any sane cutoff")

    # Unweighted cumulative bins: how much per-class probability mass the
    # *other* tokens put in each of ten probability bands.
    cum = cumulative_bins(chunk, span.anchor, 10)
    print("cumulative bins   (low band)  B,I,O:",
          [round(float(v), 3) for v in (cum[0][B], cum[0][I], cum[0][O])])
    print("cumulative bins  (high band)  B,I,O:",
          [round(float(v), 3) for v in (cum[9][B], cum[9][I], cum[9][O])])

    # The density map adds Gaussian distance decay and normalization, so
    # nearby tokens dominate.
    pdm = compute_pdm(chunk, span.anchor)
    print("density map       (low band)  B,I,O:",
          [round(float(v), 4) for v in (pdm[0][B], pdm[0][I], pdm[0][O])])
    print("density map      (high band)  B,I,O:",
          [round(float(v), 4) for v in (pdm[9][B], pdm[9][I], pdm[9][O])])
    print()

print("The discriminating signal: the true entity's neighborhood holds nonzero")
print("low-band I mass (the context tokens 'lean toward' the entity class),")
print("the false entity's neighborhood holds none. That cell becomes a feature.")
t = compute_pdm(true_case, 4)[0][I]
f = compute_pdm(false_case, 7)[0][I]
print(f"low-band I density: true={t:.4f}  false={f:.4f}")
