"""Reference filters the noise-removal tree is compared against.

All four methods operate purely on probability output: max-probability
thresholding, temperature scaling of recovered log-probabilities,
mean-entropy cutoffs, and aggregation of multiple stochastic forward
passes supplied as separate chunk streams. Each method is a per-span
score and a cut on it; ``baseline_grid`` counts every cut of a grid
through ``metrics.filter_counts``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .core import Chunk, EntitySpan
from .errors import InvalidConfig, NonPositiveTemperature, PassMisalignment
from .features import token_entropies
from .metrics import drop_pcts, filter_counts

# Printed probability tables contain exact zeros; flooring keeps the
# recovered log-probabilities finite without disturbing the ordering.
LOGIT_FLOOR = 1e-12

# The `temp` grid varies the temperature; every temperature keeps a span
# iff its scaled weakest-token confidence reaches this fixed cut.
TEMP_GRID_THRESHOLD = 0.9

# The values a grid may hold, as (test, error, message); NaN passes no test.
_THRESHOLD = (lambda v: 0.0 <= v <= 1.0, InvalidConfig, "threshold must be in [0, 1], got {}")
_TEMPERATURE = (lambda v: v > 0, NonPositiveTemperature, "temperature must be > 0, got {}")
_ENTROPY_CUTOFF = (lambda v: v >= 0, InvalidConfig, "entropy cutoff must be >= 0, got {}")
_MEAN_CUTOFF = (lambda v: 0.0 <= v <= 1.0, InvalidConfig, "mean cutoff must be in [0, 1], got {}")
_VAR_CUTOFF = (lambda v: v >= 0, InvalidConfig, "variance cutoff must be >= 0, got {}")


def _check(values: Iterable[float], domain) -> None:
    test, error, message = domain
    for value in values:
        if not test(value):
            raise error(message.format(value))


def span_confidence(chunk: Chunk, span: EntitySpan, temperature: float | None = None) -> float:
    """Weakest link: min over span tokens of the max class probability,
    scaled by ``temperature_scale`` when a temperature is given."""
    sub = chunk.probs[span.start : span.end + 1]
    if temperature is not None:
        sub = temperature_scale(sub, temperature)
    return float(sub.max(axis=1).min())


def temperature_scale(probs: np.ndarray, temperature: float) -> np.ndarray:
    """Rescale a probability vector as if its logits were divided by T.

    Logits are recovered as log p (unique up to the softmax shift), so
    this is exact for any vector the model could have produced.
    T = 1 is the identity; T -> inf flattens toward uniform.
    """
    _check([temperature], _TEMPERATURE)
    p = np.maximum(np.asarray(probs, dtype=np.float64), LOGIT_FLOOR)
    logits = np.log(p) / temperature
    logits -= logits.max(axis=-1, keepdims=True)
    e = np.exp(logits)
    out = e / e.sum(axis=-1, keepdims=True)
    # Every step is monotone, but rounding can tie the top class with an
    # earlier one, which argmax then prefers: give the top class a one-ulp lead.
    top = np.argmax(p, axis=-1)[..., None]
    tied = np.argmax(out, axis=-1)[..., None] != top
    if tied.any():
        lead = np.nextafter(out.max(axis=-1, keepdims=True), np.inf)
        np.put_along_axis(out, top, np.where(tied, lead, np.take_along_axis(out, top, -1)), -1)
    return out


def mean_span_entropy(chunk: Chunk, span: EntitySpan) -> float:
    return float(token_entropies(chunk.probs[span.start : span.end + 1]).mean())


def check_passes(chunk: Chunk, passes: Sequence[Chunk]) -> None:
    """PassMisalignment, naming the chunk, unless there are at least two
    passes and each has ``chunk``'s token texts and classes."""
    if len(passes) < 2:
        raise PassMisalignment(f"chunk {chunk.id!r}: {len(passes)} passes, need >= 2")
    for i, p in enumerate(passes, start=1):
        if p.texts != chunk.texts or p.schema != chunk.schema:
            raise PassMisalignment(f"chunk {chunk.id!r}: pass {i} has other tokens or classes")


def mc_dropout_aggregate(
    passes: Sequence[Chunk], span: EntitySpan
) -> tuple[float, float]:
    """Mean and population variance of the anchor's predicted-class
    probability across stochastic forward passes of the same input.
    """
    if not passes:
        raise PassMisalignment("need >= 2 passes, got 0")
    first = passes[0]
    check_passes(first, passes)
    entity = first.schema.entity_names.index(span.entity_type)
    k = first.schema.b_index(entity)
    values = np.array([p.probs[span.anchor, k] for p in passes], dtype=np.float64)
    return float(values.mean()), float(values.var())


# ---------------------------------------------------------------------------
# Grid evaluation
# ---------------------------------------------------------------------------


def baseline_grid(
    method: str,
    labeled_spans: Sequence[tuple[Chunk, EntitySpan, bool]],
    grid: Sequence[float],
    passes_by_chunk: dict[str, list[Chunk]] | None = None,
    var_grid: Sequence[float] | None = None,
) -> list[dict[str, float]]:
    """Per-configuration drop metrics for one baseline method.

    Each span is scored once (once per temperature for temp) and each
    grid value is checked before any scoring; a grid point is then a keep
    mask over the scores. Methods: softmax (grid = thresholds in [0, 1];
    keeps a span iff its weakest-token confidence is at least the
    threshold), temp (grid = temperatures > 0; keeps a span iff its
    scaled weakest-token confidence is at least TEMP_GRID_THRESHOLD),
    entropy (grid = cutoffs >= 0; keeps a span iff its mean token
    entropy is at most the cutoff), mcdropout (grid = mean cutoffs in
    [0, 1] crossed with var_grid, variance cutoffs >= 0, default 0.01;
    keeps a span iff its anchor's mean is at least the one and its
    variance at most the other; each span's chunk must pass
    ``check_passes`` against its ``passes_by_chunk`` entry).
    """
    is_tp = [t for *_, t in labeled_spans]

    def scores(score, *args) -> np.ndarray:
        return np.array([score(c, s, *args) for c, s, _ in labeled_spans], dtype=np.float64)

    def row(kept: np.ndarray, **setting: float) -> dict[str, float]:
        base, filtered = filter_counts(is_tp, kept)
        return {
            "method": method,
            **setting,
            **drop_pcts(base, filtered),
            "precision": filtered.precision,
            "recall": filtered.recall,
            "f1": filtered.f1,
        }

    if method == "softmax":
        _check(grid, _THRESHOLD)
        confidence = scores(span_confidence)
        return [row(confidence >= tau, threshold=float(tau)) for tau in grid]
    if method == "temp":
        _check(grid, _TEMPERATURE)
        return [
            row(scores(span_confidence, t) >= TEMP_GRID_THRESHOLD, temperature=float(t))
            for t in grid
        ]
    if method == "entropy":
        _check(grid, _ENTROPY_CUTOFF)
        entropy = scores(mean_span_entropy)
        return [row(entropy <= cutoff, entropy_cutoff=float(cutoff)) for cutoff in grid]
    if method == "mcdropout":
        if passes_by_chunk is None:
            raise InvalidConfig("mcdropout grid needs passes_by_chunk")
        var_grid = var_grid if var_grid is not None else (0.01,)
        _check(grid, _MEAN_CUTOFF)
        _check(var_grid, _VAR_CUTOFF)
        for chunk in {c.id: c for c, _, _ in labeled_spans}.values():
            check_passes(chunk, passes_by_chunk.get(chunk.id, ()))
        aggregates = scores(lambda c, s: mc_dropout_aggregate(passes_by_chunk[c.id], s))
        mean, var = aggregates.reshape(-1, 2).T
        return [
            row((mean >= m) & (var <= v), mc_mean_cutoff=float(m), mc_var_cutoff=float(v))
            for m in grid
            for v in var_grid
        ]
    raise InvalidConfig(f"unknown baseline method {method!r}")
