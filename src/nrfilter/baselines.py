"""Reference filters the noise-removal tree is compared against.

All four methods operate purely on probability output: max-probability
thresholding, temperature scaling of recovered log-probabilities,
mean-entropy cutoffs, and aggregation of multiple stochastic forward
passes supplied as separate chunk streams.
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


def span_confidence(chunk: Chunk, span: EntitySpan) -> float:
    """Weakest link: min over span tokens of the max class probability."""
    sub = chunk.probs[span.start : span.end + 1]
    return float(sub.max(axis=1).min())


def softmax_threshold_filter(span: EntitySpan, chunk: Chunk, threshold: float) -> bool:
    """True = keep. Drops the span iff its weakest token confidence < threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise InvalidConfig(f"threshold must be in [0, 1], got {threshold}")
    return span_confidence(chunk, span) >= threshold


def temperature_scale(probs: np.ndarray, temperature: float) -> np.ndarray:
    """Rescale a probability vector as if its logits were divided by T.

    Logits are recovered as log p (unique up to the softmax shift), so
    this is exact for any vector the model could have produced.
    T = 1 is the identity; T -> inf flattens toward uniform.
    """
    if not temperature > 0:
        raise NonPositiveTemperature(f"temperature must be > 0, got {temperature}")
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


def entropy_filter(span: EntitySpan, chunk: Chunk, cutoff: float) -> bool:
    """True = keep. Drops the span iff mean token entropy exceeds the cutoff."""
    if cutoff < 0:
        raise InvalidConfig(f"entropy cutoff must be >= 0, got {cutoff}")
    return mean_span_entropy(chunk, span) <= cutoff


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


def mc_dropout_filter(
    passes: Sequence[Chunk], span: EntitySpan, mean_cutoff: float, var_cutoff: float
) -> bool:
    """True = keep. Drops when the mean is low or the spread is high."""
    mean, var = mc_dropout_aggregate(passes, span)
    return mean >= mean_cutoff and var <= var_cutoff


# ---------------------------------------------------------------------------
# Grid evaluation
# ---------------------------------------------------------------------------


def evaluate_filter(
    spans: Iterable[tuple[Chunk, EntitySpan, bool]], keep_fn
) -> dict[str, float]:
    """Apply one keep/drop rule to labeled spans and summarize the drops.

    ``spans`` yields (chunk, span, is_tp); ``keep_fn(chunk, span)`` is the
    rule under test.
    """
    spans = list(spans)
    base, filtered = filter_counts([t for *_, t in spans], [keep_fn(c, s) for c, s, _ in spans])
    return {
        **drop_pcts(base, filtered),
        "precision": filtered.precision,
        "recall": filtered.recall,
        "f1": filtered.f1,
    }


def baseline_grid(
    method: str,
    labeled_spans: Sequence[tuple[Chunk, EntitySpan, bool]],
    grid: Sequence[float],
    passes_by_chunk: dict[str, list[Chunk]] | None = None,
    var_grid: Sequence[float] | None = None,
) -> list[dict[str, float]]:
    """Per-configuration drop metrics for one baseline method.

    Methods: softmax (grid = thresholds), temp (grid = temperatures; each
    keeps a span iff its scaled weakest-token confidence is at least
    TEMP_GRID_THRESHOLD), entropy (grid = cutoffs), mcdropout (grid = mean
    cutoffs crossed with var_grid; each span's chunk must pass
    ``check_passes`` against its ``passes_by_chunk`` entry).
    """
    rows: list[dict[str, float]] = []
    if method == "softmax":
        for tau in grid:
            row = evaluate_filter(
                labeled_spans, lambda c, s, t=tau: softmax_threshold_filter(s, c, t)
            )
            rows.append({"method": method, "threshold": float(tau), **row})
    elif method == "temp":
        for temperature in grid:
            def keep(c: Chunk, s: EntitySpan, T=temperature) -> bool:
                scaled = temperature_scale(c.probs[s.start : s.end + 1], T)
                return bool(scaled.max(axis=1).min() >= TEMP_GRID_THRESHOLD)

            row = evaluate_filter(labeled_spans, keep)
            rows.append({"method": method, "temperature": float(temperature), **row})
    elif method == "entropy":
        for cutoff in grid:
            row = evaluate_filter(
                labeled_spans, lambda c, s, h=cutoff: entropy_filter(s, c, h)
            )
            rows.append({"method": method, "entropy_cutoff": float(cutoff), **row})
    elif method == "mcdropout":
        if passes_by_chunk is None:
            raise InvalidConfig("mcdropout grid needs passes_by_chunk")
        for chunk in {c.id: c for c, _, _ in labeled_spans}.values():
            check_passes(chunk, passes_by_chunk.get(chunk.id, ()))
        var_grid = var_grid if var_grid is not None else (0.01,)
        for mean_cutoff in grid:
            for var_cutoff in var_grid:
                def keep(c: Chunk, s: EntitySpan, m=mean_cutoff, v=var_cutoff) -> bool:
                    return mc_dropout_filter(passes_by_chunk[c.id], s, m, v)

                row = evaluate_filter(labeled_spans, keep)
                rows.append(
                    {
                        "method": method,
                        "mc_mean_cutoff": float(mean_cutoff),
                        "mc_var_cutoff": float(var_cutoff),
                        **row,
                    }
                )
    else:
        raise InvalidConfig(f"unknown baseline method {method!r}")
    return rows
