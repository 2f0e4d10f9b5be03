"""Deterministic synthetic corpus with the true/false entity contrast.

Every chunk contains exactly one confidently predicted span, so naive
confidence thresholding cannot tell the classes apart. Strong chunks
leak a small amount of B/I probability onto neighboring context tokens
(the co-occurrence footprint a real encoder leaves around true
entities); weak chunks keep their context essentially clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import Chunk, ClassSchema, CorpusRecord, EntitySpan, STRONG, WEAK
from .errors import InvalidConfig

# Relative I-mass on the 1st/2nd/3rd context neighbor; the companion
# B-mass on the nearest neighbor is I/48.
LEAK_PROFILE = (1.0, 1.0 / 16.0, 1.0 / 24.0)

_ENTITY_SURFACES = (
    "ER", "PR", "HER2", "ALK", "EGFR", "KRAS", "BRAF", "PDL1", "ROS1", "MET",
)
_CONTEXT_WORDS = (
    "patient", "was", "seen", "in", "clinic", "for", "routine", "follow",
    "up", "with", "stable", "disease", "and", "no", "new", "symptoms",
    "reported", "today", "labs", "reviewed", "imaging", "shows", "status",
    "unchanged", "plan", "continue", "current", "course", "note", "signed",
)


# A generated record costs about 0.6 KB per token to write and 0.75 KB to
# read back, so one of this many tokens stays under about 75 MB.
MAX_TOKENS = 100_000


@dataclass(frozen=True)
class SynthConfig:
    n_strong: int = 500
    n_weak: int = 500
    min_tokens: int = 8
    max_tokens: int = 14
    pull_strength: float = 0.03
    noise_sigma: float = 0.0
    label_flip_rate: float = 0.0
    seed: int = 7
    entity_name: str = "Biomarker"

    def __post_init__(self):
        if self.n_strong < 0 or self.n_weak < 0 or self.n_strong + self.n_weak < 1:
            raise InvalidConfig("need at least one chunk to generate")
        if not 0.0 < self.pull_strength < 0.1:
            raise InvalidConfig(
                f"pull_strength must be in (0, 0.1), got {self.pull_strength}"
            )
        if not 4 <= self.min_tokens <= self.max_tokens <= MAX_TOKENS:
            raise InvalidConfig(f"bad token range [{self.min_tokens}, {self.max_tokens}]: "
                                f"need 4 <= min_tokens <= max_tokens <= {MAX_TOKENS}")
        if not 0.0 <= self.label_flip_rate <= 1.0:
            raise InvalidConfig("label_flip_rate must be in [0, 1]")
        if not 0.0 <= self.noise_sigma <= 0.05:
            # Larger noise would start flipping argmax tags, breaking the
            # one-span-per-chunk contract.
            raise InvalidConfig("noise_sigma must be in [0, 0.05]")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")


def _strong_flags(config: SynthConfig) -> Iterator[bool]:
    # Alternate classes while both remain so stream prefixes stay balanced.
    remaining = [config.n_strong, config.n_weak]
    want = True
    while remaining[0] or remaining[1]:
        if not remaining[0 if want else 1]:
            want = not want
        remaining[0 if want else 1] -= 1
        yield want
        want = not want


def _make_record(config: SynthConfig, index: int, strong: bool) -> CorpusRecord:
    rng = np.random.default_rng([config.seed, index])
    schema = ClassSchema((config.entity_name,))
    b, i, o = 1, 2, 0

    n_tokens = int(rng.integers(config.min_tokens, config.max_tokens + 1))
    span_len = 2 if rng.random() < 0.3 else 1
    start = int(rng.integers(0, n_tokens - span_len + 1))
    end = start + span_len - 1

    probs = np.zeros((n_tokens, 3), dtype=np.float64)
    probs[:, o] = 1.0

    # The predicted span is confident for strong and weak cases alike.
    anchor_b = rng.uniform(0.9, 0.9995)
    slack = 1.0 - anchor_b
    to_i = slack * rng.uniform(0.0, 0.3)
    probs[start] = 0.0
    probs[start, b] = anchor_b
    probs[start, i] = to_i
    probs[start, o] = slack - to_i
    if span_len == 2:
        tok_i = rng.uniform(0.9, 0.9995)
        slack2 = 1.0 - tok_i
        to_b = slack2 * rng.uniform(0.0, 0.3)
        probs[end] = 0.0
        probs[end, i] = tok_i
        probs[end, b] = to_b
        probs[end, o] = slack2 - to_b

    after = [t for t in range(end + 1, min(n_tokens, end + 4))]
    before = [t for t in range(start - 1, max(-1, start - 4), -1)]
    slots = (after + before)[:3]
    if strong:
        n_leak = int(rng.integers(1, min(3, len(slots)) + 1)) if slots else 0
        for rank in range(n_leak):
            t = slots[rank]
            leak_i = config.pull_strength * LEAK_PROFILE[rank]
            leak_b = leak_i / 48.0 if rank == 0 else 0.0
            probs[t, i] = leak_i
            probs[t, b] = leak_b
            probs[t, o] = 1.0 - leak_i - leak_b
    elif slots and rng.random() < 0.5:
        t = slots[0]
        leak_i = rng.uniform(0.0, 0.0008)
        probs[t, i] = leak_i
        probs[t, o] = 1.0 - leak_i

    if config.noise_sigma > 0:
        probs = probs + rng.normal(0.0, config.noise_sigma, probs.shape)
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum(axis=1, keepdims=True)

    texts = [str(w) for w in rng.choice(_CONTEXT_WORDS, size=n_tokens)]
    texts[start] = str(rng.choice(_ENTITY_SURFACES))
    if span_len == 2:
        texts[end] = str(rng.choice(_ENTITY_SURFACES))

    label = STRONG if strong else WEAK
    if rng.random() < config.label_flip_rate:
        label = WEAK if label == STRONG else STRONG

    chunk = Chunk(f"synth-{index:06d}", schema, tuple(texts), probs)
    span = EntitySpan(
        chunk_id=chunk.id,
        entity_type=config.entity_name,
        start=start,
        end=end,
        anchor=start,
        text=" ".join(texts[start : end + 1]),
    )
    gold = (span,) if label == STRONG else ()
    return CorpusRecord(chunk, label, gold)


def iter_generate(config: SynthConfig) -> Iterator[CorpusRecord]:
    """Stream records one at a time; memory stays flat for any corpus size."""
    for index, strong in enumerate(_strong_flags(config)):
        yield _make_record(config, index, strong)


def generate(config: SynthConfig) -> list[CorpusRecord]:
    """Materialize the whole corpus; identical for identical configs."""
    return list(iter_generate(config))
