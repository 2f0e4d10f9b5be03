"""Seeded corpus generator for the benchmark workloads.

Kept apart from ``nrfilter.synth`` so that a change to the program cannot
change the benchmark's inputs. It follows the paper's contrast: every
placed span is predicted confidently, whether it is a true or a false
positive, and true positives leak a little B/I mass of their own entity
type onto the neighbouring context tokens. Gaussian noise and label flips
make the classes overlap, so the tree has something to learn and the
quality numbers can move both ways.

The generator returns the ground truth next to the JSONL corpus: every
placed span as ``(chunk_id, entity_type, start, end)`` with its TP flag.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Relative I-mass on the 1st/2nd/3rd context token next to a true
# positive; the companion B-mass on the nearest token is I/48.
LEAK_PROFILE = (1.0, 1.0 / 16.0, 1.0 / 24.0)

CONTEXT_WORDS = (
    "patient", "was", "seen", "in", "clinic", "for", "routine", "follow",
    "up", "with", "stable", "disease", "and", "no", "new", "symptoms",
    "reported", "today", "labs", "reviewed", "imaging", "shows", "status",
    "unchanged", "plan", "continue", "current", "course", "note", "signed",
)
SURFACES = {
    "Biomarker": ("ER", "PR", "HER2", "ALK", "EGFR", "KRAS", "BRAF", "PDL1"),
    "Drug": ("tamoxifen", "letrozole", "osimertinib", "pembrolizumab", "##mab"),
    "Dose": ("20", "mg", "daily", "bid", "##mg", "x2"),
}

# Distinct salts keep the training and held-out corpora of one seed apart.
SALT_TRAIN = 11
SALT_HELDOUT = 29


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of one workload's corpora."""

    n_train: int
    n_heldout: int
    min_tokens: int
    max_tokens: int
    entities: tuple[str, ...]
    min_spans: int
    max_spans: int
    max_span_len: int
    noise_sigma: float
    flip_rate: float  # share of true positives labelled false positives
    gold: bool  # True: supervise by gold spans; False: by the record label
    pull: tuple[float, float]  # range of a true positive's leak mass
    tp_rate: float = 0.5
    word_pieces: bool = False


WORKLOADS: dict[str, CorpusSpec] = {
    # Short chunks with one span each: the fixed per-span cost of the
    # feature layer dominates, and noise makes the classes overlap.
    "short-noisy": CorpusSpec(
        n_train=4000, n_heldout=8000, min_tokens=8, max_tokens=14,
        entities=("Biomarker",), min_spans=1, max_spans=1, max_span_len=2,
        noise_sigma=0.01, flip_rate=0.0, gold=False, pull=(0.03, 0.06),
    ),
    # Long chunks holding about 12 spans of 3 types (K=7, 275 features):
    # per-record work and per-chunk work recomputed for every span dominate.
    "long-notes": CorpusSpec(
        n_train=300, n_heldout=400, min_tokens=120, max_tokens=140,
        entities=("Biomarker", "Drug", "Dose"), min_spans=10, max_spans=14,
        max_span_len=3, noise_sigma=0.005, flip_rate=0.0, gold=True,
        tp_rate=0.6, pull=(0.0125, 0.045), word_pieces=True,
    ),
    # Many short records, one true positive in ten labelled a false
    # positive: a large tree, so CART training and path rendering are the
    # costly layers.
    "flipped-large": CorpusSpec(
        n_train=6000, n_heldout=4000, min_tokens=8, max_tokens=14,
        entities=("Biomarker",), min_spans=1, max_spans=1, max_span_len=2,
        noise_sigma=0.01, flip_rate=0.1, gold=False, pull=(0.03, 0.06),
    ),
}


@dataclass(frozen=True)
class PlacedSpan:
    chunk_id: str
    entity_type: str
    start: int
    end: int
    is_tp: bool

    @property
    def key(self) -> tuple[str, str, int, int]:
        return (self.chunk_id, self.entity_type, self.start, self.end)


def class_names(entities: tuple[str, ...]) -> list[str]:
    names = ["O"]
    for name in entities:
        names += [f"B-{name}", f"I-{name}"]
    return names


def _layout(rng, spec: CorpusSpec, T: int) -> list[tuple[int, int]]:
    """Non-overlapping (start, end) spans, each in its own slot of the
    chunk with at least one O token between neighbours."""
    n = int(rng.integers(spec.min_spans, spec.max_spans + 1))
    slot = T // n
    spans = []
    for s in range(n):
        length = int(rng.integers(1, spec.max_span_len + 1))
        lo = s * slot + (1 if s else 0)
        hi = (s + 1) * slot - length - 1 if s < n - 1 else T - length
        start = int(rng.integers(lo, max(lo, hi) + 1))
        spans.append((start, start + length - 1))
    return spans


def _record(spec: CorpusSpec, seed: int, salt: int, part: int, index: int):
    rng = np.random.default_rng([seed, salt, part, index])
    T = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
    K = 1 + 2 * len(spec.entities)
    probs = np.zeros((T, K))
    probs[:, 0] = 1.0
    layout = _layout(rng, spec, T)
    in_span = np.zeros(T, dtype=bool)
    for start, end in layout:
        in_span[start : end + 1] = True

    chunk_id = f"c{salt}-{part}-{index:06d}"
    texts = [str(w) for w in rng.choice(CONTEXT_WORDS, size=T)]
    placed = []
    for start, end in layout:
        e = int(rng.integers(len(spec.entities)))
        b, i = 1 + 2 * e, 2 + 2 * e
        # Confident for true and false positives alike.
        for t in range(start, end + 1):
            top = rng.uniform(0.9, 0.9995)
            slack = 1.0 - top
            side = slack * rng.uniform(0.0, 0.3)
            probs[t] = 0.0
            probs[t, b if t == start else i] = top
            probs[t, i if t == start else b] = side
            probs[t, 0] = slack - side
            texts[t] = str(rng.choice(SURFACES[spec.entities[e]]))
        is_tp = bool(rng.random() < spec.tp_rate)
        slots = [t for t in list(range(end + 1, end + 4)) + list(range(start - 1, start - 4, -1))
                 if 0 <= t < T and not in_span[t]][:3]
        if is_tp and slots:
            pull = rng.uniform(*spec.pull)
            for rank in range(int(rng.integers(1, len(slots) + 1))):
                t = slots[rank]
                leak_i = pull * LEAK_PROFILE[rank]
                leak_b = leak_i / 48.0 if rank == 0 else 0.0
                probs[t, i] += leak_i
                probs[t, b] += leak_b
                probs[t, 0] -= leak_i + leak_b
        elif slots and rng.random() < 0.5:
            leak_i = rng.uniform(0.0, 0.0008)
            probs[slots[0], i] += leak_i
            probs[slots[0], 0] -= leak_i
        # Label noise as gold annotations have it: a true entity the
        # annotator missed is labelled a false positive.
        if is_tp and rng.random() < spec.flip_rate:
            is_tp = False
        placed.append(PlacedSpan(chunk_id, spec.entities[e], start, end, is_tp))

    # Folded Gaussian noise: a tagger's softmax never emits an exact 0.
    probs = np.abs(probs + rng.normal(0.0, spec.noise_sigma, probs.shape))
    probs /= probs.sum(axis=1, keepdims=True)

    tokens = [{"text": text, "probs": row} for text, row in zip(texts, probs.tolist())]
    if spec.word_pieces:
        # Sub-word pieces continue a word only inside one span or inside
        # one stretch of context, never across a span boundary.
        starts = {s for s, _ in layout} | {e + 1 for _, e in layout}
        word = 0
        for t, tok in enumerate(tokens):
            if t and (t in starts or rng.random() < 0.85):
                word += 1
            tok["word_id"] = word

    obj = {"id": chunk_id, "classes": class_names(spec.entities), "tokens": tokens}
    if spec.gold:
        gold = [{"entity_type": p.entity_type, "start": p.start, "end": p.end}
                for p in placed if p.is_tp]
        if gold:
            obj["gold_spans"] = gold
        else:
            # An empty gold list means "no supervision"; say it explicitly.
            obj["label"] = "weak"
    else:
        obj["label"] = "strong" if placed[0].is_tp else "weak"
    return obj, placed


def write_corpus(path: str, spec: CorpusSpec, seed: int, heldout: bool,
                 part: int = 0) -> list[PlacedSpan]:
    """Write one corpus as JSONL and return every span placed in it.

    ``part`` tells apart the several training corpora of one seed."""
    salt, n = (SALT_HELDOUT, spec.n_heldout) if heldout else (SALT_TRAIN, spec.n_train)
    truth: list[PlacedSpan] = []
    with open(path, "w", encoding="utf-8") as handle:
        for index in range(n):
            obj, placed = _record(spec, seed, salt, part, index)
            handle.write(json.dumps(obj) + "\n")
            truth.extend(placed)
    return truth
