"""Independent reference implementations the fast paths are checked against.

Everything here is written as plainly as possible (scalar loops, no
shared helpers from the package) so a bug in the library cannot hide in
its own oracle. reference_features is the span-at-a-time featurizer the
batched kernel replaced: one span, one scope and one statistic at a
time, over explicit position lists.
"""

from __future__ import annotations

import math
import re

import numpy as np


def brute_force_pdm(probs, t_predicted, decay_rate, bins, exclude=None):
    """Double-loop density map over a list-of-lists probability table."""
    T = len(probs)
    K = len(probs[0])
    excluded = {t_predicted} if exclude is None else set(exclude) | {t_predicted}
    grid = [[0.0] * K for _ in range(bins)]
    for t in range(T):
        if t in excluded:
            continue
        for k in range(K):
            p = probs[t][k]
            b = int(p * bins)
            if b >= bins:
                b = bins - 1
            w = math.exp(-((abs(t - t_predicted)) ** 2) / (2.0 * decay_rate * decay_rate))
            grid[b][k] += w * p / T
    return grid


def brute_force_cumulative(probs, t_predicted, bins):
    T = len(probs)
    K = len(probs[0])
    grid = [[0.0] * K for _ in range(bins)]
    for t in range(T):
        if t == t_predicted:
            continue
        for k in range(K):
            p = probs[t][k]
            b = int(p * bins)
            if b >= bins:
                b = bins - 1
            grid[b][k] += p
    return grid


def reference_scopes(T, start, end, anchor, word_ids=None, neighbor_window=1):
    """The five operand scopes of one span as position tuples, built by
    filtering token ranges one position at a time."""
    phrase = tuple(range(start, end + 1))
    if word_ids is not None:
        word = tuple(t for t in phrase if word_ids[t] == word_ids[anchor])
    else:
        word = (anchor,)
    before = tuple(range(max(0, start - neighbor_window), start))
    after = tuple(range(end + 1, min(T, end + 1 + neighbor_window)))
    return {
        "Token": (anchor,),
        "Word": word,
        "Phrase": phrase,
        "Neighbor": before + after,
        "Context": tuple(t for t in range(T) if t not in set(phrase)),
    }


def reference_scope_block(probs, positions):
    """Per-span statistical block of one scope, in canonical order: per
    class (count, ratio, max, mean, CoV), then prob_diff_mean,
    prob_diff_max, ratio 2/1, ratio 3/2, mean entropy, size."""
    K = probs.shape[1]
    out = np.zeros(5 * K + 6)
    if not positions:
        return out
    idx = np.asarray(positions, dtype=np.int64)
    sub = probs[idx]
    n = len(positions)
    counts = np.bincount(np.argmax(sub, axis=1), minlength=K).astype(np.float64)
    meanp = sub.sum(axis=0) / n
    var = np.maximum((sub * sub).sum(axis=0) / n - meanp * meanp, 0.0)
    block = np.empty((K, 5))
    block[:, 0] = counts
    block[:, 1] = counts / n
    block[:, 2] = sub.max(axis=0)
    block[:, 3] = meanp
    block[:, 4] = np.divide(np.sqrt(var), meanp, out=np.zeros(K), where=meanp > 0)
    out[: 5 * K] = block.ravel()
    ordered = np.sort(sub, axis=1)
    top1, top2, top3 = ordered[:, -1], ordered[:, -2], ordered[:, -3]
    diff = top1 - top2
    out[5 * K] = diff.sum() / n
    out[5 * K + 1] = diff.max()
    out[5 * K + 2] = (top2 / top1).sum() / n
    out[5 * K + 3] = np.divide(top3, top2, out=np.zeros(n), where=top2 > 0).sum() / n
    out[5 * K + 4] = sum(scalar_entropy(row) for row in sub.tolist()) / n
    out[5 * K + 5] = n
    return out


def reference_features(probs, start, end, anchor, word_ids=None, decay_rate=1.0,
                       bins=10, neighbor_window=1, scopes=("Token", "Word", "Phrase",
                                                          "Neighbor", "Context")):
    """One span's feature vector in schema order: the double-loop density
    map with the whole span excluded (class-major, bins ascending), then
    each scope's block."""
    probs = np.asarray(probs, dtype=np.float64)
    T = probs.shape[0]
    grid = brute_force_pdm(probs.tolist(), anchor, decay_rate, bins,
                           exclude=range(start, end + 1))
    parts = [np.array(grid).T.ravel()]
    positions = reference_scopes(T, start, end, anchor, word_ids, neighbor_window)
    for kind in scopes:
        parts.append(reference_scope_block(probs, positions[kind]))
    return np.concatenate(parts)


def scalar_entropy(probs):
    total = 0.0
    for p in probs:
        if p > 0:
            total -= p * math.log(p)
    return total


_PREDICATE = re.compile(r"\(([^\s()]+) (<=|>) ([^\s()]+)\)")


def parse_decision_path(text: str):
    """Parse "(name op value)" predicates joined by '& ' back into tuples."""
    parts = [p.strip() for p in text.split("&")]
    steps = []
    for part in parts:
        m = _PREDICATE.fullmatch(part.strip())
        if m is None:
            raise ValueError(f"unparseable predicate: {part!r}")
        steps.append((m.group(1), m.group(2), float(m.group(3))))
    return steps
