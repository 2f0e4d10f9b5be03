"""Independent reference implementations the fast paths are checked against.

Everything here is written as plainly as possible (scalar loops, no
shared helpers from the package) so a bug in the library cannot hide in
its own oracle. reference_features is the span-at-a-time featurizer the
batched kernel replaced: one span, one scope and one statistic at a
time, over explicit position lists. reference_train_matrix is the CART
grower the presorted split search replaced: it sorts every column again
at every node. reference_leaf_for is a plain walk of a model's nodes
that TreeModel.leaf is checked against; reference_path_steps and
reference_decision_path list and render that walk's predicates one by
one, the text that TreeModel.paths stores once per leaf and explain
returns. reference_read_feature_csv is the csv-module reader, one
float() per cell, that the numpy feature CSV reader replaced.
reference_write_feature_csv is the writer that formatted every cell on
its own, and reference_verdict_line the json.dumps of one span's whole
output object, that the writers rendering each distinct value, and each
leaf's line tail, once replaced.
"""

from __future__ import annotations

import csv
import json
import math
import re
from types import SimpleNamespace

import numpy as np

from nrfilter.core import EntitySpan
from nrfilter.errors import ParseError, SchemaMismatch
from nrfilter.features import FeatureTable, canonical_feature_name
from nrfilter.tree import DEFAULT_DECISION_THRESHOLD, Internal, Leaf, TreeModel


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
    var = ((sub - meanp) ** 2).sum(axis=0) / n
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


def _reference_gini(w_strong, w_weak):
    total = w_strong + w_weak
    if total <= 0:
        return 0.0
    p_s = w_strong / total
    p_w = w_weak / total
    return 1.0 - p_s * p_s - p_w * p_w


def _reference_best_split(X, is_weak, weights, min_samples_leaf):
    """Best (feature, threshold, gain) of one node: each column sorted
    afresh; the first strictly-best candidate wins."""
    n = X.shape[0]
    w_weak_total = float(weights[is_weak].sum())
    w_total = float(weights.sum())
    parent = _reference_gini(w_total - w_weak_total, w_weak_total)
    if parent <= 0.0:
        return None

    def g(total, weak):
        with np.errstate(invalid="ignore", divide="ignore"):
            ps = (total - weak) / total
            pw = weak / total
        return 1.0 - ps * ps - pw * pw

    best = None
    best_gain = 0.0
    for j in range(X.shape[1]):
        col = X[:, j]
        order = np.argsort(col, kind="stable")
        v = col[order]
        boundaries = np.nonzero(v[:-1] != v[1:])[0]
        if boundaries.size == 0:
            continue
        w = weights[order]
        cum_w = np.cumsum(w)
        cum_ww = np.cumsum(w * is_weak[order])
        n_left = boundaries + 1
        ok = (n_left >= min_samples_leaf) & (n - n_left >= min_samples_leaf)
        if not ok.any():
            continue
        b = boundaries[ok]
        wl = cum_w[b]
        wl_weak = cum_ww[b]
        wr = w_total - wl
        wr_weak = cum_ww[-1] - wl_weak
        gains = parent - (wl * g(wl, wl_weak) + wr * g(wr, wr_weak)) / w_total
        pos = int(np.argmax(gains))
        gain = float(gains[pos])
        if gain > best_gain:
            i = int(b[pos])
            threshold = (float(v[i]) + float(v[i + 1])) / 2.0
            if threshold >= v[i + 1]:
                threshold = float(v[i])
            best = (j, threshold, gain)
            best_gain = gain
    return best


def reference_train_matrix(X, labels, feature_names, config):
    """Recursive CART over explicit row subsets; same weights, stopping
    rules and preorder node numbering as tree.train_matrix."""
    X = np.asarray(X, dtype=np.float64)
    is_weak = np.array([label == "weak" for label in labels], dtype=bool)
    n, n_weak = len(labels), int(is_weak.sum())
    if config.class_weighted:
        weights = np.where(is_weak, n / (2.0 * n_weak), n / (2.0 * (n - n_weak)))
    else:
        weights = np.ones(n, dtype=np.float64)
    nodes = []

    def grow(x, yw, w, depth):
        nw = int(yw.sum())
        ns = int(yw.size - nw)
        found = None
        if depth < config.max_depth and nw and ns and yw.size >= 2 * config.min_samples_leaf:
            found = _reference_best_split(x, yw, w, config.min_samples_leaf)
        if found is None or found[2] < config.min_impurity_decrease:
            nodes.append(Leaf(ns, nw, nw / (ns + nw)))
            return len(nodes) - 1
        j, threshold, _ = found
        index = len(nodes)
        nodes.append(None)
        go_left = x[:, j] <= threshold
        left = grow(x[go_left], yw[go_left], w[go_left], depth + 1)
        right = grow(x[~go_left], yw[~go_left], w[~go_left], depth + 1)
        nodes[index] = Internal(j, threshold, left, right)
        return index

    grow(X, is_weak, weights, 0)
    return TreeModel(tuple(feature_names), tuple(nodes), DEFAULT_DECISION_THRESHOLD, config)


def reference_leaf_for(model, values):
    """(leaf node id, [(internal node id, went left)]) of one instance,
    walking the model's node objects from the root."""
    i = 0
    trail = []
    while isinstance(model.nodes[i], Internal):
        node = model.nodes[i]
        went_left = values[node.feature] <= node.threshold
        trail.append((i, went_left))
        i = node.left if went_left else node.right
    return i, trail


def reference_path_steps(model, values):
    """[(feature name, "<=" or ">", threshold)] of one instance's walk."""
    _, trail = reference_leaf_for(model, values)
    return [
        (model.feature_names[model.nodes[i].feature], "<=" if went_left else ">",
         model.nodes[i].threshold)
        for i, went_left in trail
    ]


def reference_decision_path(model, values):
    """The rendered predicate chain of one instance's walk: one
    "(name op threshold)" per step, threshold repr'd, joined by a line
    break and "& "."""
    return "\n& ".join(
        f"({name} {op} {threshold!r})" for name, op, threshold in reference_path_steps(model, values)
    )


_PREDICATE = re.compile(r"\(([^\s()]+) (<=|>) ([^\s()]+)\)")


def parse_decision_path(text: str):
    """Parse "(name op value)" predicates joined by '& ' back into tuples;
    the empty path of a one-leaf tree is no predicate."""
    if not text:
        return []
    parts = [p.strip() for p in text.split("&")]
    steps = []
    for part in parts:
        m = _PREDICATE.fullmatch(part.strip())
        if m is None:
            raise ValueError(f"unparseable predicate: {part!r}")
        steps.append((m.group(1), m.group(2), float(m.group(3))))
    return steps


_META_COLS = ("chunk_id", "entity_type", "start", "end", "anchor", "label")


def reference_read_feature_csv(source):
    """A feature CSV read through csv.reader, one float() per cell."""
    path = getattr(source, "name", None)
    reader = csv.reader(source)
    header = next(reader, None)
    if header is None or header[: len(_META_COLS)] != list(_META_COLS):
        raise SchemaMismatch("feature CSV header missing metadata columns")
    names = tuple(canonical_feature_name(n) for n in header[len(_META_COLS) :])
    rows, labels, spans, line_nos = [], [], [], []
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(reader.line_num, f"{len(row)} fields, header has {len(header)}", path)
        chunk_id, entity_type, start, end, anchor, label = row[: len(_META_COLS)]
        try:
            spans.append(
                EntitySpan(chunk_id, entity_type, int(start), int(end), int(anchor), text="")
            )
            rows.append([float(v) for v in row[len(_META_COLS) :]])
        except ValueError as exc:
            raise ParseError(reader.line_num, str(exc), path) from exc
        labels.append(label or None)
        line_nos.append(reader.line_num)
    matrix = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(names)))
    finite = np.isfinite(matrix)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ParseError(line_nos[i], f"feature {names[j]!r} is {float(matrix[i, j])!r}", path)
    return FeatureTable(names, matrix, labels, spans)


def reference_write_feature_csv(target, blocks):
    """The feature CSV of blocks of (names, spans, labels, rows): the
    header, then per span its meta columns through csv.writer and each
    cell's own repr."""
    lines = []
    writer = csv.writer(SimpleNamespace(write=lines.append))
    n = 0
    header = None
    for names, spans, labels, rows in blocks:
        if not len(spans):
            continue
        if header is None:
            header = names
            writer.writerow(list(_META_COLS) + list(names))
            target.write(lines.pop())
        elif tuple(names) != tuple(header):
            raise SchemaMismatch("feature rows use differing schemas")
        for span, label, values in zip(spans, labels, rows.tolist()):
            writer.writerow((span.chunk_id, span.entity_type, span.start, span.end, span.anchor,
                             label if label is not None else ""))
            target.write(lines.pop()[:-2] + "," + ",".join(map(repr, values)) + "\r\n")
            n += 1
    return n


def reference_verdict_line(span, verdict, p_weak, split=None, path=None):
    """One output line of a classified span: json.dumps of its fields,
    verdict, p_weak and, when given, split and path, in that order."""
    obj = {"chunk_id": span.chunk_id, "entity_type": span.entity_type, "start": span.start,
           "end": span.end, "anchor": span.anchor, "text": span.text,
           "verdict": verdict, "p_weak": p_weak}
    if split is not None:
        obj["split"] = split
    if path is not None:
        obj["path"] = path
    return json.dumps(obj)
