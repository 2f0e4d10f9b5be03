"""CART classifier mapping span feature vectors to strong/weak verdicts.

Binary splits on numeric features, Gini impurity, deterministic greedy
growth (ties resolve to the lower feature index, then the lower
threshold). Leaves keep raw class counts so the weak-probability
decision threshold can be swept after training, and every verdict can
be explained as a root-to-leaf predicate chain.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import STRONG, WEAK, FeatureConfig, decode_json, is_json, read_config
from .errors import (
    InvalidConfig,
    NoFeasibleThreshold,
    SchemaMismatch,
    SingleClassTrainingSet,
)
from .metrics import filter_counts

DEFAULT_DECISION_THRESHOLD = 0.5

# Smallest float above 1.0: a threshold no leaf probability can reach,
# i.e. "drop nothing".
THRESHOLD_KEEP_ALL = math.nextafter(1.0, 2.0)

# Joins the "(name op threshold)" predicates of a rendered decision path.
_PATH_SEP = "\n& "


@dataclass(frozen=True)
class TrainConfig:
    """Growth limits and tuning constraint for the noise tree."""

    max_depth: int = 12
    min_samples_leaf: int = 5
    min_impurity_decrease: float = 0.0
    max_tp_drop: float = 0.06
    class_weighted: bool = True

    def __post_init__(self):
        if self.max_depth < 1:
            raise InvalidConfig(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise InvalidConfig(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        if self.min_impurity_decrease < 0:
            raise InvalidConfig("min_impurity_decrease must be >= 0")
        if not 0.0 <= self.max_tp_drop <= 1.0:
            raise InvalidConfig(f"max_tp_drop must be in [0, 1], got {self.max_tp_drop}")


@dataclass(frozen=True)
class Internal:
    feature: int
    threshold: float
    left: int   # taken when value <= threshold
    right: int  # taken when value > threshold


@dataclass(frozen=True)
class Leaf:
    n_strong: int
    n_weak: int
    p_weak: float


@dataclass(frozen=True)
class TreeModel:
    """An immutable trained tree; node 0 is the root. ``paths[i]`` is the
    rendered decision path to node i, one predicate per internal node on
    the way: at a leaf, the path of every instance that reaches it.
    ``featurization`` is the config that made the tree's feature rows,
    under which its spans are decoded and featurized."""

    feature_names: tuple[str, ...]
    nodes: tuple[Internal | Leaf, ...]
    decision_threshold: float
    config: TrainConfig
    featurization: FeatureConfig = FeatureConfig()
    paths: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Every p_weak is in [0, 1], so any other threshold (NaN too)
        # would act as 0 or as keep-all.
        if not 0.0 <= self.decision_threshold <= THRESHOLD_KEEP_ALL:
            raise InvalidConfig(
                f"decision_threshold must be in [0, {THRESHOLD_KEEP_ALL!r}], "
                f"got {self.decision_threshold!r}"
            )
        n = len(self.nodes)
        if n == 0:
            raise SchemaMismatch("a tree needs at least one node")
        # A child must come after its parent (preorder does), so every
        # walk ends at a leaf and a node's path is rendered before its
        # children's. Every other node has exactly one parent, so a node
        # has one path.
        paths: list[str | None] = [""] + [None] * (n - 1)
        for i, node in enumerate(self.nodes):
            if paths[i] is None:
                raise SchemaMismatch(f"node {i} has no parent")
            if isinstance(node, Leaf):
                # Counts are non-negative ints and p_weak is in [0, 1] (not NaN).
                if not (all(type(c) is int and c >= 0 for c in (node.n_strong, node.n_weak))
                        and 0.0 <= node.p_weak <= 1.0):
                    raise SchemaMismatch(f"node {i}: malformed {node!r}")
            else:
                if not math.isfinite(node.threshold):
                    raise SchemaMismatch(f"node {i}: threshold {node.threshold!r} is not finite")
                if not (i < node.left < n and i < node.right < n):
                    raise SchemaMismatch(f"node {i}: children {node.left}, {node.right} out of order")
                if not 0 <= node.feature < len(self.feature_names):
                    raise SchemaMismatch(f"node {i}: feature {node.feature} out of range")
                name = self.feature_names[node.feature]
                for child, op in ((node.left, "<="), (node.right, ">")):
                    if paths[child] is not None:
                        raise SchemaMismatch(f"node {child} has a second parent, node {i}")
                    step = f"({name} {op} {node.threshold!r})"
                    paths[child] = paths[i] + _PATH_SEP + step if paths[i] else step
        object.__setattr__(self, "paths", tuple(paths))

    def leaf(self, values) -> int:
        """Id of the leaf ``values`` (indexable by feature) reaches."""
        nodes = self.nodes
        i = 0
        node = nodes[0]
        while isinstance(node, Internal):
            i = node.left if values[node.feature] <= node.threshold else node.right
            node = nodes[i]
        return i

    def walk(self, rows) -> list[int]:
        """The leaf id of each row, by ``leaf``. The rows of a matrix go
        as they are: one row's few reads cost less than a copy to floats."""
        return [self.leaf(values) for values in rows]

    def p_weak(self, leaves: Sequence[int]) -> np.ndarray:
        """The weak-probability of each of the leaf ids ``leaves``."""
        nodes = self.nodes
        return np.array([nodes[i].p_weak for i in leaves], dtype=np.float64)

    @property
    def schema_hash(self) -> str:
        joined = "\n".join(self.feature_names).encode("utf-8")
        return hashlib.sha256(joined).hexdigest()

    @property
    def leaves(self) -> list[Leaf]:
        return [n for n in self.nodes if isinstance(n, Leaf)]

    def with_threshold(self, threshold: float) -> "TreeModel":
        return replace(self, decision_threshold=threshold)

    def verdict(self, p_weak: float) -> str:
        """Weak iff p_weak >= the model's decision threshold."""
        return WEAK if p_weak >= self.decision_threshold else STRONG


def _weighted_gini(w_strong: float, w_weak: float) -> float:
    total = w_strong + w_weak
    p_s = w_strong / total
    p_w = w_weak / total
    return 1.0 - p_s * p_s - p_w * p_w


# (row, column) cells of one block of the split search (at least one
# column): bounds the temporaries of a node at a few MB.
_SPLIT_CELLS = 1 << 16


def _best_split(
    X: np.ndarray,
    order: np.ndarray,
    cols: np.ndarray,
    rows: np.ndarray,
    is_weak: np.ndarray,
    weights: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, impurity decrease) for one node.

    ``rows`` are the node's rows in ascending order and ``order[k]`` the
    same rows sorted stably by feature ``cols[k]``. Candidate thresholds
    are midpoints of consecutive distinct sorted values, or the lower
    value where the midpoint rounds onto the upper. The first
    strictly-best candidate wins, so ties fall to the lower feature
    index and then the lower threshold. The node holds both classes,
    each of positive weight, so its impurity is positive.
    """
    n = rows.size
    w_node = weights[rows]
    w_total = float(w_node.sum())
    w_weak_total = float(w_node[is_weak[rows]].sum())
    parent = _weighted_gini(w_total - w_weak_total, w_weak_total)

    def weighted_gini(total, weak):
        # total * (1 - ps^2 - pw^2), computed in place
        ps = total - weak
        ps /= total
        ps *= ps
        pw = weak / total
        pw *= pw
        np.subtract(1.0, ps, out=ps)
        ps -= pw
        ps *= total
        return ps

    # Sorted position i splits rows [0, i] from [i + 1, n); both sides
    # hold min_samples_leaf rows for i in [lo, hi).
    lo, hi = min_samples_leaf - 1, n - min_samples_leaf
    weak_weights = weights * is_weak
    best: tuple[int, float, float] | None = None
    best_gain = 0.0
    step = max(1, _SPLIT_CELLS // n)
    for first in range(0, cols.size, step):
        o = order[first : first + step]
        features = cols[first : first + step]
        # Flat indices into the C-contiguous X, in int64: n * d may pass 2**31.
        v = np.take(X, o * np.int64(X.shape[1]) + features[:, None])
        cum_w = np.cumsum(np.take(weights, o), axis=1)
        cum_ww = np.cumsum(np.take(weak_weights, o), axis=1)
        wl = cum_w[:, lo:hi]
        wl_weak = cum_ww[:, lo:hi]
        with np.errstate(invalid="ignore", divide="ignore"):
            gains = weighted_gini(wl, wl_weak)
            gains += weighted_gini(w_total - wl, cum_ww[:, -1:] - wl_weak)
        gains /= w_total
        np.subtract(parent, gains, out=gains)
        gains[v[:, lo:hi] == v[:, lo + 1 : hi + 1]] = -np.inf
        # A column whose best gain is NaN cannot win, as if it had none.
        pos = gains.argmax(axis=1)
        col_gains = gains[np.arange(features.size), pos]
        col_gains[np.isnan(col_gains)] = -np.inf
        k = int(col_gains.argmax())
        gain = float(col_gains[k])
        if gain > best_gain:
            i = lo + int(pos[k])
            below, above = float(v[k, i]), float(v[k, i + 1])
            threshold = (below + above) / 2.0
            if threshold >= above:
                # Adjacent doubles: the midpoint rounded onto the upper
                # value, which would send it left and could empty the
                # right child. The lower value keeps below <= threshold < above.
                threshold = below
            best = (int(features[k]), threshold, gain)
            best_gain = gain
    return best


def _column_digests(X: np.ndarray) -> list[int]:
    """A 64-bit digest of each column's bits: their weighted sum mod 2**64."""
    weights = np.arange(1, 2 * X.shape[0], 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return (weights @ X.view(np.uint64)).tolist()


def _first_copies(X: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``cols`` without every column whose bits equal those of an earlier
    one of them (so 0.0 and -0.0 differ). Only columns of equal digests
    are compared bit for bit."""
    bits = X.view(np.uint64)
    digests = _column_digests(X)
    firsts: dict[int, list[int]] = {}
    keep = []
    for j in cols.tolist():
        same_digest = firsts.setdefault(digests[j], [])
        if not any(np.array_equal(bits[:, j], bits[:, k]) for k in same_digest):
            same_digest.append(j)
            keep.append(j)
    return np.array(keep, dtype=cols.dtype)


def train_matrix(
    X: np.ndarray,
    labels: Sequence[str],
    feature_names: Sequence[str],
    config: TrainConfig = TrainConfig(),
) -> TreeModel:
    """Grow a tree from an (n, d) matrix and parallel label list."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != len(labels):
        raise SchemaMismatch(f"matrix {X.shape} does not match {len(labels)} labels")
    if X.shape[1] != len(feature_names):
        raise SchemaMismatch(f"{X.shape[1]} columns vs {len(feature_names)} feature names")
    if not np.isfinite(X).all():
        raise InvalidConfig("feature matrix holds NaN or infinite values")
    for label in labels:
        if label not in (STRONG, WEAK):
            raise InvalidConfig(f"label must be 'strong' or 'weak', got {label!r}")
    is_weak = np.array([label == WEAK for label in labels], dtype=bool)
    n_weak = int(is_weak.sum())
    n_strong = len(labels) - n_weak
    if n_weak == 0 or n_strong == 0:
        raise SingleClassTrainingSet(
            f"need both classes, got {n_strong} strong / {n_weak} weak"
        )

    if config.class_weighted:
        n = len(labels)
        w_strong = n / (2.0 * n_strong)
        w_weak = n / (2.0 * n_weak)
        weights = np.where(is_weak, w_weak, w_strong)
    else:
        weights = np.ones(len(labels), dtype=np.float64)

    # Presorted growth (SLIQ): every non-constant column is sorted once;
    # a split partitions each column's order stably, so no node sorts.
    # Depth-first with the right child pushed first numbers nodes in
    # preorder, and the pending orders cover disjoint rows. A column
    # bit-identical to an earlier one ties it at every node and loses the
    # tie, so only the first of them is searched.
    cols = _first_copies(X, np.flatnonzero(X.min(axis=0) < X.max(axis=0)))
    order = np.empty((cols.size, X.shape[0]), dtype=np.int32)
    for k, j in enumerate(cols):
        order[k] = np.argsort(X[:, j], kind="stable")
    go_left = np.zeros(X.shape[0], dtype=bool)
    nodes: list[Internal | Leaf | list] = []
    # (rows, sorted orders, their columns, depth, parent node, its slot)
    stack = [(np.arange(X.shape[0]), order, cols, 0, None, 0)]
    del order
    while stack:
        rows, order, cols, depth, parent, slot = stack.pop()
        if parent is not None:
            parent[slot] = len(nodes)
        nw = int(is_weak[rows].sum())
        ns = rows.size - nw
        found = None
        if depth < config.max_depth and nw and ns and rows.size >= 2 * config.min_samples_leaf:
            varies = X[order[:, 0], cols] < X[order[:, -1], cols]
            if not varies.all():
                order, cols = order[varies], cols[varies]
            found = _best_split(X, order, cols, rows, is_weak, weights, config.min_samples_leaf)
        if found is None or found[2] < config.min_impurity_decrease:
            nodes.append(Leaf(ns, nw, nw / (ns + nw)))
            continue
        j, threshold, _ = found
        node = [j, threshold, -1, -1]  # Internal's fields; children set when popped
        nodes.append(node)
        left = X[rows, j] <= threshold
        go_left[rows] = left
        sends = np.take(go_left, order)
        n_left = int(left.sum())
        stack.append((rows[~left], order[~sends].reshape(cols.size, -1), cols, depth + 1, node, 3))
        stack.append((rows[left], order[sends].reshape(cols.size, n_left), cols, depth + 1, node, 2))
        del order, sends

    return TreeModel(
        feature_names=tuple(feature_names),
        nodes=tuple(Internal(*n) if isinstance(n, list) else n for n in nodes),
        decision_threshold=DEFAULT_DECISION_THRESHOLD,
        config=config,
    )


@dataclass(frozen=True)
class TuneResult:
    threshold: float
    tp_drop: float
    fp_drop: float
    n_tp: int
    n_fp: int


def cut_threshold(
    scores: np.ndarray, is_tp: Sequence[bool] | np.ndarray, max_tp_drop: float
) -> TuneResult:
    """Pick the cut θ on a per-span score, dropping a span iff its score is
    at least θ, that removes the most FPs while the dropped fraction of
    the TPs (flagged by ``is_tp``) stays within ``max_tp_drop``.

    Candidates are the distinct scores plus a keep-all sentinel above
    every score in [0, 1]; ties prefer the higher (more conservative) θ.
    When nothing can be removed within budget, the keep-all θ is returned
    and a NoFeasibleThreshold warning is emitted.
    """
    if not 0.0 <= max_tp_drop <= 1.0:
        raise InvalidConfig(f"max_tp_drop must be in [0, 1], got {max_tp_drop}")
    scores = np.asarray(scores, dtype=np.float64)
    is_tp = np.asarray(is_tp, dtype=bool)
    if is_tp.shape != scores.shape or scores.ndim != 1:
        raise SchemaMismatch(f"{is_tp.shape} TP flags for {scores.shape} scores")
    best: TuneResult | None = None
    # From keep-all downward, so the first θ of the most FP drop is the highest.
    for theta in [THRESHOLD_KEEP_ALL, *np.unique(scores)[::-1].tolist()]:
        base, filtered = filter_counts(is_tp, scores < theta)
        if not (base.tp and base.fp):
            raise SingleClassTrainingSet(
                f"tuning needs TPs and FPs, got {base.tp} TP / {base.fp} FP"
            )
        tp_drop = filtered.fn / base.tp
        fp_drop = (base.fp - filtered.fp) / base.fp
        if tp_drop <= max_tp_drop and (best is None or fp_drop > best.fp_drop):
            best = TuneResult(theta, tp_drop, fp_drop, base.tp, base.fp)
    if best.fp_drop == 0.0:
        warnings.warn(
            "no threshold removes any FP within the TP-drop budget; keeping everything",
            NoFeasibleThreshold,
        )
    return best


# ---------------------------------------------------------------------------
# Persistence: versioned JSON, deterministic byte-for-byte
# ---------------------------------------------------------------------------

FORMAT_VERSION = 1


def serialize_model(model: TreeModel) -> str:
    nodes = []
    for node in model.nodes:
        if isinstance(node, Internal):
            nodes.append(
                {"f": node.feature, "t": node.threshold, "l": node.left, "r": node.right}
            )
        else:
            nodes.append({"ns": node.n_strong, "nw": node.n_weak, "pw": node.p_weak})
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "nr-decision-tree",
        "schema_hash": model.schema_hash,
        "feature_names": list(model.feature_names),
        "decision_threshold": model.decision_threshold,
        "config": asdict(model.config),
        "featurization": asdict(model.featurization),
        "nodes": nodes,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _json_number(value, kind: type):
    """``value`` if it is a JSON ``kind`` (int, or float returned as one), else TypeError."""
    if not is_json(value, kind):
        raise TypeError(f"expected a JSON {kind.__name__}, got {value!r}")
    return float(value) if kind is float else value


def deserialize_model(text: str) -> TreeModel:
    """Rebuild a model from ``serialize_model`` output; anything else,
    down to a malformed node, config or featurization block, is a
    SchemaMismatch. A node index or feature is a JSON integer, a
    threshold or p_weak a finite JSON number and a feature name a JSON
    string: no string, bool or (for an index) fraction is coerced. A
    model without a featurization was trained under ``FeatureConfig()``."""
    try:
        payload = decode_json(text)
        if payload.get("format_version") != FORMAT_VERSION:
            raise SchemaMismatch(
                f"unsupported model format version {payload.get('format_version')!r}"
            )
        names = payload["feature_names"]
        if not (is_json(names, list) and all(is_json(name, str) for name in names)):
            raise TypeError("feature_names must be a list of strings")
        nodes: list[Internal | Leaf] = []
        for raw in payload["nodes"]:
            if "f" in raw:
                nodes.append(Internal(_json_number(raw["f"], int), _json_number(raw["t"], float),
                                      _json_number(raw["l"], int), _json_number(raw["r"], int)))
            else:
                nodes.append(Leaf(raw["ns"], raw["nw"], _json_number(raw["pw"], float)))
        # Models written while TrainConfig had an (inert) seed carry "seed": 0.
        stored = {k: v for k, v in payload["config"].items() if k != "seed"}
        model = TreeModel(
            feature_names=tuple(names),
            nodes=tuple(nodes),
            decision_threshold=_json_number(payload["decision_threshold"], float),
            config=read_config(TrainConfig, stored, "model config"),
            featurization=read_config(FeatureConfig, payload.get("featurization", {}),
                                      "model featurization"),
        )
        stored_hash = payload["schema_hash"]
    except (AttributeError, KeyError, TypeError, ValueError, InvalidConfig) as exc:
        raise SchemaMismatch(f"malformed model file: {exc!r}") from exc
    if model.schema_hash != stored_hash:
        raise SchemaMismatch("feature-name hash does not match the stored schema_hash")
    return model


def save_model(model: TreeModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_model(model))
        handle.write("\n")


def load_model(path: str) -> TreeModel:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise SchemaMismatch(f"malformed model file: {exc!r}") from exc
    return deserialize_model(text)
