"""Correctness checks on the outputs of one benchmark round.

Every check compares the program's artifacts with the generator's ground
truth, with a recomputation written here with plain loops, or with a
property the method must have. None of them imports nrfilter, so a fault
in the program cannot hide in its own checker. Each check raises
CheckFailed with a message naming the first offending item.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re

META_COLS = ("chunk_id", "entity_type", "start", "end", "anchor", "label")
SCOPES = ("Token", "Word", "Phrase", "Neighbor", "Context")
REL_TOL = 1e-12

_PREDICATE = re.compile(r"\((\S+) (<=|>) (\S+)\)")


class CheckFailed(AssertionError):
    pass


def _fail(msg: str):
    raise CheckFailed(msg)


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def read_features(path: str) -> tuple[list[str], list[list[str]], list[list[float]]]:
    """Feature names, metadata cells and float rows of a features.csv."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if tuple(header[: len(META_COLS)]) != META_COLS:
            _fail(f"features.csv header starts {header[:len(META_COLS)]}")
        meta, values = [], []
        for row in reader:
            meta.append(row[: len(META_COLS)])
            values.append([float(v) for v in row[len(META_COLS):]])
    return header[len(META_COLS):], meta, values


def span_key(obj: dict) -> tuple[str, str, int, int]:
    return (obj["chunk_id"], obj["entity_type"], int(obj["start"]), int(obj["end"]))


# ---------------------------------------------------------------------------
# Spans and verdicts
# ---------------------------------------------------------------------------


def check_span_set(lines: list[dict], truth: dict, what: str) -> None:
    """The spans in an output are exactly the spans the generator placed."""
    seen = [span_key(obj) for obj in lines]
    if len(seen) != len(set(seen)):
        _fail(f"{what}: {len(seen) - len(set(seen))} duplicate spans")
    got = set(seen)
    if got != set(truth):
        extra = sorted(got - set(truth))[:3]
        missing = sorted(set(truth) - got)[:3]
        _fail(f"{what}: span set differs from the placed spans; "
              f"extra {extra}, missing {missing}")


def check_labels(meta: list[list[str]], truth: dict) -> None:
    """features.csv labels each span by the generator's TP flag."""
    for cells in meta:
        key = (cells[0], cells[1], int(cells[2]), int(cells[3]))
        if key not in truth:
            _fail(f"features.csv has a row for span {key}, which was not placed")
        want = "strong" if truth[key] else "weak"
        if cells[5] != want:
            _fail(f"features.csv labels span {key} {cells[5]!r}, truth says {want!r}")


def check_verdicts(lines: list[dict], threshold: float, what: str) -> None:
    """verdict is "weak" exactly when p_weak >= the model's threshold."""
    for obj in lines:
        want = "weak" if obj["p_weak"] >= threshold else "strong"
        if obj["verdict"] != want:
            _fail(f"{what}: span {span_key(obj)} has verdict {obj['verdict']!r} "
                  f"with p_weak {obj['p_weak']!r} and threshold {threshold!r}")


def parse_path(text: str) -> list[tuple[str, str, float]]:
    if not text:
        return []
    steps = []
    for part in text.split("\n& "):
        m = _PREDICATE.fullmatch(part)
        if m is None:
            _fail(f"unparseable predicate {part!r}")
        steps.append((m.group(1), m.group(2), float(m.group(3))))
    return steps


def walk(model: dict, row: list[float] | None = None, path=None) -> tuple[float, list]:
    """Plain walk over model.json's node list.

    With ``row`` the feature values choose each branch; with ``path`` the
    serialized predicates do, and each must name the node's feature and
    threshold. Returns the leaf's p_weak and the steps taken.
    """
    names, nodes = model["feature_names"], model["nodes"]
    node, steps = nodes[0], []
    while "f" in node:
        name, threshold = names[node["f"]], node["t"]
        if row is not None:
            left = row[node["f"]] <= threshold
        else:
            if len(steps) >= len(path):
                _fail(f"path ends at an internal node after {len(steps)} steps")
            p_name, op, p_threshold = path[len(steps)]
            if p_name != name or p_threshold != threshold:
                _fail(f"path step {len(steps)} is ({p_name} {op} {p_threshold!r}), "
                      f"node tests ({name} {threshold!r})")
            left = op == "<="
        steps.append((name, "<=" if left else ">", threshold))
        node = nodes[node["l"] if left else node["r"]]
    if path is not None and len(path) != len(steps):
        _fail(f"path has {len(path)} steps, the tree reaches a leaf after {len(steps)}")
    return node["pw"], steps


def check_paths(lines: list[dict], model: dict, what: str) -> None:
    """Each serialized path follows the tree to the leaf that gave p_weak."""
    for obj in lines:
        p_weak, _ = walk(model, path=parse_path(obj["path"]))
        if p_weak != obj["p_weak"]:
            _fail(f"{what}: span {span_key(obj)} path leads to p_weak {p_weak!r}, "
                  f"output says {obj['p_weak']!r}")


def check_walk_over_features(model: dict, names: list[str], meta: list[list[str]],
                             values: list[list[float]], predictions: list[dict]) -> None:
    """A walker fed the features.csv values reproduces each span's p_weak,
    and every predicate of the serialized path holds for that row."""
    if list(model["feature_names"]) != names:
        _fail("model.json feature names differ from the features.csv header")
    column = {n: i for i, n in enumerate(names)}
    by_key = {span_key(obj): obj for obj in predictions}
    for cells, row in zip(meta, values):
        key = (cells[0], cells[1], int(cells[2]), int(cells[3]))
        obj = by_key.get(key)
        if obj is None:
            _fail(f"features.csv row {key} has no prediction")
        p_weak, _ = walk(model, row=row)
        if p_weak != obj["p_weak"]:
            _fail(f"span {key}: walker gives p_weak {p_weak!r}, "
                  f"predictions.jsonl says {obj['p_weak']!r}")
        for name, op, threshold in parse_path(obj["path"]):
            if name not in column:
                _fail(f"span {key}: path names unknown feature {name!r}")
            value = row[column[name]]
            if not (value <= threshold if op == "<=" else value > threshold):
                _fail(f"span {key}: predicate ({name} {op} {threshold!r}) is false "
                      f"for the row value {value!r}")
    if len(meta) != len(by_key):
        _fail(f"{len(meta)} feature rows vs {len(by_key)} predictions")


# ---------------------------------------------------------------------------
# Drop rates and the TP budget
# ---------------------------------------------------------------------------


def check_tp_budget(report: dict, model: dict) -> None:
    budget = 100.0 * model["config"]["max_tp_drop"]
    tp_drop = report["validation"]["tp_drop_pct"]
    if tp_drop > budget * (1 + REL_TOL):
        _fail(f"validation tp_drop_pct {tp_drop!r} exceeds the budget {budget!r}")


def check_report_drops(report: dict, predictions: list[dict], truth: dict) -> None:
    """tp/fp drop rates recomputed from predictions and the generator's
    TP flags equal report.json, split by split."""
    for split in ("train", "validation"):
        n_tp = n_fp = tp_dropped = fp_dropped = 0
        for obj in predictions:
            if obj["split"] != split:
                continue
            weak = obj["verdict"] == "weak"
            if truth[span_key(obj)]:
                n_tp += 1
                tp_dropped += weak
            else:
                n_fp += 1
                fp_dropped += weak
        tp_drop = 100.0 * tp_dropped / n_tp if n_tp else 0.0
        fp_drop = 100.0 * fp_dropped / n_fp if n_fp else 0.0
        got = report[split]
        if (got["n_tp"], got["n_fp"]) != (n_tp, n_fp):
            _fail(f"{split}: report counts {got['n_tp']} TP / {got['n_fp']} FP, "
                  f"truth gives {n_tp} / {n_fp}")
        if not (_close(got["tp_drop_pct"], tp_drop) and _close(got["fp_drop_pct"], fp_drop)):
            _fail(f"{split}: report drops ({got['tp_drop_pct']!r}, {got['fp_drop_pct']!r}), "
                  f"recomputed ({tp_drop!r}, {fp_drop!r})")


def check_retrain_budget(model: dict, names: list[str], meta: list[list[str]],
                         values: list[list[float]]) -> None:
    """The retrained, retuned model drops at most its TP budget of the
    rows it was tuned on."""
    if list(model["feature_names"]) != names:
        _fail("retrained model feature names differ from the features.csv header")
    threshold = model["decision_threshold"]
    n_tp = dropped = 0
    for cells, row in zip(meta, values):
        if cells[5] == "strong":
            n_tp += 1
            dropped += walk(model, row=row)[0] >= threshold
    if dropped / n_tp > model["config"]["max_tp_drop"]:
        _fail(f"retrained model drops {dropped} of {n_tp} TPs at threshold {threshold!r}")


# ---------------------------------------------------------------------------
# Feature recomputation by plain loops
# ---------------------------------------------------------------------------


def _class_index(tag: str, classes: list[str]) -> int:
    base = tag[: -len("-tag")]
    if base in classes:
        return classes.index(base)
    # Single-entity schemas drop the entity name from the tag.
    return {"O": 0, "B": 1, "I": 2}[base]


def _pdm_cell(probs, anchor, start, end, k, b, bins, decay_rate) -> float:
    T = len(probs)
    total = 0.0
    for t in range(T):
        if start <= t <= end:
            continue
        p = probs[t][k]
        if min(int(p * bins), bins - 1) != b:
            continue
        d = t - anchor
        total += math.exp(-(d * d) / (2.0 * decay_rate * decay_rate)) * p / T
    return total


def _scope(kind, T, anchor, start, end, word_ids, window) -> list[int]:
    if kind == "Token":
        return [anchor]
    if kind == "Word":
        if word_ids is None:
            return [anchor]
        return [t for t in range(start, end + 1) if word_ids[t] == word_ids[anchor]]
    if kind == "Phrase":
        return list(range(start, end + 1))
    if kind == "Neighbor":
        return [t for t in range(start - window, start) if t >= 0] + \
               [t for t in range(end + 1, end + 1 + window) if t < T]
    return [t for t in range(T) if not start <= t <= end]


def sampled_rows(n_rows: int, sample: int, seed: int) -> list[int]:
    """The rows check_features recomputes: a seeded sample, sorted."""
    return sorted(random.Random(seed).sample(range(n_rows), min(sample, n_rows)))


def check_features(corpus_path: str, names: list[str], meta: list[list[str]],
                   values: list[list[float]], config: dict, sample: int, seed: int) -> None:
    """For a sample of rows, recompute every PDM cell and each scope's
    per-class mean and max, and compare within 1e-12 relative."""
    picks = sampled_rows(len(meta), sample, seed)
    wanted = {meta[i][0] for i in picks}
    records = {}
    with open(corpus_path, encoding="utf-8") as handle:
        for line in handle:
            obj = json.loads(line)
            if obj["id"] in wanted:
                records[obj["id"]] = obj
    pdm = re.compile(r"PDM_(.+)_WCount_bkt_([0-9.]+)-([0-9.]+)")
    stat = re.compile(r"([A-Za-z]+)_(.+-tag)_(mean_prob|max_prob)")
    bins = config["bins"]
    n_pdm = sum(1 for n in names if pdm.fullmatch(n))
    n_stat = sum(1 for n in names if stat.fullmatch(n))
    for i in picks:
        chunk_id, _, start, end, anchor, _ = meta[i]
        start, end, anchor = int(start), int(end), int(anchor)
        record = records.get(chunk_id)
        if record is None:
            _fail(f"features.csv row {i} names chunk {chunk_id!r}, not in the corpus")
        classes = record["classes"]
        if (n_pdm, n_stat) != (bins * len(classes), 2 * len(classes) * len(config["scopes"])):
            _fail(f"features.csv has {n_pdm} PDM cells and {n_stat} scope mean/max "
                  f"columns for {len(classes)} classes")
        probs = [tok["probs"] for tok in record["tokens"]]
        word_ids = None
        if any("word_id" in tok for tok in record["tokens"]):
            word_ids = [tok.get("word_id", t) for t, tok in enumerate(record["tokens"])]
        for j, name in enumerate(names):
            m = pdm.fullmatch(name)
            if m:
                k = _class_index(m.group(1), classes)
                b = round(float(m.group(2)) * bins)
                want = _pdm_cell(probs, anchor, start, end, k, b, bins, config["decay_rate"])
            else:
                m = stat.fullmatch(name)
                if not m or m.group(1) not in SCOPES:
                    continue
                k = _class_index(m.group(2), classes)
                positions = _scope(m.group(1), len(probs), anchor, start, end,
                                   word_ids, config["neighbor_window"])
                column = [probs[t][k] for t in positions]
                if not column:
                    want = 0.0
                elif m.group(3) == "max_prob":
                    want = max(column)
                else:
                    want = sum(column) / len(column)
            if not _close(values[i][j], want):
                _fail(f"row {i} ({chunk_id} [{start}, {end}]) {name}: "
                      f"features.csv {values[i][j]!r}, recomputed {want!r}")
