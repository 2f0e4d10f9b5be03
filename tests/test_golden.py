"""Golden artifacts: every output of the CLI jobs on a fixed corpus,
pinned by sha256.

A refactor that claims byte-identical outputs must keep these hashes.
A change that means to alter an output rewrites them, on purpose, with

    PYTHONPATH=src python tests/test_golden.py --write

and says so. The corpus is generated here, not by ``nrfilter.synth``:
200 training and 60 held-out records of 2 entity types (K=5), each with
0-4 spans, including spans at the first and last token, records without
spans, and integer, string and absent word ids. The ``baseline`` grids
run on the held-out records, ``mcdropout`` over two noisy passes of them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from nrfilter.cli import EXIT_OK, main

HASHES = os.path.join(os.path.dirname(__file__), "data", "golden_hashes.json")
CLASSES = ["O", "B-Drug", "I-Drug", "B-Dose", "I-Dose"]


def _record(rng: np.random.Generator, index: int) -> dict:
    T = int(rng.integers(3, 41))
    probs = rng.dirichlet([8.0, 0.3, 0.3, 0.3, 0.3], size=T)
    # O must win on every context token, or decoding finds stray spans.
    probs[:, 0] = np.maximum(probs[:, 0], 0.6)
    gold = []
    n_spans = int(rng.integers(0, 5))
    cut = sorted(rng.choice(np.arange(T + 1), size=min(2 * n_spans, T + 1), replace=False))
    for start, stop in zip(cut[::2], cut[1::2]):
        stop = min(stop, start + 3)
        entity = int(rng.integers(0, 2))
        is_gold = rng.random() < 0.6
        for t in range(start, stop):
            # A true positive tends to be the more confident one.
            row = rng.dirichlet([0.5] * 5) * 0.3
            boost = (1.0, 1.5) if is_gold else (0.4, 0.6)
            row[1 + 2 * entity + (t > start)] += rng.uniform(*boost)
            probs[t] = row
        if is_gold:
            gold.append({"entity_type": ("Drug", "Dose")[entity],
                         "start": int(start), "end": int(stop - 1)})
    if T > 4 and rng.random() < 0.2:
        gold.append({"entity_type": "Drug", "start": T - 2, "end": T - 1})  # never predicted
    probs /= probs.sum(axis=1, keepdims=True)
    kind = index % 3
    tokens = []
    for t in range(T):
        tok = {"text": f"w{index}-{t}", "probs": probs[t].tolist()}
        if kind == 1:
            tok["word_id"] = t // 2
        elif kind == 2:
            tok["word_id"] = f"w{(t + 1) // 3}"
        tokens.append(tok)
    record = {"id": f"g{index:04d}", "classes": CLASSES, "tokens": tokens, "gold_spans": gold}
    if not gold:
        record["label"] = "weak"  # supervises the spans of a record without gold spans
    return record


def write_corpus(path: str, n: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as handle:
        for index in range(n):
            handle.write(json.dumps(_record(rng, index)) + "\n")


def write_pass(src: str, dst: str, seed: int) -> None:
    """A stochastic forward pass over ``src``'s records: the same tokens,
    each probability row scaled by log-normal noise and renormalized."""
    rng = np.random.default_rng(seed)
    with open(src, "r", encoding="utf-8") as source, open(dst, "w", encoding="utf-8") as out:
        for line in source:
            record = json.loads(line)
            for token in record["tokens"]:
                p = np.asarray(token["probs"]) * rng.lognormal(0.0, 0.2, len(token["probs"]))
                token["probs"] = (p / p.sum()).tolist()
            out.write(json.dumps(record) + "\n")


# Each baseline method's grid arguments; values on either side of the
# corpus's scores and at the ends of each domain.
BASELINES = {
    "softmax": ["--grid", "0,0.5,0.7,0.9,0.95,1"],
    "temp": ["--grid", "0.5,1,2,4"],
    "entropy": ["--grid", "0,0.2,0.5,1"],
    "mcdropout": ["--grid", "0,0.3,0.6,1", "--var-grid", "0,0.001,0.01"],
}


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == EXIT_OK, argv
    return out.getvalue()


def artifacts(root: str) -> dict[str, str]:
    """Run every job under ``root``; returns {artifact: sha256}."""

    def path(name: str) -> str:
        return os.path.join(root, name)

    write_corpus(path("train.jsonl"), 200, 11)
    write_corpus(path("heldout.jsonl"), 60, 12)
    _cli("pipeline", "--corpus", path("train.jsonl"), "--out-dir", path("run"))
    _cli("train", "--features", path("run/features.csv"), "--model", path("retrain.json"))
    _cli("tune", "--model", path("retrain.json"), "--features", path("run/features.csv"))
    model = path("run/model.json")
    _cli("classify", "--input", path("heldout.jsonl"), "--model", model,
         "--out", path("classify.jsonl"))
    _cli("classify", "--input", path("heldout.jsonl"), "--model", model,
         "--out", path("classify_no_path.jsonl"), "--no-path")
    _cli("featurize", "--input", path("heldout.jsonl"), "--out", path("heldout.csv"),
         "--dump-pdm", path("heldout_pdm.jsonl"))
    with open(path("explain.txt"), "w", encoding="utf-8") as handle:
        handle.write(_cli("explain", "--model", model, "--record", path("heldout.jsonl")))
    write_pass(path("heldout.jsonl"), path("pass1.jsonl"), 13)
    write_pass(path("heldout.jsonl"), path("pass2.jsonl"), 14)
    for method, grid in BASELINES.items():
        passes = ["--passes", f"{path('pass1.jsonl')},{path('pass2.jsonl')}"]
        _cli("baseline", "--method", method, "--input", path("heldout.jsonl"), *grid,
             *(passes if method == "mcdropout" else []), "--out", path(f"baseline_{method}.csv"))
    names = ("run/features.csv", "run/model.json", "run/predictions.jsonl", "run/report.json",
             "retrain.json", "classify.jsonl", "classify_no_path.jsonl", "heldout.csv",
             "heldout_pdm.jsonl", "explain.txt", *(f"baseline_{m}.csv" for m in BASELINES))
    hashes = {}
    for name in names:
        with open(path(name), "rb") as handle:
            hashes[name] = hashlib.sha256(handle.read()).hexdigest()
    return hashes


def test_artifacts_match_golden_hashes(tmp_path):
    with open(HASHES, "r", encoding="utf-8") as handle:
        want = json.load(handle)
    assert artifacts(str(tmp_path)) == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with open(HASHES, "r", encoding="utf-8") as handle:
        old = json.load(handle)
    with tempfile.TemporaryDirectory() as root:
        hashes = artifacts(root)
    with open(HASHES, "w", encoding="utf-8") as handle:
        json.dump(hashes, handle, indent=2, sort_keys=True)
        handle.write("\n")
    changed = [name for name in sorted(hashes) if old.get(name) != hashes[name]]
    for name in changed:
        print(f"{name}: {old.get(name)} → {hashes[name]}")
    print(f"{len(changed)} changed, {len(hashes) - len(changed)} unchanged -> {HASHES}")
