"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Runs one round of every job on a small long-notes corpus, requires every
check to pass on the real outputs, then feeds the checks corrupted copies
and requires each corruption to be caught: one flipped verdict, one
perturbed feature cell, one spurious span and a report whose TP drop is
over budget. Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import shutil
import sys

import checks
import corpora
import run

SEED = 5


def corrupt_verdict(work: str) -> None:
    lines = checks.read_jsonl(os.path.join(work, "classify.jsonl"))
    lines[0]["verdict"] = "strong" if lines[0]["verdict"] == "weak" else "weak"
    _write_jsonl(os.path.join(work, "classify.jsonl"), lines)


def corrupt_feature(work: str) -> None:
    path = os.path.join(work, "run", "features.csv")
    names, meta, values = checks.read_features(path)
    row = checks.sampled_rows(len(meta), run.FEATURE_SAMPLE, SEED)[0]
    col = max((j for j, n in enumerate(names) if n.startswith("PDM_")),
              key=lambda j: values[row][j])
    values[row][col] *= 1.0 + 1e-9
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(checks.META_COLS) + names)
        for cells, vals in zip(meta, values):
            writer.writerow(cells + [repr(v) for v in vals])


def corrupt_span(work: str) -> None:
    lines = checks.read_jsonl(os.path.join(work, "classify.jsonl"))
    extra = dict(lines[0], entity_type="Spurious")
    _write_jsonl(os.path.join(work, "classify.jsonl"), lines + [extra])


def corrupt_report(work: str) -> None:
    path = os.path.join(work, "run", "report.json")
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    with open(os.path.join(work, "run", "model.json"), encoding="utf-8") as handle:
        budget = 100.0 * json.load(handle)["config"]["max_tp_drop"]
    report["validation"]["tp_drop_pct"] = budget + 0.5
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)


def _write_jsonl(path: str, lines: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for obj in lines:
            handle.write(json.dumps(obj) + "\n")


CORRUPTIONS = (
    ("flipped verdict", corrupt_verdict, "verdict"),
    ("perturbed feature cell", corrupt_feature, "recomputed"),
    ("spurious span", corrupt_span, "span set differs"),
    ("TP drop over budget", corrupt_report, "exceeds the budget"),
)


def main() -> int:
    spec = dataclasses.replace(corpora.WORKLOADS["long-notes"], n_train=80, n_heldout=10)
    work = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = run.Runner(work, trace=False)
    try:
        train, held = run.prepare(work, spec, SEED)
        rounds = [run.run_round(runner)]
        if [f for f in rounds[0]["failed"] if f != "tie-split"]:
            print(f"selftest: jobs failed: {rounds[0]['failed']}", file=sys.stderr)
            return 1
        run.verify(work, rounds, train, held, SEED)
        print("checks pass on the real outputs")

        pristine = os.path.join(work, "pristine")
        shutil.copytree(work, pristine, ignore=shutil.ignore_patterns("pristine"))
        missed = []
        for name, corrupt, expect in CORRUPTIONS:
            corrupt(work)
            try:
                run.verify(work, rounds, train, held, SEED)
                missed.append(name)
                print(f"NOT caught: {name}")
            except checks.CheckFailed as exc:
                if expect not in str(exc):
                    missed.append(name)
                    print(f"caught by the wrong check: {name}: {exc}")
                else:
                    print(f"caught: {name}: {exc}")
            for sub in ("classify.jsonl", "run"):
                src, dst = os.path.join(pristine, sub), os.path.join(work, sub)
                if os.path.isdir(src):
                    shutil.rmtree(dst)
                    shutil.copytree(src, dst)
                else:
                    shutil.copy(src, dst)
        return 1 if missed else 0
    finally:
        runner.stop()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
