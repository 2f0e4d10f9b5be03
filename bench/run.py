"""nrfilter benchmark: pipeline, retrain and streaming classify on seeded corpora.

    python3 bench/run.py --workload long-notes --seed 1 --seconds 60 --trace 0

Runs from the root of a source checkout with only Python and numpy; the
program is run from ``src/`` as ``python3 -m nrfilter``, one process at a
time, each with one thread. A round runs the jobs a user of nrfilter runs:

- ``pipeline`` on the training corpus (featurize, train, tune, predict, report);
- ``train`` + ``tune`` over that run's features.csv (the re-fit loop);
- ``classify`` streaming over a held-out corpus, decision paths on;
- two one-record ``classify`` processes, whose wall time is set-up time;
- one ``train`` on a fixed two-value feature table that makes CART split
  between adjacent doubles; it fails on every run today (see README.md).

Rounds repeat until ``--seconds`` is used up (at least four), cycling
over three training corpora of the seed; the figures are medians over the
rounds, and each job's wall time is scaled to the host's reference speed
by calibration loops timed around it. Every output is checked outside
the timed region; the last line of stdout is one JSON object with the
end-to-end metrics (``--trace 0``) or, from a separate traced run of the
same rounds, the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

import checks
import corpora

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, ".work")

# Training corpora per run: round r runs on part r % PARTS, so every
# figure is a median over several corpora of the seed, not one.
PARTS = 3
# Every part once, and one part again for the determinism check.
MIN_ROUNDS = PARTS + 1
IMPORT_PROBES = 3
FEATURE_SAMPLE = 40
# Artifacts that must be byte-identical in every round on one training corpus.
DETERMINISTIC = ("run/features.csv", "run/model.json", "run/predictions.jsonl",
                 "run/report.json", "retrain/model.json", "classify.jsonl")

# The reference machine's host runs everything up to twice as slow in
# stretches of seconds to minutes. Every job's wall time is therefore
# scaled to the host's reference speed by a fixed loop of the same kind
# of work (JSON decode, small numpy arrays, dict updates), timed before
# the first job and after every job: scaled = wall * REF / the mean loop
# time of the CALIBRATION_WINDOW loops on either side of the job.
CALIBRATION_REPS = 450
CALIBRATION_REF_S = 0.15
CALIBRATION_WINDOW = 3
_CAL_ROWS = [[((i * 7919 + j * 104729) % 1000) / 1000.0 for j in range(7)] for i in range(120)]
_CAL_TEXT = json.dumps({"tokens": [{"text": f"w{i}", "probs": r}
                                   for i, r in enumerate(_CAL_ROWS)]})


def calibrate() -> float:
    """Wall seconds of the fixed calibration loop, now."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(CALIBRATION_REPS):
        obj = json.loads(_CAL_TEXT)
        probs = np.array([t["probs"] for t in obj["tokens"]])
        acc += float(probs.argmax(axis=1).sum()) + float(np.sort(probs, axis=1)[:, -1].sum())
        counts: dict = {}
        for t in obj["tokens"]:
            counts[t["text"][-1]] = counts.get(t["text"][-1], 0.0) + t["probs"][0] * t["probs"][1]
        acc += sum(counts.values()) + len(json.dumps(counts))
    if acc < 0:
        raise AssertionError("calibration loop")
    return time.perf_counter() - start


class Timed(NamedTuple):
    wall: float  # seconds
    before: int  # index of the calibration loop timed just before the job


class Runner:
    """Starts one nrfilter process at a time and records wall time, peak
    RSS and exit code, with a calibration loop after each; in traced mode
    through traced_cli.py."""

    def __init__(self, work: str, trace: bool):
        self.work = work
        self.trace = trace
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failed = 0
        self.span_files: list[str] = []
        self.proc: subprocess.Popen | None = None
        self.calibrations: list[float] = []

    def run(self, job: str, args: list[str], traced: bool = True) -> tuple[Timed, float, int]:
        """Run one job; returns (its timing, peak RSS MiB, exit code)."""
        if not self.calibrations:
            self.calibrations.append(calibrate())
        before = len(self.calibrations) - 1
        if self.trace and traced:
            spans = os.path.join(self.work, f"spans-{len(self.span_files)}.json")
            self.span_files.append(spans)
            cmd = [sys.executable, os.path.join(BENCH, "traced_cli.py"), spans, job, "--", *args]
        else:
            cmd = [sys.executable, "-m", "nrfilter", *args]
        with open(os.path.join(self.work, "stderr.txt"), "w", encoding="utf-8") as err:
            start = time.perf_counter()
            self.proc = subprocess.Popen(cmd, env=self.env, cwd=self.work,
                                         stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(self.proc.pid, 0)
            wall = time.perf_counter() - start
        self.proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.proc = None
        self.attempted += 1
        if code != 0:
            self.failed += 1
        self.calibrations.append(calibrate())
        return Timed(wall, before), usage.ru_maxrss / 1024.0, code

    def scaled(self, timed: Timed) -> float:
        """A job's wall time at the host's reference speed."""
        window = self.calibrations[max(0, timed.before + 1 - CALIBRATION_WINDOW):
                                   timed.before + 1 + CALIBRATION_WINDOW]
        return timed.wall * CALIBRATION_REF_S / statistics.fmean(window)

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def tail(path: str, n: int = 5) -> str:
    with open(path, encoding="utf-8", errors="replace") as handle:
        return "".join(handle.readlines()[-n:])


def read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_tie_split_csv(path: str) -> None:
    """A feature table whose one column holds two adjacent doubles, the
    lower with an odd last mantissa bit, so the midpoint threshold rounds
    onto the upper value and the split leaves one child empty. Real
    features land here too: a CoV over a scope with one nonzero entry is
    sqrt(n - 1), computed to within an ulp or two."""
    low, high = 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51
    assert (low + high) / 2.0 == high
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(checks.META_COLS) + ",Context_I-tag_cov_prob\n")
        for i in range(10):
            label, value = ("strong", low) if i < 5 else ("weak", high)
            handle.write(f"tie-{i},X,0,0,0,{label},{value!r}\n")


def prepare(work: str, spec: corpora.CorpusSpec, seed: int, part: int = 0):
    """Write every input of a round; returns the training and held-out truth."""
    train = corpora.write_corpus(os.path.join(work, "train.jsonl"), spec, seed, False, part)
    heldout = corpora.write_corpus(os.path.join(work, "heldout.jsonl"), spec, seed, True)
    with open(os.path.join(work, "heldout.jsonl"), encoding="utf-8") as src, \
            open(os.path.join(work, "one.jsonl"), "w", encoding="utf-8") as dst:
        dst.write(src.readline())
    write_tie_split_csv(os.path.join(work, "tie_split.csv"))
    return train, heldout


def prepare_parts(work: str, spec: corpora.CorpusSpec, seed: int) -> list[tuple]:
    """One directory per training corpus, each with a copy of the shared
    held-out inputs; returns (directory, training truth, held-out truth)."""
    parts: list[tuple] = []
    for part in range(PARTS):
        part_dir = os.path.join(work, f"part{part}")
        os.makedirs(part_dir)
        if part == 0:
            train, heldout = prepare(part_dir, spec, seed)
        else:
            train = corpora.write_corpus(os.path.join(part_dir, "train.jsonl"), spec, seed,
                                         False, part)
            for name in ("heldout.jsonl", "one.jsonl", "tie_split.csv"):
                shutil.copyfile(os.path.join(parts[0][0], name), os.path.join(part_dir, name))
        parts.append((part_dir, train, heldout))
    return parts


def run_round(runner: Runner) -> dict:
    """One round of every job; returns walls, RSS and failed jobs."""
    for name in ("run", "retrain"):
        shutil.rmtree(os.path.join(runner.work, name), ignore_errors=True)
    os.makedirs(os.path.join(runner.work, "retrain"))
    out: dict = {"failed": [], "setup": [], "import": [], "walls": {}}

    def job(name, args, traced=True):
        timed, rss, code = runner.run(name, args, traced)
        out["walls"].setdefault(name, []).append([round(timed.wall, 4), timed.before])
        if code != 0:
            out["failed"].append(name)
            if name != "tie-split":
                print(f"{name} exited {code}:\n{tail(os.path.join(runner.work, 'stderr.txt'))}",
                      file=sys.stderr)
        return timed, rss

    def setup():
        out["setup"].append(job("setup", ["classify", "--input", "one.jsonl", "--model",
                                          "run/model.json", "--out", "one_out.jsonl"])[0])

    # Set-up probes sit between the long jobs, so that a stretch of host
    # contention does not slow all of them at once.
    out["pipeline"], out["pipeline_rss"] = job(
        "pipeline", ["pipeline", "--corpus", "train.jsonl", "--out-dir", "run"])
    setup()
    train, _ = job("train", ["train", "--features", "run/features.csv",
                             "--model", "retrain/model.json"])
    tune, _ = job("tune", ["tune", "--model", "retrain/model.json",
                           "--features", "run/features.csv"])
    out["retrain"] = (train, tune)
    out["classify"], out["classify_rss"] = job(
        "classify", ["classify", "--input", "heldout.jsonl", "--model", "run/model.json",
                     "--out", "classify.jsonl"])
    setup()
    job("tie-split", ["train", "--features", "tie_split.csv", "--model", "tie_model.json"],
        traced=False)
    if runner.trace:
        code = "import time; t = time.perf_counter(); import nrfilter; " \
               "print(time.perf_counter() - t)"
        for _ in range(IMPORT_PROBES):
            probe = subprocess.run([sys.executable, "-c", code], env=runner.env, cwd=runner.work,
                                   capture_output=True, text=True, check=True)
            out["import"].append(float(probe.stdout) * 1e3)
    out["hashes"] = {p: sha256(os.path.join(runner.work, p)) for p in DETERMINISTIC
                     if os.path.exists(os.path.join(runner.work, p))}
    return out


def scale_rounds(runner: Runner, rounds: list[dict]) -> None:
    """Replace each round's job timings by host-scaled seconds; needs the
    calibration loops timed after the round's last job."""
    for r in rounds:
        for key in ("pipeline", "classify"):
            r[key] = runner.scaled(r[key])
        r["retrain"] = sum(runner.scaled(t) for t in r["retrain"])
        r["setup"] = [runner.scaled(t) for t in r["setup"]]


def verify(work: str, rounds: list[dict], train_truth, heldout_truth, seed: int) -> None:
    """Every correctness check; raises checks.CheckFailed."""
    def path(name: str) -> str:
        return os.path.join(work, name)

    for r in rounds[1:]:
        for name, digest in rounds[0]["hashes"].items():
            if r["hashes"].get(name) != digest:
                raise checks.CheckFailed(f"{name} differs between rounds on one corpus")
    truth = {p.key: p.is_tp for p in train_truth}
    held = {p.key: p.is_tp for p in heldout_truth}
    model = read_json(path("run/model.json"))
    retrained = read_json(path("retrain/model.json"))
    report = read_json(path("run/report.json"))
    predictions = checks.read_jsonl(path("run/predictions.jsonl"))
    classified = checks.read_jsonl(path("classify.jsonl"))
    names, meta, values = checks.read_features(path("run/features.csv"))

    checks.check_span_set(predictions, truth, "predictions.jsonl")
    checks.check_span_set(classified, held, "classify output")
    checks.check_labels(meta, truth)
    for lines, what in ((predictions, "predictions.jsonl"), (classified, "classify output")):
        checks.check_verdicts(lines, model["decision_threshold"], what)
        checks.check_paths(lines, model, what)
    checks.check_walk_over_features(model, names, meta, values, predictions)
    checks.check_tp_budget(report, model)
    checks.check_report_drops(report, predictions, truth)
    checks.check_features(path("train.jsonl"), names, meta, values, report["config"],
                          FEATURE_SAMPLE, seed)
    checks.check_retrain_budget(retrained, names, meta, values)


def end_to_end(part_dirs: list[str], rounds: list[dict], n_heldout: int) -> dict:
    setup = statistics.median(w for r in rounds for w in r["setup"])
    rates = [(n_heldout - 1) / (r["classify"] - setup) for r in rounds]
    fp_drop = statistics.median(read_json(os.path.join(d, "run/report.json"))
                                ["validation"]["fp_drop_pct"] for d in part_dirs)
    nodes = statistics.median(len(read_json(os.path.join(d, "run/model.json"))["nodes"])
                              for d in part_dirs)

    def med(key: str) -> float:
        return statistics.median(r[key] for r in rounds)

    return {
        "setup_s": (setup, "s"),
        "pipeline_s": (med("pipeline"), "s"),
        "retrain_s": (med("retrain"), "s"),
        "classify_rec_per_s": (statistics.median(rates), "records/s"),
        "classify_peak_rss_mb": (med("classify_rss"), "MB"),
        "pipeline_peak_rss_mb": (med("pipeline_rss"), "MB"),
        "fp_drop_pct": (fp_drop, "%"),
        "tree_nodes": (nodes, "count"),
    }


# Per-layer metric -> (span name, statistic, unit). "total" and "self" are
# span time per call; "total/count" and "self/count" per unit of work the
# span reported (records, rows or spans); "count" is work per round and
# "count/call" work per call.
LAYERS = {
    "core.read_json_us_per_rec": ("core.iter_records", "self/count", "us"),
    "core.parse_record_us_per_rec": ("core.parse_record", "total", "us"),
    "core.validate_chunk_us_per_rec": ("core.validate_chunk", "total", "us"),
    "core.decode_spans_us_per_rec": ("core.decode_spans", "total", "us"),
    "core.tokens": ("core.parse_record", "count", "count"),
    "core.spans": ("core.decode_spans", "count", "count"),
    "pdm.compute_pdm_us_per_span": ("pdm.compute_pdm", "total", "us"),
    "features.build_scopes_us_per_span": ("features.build_scopes", "total", "us"),
    "features.assemble_self_us_per_span": ("features.assemble_features", "self", "us"),
    "features.write_csv_us_per_row": ("features.write_feature_csv", "self/count", "us"),
    "features.read_csv_us_per_row": ("features.read_feature_csv", "total/count", "us"),
    "tree.train_matrix_s": ("tree.train_matrix", "total", "s"),
    "tree.tune_threshold_ms": ("tree.tune_threshold", "total", "ms"),
    "tree.explain_us_per_span": ("tree.explain", "self", "us"),
    "tree.path_serialize_us_per_span": ("tree.path_serialize", "total", "us"),
    "tree.mean_path_depth": ("tree.explain", "count/call", "count"),
    "tree.load_model_ms": ("tree.load_model", "total", "ms"),
    "pipeline.run_pipeline_self_s": ("pipeline.run_pipeline", "self", "s"),
    "pipeline.stream_classify_self_us_per_span": ("pipeline.stream_classify", "self/count", "us"),
    "metrics.entity_f1_ms": ("metrics.entity_f1", "total", "ms"),
}
NS_PER = {"us": 1e3, "ms": 1e6, "s": 1e9}


def per_layer(runner: Runner, rounds: list[dict]) -> dict:
    """Aggregate the spans of every traced job into per-layer numbers.

    A layer's self time is its span time minus that of its child spans.
    The one-record set-up jobs count only towards tree.load_model, which
    counts only the jobs that classify."""
    # (span name, pooled jobs) -> [calls, total ns, self ns, summed count]
    acc: dict = defaultdict(lambda: [0, 0, 0, 0])
    for spans_path in runner.span_files:
        with open(spans_path, encoding="utf-8") as handle:
            data = json.load(handle)
        spans = data["spans"]
        child = [0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _, count) in enumerate(spans):
            if name == "tree.load_model":
                if data["job"] not in ("classify", "setup"):
                    continue
            elif data["job"] == "setup":
                continue
            a = acc[name]
            a[0] += 1
            a[1] += end - start
            a[2] += end - start - child[i]
            a[3] += count or 0

    metrics = {}
    for metric, (name, stat, unit) in LAYERS.items():
        calls, total, own, count = acc[name]
        what, _, per = stat.partition("/")
        num = {"total": total, "self": own, "count": count}[what]
        den = count if per == "count" else calls
        if stat == "count":
            value = count / len(rounds)
        else:
            value = num / den / NS_PER.get(unit, 1.0) if den else 0.0
        metrics[metric] = (value, unit)
    metrics["cli.import_ms"] = (statistics.median(v for r in rounds for v in r["import"]), "ms")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpora.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nrfilter", "__init__.py")):
        print(f"error: no nrfilter sources under {SRC}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through the finally below, which stops the
    # running job and removes the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = corpora.WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(work, bool(args.trace))
    try:
        parts = prepare_parts(work, spec, args.seed)
        # Fill the byte-code cache before anything is timed.
        subprocess.run([sys.executable, "-m", "nrfilter", "--version"], env=runner.env,
                       cwd=work, stdout=subprocess.DEVNULL, check=True)

        rounds: list[dict] = []
        start = time.perf_counter()
        while True:
            part = len(rounds) % PARTS
            runner.work = parts[part][0]
            rounds.append(dict(run_round(runner), part=part))
            # Stop before a round that would, at the mean pace, end past --seconds.
            pace = (time.perf_counter() - start) / len(rounds)
            if len(rounds) >= MIN_ROUNDS and pace * (len(rounds) + 1) > args.seconds:
                break

        # More loops, so that the last job has a full window after it.
        runner.calibrations += [calibrate() for _ in range(CALIBRATION_WINDOW - 1)]
        scale_rounds(runner, rounds)
        unexpected = sorted({f for r in rounds for f in r["failed"] if f != "tie-split"})
        correct = True
        try:
            if unexpected:
                raise checks.CheckFailed(f"jobs failed: {unexpected}")
            for part, (part_dir, train_truth, heldout_truth) in enumerate(parts):
                verify(part_dir, [r for r in rounds if r["part"] == part], train_truth,
                       heldout_truth, args.seed)
        except checks.CheckFailed as exc:
            correct = False
            print(f"check failed: {exc}", file=sys.stderr)

        metrics = {}
        if correct:
            metrics = end_to_end([p[0] for p in parts], rounds, spec.n_heldout)
        if correct and args.trace:
            # The traced walls against an untraced run give the tracing overhead.
            print("traced walls: " + json.dumps({k: metrics[k][0] for k in (
                "setup_s", "pipeline_s", "retrain_s", "classify_rec_per_s")}))
            metrics = per_layer(runner, rounds)
        print("rounds, scaled: " + json.dumps(
            [{k: r[k] for k in ("pipeline", "retrain", "classify", "setup")} for r in rounds]))
        print("rounds, wall: " + json.dumps([r["walls"] for r in rounds]))
        print("calibration loops: " + json.dumps([round(c, 4) for c in runner.calibrations]))
        print(f"calibration loop: median {statistics.median(runner.calibrations):.4f} s, "
              f"reference {CALIBRATION_REF_S} s")
        print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds in "
              f"{time.perf_counter() - start:.1f} s")
        result = {
            "correct": correct,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        runner.stop()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
