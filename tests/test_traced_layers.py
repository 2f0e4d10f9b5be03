"""The benchmark's traced launcher still finds the program's layers.

``bench/traced_cli.py`` wraps functions by the module-level names their
callers look up, and a name that is gone is skipped, so its layer reads
0 without failing the run. This runs the launcher on a small corpus for
each job the benchmark traces and checks that each layer those jobs
reach still records at least one span.
"""

import json
import os
import subprocess
import sys

from nrfilter import SynthConfig, iter_generate, write_records

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACED_CLI = os.path.join(ROOT, "bench", "traced_cli.py")

# The launcher's layers that these jobs reach. Its other layers wrap
# names the program no longer has (ROADMAP item 1).
LAYERS = (
    "core.iter_records", "core.parse_record", "core.validate_chunk", "core.decode_spans",
    "features.write_feature_csv", "features.read_feature_csv",
    "tree.train_matrix", "tree.load_model",
    "metrics.entity_f1",
    "pipeline.run_pipeline", "pipeline.stream_classify",
)


def traced(tmp_path, job, *args):
    """The span names of one traced CLI run."""
    out = tmp_path / f"{job}.spans.json"
    proc = subprocess.run([sys.executable, TRACED_CLI, str(out), job, "--", *map(str, args)],
                          cwd=str(tmp_path), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    with open(out, "r", encoding="utf-8") as handle:
        return [span[0] for span in json.load(handle)["spans"]]


def test_every_traced_layer_records_spans(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_records(str(corpus), iter_generate(SynthConfig(n_strong=60, n_weak=60, seed=3)))
    run, model = tmp_path / "run", tmp_path / "retrain.json"
    names = traced(tmp_path, "pipeline", "pipeline", "--corpus", corpus, "--out-dir", run)
    names += traced(tmp_path, "train", "train", "--features", run / "features.csv",
                    "--model", model)
    names += traced(tmp_path, "tune", "tune", "--features", run / "features.csv",
                    "--model", model)
    names += traced(tmp_path, "classify", "classify", "--input", corpus,
                    "--model", run / "model.json", "--out", tmp_path / "verdicts.jsonl")
    missing = [layer for layer in LAYERS if layer not in names]
    assert not missing, f"layers that recorded no span: {missing}"
