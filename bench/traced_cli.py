"""Run one nrfilter CLI command with spans recorded around its layers.

    python3 bench/traced_cli.py SPANS_OUT JOB -- <nrfilter arguments>

The program's source is not edited: before the command runs, the public
functions of each module are wrapped where their callers look them up
(``nrfilter.pipeline.assemble_features``, ``nrfilter.features.compute_pdm``
and so on). Each wrapper records a span (name, start ns, end ns, parent
span, record index, count) in memory; the spans are written to SPANS_OUT
as JSON when the command ends. A function that no longer exists is not
wrapped, so its layer reports zero calls rather than failing the run.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (span name, module where the caller looks the name up, attribute, count)
# ``count`` maps a call's result to the work it did: records, tokens,
# spans, rows or path steps.
WRAPPED = (
    ("core.parse_record", "nrfilter.core", "parse_record", lambda r: r.chunk.n_tokens),
    ("core.validate_chunk", "nrfilter.core", "validate_chunk", None),
    ("core.decode_spans", "nrfilter.pipeline", "decode_spans", len),
    ("pdm.compute_pdm", "nrfilter.features", "compute_pdm", None),
    ("features.build_scopes", "nrfilter.features", "build_scopes", None),
    ("features.assemble_features", "nrfilter.pipeline", "assemble_features", None),
    ("features.write_feature_csv", "nrfilter.pipeline", "write_feature_csv", lambda n: n),
    ("features.read_feature_csv", "nrfilter.cli", "read_feature_csv",
     lambda t: t.matrix.shape[0]),
    ("tree.train_matrix", "nrfilter.pipeline", "train_matrix", None),
    ("tree.train_matrix", "nrfilter.cli", "train_matrix", None),
    ("tree.tune_threshold", "nrfilter.pipeline", "tune_threshold", None),
    ("tree.tune_threshold", "nrfilter.cli", "tune_threshold", None),
    ("tree.explain", "nrfilter.pipeline", "explain", lambda p: len(p.steps)),
    ("tree.load_model", "nrfilter.cli", "load_model", None),
    ("metrics.entity_f1", "nrfilter.pipeline", "entity_f1", None),
    ("pipeline.run_pipeline", "nrfilter.cli", "run_pipeline", None),
    ("pipeline.stream_classify", "nrfilter.cli", "stream_classify", lambda c: sum(c.values())),
)
# Generators: one span per record pulled, covering line read + json.loads
# and the parse/validate children.
WRAPPED_ITERATORS = (
    ("core.iter_records", "nrfilter.pipeline", "iter_records"),
    ("core.iter_records", "nrfilter.cli", "iter_records"),
)


class Tracer:
    """Spans of one process: kept in memory, written once at the end."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.record = -1

    def _open(self) -> tuple[int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid, name, parent, start, count):
        self.stack.pop()
        self.spans[sid] = (name, start, time.perf_counter_ns(), parent, self.record, count)

    def wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter_ns()
            n = None
            try:
                result = fn(*args, **kwargs)
                n = count(result) if count else 1
                return result
            finally:
                self._close(sid, name, parent, start, n)

        return traced

    def wrap_iterator(self, name, fn):
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self.record += 1
                sid, parent = self._open()
                start = time.perf_counter_ns()
                try:
                    item = next(it)
                except StopIteration:
                    self._close(sid, name, parent, start, 0)
                    return
                except BaseException:
                    self._close(sid, name, parent, start, 0)
                    raise
                self._close(sid, name, parent, start, 1)
                yield item

        return traced

    def install(self) -> None:
        for name, module_name, attr, count in WRAPPED:
            module = _module(module_name)
            if module is not None and callable(getattr(module, attr, None)):
                setattr(module, attr, self.wrap(name, getattr(module, attr), count))
        for name, module_name, attr in WRAPPED_ITERATORS:
            module = _module(module_name)
            if module is not None and callable(getattr(module, attr, None)):
                setattr(module, attr, self.wrap_iterator(name, getattr(module, attr)))
        tree = _module("nrfilter.tree")
        path_cls = getattr(tree, "DecisionPath", None)
        if path_cls is not None and callable(getattr(path_cls, "serialize", None)):
            path_cls.serialize = self.wrap("tree.path_serialize", path_cls.serialize, None)


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def main(argv: list[str]) -> int:
    spans_out, job, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_OUT JOB -- <nrfilter arguments>")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import nrfilter.cli

    tracer = Tracer()
    tracer.install()
    code = nrfilter.cli.main(args)
    # One dumps + write: json.dump's chunked writes cost four times as much.
    text = json.dumps({"job": job, "spans": tracer.spans}, separators=(",", ":"))
    with open(spans_out, "w", encoding="utf-8") as handle:
        handle.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
