"""Batch command-line interface over the filtering pipeline.

Subcommands: validate, decode, featurize, synth, train, tune, classify,
explain, evaluate, baseline, pipeline. Every error class maps to its own
exit code so shell pipelines can tell what went wrong. NRF_LOG sets the
log level.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import os
import sys
from dataclasses import fields, replace

from . import __version__
from .core import (
    ORPHAN_POLICIES,
    STRONG,
    WEAK,
    config_kwargs,
    decode_spans,
    is_utf8,
    iter_records,
    read_config_file,
    span_from_obj,
    span_to_obj,
    write_records,
)
from .errors import (
    InvalidConfig,
    NrFilterError,
    ParseError,
    ProbabilityOutOfRange,
    ProbabilitySumViolation,
    SchemaMismatch,
)
from .baselines import baseline_grid
from .features import feature_row_obj, read_feature_csv, write_feature_csv
from .metrics import EntityCounts, drop_pcts, entity_f1, format_drop_table
from .pdm import ProbabilityDensityMap, grid_to_obj
from .pipeline import (
    PipelineConfig,
    featurize_records,
    _tp_flags,
    run_pipeline,
    stream_classify,
)
from .synth import SynthConfig, iter_generate
from .tree import (
    TrainConfig,
    load_model,
    save_model,
    train_matrix,
    tune_threshold,
)

log = logging.getLogger("nrfilter")

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_VALIDATION = 5
EXIT_SCHEMA = 6
EXIT_CONFIG = 7
EXIT_DOMAIN = 8


def _given(args: argparse.Namespace, config_cls) -> dict:
    """The fields of ``config_cls`` that were set on the command line."""
    values = {f.name: getattr(args, f.name, None) for f in fields(config_cls)}
    return {name: value for name, value in values.items() if value is not None}


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    config = (
        PipelineConfig.from_file(args.config)
        if getattr(args, "config", None)
        else PipelineConfig()
    )
    obj = config.to_obj()
    obj.update(_given(args, PipelineConfig))
    obj["tree"].update(_given(args, TrainConfig))
    return PipelineConfig.from_obj(obj)


def _add_decode_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="pipeline config JSON file")
    sub.add_argument("--orphan-policy", dest="orphan_policy",
                     choices=ORPHAN_POLICIES, default=None)


def _add_feature_flags(sub: argparse.ArgumentParser):
    _add_decode_flags(sub)
    sub.add_argument("--decay-rate", dest="decay_rate", type=float, default=None,
                     help=f"Gaussian decay rate (default {PipelineConfig.decay_rate})")
    sub.add_argument("--bins", type=int, default=None,
                     help=f"density bins (default {PipelineConfig.bins})")
    sub.add_argument("--neighbor-window", dest="neighbor_window", type=int, default=None,
                     help=f"neighbor tokens per side (default {PipelineConfig.neighbor_window})")


@contextlib.contextmanager
def _output(path: str, **kwargs):
    """Open a streaming command's output file. An error inside the block
    removes the file, so a failed command leaves no partial output; a
    symlink such as /dev/stdout is never removed."""
    with open(path, "w", encoding="utf-8", **kwargs) as handle:
        try:
            yield handle
        except BaseException:
            handle.close()
            if os.path.isfile(path) and not os.path.islink(path):
                os.remove(path)
            raise


def cmd_validate(args) -> int:
    n = 0
    for _ in iter_records(args.input, unique_ids=True):
        n += 1
    print(f"ok: {n} records")
    return EXIT_OK


def cmd_decode(args) -> int:
    config = _pipeline_config(args)
    n = 0
    with _output(args.out) as out:
        for record in iter_records(args.input):
            for span in decode_spans(record.chunk, config.orphan_policy):
                out.write(json.dumps(span_to_obj(span)) + "\n")
                n += 1
    print(f"decoded {n} spans -> {args.out}")
    return EXIT_OK


def cmd_featurize(args) -> int:
    config = _pipeline_config(args)

    def blocks(dump):
        records = iter_records(args.input)
        for record, spans, schema, matrix in featurize_records(records, config, batch=True):
            if dump is not None:
                K = record.chunk.schema.K
                for span, values in zip(spans, matrix):
                    # The density block is class-major: (K, bins) -> (bins, K).
                    grid = values[: config.bins * K].reshape(K, config.bins).T
                    pdm = ProbabilityDensityMap(grid, config, span.anchor)
                    obj = {"chunk_id": record.chunk.id, **grid_to_obj(pdm)}
                    dump.write(json.dumps(obj) + "\n")
            yield schema.names, spans, [record.label] * len(spans), matrix

    with _output(args.dump_pdm) if args.dump_pdm else contextlib.nullcontext() as dump:
        if args.format == "csv":
            with _output(args.out, newline="") as out:
                n = write_feature_csv(out, blocks(dump))
        else:
            n = 0
            with _output(args.out) as out:
                for names, spans, labels, matrix in blocks(dump):
                    for span, label, values in zip(spans, labels, matrix):
                        out.write(json.dumps(feature_row_obj(span, label, names, values)) + "\n")
                        n += 1
    print(f"featurized {n} spans -> {args.out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    kwargs = (
        config_kwargs(SynthConfig, read_config_file(args.synth_config), "synth config")
        if args.synth_config
        else {}
    )
    kwargs.update(_given(args, SynthConfig))
    config = SynthConfig(**kwargs)
    n = write_records(args.out, iter_generate(config))
    print(f"generated {n} records -> {args.out}")
    return EXIT_OK


def _read_training_table(features_path: str, labels_path: str | None):
    """The feature table and one "strong"/"weak" label per row, from the
    CSV's label column or from ``labels_path``; any other label is
    InvalidConfig."""
    table = read_feature_csv(features_path)
    if labels_path:
        with open(labels_path, "r", encoding="utf-8", errors="surrogateescape") as handle:
            labels = [line.strip() for line in handle if line.strip()]
        if len(labels) != table.matrix.shape[0]:
            raise SchemaMismatch(
                f"{len(labels)} labels for {table.matrix.shape[0]} feature rows"
            )
    else:
        labels = [label or "" for label in table.labels]
        if any(not label for label in labels):
            raise InvalidConfig(
                "feature CSV has rows without labels; pass --labels"
            )
    bad = next((label for label in labels if label not in (STRONG, WEAK)), None)
    if bad is not None:
        raise InvalidConfig(f"label must be 'strong' or 'weak', got {bad!r}")
    return table, labels


def cmd_train(args) -> int:
    config = _pipeline_config(args)
    table, labels = _read_training_table(args.features, args.labels)
    model = train_matrix(table.matrix, labels, table.names, config.tree)
    save_model(replace(model, featurization=config.featurization), args.model)
    leaves = len(model.leaves)
    print(f"trained tree: {len(model.nodes)} nodes, {leaves} leaves -> {args.model}")
    return EXIT_OK


def cmd_tune(args) -> int:
    model = load_model(args.model)
    table, labels = _read_training_table(args.features, args.labels)
    if table.names != model.feature_names:
        raise SchemaMismatch("the feature CSV's columns differ from the model's features")
    is_tp = [label == STRONG for label in labels]
    result = tune_threshold(model, table.matrix, is_tp, args.max_tp_drop)
    save_model(model.with_threshold(result.threshold), args.model)
    print(
        f"threshold {result.threshold!r}: tp_drop {100 * result.tp_drop:.2f}% "
        f"fp_drop {100 * result.fp_drop:.2f}% "
        f"({result.n_tp} TP / {result.n_fp} FP) -> {args.model}"
    )
    return EXIT_OK


def cmd_classify(args) -> int:
    model = load_model(args.model)
    config = PipelineConfig.from_model(model)
    if args.threshold is not None:
        model = model.with_threshold(args.threshold)
    with _output(args.out) as out:
        counts = stream_classify(
            args.input, model, out, config, include_path=not args.no_path
        )
    print(
        f"classified {counts[STRONG] + counts[WEAK]} spans "
        f"({counts[STRONG]} strong / {counts[WEAK]} weak) -> {args.out}"
    )
    return EXIT_OK


def cmd_explain(args) -> int:
    model = load_model(args.model)
    config = PipelineConfig.from_model(model)
    n_records = shown = 0
    for record, spans, _, matrix in featurize_records(
        iter_records(args.record), config, model.feature_names
    ):
        n_records += 1
        for i, (span, values) in enumerate(zip(spans, matrix)):
            if args.span_index is not None and i != args.span_index:
                continue
            leaf = model.leaf(values)
            p_weak = model.nodes[leaf].p_weak
            print(f"chunk {record.chunk.id} span [{span.start}, {span.end}] "
                  f"{span.text!r} -> {model.verdict(p_weak)} (p_weak={p_weak!r})")
            print("Decision Path:")
            print(model.paths[leaf])
            print()
            shown += 1
    if n_records == 0:
        raise InvalidConfig(f"no records in {args.record}")
    if shown == 0:
        raise InvalidConfig(f"no span was decoded in {args.record}" if args.span_index is None
                            else "no span matched --span-index")
    return EXIT_OK


def _load_spans(path: str, keep_only: bool):
    spans = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not is_utf8(line):
                raise ParseError(line_no, "bytes that are not UTF-8", path)
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise TypeError(f"expected a span object, got {obj!r}")
                if keep_only and obj.get("verdict") == WEAK:
                    continue
                spans.append(span_from_obj(obj))
            except (KeyError, TypeError, ValueError, SchemaMismatch) as exc:
                raise ParseError(line_no, f"not a span: {exc!r}", path) from exc
    return spans


def cmd_evaluate(args) -> int:
    gold = []
    chunk_ids = []
    for record in iter_records(args.gold):
        chunk_ids.append(record.chunk.id)
        gold.extend(record.gold_spans)
    base_spans = _load_spans(args.base, keep_only=False)
    pred_spans = _load_spans(args.pred, keep_only=True)
    base_report = entity_f1(base_spans, gold, chunk_ids)
    filt_report = entity_f1(pred_spans, gold, chunk_ids)

    drops = {
        entity_type: drop_pcts(b, filt_report.per_type.get(entity_type, EntityCounts()))
        for entity_type, b in sorted(base_report.per_type.items())
    }
    table_rows = {t: {"filtered": (d["tp_drop_pct"], d["fp_drop_pct"])} for t, d in drops.items()}
    report = {
        "base": base_report.to_dict(),
        "filtered": filt_report.to_dict(),
        "drops": drops,
        "total_drops": drop_pcts(base_report.totals, filt_report.totals),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(json.dumps(report["total_drops"], sort_keys=True))
    print(format_drop_table(table_rows))
    return EXIT_OK


def _float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise InvalidConfig(f"{flag} must be comma-separated numbers: {exc}") from exc


def cmd_baseline(args) -> int:
    labeled = []
    for record in iter_records(args.input):
        spans = decode_spans(record.chunk)
        for span, is_tp in zip(spans, _tp_flags(record, spans)):
            labeled.append((record.chunk, span, is_tp))
    grid = _float_list(args.grid, "--grid") if args.grid else [0.5, 0.9, 0.95]
    var_grid = _float_list(args.var_grid, "--var-grid") if args.var_grid else None
    passes_by_chunk = None
    if args.passes:
        passes_by_chunk = {}
        for path in args.passes.split(","):
            for record in iter_records(path):
                passes_by_chunk.setdefault(record.chunk.id, []).append(record.chunk)
    rows = baseline_grid(args.method, labeled, grid, passes_by_chunk, var_grid)
    fields = ["method", "threshold", "temperature", "entropy_cutoff",
              "mc_mean_cutoff", "mc_var_cutoff", "tp_drop_pct", "fp_drop_pct",
              "precision", "recall", "f1"]
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    print(f"{len(rows)} configurations -> {args.out}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    config = _pipeline_config(args)
    result = run_pipeline(args.corpus, args.out_dir, config)
    val = result.report["validation"]
    print(
        f"validation: tp_drop {val['tp_drop_pct']:.2f}% fp_drop {val['fp_drop_pct']:.2f}% "
        f"(threshold {result.tune.threshold!r})"
    )
    print(f"artifacts in {args.out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nrfilter",
        description="Filter weak NER predictions with density and uncertainty features.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check a JSONL corpus")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_validate)

    p = subs.add_parser("decode", help="decode argmax tags into entity spans")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    _add_decode_flags(p)
    p.set_defaults(fn=cmd_decode)

    p = subs.add_parser("featurize", help="emit per-span feature vectors")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.add_argument("--dump-pdm", dest="dump_pdm",
                   help="also dump raw density grids as JSONL (debug)")
    _add_feature_flags(p)
    p.set_defaults(fn=cmd_featurize)

    p = subs.add_parser("synth", help="generate a labeled synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--config", dest="synth_config", help="SynthConfig JSON file")
    p.add_argument("--n-strong", dest="n_strong", type=int, default=None)
    p.add_argument("--n-weak", dest="n_weak", type=int, default=None)
    p.add_argument("--min-tokens", dest="min_tokens", type=int, default=None)
    p.add_argument("--max-tokens", dest="max_tokens", type=int, default=None)
    p.add_argument("--pull-strength", dest="pull_strength", type=float, default=None)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=None)
    p.add_argument("--label-flip-rate", dest="label_flip_rate", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_synth)

    p = subs.add_parser("train", help="train the strong/weak tree from a feature CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", help="optional label file, one strong/weak per row")
    p.add_argument("--model", required=True)
    p.add_argument("--max-depth", dest="max_depth", type=int, default=None,
                   help=f"default {TrainConfig.max_depth}")
    p.add_argument("--min-samples-leaf", dest="min_samples_leaf", type=int, default=None,
                   help=f"default {TrainConfig.min_samples_leaf}")
    p.add_argument("--min-impurity-decrease", dest="min_impurity_decrease",
                   type=float, default=None, help=f"default {TrainConfig.min_impurity_decrease}")
    p.add_argument("--max-tp-drop", dest="max_tp_drop", type=float, default=None,
                   help=f"default {TrainConfig.max_tp_drop}")
    p.add_argument("--no-class-weights", dest="class_weighted", action="store_const",
                   const=False, default=None)
    _add_feature_flags(p)
    p.set_defaults(fn=cmd_train)

    p = subs.add_parser("tune", help="pick the decision threshold on validation data")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", help="optional label file")
    p.add_argument("--max-tp-drop", dest="max_tp_drop", type=float, default=None)
    p.set_defaults(fn=cmd_tune)

    p = subs.add_parser("classify", help="stream verdicts for every decoded span")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--no-path", dest="no_path", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = subs.add_parser("explain", help="print the decision path for a record's spans")
    p.add_argument("--model", required=True)
    p.add_argument("--record", required=True, help="JSONL file with the record(s)")
    p.add_argument("--span-index", dest="span_index", type=int, default=None)
    p.set_defaults(fn=cmd_explain)

    p = subs.add_parser("evaluate", help="entity F1 and drop rates vs the base output")
    p.add_argument("--pred", required=True, help="classified spans JSONL")
    p.add_argument("--gold", required=True, help="corpus JSONL with gold_spans")
    p.add_argument("--base", required=True, help="unfiltered spans JSONL")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(fn=cmd_evaluate)

    p = subs.add_parser("baseline", help="grid-evaluate a reference filter")
    p.add_argument("--method", required=True,
                   choices=["softmax", "temp", "entropy", "mcdropout"])
    p.add_argument("--input", required=True, help="labeled corpus JSONL")
    p.add_argument("--grid", help="comma-separated parameter grid")
    p.add_argument("--var-grid", dest="var_grid",
                   help="variance cutoffs for mcdropout")
    p.add_argument("--passes", help="comma-separated pass files for mcdropout")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_baseline)

    p = subs.add_parser("pipeline", help="featurize, train, tune, classify, report")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--max-tp-drop", dest="max_tp_drop", type=float, default=None)
    p.add_argument("--seed", type=int, default=None, help="validation split seed")
    p.add_argument("--validation-fraction", dest="validation_fraction",
                   type=float, default=None)
    _add_feature_flags(p)
    p.set_defaults(fn=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("NRF_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ProbabilityOutOfRange, ProbabilitySumViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SchemaMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except InvalidConfig as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NrFilterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        name = getattr(exc, "filename", None)
        print(f"error: {exc}" + (f" ({name})" if name else ""), file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # pragma: no cover
        log.exception("unexpected failure")
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


def entrypoint() -> None:
    sys.exit(main())
