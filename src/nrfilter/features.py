"""Span-level feature vectors: density map cells plus statistical summaries.

Feature names follow one grammar so trained models and exported decision
paths stay machine-readable:

    <Scope|PDM>_<tag>_<statistic>[_bkt_<lo>-<hi>]

Scope is one of Token, Word, Phrase, Neighbor, Context; tags are
"B-tag"/"I-tag"/"O-tag" (entity-qualified as "B-<name>-tag" when the
schema has several entity types). Density cells use the PDM prefix; the
legacy SPD prefix is accepted on input as an alias.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace
from typing import IO, Iterable, Sequence

import numpy as np

from .core import (
    SCOPE_CONTEXT,
    SCOPE_NEIGHBOR,
    SCOPE_PHRASE,
    SCOPE_TOKEN,
    SCOPE_WORD,
    Chunk,
    ClassSchema,
    EntitySpan,
    FeatureConfig,
    is_utf8,
)
from .errors import AnchorOutOfRange, ParseError, SchemaMismatch
from .pdm import bin_edges, binned_mass, decay_table

_CLASS_STATS = ("count", "ratio", "max_prob", "mean_prob", "cov_prob")
_SCOPE_STATS = (
    "prob_diff_mean",
    "prob_diff_max",
    "prob_class_ratio_2_by_1",
    "prob_class_ratio_3_by_2",
    "mean_entropy",
    "size",
)


def canonical_feature_name(name: str) -> str:
    """Map the legacy SPD_ density prefix onto PDM_."""
    return "PDM_" + name[4:] if name.startswith("SPD_") else name


def class_tags(schema: ClassSchema) -> tuple[str, ...]:
    """Per-class tag strings in schema index order (O first)."""
    qualify = schema.n_entities > 1
    tags = ["O-tag"]
    for name in schema.entity_names:
        suffix = f"-{name}" if qualify and name else ""
        tags.append(f"B{suffix}-tag")
        tags.append(f"I{suffix}-tag")
    return tuple(tags)


def _edge_decimals(bins: int) -> int:
    for d in range(1, 7):
        if all(abs(round(i / bins, d) - i / bins) < 1e-12 for i in range(bins + 1)):
            return d
    return 6


def bin_labels(bins: int) -> tuple[str, ...]:
    d = _edge_decimals(bins)
    return tuple(f"{lo:.{d}f}-{hi:.{d}f}" for lo, hi in bin_edges(bins))


def feature_names(
    class_schema: ClassSchema, config: FeatureConfig = FeatureConfig()
) -> tuple[str, ...]:
    """The ordered feature names of one configuration: the columns of
    every row ``featurize_chunks`` builds for chunks of ``class_schema``.
    Equal class schemas and configs give the same tuple object."""
    return _feature_names(class_schema.entity_names, config)


@lru_cache(maxsize=64)
def _feature_names(entity_names: tuple[str, ...], config: FeatureConfig) -> tuple[str, ...]:
    tags = class_tags(ClassSchema(entity_names))
    names = [f"PDM_{tag}_WCount_bkt_{label}" for tag in tags for label in bin_labels(config.bins)]
    for scope in config.scopes:
        names.extend(f"{scope}_{tag}_{stat}" for tag in tags for stat in _CLASS_STATS)
        names.extend(f"{scope}_{stat}" for stat in _SCOPE_STATS)
    return tuple(names)


def token_entropies(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy (natural log) of each probability row; 0 ln 0 = 0."""
    # p * log(max(p, tiny)) is exactly 0 at p = 0, so 0 log 0 := 0 holds.
    return -(probs * np.log(np.maximum(probs, 1e-300))).sum(axis=-1)


# ---------------------------------------------------------------------------
# The feature kernel
#
# Every scope statistic is a sum or a maximum of a per-token column over
# the scope, so one table per chunk serves every span: its columns are
#   [p (K) | top1 - top2 | p^2 (K) | argmax one-hot (K) |
#    top2 / top1 | top3 / top2 | entropy | 1]
# and maxima read the first K + 1. A scope is at most two half-open
# segments [lo, hi) of token positions, so all scopes of all spans reduce
# in one np.add.reduceat and one np.maximum.reduceat.
# ---------------------------------------------------------------------------


def _token_table(probs: np.ndarray) -> np.ndarray:
    """(T + 1, 3K + 5) per-token table; the last row is a zero pad so a
    segment may start at T."""
    T, K = probs.shape
    ordered = np.sort(probs, axis=1)
    top1, top2, top3 = ordered[:, -1], ordered[:, -2], ordered[:, -3]
    table = np.zeros((T + 1, 3 * K + 5), dtype=np.float64)
    table[:T, :K] = probs
    table[:T, K] = top1 - top2
    table[:T, K + 1 : 2 * K + 1] = probs * probs
    table[np.arange(T), 2 * K + 1 + probs.argmax(axis=1)] = 1.0
    # top1 >= 1/K > 0 always; top2 can be 0 (one-hot rows), guard that one.
    table[:T, 3 * K + 1] = top2 / top1
    np.divide(top3, top2, out=table[:T, 3 * K + 2], where=top2 > 0)
    table[:T, 3 * K + 3] = token_entropies(probs)
    table[:T, 3 * K + 4] = 1.0
    return table


def _segment_reduce(table: np.ndarray, bounds: np.ndarray, K: int):
    """Column sums and maxima of ``table`` rows over each [lo, hi) segment
    of ``bounds`` (shape (..., 2)); an empty segment reduces to zeros.

    reduceat returns the row at the start of an empty segment, so those
    results are masked; the odd results (gaps between segments) are
    never read.
    """
    idx = bounds.ravel()
    sums = np.add.reduceat(table, idx)[::2]
    maxs = np.maximum.reduceat(table[:, : K + 1], idx)[::2]
    empty = idx[1::2] <= idx[::2]
    sums[empty] = 0.0
    maxs[empty] = 0.0
    return sums, maxs


def _scope_statistics(sums: np.ndarray, maxs: np.ndarray, K: int, out: np.ndarray) -> None:
    """Write statistical blocks from reduced sums (..., 3K + 5) and maxima
    (..., K + 1) into ``out`` (..., 5K + 6), in canonical order: per class
    (count, ratio, max, mean, CoV), then the six scope-level statistics.
    Empty scopes yield all zeros, with the trailing size making emptiness
    visible to the tree."""
    size = sums[..., -1:]
    means = sums / np.maximum(size, 1.0)
    mean = means[..., :K]
    var = np.maximum(means[..., K + 1 : 2 * K + 1] - mean * mean, 0.0)
    c = 5 * K
    out[..., 0:c:5] = sums[..., 2 * K + 1 : 3 * K + 1]
    out[..., 1:c:5] = means[..., 2 * K + 1 : 3 * K + 1]
    out[..., 2:c:5] = maxs[..., :K]
    out[..., 3:c:5] = mean
    # Population CoV; a zero mean implies an all-zero column, so CoV = 0.
    out[..., 4:c:5] = 0.0
    np.divide(np.sqrt(var), mean, out=out[..., 4:c:5], where=mean > 0)
    out[..., c] = means[..., K]  # prob_diff_mean
    out[..., c + 1] = maxs[..., K]  # prob_diff_max
    out[..., c + 2 : c + 5] = means[..., 3 * K + 1 : 3 * K + 4]  # ratios, mean entropy
    out[..., c + 5] = size[..., 0]


# Where the n values of a scope nearly agree, the one-pass variance
# E[x^2] - E[x]^2 cancels: it can be off by (3n + 5)u E[x]^2 (u = 2^-53),
# which moves the CoV by up to (3n + 5)u / (2 CoV). A CoV below
# (3n + 5)u / (2 _COV_TOL) is therefore summed again, two-pass, so that
# every CoV is within _COV_TOL of the two-pass one.
_COV_TOL = 5e-13
_CANCELS = 2.0**-54 / _COV_TOL  # u / (2 _COV_TOL)


def _two_pass_cov(blocks: np.ndarray, bounds: np.ndarray, values: np.ndarray, K: int) -> None:
    """Rewrite, in place, each per-class CoV of the statistical blocks
    ``blocks`` (P, 5K + 6) that can have cancelled, as
    sqrt(mean((x - mean)^2)) / mean over the rows of ``values`` in its
    block's [lo, hi) ranges ``bounds`` (P, s, 2)."""
    size = blocks[:, -1:]
    cov = blocks[:, 4 : 5 * K : 5]
    # A scope of one row has CoV 0 either way.
    cancels = (cov < (3.0 * size + 5.0) * _CANCELS) & (size > 1)
    if not cancels.any():
        return
    mean = blocks[:, 3 : 5 * K : 5]
    cancels &= mean > 0  # an all-zero column has CoV 0 either way
    for i in np.flatnonzero(cancels.any(axis=1)).tolist():
        k = cancels[i]
        m = mean[i, k]
        dev = np.concatenate([values[lo:hi] for lo, hi in bounds[i].tolist()])[:, k] - m
        cov[i, k] = np.sqrt((dev * dev).sum(axis=0) / size[i]) / m


# Columns of the per-span bound rows _span_rows builds.
_ZERO, _T, _START, _STOP, _ANCHOR, _AFTER_ANCHOR, _BEFORE, _AFTER, _CHUNK = range(9)
# Each scope as two [lo, hi) segments over those columns. Word is the
# anchor token here; with word ids the kernel gathers it instead.
_SEGMENTS = {
    SCOPE_TOKEN: ((_ANCHOR, _AFTER_ANCHOR), (_STOP, _STOP)),
    SCOPE_WORD: ((_ANCHOR, _AFTER_ANCHOR), (_STOP, _STOP)),
    SCOPE_PHRASE: ((_START, _STOP), (_STOP, _STOP)),
    SCOPE_NEIGHBOR: ((_BEFORE, _START), (_STOP, _AFTER)),
    SCOPE_CONTEXT: ((_ZERO, _START), (_STOP, _T)),
}


def _span_rows(
    chunks: Sequence[Chunk], spans: Sequence[Sequence[EntitySpan]], neighbor_window: int
) -> np.ndarray:
    """(n, 9) bound rows, one per span, in the token coordinates of the
    chunks with spans stacked in order: the chunk's first token and its
    end, start, end + 1, anchor, anchor + 1, the Neighbor reach on either
    side, clipped to the chunk, and the chunk's place in that stack."""
    rows = []
    off = c = 0
    for chunk, chunk_spans in zip(chunks, spans):
        if not chunk_spans:
            continue
        T = chunk.n_tokens
        edge = off + T
        for s in chunk_spans:
            if s.start < 0 or s.end >= T:
                raise AnchorOutOfRange(
                    f"span [{s.start}, {s.end}] outside chunk {chunk.id!r} of {T} tokens"
                )
            start, stop, anchor = off + s.start, off + s.end + 1, off + s.anchor
            rows.append((off, edge, start, stop, anchor, anchor + 1,
                         max(start - neighbor_window, off), min(stop + neighbor_window, edge), c))
        off = edge
        c += 1
    return np.array(rows, dtype=np.intp).reshape(len(rows), 9)


def _segments(rows: np.ndarray, kinds: tuple[str, ...]) -> np.ndarray:
    """(n_spans, len(kinds), 2, 2) segment bounds: per span and scope, two
    half-open [lo, hi) token ranges whose union is the scope.

    Token <= Word <= Phrase; Neighbor takes up to the neighbor window on
    each side of the phrase; Context is everything of the chunk outside
    the phrase, [first, start) plus (end, edge).
    """
    return rows[:, np.array([_SEGMENTS[kind] for kind in kinds], dtype=np.intp)]


def _word_positions(word_ids, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Word scope under one chunk's word ids: the phrase positions that
    share the anchor's word id, and the span each belongs to, in span
    order. ``rows`` are the chunk's own bound rows.

    A span's Word scope can be non-contiguous when word ids interleave,
    and it is empty if the anchor's id equals nothing (NaN). A token whose
    id is None is a word of its own.
    """
    try:
        wid = np.asarray(word_ids)
    except ValueError:  # ids of differing shapes, such as lists
        wid = None
    if wid is None or wid.ndim != 1 or wid.dtype.kind not in "biu":
        # Compare ids as Python objects, so that 5 and "5", or ints that a
        # float rounds together, stay distinct; a None is equal only to itself.
        wid = np.fromiter((object() if w is None else w for w in word_ids),
                          dtype=object, count=len(word_ids))
    off = rows[0, _ZERO]
    starts, lengths = rows[:, _START], rows[:, _STOP] - rows[:, _START]
    owner = np.repeat(np.arange(len(rows)), lengths)
    pos = np.arange(owner.size) + (starts - (np.cumsum(lengths) - lengths))[owner]
    keep = wid[pos - off] == wid[rows[owner, _ANCHOR] - off]
    return pos[keep], owner[keep]


def _block_word_positions(
    chunks: Sequence[Chunk], spans: Sequence[Sequence[EntitySpan]], rows: np.ndarray
) -> list[np.ndarray] | None:
    """_word_positions over a block: the spans whose chunk has word ids,
    their gathered positions and the span each belongs to. Ids are
    compared within their own chunk, so a block may mix numeric and
    object ids."""
    parts = []
    first = 0
    for chunk, chunk_spans in zip(chunks, spans):
        last = first + len(chunk_spans)
        if chunk.word_ids is not None and last > first:
            pos, owner = _word_positions(chunk.word_ids, rows[first:last])
            parts.append((np.arange(first, last), pos, owner + first))
        first = last
    return [np.concatenate(part) for part in zip(*parts)] if parts else None


# (span, token, class) cells of one density bincount: bounds its
# temporaries at a few MB.
_PDM_CELLS = 1 << 16


def featurize_chunks(
    chunks: Sequence[Chunk],
    spans: Sequence[Sequence[EntitySpan]],
    config: FeatureConfig = FeatureConfig(),
) -> np.ndarray:
    """Feature matrix (n_spans, n_features) for the spans of a block of
    chunks of one class schema, ``spans[i]`` belonging to ``chunks[i]``:
    rows in chunk order, then span order; columns are density cells then
    every configured scope, in ``feature_names`` order.

    One token table covers the stacked probabilities of the chunks with
    spans, with one trailing zero pad row, and every span's bounds are
    shifted by its chunk's token offset, so no scope crosses a chunk's
    edge. All scope statistics are two segment reductions, and the
    density maps one bincount per group of about _PDM_CELLS cells. Every
    span reduces the same values in the same order whatever else is in
    its block, so a row does not depend on how chunks are grouped. A
    span's density map is anchored at its opening token with the whole
    span excluded, so the span's own confident mass does not flood the
    top bins and mask the neighborhood signal.
    """
    if len(chunks) != len(spans):
        raise ValueError(f"{len(chunks)} chunks but {len(spans)} span lists")
    class_schema = chunks[0].schema
    names = feature_names(class_schema, config)
    for chunk in chunks:
        if chunk.schema is not class_schema and chunk.schema != class_schema:
            raise SchemaMismatch(
                f"chunk {chunk.id!r} has classes {list(chunk.schema.class_names)}, "
                f"the block {list(class_schema.class_names)}"
            )
    K = class_schema.K
    bins = config.bins
    kinds = config.scopes
    step = 5 * K + 6
    width = bins * K + len(kinds) * step
    if width != len(names):
        raise SchemaMismatch(f"assembling {width} features, schema expects {len(names)}")
    rows = _span_rows(chunks, spans, config.neighbor_window)
    n = len(rows)
    out = np.empty((n, width), dtype=np.float64)
    if n == 0:
        return out
    used = [chunk.probs for chunk, chunk_spans in zip(chunks, spans) if chunk_spans]
    probs = used[0] if len(used) == 1 else np.concatenate(used)

    # Density block: class-major, bins ascending -- matches schema layout.
    # Spans go in groups; within a group, each chunk's probabilities are
    # padded with zero rows to the group's longest chunk, L tokens, so a
    # span's (token, class) cells are one (L, K) grid. A group holds at
    # most _PDM_CELLS such cells (or one span), so a long chunk among
    # short ones pads few of them.
    local = rows - rows[:, _ZERO, None]
    norm = local[:, _T].astype(np.float64)
    groups, lo, L = [], 0, 0
    for j, T in enumerate(local[:, _T].tolist()):
        if j > lo and (j + 1 - lo) * max(L, T) * K > _PDM_CELLS:
            groups.append((lo, j, L))
            lo, L = j, 0
        L = max(L, T)
    groups.append((lo, n, L))
    for lo, hi, L in groups:
        first, last = rows[lo, _CHUNK], rows[hi - 1, _CHUNK]
        padded = np.zeros((last + 1 - first, L, K))
        for c in range(first, last + 1):
            padded[c - first, : len(used[c])] = used[c]
        part, t = local[lo:hi], np.arange(L)
        weights = decay_table(L, config.decay_rate).take(np.abs(t - part[:, _ANCHOR, None]))
        weights[(t >= part[:, _START, None]) & (t < part[:, _STOP, None])] = 0.0
        pdm = binned_mass(padded, rows[lo:hi, _CHUNK] - first, weights, bins, norm[lo:hi])
        out[lo:hi, : bins * K] = pdm.transpose(0, 2, 1).reshape(hi - lo, K * bins)

    if kinds:
        table = _token_table(probs)
        bounds = _segments(rows, kinds)
        sums, maxs = _segment_reduce(table, bounds, K)
        sums = sums.reshape(n, len(kinds), 2, -1)
        maxs = maxs.reshape(n, len(kinds), 2, -1)
        values = probs
        gathered = _block_word_positions(chunks, spans, rows) if SCOPE_WORD in kinds else None
        if gathered is not None:
            w = kinds.index(SCOPE_WORD)
            picked, pos, owner = gathered
            # One segment per picked span over the gathered rows, plus the pad row.
            firsts = np.searchsorted(owner, picked)
            ends = np.searchsorted(owner, picked, side="right")
            sums[picked, w, 0], maxs[picked, w, 0] = _segment_reduce(
                table[np.append(pos, len(probs))], np.stack([firsts, ends], axis=1), K
            )
            # The same rows, as ranges past the token rows, for _two_pass_cov.
            values = np.concatenate([probs, probs[pos]])
            bounds[picked, w, 0, 0] = len(probs) + firsts
            bounds[picked, w, 0, 1] = len(probs) + ends
        blocks = np.empty((n, len(kinds), step), dtype=np.float64)
        _scope_statistics(
            sums[:, :, 0] + sums[:, :, 1], np.maximum(maxs[:, :, 0], maxs[:, :, 1]), K, blocks
        )
        _two_pass_cov(blocks.reshape(-1, step), bounds.reshape(-1, 2, 2), values, K)
        out[:, bins * K :] = blocks.reshape(n, -1)

    finite = np.isfinite(out)
    if not finite.all():
        bad = names[int(np.argmin(finite.all(axis=0)))]
        raise ValueError(f"non-finite feature value for {bad!r}")
    return out


# ---------------------------------------------------------------------------
# Feature matrix export / import
# ---------------------------------------------------------------------------

_META_COLS = ("chunk_id", "entity_type", "start", "end", "anchor", "label")


# Cells of one group of rows the feature CSV writer formats at once.
_CSV_CELLS = 1 << 16


def write_feature_csv(
    target: IO[str],
    blocks: Iterable[tuple[Sequence[str], Sequence[EntitySpan], Sequence[str | None], np.ndarray]],
) -> int:
    """Stream blocks of (names, spans, labels, rows) to a CSV handle opened
    with newline="": a label and a matrix row per span, or a ValueError
    naming the three counts when they differ. The header, meta
    columns + names, comes from the first block with a span; a block with
    other names, or rows of another width, is a SchemaMismatch.

    The bytes are those of a csv.writer row per span. Only the meta
    columns go through csv.writer (it quotes chunk ids); the float cells
    never need quoting and are joined as their repr, as csv.writer
    writes floats. Rows are written in groups of about _CSV_CELLS cells,
    and each distinct value of a group is formatted once. Values are
    told apart by their bits, so 0.0 and -0.0 keep their own repr."""
    metas: list[str] = []
    writer = csv.writer(SimpleNamespace(write=metas.append))  # one write per row
    parts: list[np.ndarray] = []
    n = cells = 0
    header: Sequence[str] | None = None

    def flush() -> None:
        rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
        distinct, inverse = np.unique(rows.view(np.int64).ravel(), return_inverse=True)
        text = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
        target.write("".join(
            meta[:-2] + "," + ",".join(values) + "\r\n"  # meta without its line end
            for meta, values in zip(metas, text[inverse.reshape(rows.shape)].tolist())
        ))
        metas.clear()
        parts.clear()

    for names, spans, labels, rows in blocks:
        if not len(spans) == len(labels) == len(rows):
            raise ValueError(f"{len(spans)} spans, {len(labels)} labels and {len(rows)} rows")
        if not len(spans):
            continue
        if header is None:
            header = names
            writer.writerow(list(_META_COLS) + list(names))
            target.write(metas.pop())
        elif names is not header and tuple(names) != tuple(header):
            raise SchemaMismatch("feature rows use differing schemas")
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        if rows.shape[1:] != (len(header),):
            raise SchemaMismatch(f"feature rows of shape {rows.shape} under {len(header)} names")
        writer.writerows(
            (span.chunk_id, span.entity_type, span.start, span.end, span.anchor,
             label if label is not None else "")
            for span, label in zip(spans, labels)
        )
        parts.append(rows)
        n += len(spans)
        cells += rows.size
        if cells >= _CSV_CELLS:
            flush()
            cells = 0
    if parts:
        flush()
    return n


@dataclass
class FeatureTable:
    """A feature CSV's names, matrix and row labels (None where empty)."""

    names: tuple[str, ...]
    matrix: np.ndarray
    labels: list[str | None]


def _parse_rows(handle: IO[str], dtype: np.dtype) -> np.ndarray:
    """Every row left in ``handle``, parsed by numpy's C reader."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(handle, delimiter=",", quotechar='"', comments=None, ndmin=1,
                          dtype=dtype)


def _first_bad_row(source: IO[str], lines_before: int, header: list[str],
                   names: tuple[str, ...], dtype: np.dtype, path: str | None) -> ParseError:
    """The error of the first row of ``source`` that holds bytes that are
    not UTF-8, is ragged, does not parse, holds a non-finite feature or an
    anchor outside [start, end]. Each row is parsed on its own by the
    reader ``_parse_rows`` uses, so both agree on what is bad."""
    reader = csv.reader(source)
    one = io.StringIO()
    writer = csv.writer(one)
    for row in reader:
        if not row:
            continue
        line_no = lines_before + reader.line_num
        if not is_utf8(",".join(row)):
            return ParseError(line_no, "bytes that are not UTF-8", path)
        if len(row) != len(header):
            return ParseError(line_no, f"{len(row)} fields, header has {len(header)}", path)
        one.seek(0)
        one.truncate()
        writer.writerow(row)
        one.seek(0)
        try:
            (parsed,) = _parse_rows(one, dtype)
        except ValueError as exc:
            # numpy's "at row N, column M" counts within this one row
            msg = re.sub(r" at row \d+, column (\d+)",
                         lambda m: f" in column {header[int(m[1]) - 1]!r}", str(exc))
            return ParseError(line_no, msg, path)
        start, anchor, end, values = (parsed[col] for col in ("start", "anchor", "end", "values"))
        if not start <= anchor <= end:
            return ParseError(line_no, f"anchor {anchor} outside [{start}, {end}]", path)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            j = bad[0]
            return ParseError(line_no, f"feature {names[j]!r} is {float(values[j])!r}", path)
    return ParseError(lines_before + reader.line_num, "unreadable feature rows", path)


def read_feature_csv(source: str | IO[str]) -> FeatureTable:
    """Read ``write_feature_csv`` output: its names, matrix and labels.
    The other meta cells are checked, not kept. The header goes through
    csv; the rows through one numpy ``loadtxt`` call. A position is a decimal
    integer and a feature a decimal or exponent float without ``_``
    separators. A row that holds bytes that are not UTF-8, is ragged,
    holds a cell that does not parse, a non-finite feature or an anchor
    outside [start, end] is a ParseError with its line number."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
            return read_feature_csv(handle)
    path = getattr(source, "name", None)
    # readline, not next(source), so that source.tell() still works
    header_reader = csv.reader(iter(source.readline, ""))
    header = next(header_reader, None)
    if header is not None and not is_utf8(",".join(header)):
        raise ParseError(header_reader.line_num, "bytes that are not UTF-8", path)
    if header is None or header[: len(_META_COLS)] != list(_META_COLS):
        raise SchemaMismatch("feature CSV header missing metadata columns")
    names = tuple(canonical_feature_name(n) for n in header[len(_META_COLS) :])
    dtype = np.dtype([("chunk_id", object), ("entity_type", object), ("start", np.int64),
                      ("end", np.int64), ("anchor", np.int64), ("label", object),
                      ("values", np.float64, (len(names),))])
    data_start = source.tell()
    try:
        rows = _parse_rows(source, dtype)
    except ValueError:
        rows = None
    if (rows is None or not np.isfinite(rows["values"]).all()
            or not ((rows["start"] <= rows["anchor"]) & (rows["anchor"] <= rows["end"])).all()
            or not is_utf8("".join(rows["chunk_id"].tolist() + rows["entity_type"].tolist()
                                   + rows["label"].tolist()))):
        source.seek(data_start)
        raise _first_bad_row(source, header_reader.line_num, header, names, dtype, path)
    labels = [label or None for label in rows["label"].tolist()]
    return FeatureTable(names, np.ascontiguousarray(rows["values"]), labels)


def feature_row_obj(span: EntitySpan, label: str | None, names: Sequence[str], values) -> dict:
    """One span's JSONL row: its meta columns and its features by name."""
    obj = {
        "chunk_id": span.chunk_id,
        "entity_type": span.entity_type,
        "start": span.start,
        "end": span.end,
        "anchor": span.anchor,
        "features": dict(zip(names, map(float, values))),
    }
    if label is not None:
        obj["label"] = label
    return obj
