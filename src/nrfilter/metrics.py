"""Entity-level evaluation: precision/recall/F1 and relative drop rates.

Spans match on exact (chunk, start, end, type). Drop rates compare a
filtered prediction set against the unfiltered base output of the same
model, per entity type and in aggregate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .core import EntitySpan
from .errors import ChunkIdMismatch, CountInflation


@dataclass
class EntityCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if (self.tp + self.fp) else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 0.0

    @property
    def f1(self) -> float:
        denom = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denom if denom else 0.0

    def __add__(self, other: "EntityCounts") -> "EntityCounts":
        return EntityCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


@dataclass
class EvalReport:
    per_type: dict[str, EntityCounts] = field(default_factory=dict)

    @property
    def totals(self) -> EntityCounts:
        total = EntityCounts()
        for counts in self.per_type.values():
            total = total + counts
        return total

    def to_dict(self) -> dict:
        def row(c: EntityCounts) -> dict:
            return {
                "tp": c.tp, "fp": c.fp, "fn": c.fn,
                "precision": c.precision, "recall": c.recall, "f1": c.f1,
            }

        return {
            "per_type": {t: row(c) for t, c in sorted(self.per_type.items())},
            "totals": row(self.totals),
        }


def entity_f1(
    predicted: Iterable[EntitySpan],
    gold: Iterable[EntitySpan],
    chunk_ids: Iterable[str] | None = None,
) -> EvalReport:
    """Exact-match entity report.

    A prediction is a TP iff a gold span with the same (chunk, start,
    end, type) exists; each gold span can be matched once. When a chunk
    universe is supplied, spans referencing unknown chunks raise
    ChunkIdMismatch.
    """
    predicted = list(predicted)
    gold = list(gold)
    if chunk_ids is not None:
        known = set(chunk_ids)
        for span in predicted + gold:
            if span.chunk_id not in known:
                raise ChunkIdMismatch(f"span references unknown chunk {span.chunk_id!r}")

    report = EvalReport()

    def counts(entity_type: str) -> EntityCounts:
        return report.per_type.setdefault(entity_type, EntityCounts())

    unmatched_gold = Counter(g.match_key() for g in gold)
    for span in predicted:
        key = span.match_key()
        if unmatched_gold.get(key, 0) > 0:
            unmatched_gold[key] -= 1
            counts(span.entity_type).tp += 1
        else:
            counts(span.entity_type).fp += 1
    for (_, entity_type, _, _), remaining in unmatched_gold.items():
        if remaining > 0:
            counts(entity_type).fn += remaining
    return report


def filter_counts(is_tp, kept) -> tuple[EntityCounts, EntityCounts]:
    """Base and filtered counts of a keep/drop filter, from a TP flag and a
    keep flag per span: the base keeps every span; after filtering, a kept
    TP is a TP, a dropped TP an FN and a kept FP an FP."""
    is_tp = np.asarray(is_tp, dtype=bool)
    kept = np.asarray(kept, dtype=bool)
    n_tp = int(np.count_nonzero(is_tp))
    kept_tp = int(np.count_nonzero(is_tp & kept))
    kept_fp = int(np.count_nonzero(kept)) - kept_tp
    return EntityCounts(n_tp, is_tp.size - n_tp), EntityCounts(kept_tp, kept_fp, n_tp - kept_tp)


def drop_rates(base: EntityCounts, filtered: EntityCounts) -> tuple[float, float]:
    """Percentage of base TPs and FPs eliminated by a filter."""
    if filtered.tp > base.tp or filtered.fp > base.fp:
        raise CountInflation(
            f"filtered counts (tp={filtered.tp}, fp={filtered.fp}) exceed "
            f"base (tp={base.tp}, fp={base.fp})"
        )
    tp_drop = 100.0 * (base.tp - filtered.tp) / base.tp if base.tp else 0.0
    fp_drop = 100.0 * (base.fp - filtered.fp) / base.fp if base.fp else 0.0
    return tp_drop, fp_drop


def drop_pcts(base: EntityCounts, filtered: EntityCounts) -> dict[str, float]:
    """``drop_rates`` as the report fields tp_drop_pct and fp_drop_pct."""
    tp_drop, fp_drop = drop_rates(base, filtered)
    return {"tp_drop_pct": tp_drop, "fp_drop_pct": fp_drop}


def format_drop_table(rows: dict[str, dict[str, tuple[float, float]]]) -> str:
    """Text matrix of (%TP drop, %FP drop) per entity type and method."""
    methods: list[str] = []
    for cells in rows.values():
        for method in cells:
            if method not in methods:
                methods.append(method)
    width = max([len("entity")] + [len(t) for t in rows]) + 2
    cols = [max(len(m), 12) + 2 for m in methods]
    lines = [
        "entity".ljust(width) + "".join(m.rjust(c) for m, c in zip(methods, cols))
    ]
    for entity_type, cells in rows.items():
        line = entity_type.ljust(width)
        for method, c in zip(methods, cols):
            if method in cells:
                tp_drop, fp_drop = cells[method]
                line += f"({tp_drop:.0f}%, {fp_drop:.0f}%)".rjust(c)
            else:
                line += "-".rjust(c)
        lines.append(line)
    return "\n".join(lines)
