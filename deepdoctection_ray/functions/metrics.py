"""Evaluation metrics as distributed aggregates.

Reference: ``deepdoctection/src/deepdoctection/eval/accmetric.py:81-226``
(accuracy / precision / recall / F1 / confusion over (gt, prediction)
streams) and the streaming mean/std (``dd_core/.../dataflow/stats.py:32,153``)
and label histogram (``mapper/maputils.py:214-278``).

All metrics pre-aggregate inside ``map_batches`` (per-batch partial counts)
and reduce with one tiny groupby — never a per-row shuffle.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data
from ray.data.aggregate import Count, Mean, Std, Sum

from .bucketed import with_anchor


def confusion_matrix(
    ds: ray.data.Dataset, gt_column: str = "gt", pred_column: str = "pred"
) -> ray.data.Dataset:
    """Counts per (gt, pred) pair — the confusion matrix in long form."""

    def partial(batch: pa.Table) -> pa.Table:
        counts = batch.group_by([gt_column, pred_column]).aggregate([(gt_column, "count")])
        return counts.rename_columns([gt_column, pred_column, "n"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby([gt_column, pred_column]).aggregate(Sum("n", alias_name="n"))


def accuracy(ds: ray.data.Dataset, gt_column: str = "gt", pred_column: str = "pred") -> float:
    """Share of rows where prediction equals ground truth."""
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        hits = pc.sum(pc.cast(pc.equal(batch[gt_column], batch[pred_column]), pa.int64())).as_py()
        return pa.table({"hits": [hits or 0], "total": [batch.num_rows]})

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .aggregate(Sum("hits", alias_name="hits"), Sum("total", alias_name="total"))
    )
    return (agg["hits"] / agg["total"]) if agg["total"] else 0.0


def precision_recall_f1(
    ds: ray.data.Dataset, gt_column: str = "gt", pred_column: str = "pred"
) -> dict[str, dict[str, float]]:
    """Per-class precision/recall/F1 from the confusion matrix (small result)."""
    cm = confusion_matrix(ds, gt_column, pred_column).take_all()
    tp: dict[str, int] = {}
    gt_n: dict[str, int] = {}
    pred_n: dict[str, int] = {}
    for row in cm:
        g, p, n = row[gt_column], row[pred_column], row["n"]
        gt_n[g] = gt_n.get(g, 0) + n
        pred_n[p] = pred_n.get(p, 0) + n
        if g == p:
            tp[g] = tp.get(g, 0) + n
    out = {}
    for cls in sorted(set(gt_n) | set(pred_n)):
        t = tp.get(cls, 0)
        prec = t / pred_n[cls] if pred_n.get(cls) else 0.0
        rec = t / gt_n[cls] if gt_n.get(cls) else 0.0
        f1 = 2 * prec * rec / (prec + rec) if (prec + rec) else 0.0
        out[cls] = {"precision": round(prec, 6), "recall": round(rec, 6), "f1": round(f1, 6)}
    return out


def column_mean_std(
    ds: ray.data.Dataset,
    column: str,
    by: str | None = None,
    anchor: "pa.Table | pa.Schema | None" = None,
):
    """Streaming mean/std of a numeric column, optionally grouped
    (``stats.py:32,153`` analog). ``anchor``: statically-known output schema
    lazily unioned in so a zero-row corpus still yields the documented
    columns (Ray loses the schema of an empty groupby entirely)."""
    aggs = (Mean(column, alias_name="mean"), Std(column, alias_name="std", ddof=0),
            Count(alias_name="n"))
    if by is None:
        return ds.aggregate(*aggs)
    return with_anchor(ds.groupby(by).aggregate(*aggs), anchor)


def label_histogram(ds: ray.data.Dataset, column: str) -> ray.data.Dataset:
    """``LabelSummarizer`` (``maputils.py:214-278``): label → count, with
    per-batch partial counts before the shuffle."""

    def partial(batch: pa.Table) -> pa.Table:
        counts = batch.group_by([column]).aggregate([(column, "count")])
        return counts.rename_columns([column, "n"])

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(column)
        .aggregate(Sum("n", alias_name="n"))
    )
