"""Category / label column operators over the extracted-turn schema.

Parity targets: ``dd_core/src/dd_core/mapper/cats.py`` — ``filter_cat`` (:148),
``re_assign_cat_ids`` (:85), ``cat_to_sub_cat`` (:32), ``remove_cats`` (:336),
``image_to_cat_id`` (:213). Here annotations are rows
of ``blocks``/``spans`` list-columns, so the label ops are vectorized
list-column rewrites inside ``map_batches``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import pyarrow as pa

import ray.data


def _rewrite_list_column(
    batch: pa.Table, column: str, fn
) -> pa.Table:
    rows = batch[column].to_pylist()
    new_rows = [fn(r or []) for r in rows]
    idx = batch.column_names.index(column)
    return batch.set_column(idx, column, pa.array(new_rows, batch[column].type))


def filter_block_categories(
    ds: ray.data.Dataset, keep: Sequence[str], column: str = "blocks"
) -> ray.data.Dataset:
    """``filter_cat`` analog: keep only blocks of the given categories (their
    relative reading order is preserved and re-densified)."""
    keep_set = set(keep)

    def fn(blocks: list[dict]) -> list[dict]:
        kept = [b for b in blocks if b["category"] in keep_set]
        return [{**b, "reading_order": i + 1} for i, b in enumerate(kept)]

    return ds.map_batches(
        lambda b: _rewrite_list_column(b, column, fn), batch_format="pyarrow"
    )


def remap_categories(
    ds: ray.data.Dataset, mapping: Mapping[str, str], column: str = "blocks"
) -> ray.data.Dataset:
    """``cat_to_sub_cat``/``re_assign_cat_ids`` analog: rename categories."""

    def fn(blocks: list[dict]) -> list[dict]:
        return [{**b, "category": mapping.get(b["category"], b["category"])} for b in blocks]

    return ds.map_batches(
        lambda b: _rewrite_list_column(b, column, fn), batch_format="pyarrow"
    )


def block_category_histogram(ds: ray.data.Dataset, column: str = "blocks") -> ray.data.Dataset:
    """``image_to_cat_id``+``LabelSummarizer`` analog: corpus-wide histogram of
    block categories (partial counts per batch, one small shuffle)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for row in batch[column].to_pylist():
            for blk in row or []:
                counts[blk["category"]] = counts.get(blk["category"], 0) + 1
        return pa.table(
            {
                "category": pa.array(list(counts), pa.string()),
                "n": pa.array(list(counts.values()), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("category")
        .aggregate(Sum("n", alias_name="n"))
    )
