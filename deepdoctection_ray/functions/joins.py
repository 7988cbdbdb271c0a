"""Join helpers for Ray Data pipelines.

The reference's only cross-record join is the in-memory COCO hash join
(``custom_serialize.py:349-375``); at engine level every equi-join (inner /
left / semi / anti) goes through :func:`hash_join`, a split-and-join over
plain Ray tasks; nothing calls ``Dataset.join``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
import pyarrow as pa

import ray
import ray.data
from ray.data.block import Block, BlockAccessor

from .bucketed import hash_rows, split_by


def drop_empty_blocks(
    ds: ray.data.Dataset, anchor: "pa.Table | pa.Schema | None" = None
) -> ray.data.Dataset:
    """Materialize ``ds`` and rebuild it from its non-empty blocks only —
    the side scrub :func:`hash_join` applies to both of its inputs (the
    driver touches metadata only; the data never leaves the object store).

    A fully-empty side still yields ONE typed empty block, carrying the
    materialized schema, or ``anchor``'s (a table or schema) when Ray kept
    no schema at all: a schema-less block has no key column to hash, and
    the typed block is what lets the join answer an empty side. With
    neither, the empty input is returned."""
    mat = ds.materialize()
    refs = [
        ref
        for bundle in mat.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows
    ]
    if refs:
        return ray.data.from_arrow_refs(refs)
    schema = mat.schema()
    if schema is not None and getattr(schema, "names", None):
        return ray.data.from_arrow(pa.schema(zip(schema.names, schema.types)).empty_table())
    if anchor is not None:
        sch = anchor.schema if isinstance(anchor, pa.Table) else anchor
        return ray.data.from_arrow(sch.empty_table())
    return mat


def _split(block: Block, key_column: str, num_buckets: int) -> "pa.Table | tuple":
    """``block``'s rows (as Arrow) split by ``hash(key) % num_buckets`` (the
    bucket ``bucketed.tag_buckets`` gives a row), one typed slice per
    bucket; a single bucket is the whole block (``num_returns=1``)."""
    block = BlockAccessor.for_block(block).to_arrow()
    bucket = hash_rows(block, [key_column]) % np.uint64(num_buckets)
    slices = split_by(block, bucket, num_buckets)
    return tuple(slices) if num_buckets > 1 else slices[0]


def _join_bucket(key_column: str, join_type: str, num_left: int, *parts: pa.Table) -> pa.Table:
    """Join one bucket: its ``num_left`` left slices against the rest."""
    left = pa.concat_tables(parts[:num_left], promote_options="default")
    right = pa.concat_tables(parts[num_left:], promote_options="default")
    return left.join(right, key_column, join_type=join_type, use_threads=False)


_split_task = ray.remote(_split)
_join_task = ray.remote(_join_bucket)


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key_column: str,
    right_columns: Mapping[str, pa.DataType] | None = None,
    how: str = "inner",
    num_buckets: int = 8,
) -> ray.data.Dataset:
    """Bucketed large×large hash join — neither side is collected on the
    driver or broadcast (both are materialized in the object store).

    Both inputs pass through :func:`drop_empty_blocks`. One ``_split`` task
    per block cuts it into ``num_buckets`` slices by key hash; one
    ``_join_bucket`` task per bucket concatenates that bucket's slices of
    both sides and runs pyarrow's ``Table.join`` on them. Every task is a
    plain 1-CPU Ray task, so any bucket count runs on any CPU count. The
    reference engine has no cross-record join at all
    (``custom_serialize.py:349-375`` is an in-memory COCO join), so this
    surface is native to the Ray rebuild.

    An empty side is a typed empty block, and pyarrow's join of typed
    tables gives the answer ``how`` implies. The only special case left is
    a fully-empty ``left`` Ray kept no schema for: it is returned as the
    (column-less) empty result. A schema-less empty ``right`` is typed from
    the left key and ``right_columns``. Callers never scrub, anchor or
    short-circuit a join side themselves.

    Partitioning assumptions (documented for the 100-TB target):
    - ``num_buckets`` must be sized so (left+right)/num_buckets fits one
      task's heap; buckets join independently;
    - a single hot KEY cannot be split across buckets (join semantics);
      skew within a key should be pre-aggregated away before the join (see
      q_orders_by_segment: orders collapse to one row per custkey first).

    ``how``: 'inner' | 'left' | 'semi' | 'anti' (semi/anti return left
    columns only and ignore ``right_columns``). ``right_columns`` maps the
    right-side columns to carry to their Arrow types — the right side is
    pruned to them before the split, and the types type a schema-less empty
    right side; ``None`` carries every right column. pyarrow's join rejects
    list<> payload columns: pack them as binary.
    """
    join_type = {
        "inner": "inner",
        "left": "left outer",
        "semi": "left semi",
        "anti": "left anti",
    }[how]
    if how in ("semi", "anti"):
        right_columns = {}
    if right_columns is not None:
        right_columns = {c: t for c, t in right_columns.items() if c != key_column}
        right = right.select_columns([key_column, *right_columns])
    left = drop_empty_blocks(left)
    lsch = left.schema()
    if lsch is None or not lsch.names:
        # Ray kept no schema for a fully-empty left: the empty input is the
        # (column-less) empty result
        return left
    key_type = dict(zip(lsch.names, lsch.types))[key_column]
    right = drop_empty_blocks(
        right, pa.schema([(key_column, key_type), *(right_columns or {}).items()])
    )
    split = _split_task.options(num_returns=num_buckets)
    parts = []  # per side, per block: the block's bucket slices
    for side in (left, right):
        refs = [ref for b in side.iter_internal_ref_bundles() for ref, _ in b.blocks]
        parts.append([split.remote(ref, key_column, num_buckets) for ref in refs])
    if num_buckets == 1:
        parts = [[[ref] for ref in side] for side in parts]
    joined = [
        _join_task.remote(key_column, join_type, len(parts[0]), *(p[i] for s in parts for p in s))
        for i in range(num_buckets)
    ]
    del parts  # each slice is freed once its bucket is joined
    return ray.data.from_arrow_refs(joined)


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key_column: str,
    ts_column: str,
    right_value_columns: list[str],
    suffix: str = "_right",
    num_buckets: int = 32,
    direction: str = "backward",
) -> ray.data.Dataset:
    """As-of join: for each left row, the nearest right row of the same key —
    ``backward`` (latest right.ts <= left.ts, the default), ``forward``
    (earliest right.ts >= left.ts), or ``nearest``.

    The two sides co-partition by ``hash(key) % num_buckets`` (a ``side``
    column keeps them apart inside the bucket) and each bucket runs ONE
    ``pandas.merge_asof(..., by=key)`` — the whole-bucket merge the key-typed
    ``by`` argument exists for. One Python call per bucket instead of one per
    key (ruinous at millions of keys). Rows with no earlier right match keep
    nulls (left join semantics).
    """
    import pandas as pd

    from .bucketed import bucketed_map_groups

    lsch = left.schema()
    if lsch is None:
        # fully-empty left (zero-row corpus): Ray kept no schema; the as-of
        # result is the same empty dataset (left-join semantics)
        return left
    left_cols = lsch.names
    l = left.add_column("__side", lambda df: pd.Series(["l"] * len(df)), batch_format="pandas")
    keep = [key_column, ts_column] + right_value_columns
    r = right.select_columns(keep).add_column(
        "__side", lambda df: pd.Series(["r"] * len(df)), batch_format="pandas"
    )
    both = l.union(r)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lg = g[g["__side"] == "l"].drop(columns=["__side"]).sort_values(ts_column, kind="stable")
        rg = g[g["__side"] == "r"][keep].sort_values(ts_column, kind="stable")
        if lg.empty:
            return pd.DataFrame()
        lg = lg[[c for c in lg.columns if c in left_cols]]
        merged = pd.merge_asof(
            lg,
            rg.rename(columns={c: c + suffix for c in right_value_columns + [ts_column]}),
            left_on=ts_column,
            right_on=ts_column + suffix,
            left_by=key_column,
            right_by=key_column,
            direction=direction,
        )
        return merged

    return bucketed_map_groups(
        both, [key_column], per_bucket, num_buckets, batch_format="pandas"
    )


def range_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key_column: str,
    ts_column: str,
    start_column: str,
    end_column: str,
    right_carry: list[str] | None = None,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Interval (range) join: every left row pairs with every right interval
    of the same key containing its timestamp (``start <= ts <= end``;
    overlapping intervals yield one output row per match). No Dataset
    primitive covers the BETWEEN predicate.

    Scale design: both sides co-partition by ``hash(key) % num_buckets``
    (ONE shuffle, the same side-column union as :func:`asof_join`); within a
    bucket the match is a vectorized pandas equi-merge on the key followed by
    the interval filter. The per-key blowup is bounded by intervals-per-key —
    range joins assume a DIMENSION-like right side (windows, campaigns,
    maintenance periods); a fact×fact interval join needs time-bucketed
    pre-partitioning first.
    """
    import pandas as pd

    from .bucketed import bucketed_map_groups

    lsch = left.schema()
    if lsch is None:
        # fully-empty left: inner-range semantics -> empty result
        return left
    left_cols = lsch.names
    carry = list(right_carry) if right_carry else [
        c for c in right.schema().names
        if c not in (key_column, start_column, end_column)
    ]
    keep = [key_column, start_column, end_column] + carry

    l = left.add_column("__side", lambda df: pd.Series(["l"] * len(df)), batch_format="pandas")
    r = right.select_columns(keep).add_column(
        "__side", lambda df: pd.Series(["r"] * len(df)), batch_format="pandas"
    )
    both = l.union(r)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lg = g[g["__side"] == "l"][[c for c in g.columns if c in left_cols]]
        rg = g[g["__side"] == "r"][keep]
        merged = lg.merge(rg, on=key_column)
        if merged.empty:
            return merged
        mask = (merged[ts_column] >= merged[start_column]) & (
            merged[ts_column] <= merged[end_column]
        )
        return merged[mask]

    return bucketed_map_groups(
        both, [key_column], per_bucket, num_buckets, batch_format="pandas"
    )
