"""Join helpers and the engine's one bucket exchange.

:func:`exchange` co-partitions one or more Datasets by a hash of their key
columns and runs a function once per bucket, on plain Ray tasks: one split
per non-empty block, one apply per bucket. Every bucketed operator runs on
it: ``bucketed.bucketed_map_groups`` (one side), :func:`hash_join` (two
sides, pyarrow's ``Table.join``), :func:`asof_join`, :func:`range_join`,
``merge.merge_by_key`` and ``pipelines.evaluate`` (two sides, pandas). It
owns Ray 2.49's empty-block rules; :func:`drop_empty_blocks` is its side
scrub. Nothing calls ``Dataset.join`` or groups on a bucket column.

The reference's only cross-record join is the in-memory COCO hash join
(``custom_serialize.py:349-375``); the engine-level joins are native to the
Ray rebuild.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Mapping, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data
from ray.data.block import Block, BlockAccessor

from .bucketed import hash_rows, split_by


def drop_empty_blocks(
    ds: ray.data.Dataset, anchor: "pa.Table | pa.Schema | None" = None
) -> ray.data.Dataset:
    """Materialize ``ds`` and rebuild it from its non-empty blocks only (a
    side without empty blocks is returned as materialized) — the side scrub
    :func:`exchange` applies to each of its inputs (the driver touches
    metadata only; the data never leaves the object store).

    A fully-empty side still yields ONE typed empty block, carrying the
    materialized schema, or ``anchor``'s (a table or schema) when Ray kept
    no schema at all: a schema-less block has no key column to hash, and
    the typed block is what lets ``emit`` answer an empty side. With
    neither, the empty input is returned."""
    mat = ds.materialize()
    blocks = [(ref, m.num_rows) for b in mat.iter_internal_ref_bundles() for ref, m in b.blocks]
    refs = [ref for ref, rows in blocks if rows]
    if refs:
        # rebuilding costs one metadata task per block: only when one is empty
        return mat if len(refs) == len(blocks) else ray.data.from_arrow_refs(refs)
    schema = mat.schema()
    if schema is not None and getattr(schema, "names", None):
        return _typed_empty(pa.schema(zip(schema.names, schema.types)))
    if anchor is not None:
        return _typed_empty(anchor)
    return mat


def _typed_empty(anchor: "pa.Table | pa.Schema") -> ray.data.Dataset:
    """One 0-row block carrying ``anchor``'s schema (a table or schema)."""
    sch = anchor.schema if isinstance(anchor, pa.Table) else anchor
    return ray.data.from_arrow(sch.empty_table())


def _split(block: Block, key_cols: list[str], num_buckets: int) -> "pa.Table | tuple":
    """``block``'s rows (as Arrow) split by ``hash_rows(key_cols) %
    num_buckets``, one typed slice per bucket; a single bucket is the whole
    block (``num_returns=1``)."""
    block = BlockAccessor.for_block(block).to_arrow()
    bucket = hash_rows(block, key_cols) % np.uint64(num_buckets)
    slices = split_by(block, bucket, num_buckets)
    return tuple(slices) if num_buckets > 1 else slices[0]


def _apply_bucket(
    emit: Callable, batch_format: str, counts: list[int], *parts: pa.Table
) -> "tuple[pa.Table, int]":
    """One bucket: each side's ``counts[i]`` slices concatenated, then
    ``emit(*sides)`` unless no side has a row here; returns the result as
    Arrow without schema metadata, and its row count (-1: no emit)."""
    sides = [
        pa.concat_tables(parts[e - n : e], promote_options="default")
        for n, e in zip(counts, accumulate(counts))
    ]
    if not any(side.num_rows for side in sides):
        return pa.table({}), -1
    if batch_format == "pandas":
        sides = [BlockAccessor.for_block(side).to_pandas() for side in sides]
    out = emit(*sides)
    if isinstance(out, pd.DataFrame):
        out = pa.Table.from_pandas(out, preserve_index=False)
    # a schema carrying pandas metadata cannot be hashed, and Ray's schema
    # dedup then logs "Failed to hash the schemas" on every bundle
    out = out.replace_schema_metadata()
    return out, out.num_rows


_split_task = ray.remote(_split)
_apply_task = ray.remote(_apply_bucket).options(num_returns=2)


def exchange(
    sides: Sequence[ray.data.Dataset],
    key_cols: Sequence[str],
    emit: Callable,
    num_buckets: int,
    batch_format: str = "pyarrow",
    anchor: "pa.Table | pa.Schema | None" = None,
) -> ray.data.Dataset:
    """The one bucket exchange: ``emit(*sides)`` once per hash bucket of
    ``key_cols``, every row of a key in the same call.

    Each side passes through :func:`drop_empty_blocks`. One ``_split`` task
    per non-empty block cuts it into ``num_buckets`` typed slices by
    ``bucketed.hash_rows``; one ``_apply_bucket`` task per bucket
    concatenates each side's slices and calls ``emit`` with one table
    (``batch_format="pandas"``: one DataFrame) per side. Every task is a
    plain 1-CPU Ray task, so any bucket count runs on any CPU count.

    The empty-block rules live here. A 0-row block is never split; a side
    with no rows is its one typed empty block, handed unsplit to every
    bucket, so ``emit`` always gets every side typed. ``emit`` runs only on
    a bucket where some side has a row (emitters are written for groups
    that exist), and not at all when a side has no schema (nothing to type
    it with). The
    result holds the buckets' non-empty outputs; a fully-empty result is
    ``anchor``'s typed block when given (a table or schema), else the
    first typed empty output ``emit`` returned, else an empty dataset with
    no schema.
    """
    key_cols = list(key_cols)
    split = _split_task.options(num_returns=num_buckets)
    counts, parts = [], []  # per side: per block, the block's bucket slices
    has_rows = False
    for side in map(drop_empty_blocks, sides):
        bundles = side.iter_internal_ref_bundles()
        blocks = [(ref, m.num_rows) for b in bundles for ref, m in b.blocks]
        cut = [split.remote(ref, key_cols, num_buckets) for ref, rows in blocks if rows]
        if num_buckets == 1:
            cut = [[ref] for ref in cut]
        has_rows |= bool(cut)
        if not cut and getattr(side.schema(), "names", None):
            # no rows: the side's one typed empty block, unsplit, in every bucket
            cut = [[blocks[0][0]] * num_buckets]
        counts.append(len(cut))
        parts.append(cut)
    outs = []
    if has_rows and all(counts):  # a schema-less side leaves nothing to type
        emit_ref = ray.put(emit)
        outs = [
            _apply_task.remote(emit_ref, batch_format, counts, *(c[i] for s in parts for c in s))
            for i in range(num_buckets)
        ]
    del parts  # each slice is freed once its bucket is applied
    rows = ray.get([n for _, n in outs])
    full = [t for (t, _), n in zip(outs, rows) if n > 0]
    if full:
        return ray.data.from_arrow_refs(full)
    if anchor is not None:
        return _typed_empty(anchor)
    ran = [t for (t, _), n in zip(outs, rows) if n == 0]
    return ray.data.from_arrow_refs(ran[:1]) if ran else _typed_empty(pa.schema([]))


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

    The two-side :func:`exchange` whose ``emit`` is pyarrow's
    ``Table.join``. The reference engine has no cross-record join at all
    (``custom_serialize.py:349-375`` is an in-memory COCO join), so this
    surface is native to the Ray rebuild.

    An empty side is a typed empty block, and pyarrow's join of typed
    tables gives the answer ``how`` implies; with no row on either side it
    is the exchange's anchor. The only special case left is a fully-empty
    ``left`` Ray kept no schema for: it is returned as the (column-less)
    empty result. A schema-less empty ``right`` is typed from
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

    def join(l: pa.Table, r: pa.Table) -> pa.Table:
        return l.join(r, key_column, join_type=join_type, use_threads=False)

    anchor = None
    if not left.count() and not right.count():
        # no bucket runs the join: its answer is the join of the two typed
        # empty blocks (metadata counts, nothing executes)
        empty = [pa.schema(zip(s.names, s.types)).empty_table() for s in (lsch, right.schema())]
        anchor = join(*empty)
    return exchange([left, right], [key_column], join, num_buckets, anchor=anchor)


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

    A two-side :func:`exchange` on ``key_column``: each bucket runs ONE
    ``pandas.merge_asof(..., by=key)`` — the whole-bucket merge the
    key-typed ``by`` argument exists for. One Python call per bucket instead
    of one per key (ruinous at millions of keys). Rows with no earlier right
    match keep nulls (left join semantics).
    """
    keep = [key_column, ts_column] + right_value_columns
    renamed = {c: c + suffix for c in right_value_columns + [ts_column]}

    def per_bucket(lg: pd.DataFrame, rg: pd.DataFrame) -> pd.DataFrame:
        if lg.empty:
            return pd.DataFrame()
        return pd.merge_asof(
            lg.sort_values(ts_column, kind="stable"),
            rg.sort_values(ts_column, kind="stable").rename(columns=renamed),
            left_on=ts_column,
            right_on=ts_column + suffix,
            left_by=key_column,
            right_by=key_column,
            direction=direction,
        )

    return exchange(
        [left, right.select_columns(keep)], [key_column], per_bucket, num_buckets, "pandas"
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

    Scale design: a two-side :func:`exchange` on ``key_column`` (ONE
    shuffle, as :func:`asof_join`); within a bucket the match is a
    vectorized pandas equi-merge on the key followed by the interval filter.
    The per-key blowup is bounded by intervals-per-key — range joins assume
    a DIMENSION-like right side (windows, campaigns, maintenance periods); a
    fact×fact interval join needs time-bucketed pre-partitioning first.
    """
    carry = list(right_carry) if right_carry else [
        c for c in right.schema().names
        if c not in (key_column, start_column, end_column)
    ]
    keep = [key_column, start_column, end_column] + carry

    def per_bucket(lg: pd.DataFrame, rg: pd.DataFrame) -> pd.DataFrame:
        merged = lg.merge(rg, on=key_column)
        mask = (merged[ts_column] >= merged[start_column]) & (
            merged[ts_column] <= merged[end_column]
        )
        return merged[mask]

    return exchange(
        [left, right.select_columns(keep)], [key_column], per_bucket, num_buckets, "pandas"
    )
