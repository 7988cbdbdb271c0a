"""Join helpers for Ray Data pipelines.

The reference's only cross-record join is the in-memory COCO hash join
(``custom_serialize.py:349-375``); at engine level we provide the two
scale-correct shapes:

- broadcast hash join: the small side goes to the object store ONCE
  (``ray.put``), each actor materializes the lookup dict in ``__init__`` and
  maps rows per batch — no shuffle at all;
- semi/anti join: broadcast the key set and filter inside ``map_batches``.

Both-sides-large joins go through :func:`hash_join`, the one owner of Ray
2.49's join rules (empty blocks and empty sides); nothing else calls
``Dataset.join``.
"""

from __future__ import annotations

from typing import Mapping

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data


def broadcast_join(
    ds: ray.data.Dataset,
    small: Mapping,
    key_column: str,
    value_columns: dict[str, pa.DataType],
    how: str = "inner",
) -> ray.data.Dataset:
    """Inner/left join of ``ds`` against a driver-side mapping
    ``key -> {col: value}``; the mapping is shipped once via ``ray.put``.

    The probe is Arrow-native: the small side becomes key/value arrays once
    per actor in ``__init__``; per batch one ``pc.index_in`` + ``pc.take``
    per value column — vectorized C, null-for-miss gives left-join for free.
    """
    assert how in ("inner", "left")
    ref = ray.put(dict(small))

    class Join:
        def __init__(self) -> None:
            lookup = ray.get(ref)
            keys = list(lookup)
            self._keys = pa.array(keys)
            self._values = {
                col: pa.array([lookup[k][col] for k in keys], typ)
                for col, typ in value_columns.items()
            }

        def __call__(self, batch: pa.Table) -> pa.Table:
            idx = pc.index_in(batch[key_column], value_set=self._keys)
            if how == "inner":
                mask = idx.is_valid()
                batch = batch.filter(mask)
                idx = idx.filter(mask)
            for col, vals in self._values.items():
                batch = batch.append_column(col, pc.take(vals, idx))
            return batch

    return ds.map_batches(Join, batch_format="pyarrow", concurrency=(1, 4))


def drop_empty_blocks(
    ds: ray.data.Dataset, anchor: "pa.Table | pa.Schema | None" = None
) -> ray.data.Dataset:
    """Materialize ``ds`` and rebuild it from its non-empty blocks only —
    the join-side scrub :func:`hash_join` applies to both of its inputs.

    Ray 2.49's ``Dataset.join`` fails its Acero finalize ("No match ...
    FieldRef") when a join input STARTS with a 0-row block, even if later
    blocks hold every key, and when a side is fully empty. Neither a
    ``map_batches``/generator UDF that yields nothing (Ray skips empty
    blocks without calling the UDF) nor ``ds.filter(expr=...)`` removes such
    a block; only rebuilding the dataset from the surviving block REFS does
    (the driver touches metadata only; the data never leaves the object
    store).

    When every block is empty the result is ONE typed empty block carrying
    the materialized schema, or ``anchor``'s (a table or schema) when Ray
    kept no schema at all; with neither, the empty input is returned."""
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


def _bucket_of(keys, num_buckets: int):
    """Vectorized stable bucket assignment for a key column (any dtype)."""
    import numpy as np
    import pandas as pd

    arr = np.asarray(keys)
    return (pd.util.hash_array(arr) % np.uint64(num_buckets)).astype(np.int64)


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

    Thin policy wrapper over the native ``Dataset.join`` (Ray ≥ 2.47's
    hash-partitioned shuffle join): both sides hash-partition on the key into
    ``num_buckets`` independent partitions, each joined by an aggregator. The
    reference engine has no cross-record join at all
    (``custom_serialize.py:349-375`` is an in-memory COCO join), so this
    surface is native to the Ray rebuild.

    This is the ONE owner of Ray 2.49's join rules: both inputs pass through
    :func:`drop_empty_blocks` (a 0-row block at the head of either side, or
    a fully-empty side, breaks the join's finalize), and when a side is
    empty (row counts read from the materialized metadata) the answer
    ``how`` implies is returned without calling ``Dataset.join``: ``anti``
    keeps ``left`` as it is, ``left`` appends typed null ``right_columns``,
    every other case is a typed empty result. Callers never scrub, anchor or
    short-circuit a join side themselves.

    Partitioning assumptions (documented for the 100-TB target):
    - ``num_buckets`` must be sized so (left+right)/num_buckets fits an
      aggregator's heap; partitions join independently. Each partition costs
      an aggregator actor slot (0.125 CPU), so on a real cluster raise
      ``num_buckets`` well above the sandbox default of 8 — the default is
      sized so joins never starve a small ``ray.init(num_cpus=4)`` test
      session of CPU slots (aggregators deadlock if they cannot all start);
    - a single hot KEY cannot be split across partitions (join semantics);
      skew within a key should be pre-aggregated away before the join (see
      q_orders_by_segment: orders collapse to one row per custkey first).

    ``how``: 'inner' | 'left' | 'semi' | 'anti' (semi/anti return left
    columns only and ignore ``right_columns``). ``right_columns`` maps the
    right-side columns to carry to their Arrow types — the right side is
    pruned to them before the exchange, and the types build the empty-side
    results (``pc.fill_null`` rejects null-typed columns); ``None`` carries
    every right column.
    """
    join_type = {
        "inner": "inner",
        "left": "left_outer",
        "semi": "left_semi",
        "anti": "left_anti",
    }[how]
    if how in ("semi", "anti"):
        right_columns = {}
    if right_columns is not None:
        right_columns = {c: t for c, t in right_columns.items() if c != key_column}
        right = right.select_columns([key_column, *right_columns])
    left, right = drop_empty_blocks(left), drop_empty_blocks(right)
    has_left, has_right = left.count() > 0, right.count() > 0
    if has_left and has_right:
        return left.join(
            right, join_type=join_type, num_partitions=num_buckets, on=(key_column,)
        )
    if has_left and how == "anti":
        return left
    if right_columns is None:
        rsch = right.schema()
        right_columns = dict(zip(rsch.names, rsch.types)) if rsch is not None else {}
        right_columns.pop(key_column, None)
    if has_left and how == "left":

        def with_nulls(batch: pa.Table) -> pa.Table:
            for c, t in right_columns.items():
                batch = batch.append_column(c, pa.nulls(len(batch), t))
            return batch

        return left.map_batches(with_nulls, batch_format="pyarrow", batch_size=None)
    lsch = left.schema()
    if lsch is None:
        # Ray kept no schema for a fully-empty left: the empty input is the
        # (column-less) empty result
        return left
    fields = list(zip(lsch.names, lsch.types))
    if how in ("inner", "left"):
        fields += list(right_columns.items())
    return ray.data.from_arrow(pa.schema(fields).empty_table())


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


def semi_join(ds: ray.data.Dataset, keys, key_column: str, anti: bool = False) -> ray.data.Dataset:
    """Keep (or with ``anti=True`` drop) rows whose key is in the broadcast set."""
    key_array = pa.array(sorted(set(keys)))

    def f(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch[key_column], value_set=key_array)
        if anti:
            mask = pc.invert(mask)
        return batch.filter(mask)

    return ds.map_batches(f, batch_format="pyarrow")


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
