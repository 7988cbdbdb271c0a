"""Pre-aggregated grouped sums: combine inside map_batches, shuffle partials.

A bare ``groupby(key).aggregate(...)`` shuffles every row; this helper runs
``pyarrow.Table.group_by`` per batch first (C++ hash aggregation), so the wide
exchange only carries one row per (key, batch) — the combiner pattern the
100-TB target requires.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa

import ray.data
from ray.data.aggregate import Sum

from .bucketed import with_anchor


def grouped_sums(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    sum_columns: Sequence[str],
    count_alias: str | None = "n",
    anchor: "pa.Table | pa.Schema | None" = None,
) -> ray.data.Dataset:
    """Grouped sums (+ row count) with per-batch partial aggregation.

    Result columns: ``keys + [f"sum_{c}" for c in sum_columns] + [count_alias]``.

    ``anchor``: the caller's statically-known OUTPUT schema. Ray's
    ``groupby().aggregate()`` on a fully-empty input returns a dataset with
    no schema at all (measured), which crashes downstream column access and
    Acero joins; with an anchor, one typed empty block is lazily unioned in
    so the empty-corpus result still carries the documented columns. Free:
    no schema probe, no materialization, one 0-row block.
    """
    keys = list(keys)
    sum_columns = list(sum_columns)

    def partial(batch: pa.Table) -> pa.Table:
        aggs = [(c, "sum") for c in sum_columns]
        if count_alias:
            aggs.append(([], "count_all"))
        t = batch.group_by(keys).aggregate(aggs)
        names = list(keys) + [f"sum_{c}" for c in sum_columns]
        if count_alias:
            names.append(count_alias)
        # pa group_by output column order varies across versions — map by name
        rename = {f"{c}_sum": f"sum_{c}" for c in sum_columns}
        if count_alias:
            rename["count_all"] = count_alias
        cols = {}
        for name in t.column_names:
            cols[rename.get(name, name)] = t[name]
        return pa.table({n: cols[n] for n in names})

    partials = ds.map_batches(partial, batch_format="pyarrow")
    aggs = [Sum(f"sum_{c}", alias_name=f"sum_{c}") for c in sum_columns]
    if count_alias:
        aggs.append(Sum(count_alias, alias_name=count_alias))
    out = partials.groupby(keys).aggregate(*aggs)
    return with_anchor(out, anchor)


def grouped_int_sums(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    int_columns: Sequence[str],
    count_alias: str | None = "n",
    as_float: bool = True,
    num_buckets: int = 64,
    anchor: "pa.Table | pa.Schema | None" = None,
) -> ray.data.Dataset:
    """EXACT grouped sums for integer-scaled money columns.

    Float partial sums accumulate error that can flip a rounded digit at large
    scale factors; instead the caller pre-scales money to int64 units (cents /
    micro-units), per-batch ``pyarrow`` int sums are exact, and the final
    combine is a BUCKETED vectorized int64 hash-aggregation (one Python call
    per hash bucket, not per key — safe for the per-suppkey / per-custkey
    intermediates with millions of keys) with a conservative per-group
    overflow bound; a bucket that could overflow int64 recomputes in Python
    arbitrary-precision ints, so the result is exact at any corpus size.
    Matches a DuckDB oracle that sums ``BIGINT`` (HUGEINT accumulator)
    bit-for-bit.

    Output: ``keys + [f"sum_{c}" (float64 = exact int, converted once)] +
    [count_alias]``; callers divide by the scale to get money doubles — the
    single int→double conversion mirrors DuckDB's ``sum_hugeint / scale``.
    ``as_float=False`` keeps sums as int64 (for per-key intermediates feeding
    a further exact aggregation — caller guarantees no per-key overflow).
    """
    keys = list(keys)
    int_columns = list(int_columns)

    def partial(batch: pa.Table) -> pa.Table:
        aggs = [(c, "sum") for c in int_columns]
        if count_alias:
            aggs.append(([], "count_all"))
        t = batch.group_by(keys).aggregate(aggs)
        rename = {f"{c}_sum": f"sum_{c}" for c in int_columns}
        if count_alias:
            rename["count_all"] = count_alias
        cols = {rename.get(n, n): t[n] for n in t.column_names}
        names = keys + [f"sum_{c}" for c in int_columns] + ([count_alias] if count_alias else [])
        return pa.table({n: cols[n] for n in names})

    def combine_bucket(g: pa.Table) -> pa.Table:
        # Vectorized C hash-aggregation over the whole bucket (one Python call
        # per BUCKET, not per key — high-cardinality keys stay cheap), guarded
        # for exactness: Arrow int64 sums wrap silently on overflow, so each
        # group's conservative bound max|partial| * n_partials is checked and
        # any bucket that could overflow falls back to Python big-int sums.
        import pyarrow.compute as pc

        try:
            data = g
            aggs = [(f"sum_{c}", "sum") for c in int_columns]
            for c in int_columns:
                data = data.append_column(f"__abs_{c}", pc.abs_checked(g[f"sum_{c}"]))
                aggs.append((f"__abs_{c}", "max"))
            if count_alias:
                aggs.append((count_alias, "sum"))
            aggs.append(([], "count_all"))
            t = data.group_by(keys).aggregate(aggs)
            n = pc.cast(t["count_all"], pa.float64())
            for c in int_columns:
                bound = pc.max(
                    pc.multiply(pc.cast(t[f"__abs_{c}_max"], pa.float64()), n)
                ).as_py()
                if bound is not None and bound >= float(2**62):
                    raise OverflowError(f"sum_{c} may overflow int64 in this bucket")
        except (OverflowError, pa.ArrowInvalid):
            return _combine_bucket_bigint(g, keys, int_columns, count_alias, as_float)
        cols = {k: t[k] for k in keys}
        for c in int_columns:
            s = t[f"sum_{c}_sum"]
            cols[f"sum_{c}"] = pc.cast(s, pa.float64()) if as_float else pc.cast(s, pa.int64())
        if count_alias:
            cols[count_alias] = pc.cast(t[f"{count_alias}_sum"], pa.int64())
        return pa.table(cols)

    from .bucketed import bucketed_map_groups

    return bucketed_map_groups(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys,
        combine_bucket,
        num_buckets=num_buckets,
        batch_format="pyarrow",
        anchor=anchor,
    )


def _combine_bucket_bigint(
    g: pa.Table, keys, int_columns, count_alias, as_float
) -> pa.Table:
    """Exact overflow-proof fallback: Python arbitrary-precision sums for one
    bucket (rare — only taken when the conservative int64 bound trips)."""
    df = g.to_pandas()
    for c in int_columns:
        df[f"sum_{c}"] = df[f"sum_{c}"].astype(object)
    spec = {f"sum_{c}": "sum" for c in int_columns}
    if count_alias:
        spec[count_alias] = "sum"
    res = df.groupby(list(keys), sort=False, as_index=False).agg(spec)
    cols = {k: pa.array(res[k], type=g.schema.field(k).type) for k in keys}
    for c in int_columns:
        vals = res[f"sum_{c}"]
        cols[f"sum_{c}"] = (
            pa.array([float(v) for v in vals], pa.float64())
            if as_float
            else pa.array([int(v) for v in vals], pa.int64())
        )
    if count_alias:
        cols[count_alias] = pa.array([int(v) for v in res[count_alias]], pa.int64())
    return pa.table(cols)


def top_n_per_group(
    ds: "ray.data.Dataset",
    group_cols: "Sequence[str]",
    order_cols: "Sequence[str]",
    n: int,
    descending: bool | list[bool] = True,
    num_buckets: int = 64,
    anchor: "pa.Table | pa.Schema | None" = None,
) -> "ray.data.Dataset":
    """Limit-per-key: the n first rows of every group under ``order_cols`` —
    the `ROW_NUMBER() OVER (PARTITION BY .. ORDER BY ..) <= n` shape no
    Dataset primitive covers.

    Scale design: a PER-BATCH local top-n runs first (any group's global
    top-n is a subset of the union of its per-batch top-ns, so this is a
    lossless combiner exactly like a partial aggregate — at most
    ``n × n_batches`` rows per group cross the exchange); groups then
    co-partition by hash (the bucketed pattern — ONE vectorized
    sort+groupby+head per bucket, no per-key Python call). Ties must be
    broken by ``order_cols`` (make the last one unique) for a deterministic,
    oracle-matchable result.
    """
    import pandas as pd

    from .bucketed import bucketed_map_groups

    group_cols = list(group_cols)
    order_cols = list(order_cols)
    asc = (
        [not descending] * len(order_cols)
        if isinstance(descending, bool)
        else [not d for d in descending]
    )

    def local_topn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(order_cols, ascending=asc, kind="stable")
        # dropna=False: ROW_NUMBER() PARTITION BY treats null keys as one
        # partition; pandas' default would silently drop those rows
        return df.groupby(group_cols, sort=False, dropna=False).head(n)

    partial = ds.map_batches(local_topn, batch_format="pandas")
    return bucketed_map_groups(
        partial, group_cols, local_topn, num_buckets, batch_format="pandas", anchor=anchor
    )


def exact_quantiles(
    ds: "ray.data.Dataset",
    column: str,
    qs: "Sequence[float]",
    num_bins: int = 2048,
    candidate_budget: int = 2_000_000,
    max_rounds: int = 4,
) -> "pa.Table":
    """EXACT distributed quantiles (discrete: the k-th smallest element,
    ``k = ceil(q·n) - 1`` — DuckDB's ``quantile_disc`` rule) without a global
    sort: iterative histogram selection. Each round one streaming pass
    histograms the unresolved value ranges (``num_bins`` int64 counts per
    range reach the driver — never the data); the bin containing each k
    becomes the next round's range. When a target bin's population fits
    ``candidate_budget`` (or the range is degenerate — heavy ties), ONE
    filtered collect pulls just that sliver and picks the element exactly.

    vs ``ds.sort(column)``: a full sort shuffles every row to order ALL of
    them; selection needs only counts plus an O(n/num_bins^rounds) sliver.
    Returns a small ``pa.Table (q, value)`` — driver-sized by construction.
    """
    import math

    from ray.data.aggregate import Count, Max, Min

    qs = list(qs)
    stats = ds.aggregate(Count(), Min(column), Max(column))
    n = stats["count()"]
    lo0, hi0 = stats[f"min({column})"], stats[f"max({column})"]
    if not n:
        return pa.table({"q": pa.array(qs, pa.float64()), "value": pa.array([None] * len(qs), pa.float64())})

    ks = {q: max(0, math.ceil(q * n) - 1) for q in qs}
    # per distinct k: (range_lo, range_hi_inclusive, n_below_range_lo)
    state: dict[int, tuple[float, float, int]] = {k: (float(lo0), float(hi0), 0) for k in set(ks.values())}
    resolved: dict[int, float] = {}

    def _histogram_pass(ranges: list[tuple[float, float]]):
        """One streaming pass: per range, (n_below_lo, bin counts)."""

        def hist(batch: pa.Table) -> pa.Table:
            v = batch[column].to_numpy(zero_copy_only=False).astype(np.float64)
            payloads = []
            for rlo, rhi in ranges:
                below = int((v < rlo).sum())
                counts, _ = np.histogram(v, bins=num_bins, range=(rlo, rhi))
                payloads.append(
                    np.concatenate([[below], counts]).astype(np.int64).tobytes()
                )
            return pa.table({"h": pa.array([b"".join(payloads)], pa.binary())})

        acc = np.zeros((len(ranges), num_bins + 1), dtype=np.int64)
        for row in ds.map_batches(hist, batch_format="pyarrow", batch_size=None).take_all():
            acc += np.frombuffer(row["h"], dtype=np.int64).reshape(len(ranges), num_bins + 1)
        return acc

    for _ in range(max_rounds):
        pending = {k: s for k, s in state.items() if k not in resolved}
        if not pending:
            break
        ranges = sorted({(s[0], s[1]) for s in pending.values()})
        acc = _histogram_pass(ranges)
        ridx = {r: i for i, r in enumerate(ranges)}
        for k, (rlo, rhi, _offset) in pending.items():
            row = acc[ridx[(rlo, rhi)]]
            # `below` is measured against the FULL dataset every pass, so the
            # offset is recomputed each round, never accumulated
            below, counts = int(row[0]), row[1:]
            j = k - below  # index within [rlo, rhi]
            cum = np.cumsum(counts)
            b = int(np.searchsorted(cum, j, side="right"))
            edges = np.linspace(rlo, rhi, num_bins + 1)
            new_lo = float(edges[b])
            new_hi = float(edges[b + 1]) if b < num_bins - 1 else rhi
            new_offset = below + (int(cum[b - 1]) if b else 0)
            if int(counts[b]) <= max(1, candidate_budget // max(1, len(pending))) or new_lo == new_hi:
                state[k] = (new_lo, new_hi, new_offset)
                resolved[k] = -1.0  # marked collectible; value filled below
            else:
                state[k] = (new_lo, new_hi, new_offset)
        # loop again only for still-too-heavy bins

    # final collect: union of slivers, one filtered pass
    values: dict[int, float] = {}
    slivers = sorted({(state[k][0], state[k][1]) for k in state})

    def collect(batch: pa.Table) -> pa.Table:
        v = batch[column].to_numpy(zero_copy_only=False).astype(np.float64)
        keep = np.zeros(v.shape[0], dtype=bool)
        for rlo, rhi in slivers:
            keep |= (v >= rlo) & (v <= rhi)
        return pa.table({"v": pa.array(v[keep], pa.float64())})

    cand = np.sort(
        np.array(
            [r["v"] for r in ds.map_batches(collect, batch_format="pyarrow").take_all()],
            dtype=np.float64,
        )
    )
    for k, (rlo, rhi, offset) in state.items():
        inside = cand[(cand >= rlo) & (cand <= rhi)]
        values[k] = float(inside[k - offset])

    return pa.table(
        {
            "q": pa.array(qs, pa.float64()),
            "value": pa.array([values[ks[q]] for q in qs], pa.float64()),
        }
    )


def grouped_quantiles(
    ds: "ray.data.Dataset",
    keys: Sequence[str],
    column: str,
    qs: "Sequence[float]",
    num_buckets: int = 64,
) -> "ray.data.Dataset":
    """EXACT per-key quantiles (``quantile_disc`` rule: the k-th smallest,
    ``k = ceil(q·n) - 1``) with the two-level shrink the 100-TB target
    needs:

    1. per-batch ``(key, value) → count`` partials (C hash aggregation) —
       metric columns tie heavily, so the exchange carries the per-batch
       VALUE HISTOGRAM, not rows;
    2. one grouped sum over ``(key, value)``;
    3. one bucketed pass (`bucketed_map_groups` — per hash bucket, not per
       key) that sorts each key's distinct values, cumulates counts and
       reads off every quantile vectorized.

    Distinct ``(key, value)`` pairs bound the exchange: for integer-ish
    metrics this is tiny; for continuous values it degrades to row count
    (still exact — swap in :func:`exact_quantiles` per key range when that
    bound hurts). Output: one ``(keys..., q, value)`` row per key per q.
    """
    import math

    from .bucketed import bucketed_map_groups

    keys = list(keys)
    qs = list(qs)

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select(keys + [column]).group_by(keys + [column]).aggregate(
            [([], "count_all")]
        )
        return t.rename_columns(keys + [column, "n"])

    counted = grouped_sums(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys + [column],
        ["n"],
        count_alias=None,
    )

    def emit(g: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        g = g.sort_values(keys + [column], kind="stable")
        out = {k: [] for k in keys}
        out_q: list[float] = []
        out_v: list[float] = []
        for kv, sub in g.groupby(keys, sort=False):
            if not isinstance(kv, tuple):
                kv = (kv,)
            vals = sub[column].to_numpy()
            cnts = sub["sum_n"].to_numpy(dtype=np.int64)
            cum = np.cumsum(cnts)
            n = int(cum[-1])
            for q in qs:
                k = max(0, math.ceil(q * n) - 1)
                vi = int(np.searchsorted(cum, k + 1))
                for kc, kval in zip(keys, kv):
                    out[kc].append(kval)
                out_q.append(float(q))
                out_v.append(float(vals[vi]))
        res = pd.DataFrame(out)
        res["q"] = out_q
        res["value"] = out_v
        return res

    return bucketed_map_groups(
        counted, keys, emit, num_buckets=num_buckets, batch_format="pandas"
    )
