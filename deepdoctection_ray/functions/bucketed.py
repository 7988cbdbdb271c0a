"""Bucketed groupby — the engine's answer to the tiny-group explosion.

``groupby(key).map_groups(fn)`` schedules one Python call (plus a block
slice) per distinct key. That is ruinous when keys are mostly unique: exact
dedup over a clean corpus, per-conversation assembly at 10^9 conversations,
per-user sessionization, the per-key combine of a high-cardinality partial
aggregate. Instead, rows co-partition by ``hash(key) % num_buckets`` (still
ONE shuffle, but a bounded group count) and the caller's function receives a
whole bucket at once — per-key work becomes a vectorized in-bucket groupby
(``pyarrow.Table.group_by`` / pandas) instead of a Ray task per key.

The exchange itself is ``functions.joins.exchange`` (plain Ray tasks: one
split per block, one apply per bucket); this module owns its row hash
(:func:`hash_rows`), its cut (:func:`split_by`, shared with
``run_extraction``'s partition cut) and its one-side surface
:func:`bucketed_map_groups`, used by the LSH dedup family,
``grouped_int_sums``, ``dedup_exact``, ``assemble_conversations`` and
sessionization.

Partitioning assumption (100-TB note): per-key state stays bounded by the
bucket, so ``num_buckets`` must scale with the corpus — size it so
``corpus / num_buckets`` fits an aggregator's heap, exactly like a shuffle
partition count. Keys never split across buckets (hash co-location), so the
per-key semantics are identical to the naive groupby.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

# auto-sizing rule: one bucket per ~64 MiB of input so a whole bucket fits an
# aggregator's heap with headroom, floored at 16 (parallelism on small data)
# and capped at 4096 (beyond that the per-bucket scheduling overhead wins)
AUTO_BUCKET_BYTES = 64 << 20
AUTO_BUCKET_MIN = 16
AUTO_BUCKET_MAX = 4096


def auto_num_buckets(
    input_bytes: int,
    target_bucket_bytes: int = AUTO_BUCKET_BYTES,
    lo: int = AUTO_BUCKET_MIN,
    hi: int = AUTO_BUCKET_MAX,
) -> int:
    """Size ``num_buckets`` from the input's byte size.

    The module docstring's 100-TB obligation made executable: callers that
    know their input size (a parquet footer, ``ds.size_bytes()`` on a
    materialized set) derive the bucket count instead of hardcoding one.
    ``clamp(bytes // 64 MiB, 16, 4096)`` — at 100 TB that saturates to 4096
    buckets of ~25 GB each, which a 64-core aggregator node absorbs as a
    stream; at test scale it floors to 16 so tiny corpora still parallelize.
    """
    return max(lo, min(hi, int(input_bytes) // int(target_bucket_bytes)))

# 64-bit FNV prime (odd → invertible mod 2^64) and its modular inverse: the
# string hash is a polynomial hash computed with ONE cumsum/cumprod over the
# flat byte buffer — no per-row Python, no pandas conversion
_POLY_P = np.uint64(0x100000001B3)
_POLY_PINV = np.uint64(pow(0x100000001B3, -1, 1 << 64))
_COMBINE_C = np.uint64(0x9E3779B97F4A7C15)
_NULL_H = np.uint64(0xA0761D6478BD642F)


def _mix64(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (vectorized, wraps mod 2^64)."""
    h = h.astype(np.uint64, copy=True)
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


def _hash_bytes_array(arr: pa.Array) -> np.ndarray:
    """Content hash of a ``large_string``/``large_binary`` array.

    ``h_i = P^len_i * Σ_j byte_ij * P^-j  (mod 2^64)`` — position-independent
    by construction (the prefix sums cancel the global offset), so equal
    content always hashes equal regardless of where the row sits in the
    buffer. O(total_bytes) numpy, zero copies beyond the uint8→uint64 widen.
    """
    n = len(arr)
    if n == 0:
        return np.empty(0, np.uint64)
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], np.int64)[arr.offset : arr.offset + n + 1]
    data = np.frombuffer(bufs[2], np.uint8) if bufs[2] is not None else np.empty(0, np.uint8)
    seg = data[offs[0] : offs[-1]].astype(np.uint64)
    rel = (offs - offs[0]).astype(np.int64)
    m = seg.shape[0]
    pw = np.empty(m + 1, np.uint64)
    pw[0] = 1
    ipw = np.empty(m + 1, np.uint64)
    ipw[0] = 1
    if m:
        np.cumprod(np.full(m, _POLY_P, np.uint64), out=pw[1:])
        np.cumprod(np.full(m, _POLY_PINV, np.uint64), out=ipw[1:])
    pre = np.empty(m + 1, np.uint64)
    pre[0] = 0
    if m:
        np.cumsum(seg * ipw[:-1], out=pre[1:])
    lens = (rel[1:] - rel[:-1]).astype(np.uint64)
    return _mix64((pre[rel[1:]] - pre[rel[:-1]]) * pw[rel[1:]] ^ _mix64(lens))


def _hash_column(col: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    """Deterministic vectorized uint64 hash of one Arrow column."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_dictionary(t):
        col = pc.cast(col, t.value_type)
        t = col.type
    null_mask: np.ndarray | None = None
    if col.null_count:
        null_mask = pc.is_null(col).to_numpy(zero_copy_only=False)
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        h = _hash_bytes_array(pc.cast(pc.fill_null(col, ""), pa.large_string()))
    elif pa.types.is_binary(t) or pa.types.is_large_binary(t) or pa.types.is_fixed_size_binary(t):
        h = _hash_bytes_array(pc.cast(pc.fill_null(col, b""), pa.large_binary()))
    elif pa.types.is_floating(t):
        v = pc.fill_null(pc.cast(col, pa.float64()), 0.0).to_numpy(zero_copy_only=False)
        # canonical bits for groupby-equal keys: -0.0 + 0.0 is 0.0, one NaN
        v = np.where(np.isnan(v), np.nan, v + 0.0)
        h = _mix64(v.view(np.uint64))
    else:
        # ints / bool / temporal / decimal-free keys: widen to int64 bits
        v = pc.fill_null(pc.cast(col, pa.int64()), 0).to_numpy(zero_copy_only=False)
        h = _mix64(v.astype(np.int64).view(np.uint64))
    if null_mask is not None:
        h[null_mask] = _NULL_H
    return h


def hash_rows(batch: pa.Table, key_cols: Sequence[str]) -> np.ndarray:
    """Deterministic cross-process uint64 row hash over ``key_cols`` —
    pure Arrow/numpy (no pandas conversion on the hot generic path)."""
    h = np.full(batch.num_rows, _COMBINE_C, np.uint64)
    for name in key_cols:
        ch = _hash_column(batch[name])
        # boost::hash_combine, vectorized mod-2^64
        h = h ^ (ch + _COMBINE_C + (h << np.uint64(6)) + (h >> np.uint64(2)))
    return _mix64(h)


def split_by(table: pa.Table, ids: np.ndarray, n: int) -> list[pa.Table]:
    """``table`` cut into ``n`` slices by the row ids in ``[0, n)``: slice i
    holds the rows with id i in table order, typed like ``table`` even when
    empty. One stable argsort at the narrowest width that holds ``n``."""
    if n == 1:
        return [table]
    ids = np.asarray(ids).astype(np.min_scalar_type(n))  # radix-sortable width
    ends = np.cumsum(np.bincount(ids, minlength=n))
    table = table.take(np.argsort(ids, kind="stable"))
    return [table.slice(s, e - s) for s, e in zip([0, *ends[:-1]], ends)]


def bucketed_map_groups(
    ds: ray.data.Dataset,
    key_cols: Sequence[str],
    emit_bucket: Callable,
    num_buckets: int = 64,
    batch_format: str = "pyarrow",
    anchor: "pa.Table | pa.Schema | None" = None,
) -> ray.data.Dataset:
    """Run ``emit_bucket`` once per hash bucket instead of once per key.

    The one-side ``functions.joins.exchange``: ``emit_bucket`` receives one
    whole non-empty bucket (``pa.Table`` or ``pd.DataFrame`` per
    ``batch_format``); all rows of any given key are in the same bucket. Its
    result (Arrow table or DataFrame) is returned as Arrow; a fully-empty
    result carries ``anchor``'s schema when given.
    """
    from .joins import exchange

    return exchange([ds], key_cols, emit_bucket, num_buckets, batch_format, anchor)


def with_anchor(
    ds: ray.data.Dataset, anchor: "pa.Table | pa.Schema | None"
) -> ray.data.Dataset:
    """Lazily union ONE typed empty block carrying ``anchor``'s schema (a
    table or schema; ``None`` returns ``ds`` unchanged) — the empty-corpus
    schema guard of the grouped helpers: Ray's ``groupby`` on zero rows
    yields a dataset with no schema at all, and the anchor keeps the
    documented columns visible to driver-side column access. No
    materialization, no ``schema()`` probe (that would execute the plan)."""
    if anchor is None:
        return ds
    sch = anchor.schema if isinstance(anchor, pa.Table) else anchor
    return ds.union(ray.data.from_arrow(sch.empty_table()))
