"""Merge two per-turn datasets by key — the ``merge_datapoints`` analog.

Reference (``dd_core/src/dd_core/mapper/misc.py:245-288``) unions the
annotations of two ``Image`` records with the same id (e.g. layout from one
pass, OCR from another). Here two extraction/enrichment Datasets keyed by
(conv_id, turn_idx) merge columns: the right side contributes the columns the
left lacks; on a column clash the left wins (first-pass precedence, matching
the reference's "existing annotation ids are not overwritten").

Scale shape: a two-side bucket exchange (``functions.joins.exchange``) on
``conv_id``; each bucket merges with ONE vectorized ``pandas.merge`` — not a
per-key group (millions of 2-row pandas groups would dominate wall time on a
1M-turn corpus).
"""

from __future__ import annotations

import pandas as pd

import ray.data

from .joins import exchange


def merge_by_key(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key_columns: tuple[str, ...] = ("conv_id", "turn_idx"),
    num_buckets: int = 64,
) -> ray.data.Dataset:
    keys = list(key_columns)
    left_cols = left.schema().names
    right_only = [c for c in right.schema().names if c not in left_cols]

    def combine(lg: pd.DataFrame, rg: pd.DataFrame) -> pd.DataFrame:
        if lg.empty:
            return pd.DataFrame(columns=left_cols + right_only)
        lg = lg.drop_duplicates(keys, keep="first")
        return lg.merge(rg.drop_duplicates(keys, keep="first"), on=keys, how="left")

    return exchange(
        [left, right.select_columns(keys + right_only)], keys[:1], combine, num_buckets, "pandas"
    )
