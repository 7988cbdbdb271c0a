"""Distributed BM25 keyword scoring / top-k search over a text column.

A training-data / corpus-QA staple the reference lacks entirely (its text
layer is per-page extraction): score every document against a small set of
query terms with Okapi BM25 and return the global top-k.

Scale shape — two streaming passes, nothing corpus-sized anywhere:

1. **corpus statistics** pass: each block reduces to ONE row of partials
   (doc count, total token count, per-term document frequency) via RE2
   count kernels; a tiny ``Dataset.sum`` merges them (T+2 ints reach the
   driver, regardless of corpus size).
2. **score** pass: the driver-computed IDF constants close over the scoring
   UDF (bytes, not a shuffle); each block emits only its local top-k, and a
   final sort+limit over ``k × n_blocks`` rows picks the global winners.

Term frequency is an RE2 word-boundary count on the raw text and document
length is the ``\\S+`` run count — both bit-reproducible in DuckDB (same RE2
engine), which is what the `q_bm25_search` oracle leans on.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

__all__ = ["bm25_search"]

_DL_RE = r"\S+"


def bm25_search(
    docs: ray.data.Dataset,
    terms: list[str],
    k: int = 10,
    text_column: str = "text",
    id_column: str = "doc_id",
    k1: float = 1.2,
    b: float = 0.75,
) -> ray.data.Dataset:
    """Global top-``k`` documents by Okapi BM25 against ``terms``.

    Returns ``(doc_id, score)`` with ``score`` rounded to 6 decimals and a
    deterministic ``(score desc, doc_id asc)`` tie order, so results are
    stable across partitionings. IDF is the Lucene/Robertson form
    ``ln(1 + (N - df + 0.5)/(df + 0.5))`` (never negative).
    """
    pats = [r"\b" + re.escape(t) + r"\b" for t in terms]
    df_cols = [f"df_{i}" for i in range(len(pats))]

    def partials(batch: pa.Table) -> pa.Table:
        text = batch[text_column]
        dl = pc.count_substring_regex(text, pattern=_DL_RE)
        row: dict[str, list[int]] = {
            "n_docs": [len(batch)],
            "sum_dl": [int(pc.sum(dl).as_py() or 0)],
        }
        for name, p in zip(df_cols, pats):
            tf = pc.count_substring_regex(text, pattern=p)
            hit = pc.cast(pc.greater(tf, 0), pa.int64())
            row[name] = [int(pc.sum(hit).as_py() or 0)]
        return pa.table(row)

    stats = docs.map_batches(partials, batch_format="pyarrow", batch_size=None)
    # Dataset.sum returns None (not a zero dict) when no partial rows exist —
    # an empty corpus must still yield an empty, correctly-typed result
    totals = stats.sum(["n_docs", "sum_dl"] + df_cols) or {}
    n_docs = int(totals.get("sum(n_docs)") or 0)
    if n_docs == 0:
        sch = docs.schema()
        id_type = pa.int64()
        if sch is not None and id_column in sch.names:
            id_type = sch.types[sch.names.index(id_column)]
        return ray.data.from_arrow(
            pa.table({id_column: pa.array([], id_type), "score": pa.array([], pa.float64())})
        )
    # all-empty documents: dl is 0 everywhere, so dl/avgdl must be 0, not 0/0
    avgdl = max(float(totals["sum(sum_dl)"]) / n_docs, 1e-9)
    idf = np.array(
        [
            np.log(1.0 + (n_docs - totals[f"sum({c})"] + 0.5) / (totals[f"sum({c})"] + 0.5))
            for c in df_cols
        ]
    )

    def score_topk(batch: pa.Table) -> pa.Table:
        text = batch[text_column]
        dl = pc.count_substring_regex(text, pattern=_DL_RE).to_numpy().astype(np.float64)
        norm = k1 * (1.0 - b + b * dl / avgdl)
        s = np.zeros(len(batch), dtype=np.float64)
        for i, p in enumerate(pats):
            tf = pc.count_substring_regex(text, pattern=p).to_numpy().astype(np.float64)
            with np.errstate(invalid="ignore"):
                s += idf[i] * tf * (k1 + 1.0) / (tf + norm)
        s = np.round(s, 6)
        ids = batch[id_column].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -s))[:k]  # local lossless top-k
        return pa.table(
            {
                id_column: pa.array(ids[order]),
                "score": pa.array(s[order], pa.float64()),
            }
        )

    part = docs.map_batches(score_topk, batch_format="pyarrow", batch_size=None)
    return part.sort(["score", id_column], descending=[True, False]).limit(k)


def tfidf_topk(
    ds: ray.data.Dataset,
    text_column: str = "text",
    id_column: str = "doc_id",
    top_n: int = 3,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Top-``top_n`` TF-IDF terms per document — the classic keyword /
    feature extractor (Spärck Jones 1972): ``tfidf = tf · ln(N / df)``
    ranked per doc by ``(round(tfidf, 6) desc, term asc)`` (the 6-decimal
    round is the deterministic cross-engine tie-break the SQL oracle
    shares; a raw-float order could flip on a 1-ulp ln() difference
    between numpy and DuckDB).

    Scale shape (mirrors ``stages/lm.py``): one explode pass produces the
    flat ``(doc, term, tf)`` table, materialized once because two consumers
    need it (the DF aggregate and the scoring join) — re-deriving it twice
    is the streaming alternative when pinning the table is too dear; DF is
    a bucketed grouped count (tf rows are unique per (doc, term), so
    ``count == count distinct docs``); ONE fact-stream hash join attaches
    df (vocab-sized right side — not broadcast: real vocabs don't fit a
    heap); top-n per doc via the lossless-combiner + bucketed-head
    primitive. Output: ``(id, term, tf, df, tfidf)``."""
    from ..functions.aggregates import grouped_sums, top_n_per_group
    from ..functions.joins import hash_join

    n_docs = ds.count()
    if n_docs == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    id_column: pa.array([], pa.int64()),
                    "term": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                    "df": pa.array([], pa.int64()),
                    "tfidf": pa.array([], pa.float64()),
                }
            )
        )

    def explode_tf(batch: pa.Table) -> pa.Table:
        import pandas as pd

        ids, terms = [], []
        for i, t in zip(batch[id_column].to_pylist(), batch[text_column].to_pylist()):
            for w in (t or "").split(" "):
                if w:
                    ids.append(i)
                    terms.append(w)
        df = pd.DataFrame({"i": ids, "term": terms})
        agg = df.groupby(["i", "term"], sort=False).size().reset_index(name="tf")
        return pa.table(
            {
                id_column: pa.array(agg["i"], batch[id_column].type),
                "term": pa.array(agg["term"], pa.string()),
                "tf": pa.array(agg["tf"], pa.int64()),
            }
        )

    tf_rows = ds.map_batches(explode_tf, batch_format="pyarrow").materialize()
    if tf_rows.count() == 0:
        # every document tokenized to nothing: typed empty result carrying
        # the documented columns
        return ray.data.from_arrow(
            pa.table(
                {
                    id_column: pa.array([], pa.int64()),
                    "term": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                    "df": pa.array([], pa.int64()),
                    "tfidf": pa.array([], pa.float64()),
                }
            )
        )
    # tf rows are unique per (doc, term): a plain grouped count IS the
    # document frequency. One caveat: a doc whose text repeats across blocks
    # cannot occur (rows group per batch but a doc lives in one row).
    df_tab = grouped_sums(tf_rows.select_columns(["term"]), ["term"], [], count_alias="df")
    joined = hash_join(tf_rows, df_tab, "term", {"df": pa.int64()}, num_buckets=num_buckets)

    def score(batch: pa.Table) -> pa.Table:
        tf = batch["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        dfv = batch["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        w = np.round(tf * np.log(float(n_docs) / dfv), 6)
        return batch.append_column("tfidf", pa.array(w, pa.float64()))

    scored = joined.map_batches(score, batch_format="pyarrow", batch_size=None)
    return top_n_per_group(
        scored,
        [id_column],
        ["tfidf", "term"],
        top_n,
        descending=[True, False],
        num_buckets=num_buckets,
    )
