"""Corpus n-gram language-model scoring — perplexity-style quality signal.

The fluency/quality filter a training pipeline runs when no neural LM is
available (and the deterministic stand-in for one here): train a bigram LM
on the corpus itself (add-one smoothing) and score every document by its
average negative log-probability (cross-entropy). Repetitive/templated docs
score low, out-of-distribution word salad scores high.

Distributed shape — nothing corpus-sized on the driver:

1. one pass explodes docs into (doc_id, bigram) rows; distinct-token
   vocabulary size V and the count table C(bigram) are bucketed groupby
   counts (the repo's tiny-group-safe pattern), and C(w1-as-first) is the
   per-w1 sum of C(bigram), attached to each bigram row in one bucketed
   pass keyed on w1;
2. the scoring pass hash-joins the exploded bigram stream against that
   model table (corpus-sized × vocab-sized — a shuffle join, NOT a
   broadcast: real vocabularies don't fit a task heap) and reduces
   ``-avg(ln((c12+1)/(c1+V)))`` per doc with a bucketed groupby.

Every arithmetic step (integer counts, the one double division, ``ln``,
the final avg) is mirrored in the `q_lm_xent` DuckDB oracle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions.bucketed import bucketed_map_groups
from ..functions.joins import hash_join

__all__ = ["ngram_cross_entropy"]


def _explode_bigrams(batch: pa.Table, text_column: str, id_column: str) -> pa.Table:
    """Vectorized bigram explode (Arrow split + numpy index arithmetic + C
    string joins — no per-document Python loop; kernels/grams.py)."""
    from ..kernels.grams import explode_bigrams

    row_idx, _, bg = explode_bigrams(batch[text_column])
    take = pa.array(row_idx, pa.int64())
    return pa.table({"doc_id": pc.take(batch[id_column], take), "b": bg})


def _count_by(ds: ray.data.Dataset, col: str, out: str, num_buckets: int) -> ray.data.Dataset:
    """Exact counts per key — per-batch partial counts, then a bucketed
    vectorized combine (no per-key Python groups)."""

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.group_by(col).aggregate([([], "count_all")])
        return t.rename_columns([col, "partial"])

    def combine(g: pa.Table) -> pa.Table:
        t = g.group_by(col).aggregate([("partial", "sum")])
        return t.rename_columns([col, out])

    part = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    return bucketed_map_groups(part, [col], combine, num_buckets)


def ngram_cross_entropy(
    docs: ray.data.Dataset,
    text_column: str = "text",
    id_column: str = "doc_id",
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Per-document bigram cross-entropy under the corpus's own add-one
    smoothed bigram model.

    Returns ``(doc_id, n_bigrams, xent)`` for every document with ≥2 tokens
    (``xent = -avg(ln((C(w1w2)+1)/(C(w1)+V)))``; V = distinct tokens in the
    corpus). Shorter docs have no bigram and are not emitted.
    """
    bg = docs.map_batches(
        lambda b: _explode_bigrams(b, text_column, id_column),
        batch_format="pyarrow",
        batch_size=None,
    ).materialize()  # counted and joined below; bigram rows, not raw docs

    # vocabulary: distinct tokens over the corpus (both bigram positions ∪
    # singleton docs contribute — count distinct over ALL tokens)
    def explode_tokens(batch: pa.Table) -> pa.Table:
        toks: list[str] = []
        for text in batch[text_column].to_pylist():
            toks.extend((text or "").split())
        return pa.table({"w": pa.array(pc.unique(pa.array(toks, pa.string())))})

    tok = docs.map_batches(explode_tokens, batch_format="pyarrow", batch_size=None)

    def distinct_bucket(g: pa.Table) -> pa.Table:
        n = len(pc.unique(g["w"]))
        return pa.table({"n": pa.array([n], pa.int64())})

    vparts = bucketed_map_groups(tok, ["w"], distinct_bucket, num_buckets)
    v_total = vparts.sum("n")
    v = int(v_total) if v_total is not None else 0

    # C(w1) = bigram rows with first word w1 = Σ C(w1 w2) over the bigram
    # table (w1 is the bigram's first " "-piece: tokens are whitespace-split),
    # so one bucketed pass keyed on w1 attaches c1 to every (b, c12) row —
    # no second count over the bigram stream, no vocab×vocab join
    def with_w1(batch: pa.Table) -> pa.Table:
        w1 = pc.list_element(pc.split_pattern(batch["b"], " "), 0)
        return batch.append_column("w1", w1)

    def attach_c1(g: pa.Table) -> pa.Table:
        c1 = g.group_by("w1").aggregate([("c12", "sum")])
        idx = pc.index_in(g["w1"], value_set=c1["w1"].combine_chunks())
        return pa.table({"b": g["b"], "c12": g["c12"], "c1": pc.take(c1["c12_sum"], idx)})

    model = bucketed_map_groups(
        _count_by(bg, "b", "c12", num_buckets).map_batches(
            with_w1, batch_format="pyarrow", batch_size=None
        ),
        ["w1"],
        attach_c1,
        num_buckets,
    )
    joined = hash_join(
        bg, model, "b", {"c12": pa.int64(), "c1": pa.int64()}, num_buckets=num_buckets
    )

    def score(batch: pa.Table) -> pa.Table:
        c12 = batch["c12"].to_numpy(zero_copy_only=False).astype(np.float64)
        c1 = batch["c1"].to_numpy(zero_copy_only=False).astype(np.float64)
        lp = np.log((c12 + 1.0) / (c1 + float(v)))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lp": pa.array(lp, pa.float64()),
            }
        )

    scored = joined.map_batches(score, batch_format="pyarrow", batch_size=None)

    def reduce_docs(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("doc_id")["lp"].agg(["count", "mean"]).reset_index()
        return pd.DataFrame(
            {
                "doc_id": agg["doc_id"],
                "n_bigrams": agg["count"].astype(np.int64),
                "xent": np.round(-agg["mean"].to_numpy(), 6),
            }
        )

    return bucketed_map_groups(
        scored, ["doc_id"], reduce_docs, num_buckets, batch_format="pandas"
    )
