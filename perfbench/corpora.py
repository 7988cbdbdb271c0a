"""Seeded workload corpora, generated once per (workload, seed) and cached.

Every corpus is a pure function of the seed: the same seed gives byte-equal
inputs. The program under test only ever sees the parquet files written here.
A ``_meta.json`` written last marks a corpus (and, for ``dedup_minhash``, its
brute-force truth) as complete, so an interrupted generation is redone.
"""

from __future__ import annotations

import datetime as dt
import json
import os
import random
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from deepdoctection_ray import synth

# Sizes are chosen so one job takes 5-10 s on 2 Ray CPUs (see README.md).
MIXED_CONVS = 3_000  # ~22k turns at scale 3, 50/30/20 plain/html/pdfish
PLAIN_CONVS = 28_000  # ~198k short plain turns
HOT_FACTOR = 100  # conversation 0 has 7 * HOT_FACTOR turns
DEDUP_DOCS = 6_000
DEDUP_VOCAB = 1 << 16  # near-uniform: unrelated documents share no shingles

_FORMAT = 1  # bump when a generator changes, so stale caches regenerate


def _read_meta(path: str) -> dict:
    try:
        with open(os.path.join(path, "_meta.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def _fresh_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def _plain_transcripts(n_convs: int, seed: int) -> pa.Table:
    """Short plain-text turns (1-40 words, irregular whitespace) in the
    transcript schema, conversation lengths as in ``synth`` (one hot
    conversation of ``7 * HOT_FACTOR`` turns), rows in seeded random order."""
    rng = random.Random(seed)
    seps = (" ", "  ", "\t", "\n", " ")
    base = dt.datetime(2026, 1, 1)
    cols: dict[str, list] = {name: [] for name in synth.SCHEMA.names}
    for i in range(n_convs):
        for t in range(synth.conv_turn_count(seed, i, HOT_FACTOR)):
            words = rng.choices(synth.VOCAB, k=rng.randint(1, 40))
            cols["conv_id"].append(f"conv-{i:06d}")
            cols["turn_idx"].append(t)
            cols["role"].append(synth.ROLES[t % 3])
            cols["text"].append("".join(w + rng.choice(seps) for w in words))
            cols["tool"].append("")
            cols["ts"].append(base + dt.timedelta(hours=i, seconds=30 * t))
    order = list(range(len(cols["conv_id"])))
    rng.shuffle(order)
    return pa.table(
        {name: [cols[name][k] for k in order] for name in synth.SCHEMA.names},
        schema=synth.SCHEMA,
    )


def dedup_documents(n_docs: int, seed: int) -> pa.Table:
    """``(doc_id, text)`` with planted near-duplicates.

    Base documents are 40-80 words drawn uniformly from a 65,536-word
    vocabulary, so two unrelated documents share no 3-word shingle in
    practice. About half the base documents get 1-3 variants, each with
    2-30% of its words substituted, so variant pairs spread across the
    Jaccard threshold on both sides.
    """
    rng = np.random.default_rng(seed)
    docs: list[np.ndarray] = []
    while len(docs) < n_docs:
        base = rng.integers(0, DEDUP_VOCAB, rng.integers(40, 81))
        docs.append(base)
        n_var = int(rng.integers(1, 4)) if rng.random() < 0.5 else 0
        for _ in range(min(n_var, n_docs - len(docs))):
            var = base.copy()
            n_sub = max(1, int(len(var) * rng.uniform(0.02, 0.30)))
            pos = rng.choice(len(var), n_sub, replace=False)
            var[pos] = rng.integers(0, DEDUP_VOCAB, n_sub)
            docs.append(var)
    order = rng.permutation(len(docs))
    texts = [" ".join(f"w{w:x}" for w in docs[k]) for k in order]
    return pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
        }
    )


def _brute_force_pairs(docs_path: str) -> pa.Table:
    """Exact Jaccard >= 0.5 pairs over 3-word shingles: the repository's own
    DuckDB oracle for ``dedup_minhash``, run on the corpus file."""
    import duckdb

    from deepdoctection_ray.queries import _minhash_pairs_sql

    con = duckdb.connect()
    try:
        con.execute("SET threads TO 1")
        con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{docs_path}')")
        return con.execute(_minhash_pairs_sql("documents") + " ORDER BY id_a, id_b").arrow()
    finally:
        con.close()


def ensure(workload: str, seed: int, cache_dir: str) -> dict:
    """Locate (or generate) the workload's corpus for ``seed``.

    Returns ``{"path", "rows", "generated"}``; for ``dedup_minhash`` also
    ``"truth"``, the path of the cached brute-force pair table.
    """
    path = os.path.join(cache_dir, f"{workload}-{seed}")
    if workload == "extract_mixed":
        meta = {"v": _FORMAT, "n_convs": MIXED_CONVS, "scale": 3, "hot_factor": HOT_FACTOR}
    elif workload == "extract_plain":
        meta = {"v": _FORMAT, "n_convs": PLAIN_CONVS, "hot_factor": HOT_FACTOR}
    elif workload == "dedup_minhash":
        meta = {"v": _FORMAT, "n_docs": DEDUP_DOCS, "vocab": DEDUP_VOCAB}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    meta["seed"] = seed
    generated = _read_meta(path).get("corpus") != meta
    if generated:
        _fresh_dir(path)
        if workload == "extract_mixed":
            table = synth.make_transcripts(
                MIXED_CONVS, seed=seed, hot_factor=HOT_FACTOR, scale=3
            )
        elif workload == "extract_plain":
            table = _plain_transcripts(PLAIN_CONVS, seed)
        else:
            table = dedup_documents(DEDUP_DOCS, seed)
        pq.write_table(table, os.path.join(path, "part-0.parquet"))
        if workload == "dedup_minhash":
            truth = _brute_force_pairs(os.path.join(path, "part-0.parquet"))
            pq.write_table(truth, os.path.join(path, "truth.parquet"))
        with open(os.path.join(path, "_meta.json"), "w") as fh:
            json.dump({"corpus": meta, "rows": table.num_rows}, fh)
    rows = _read_meta(path)["rows"]
    out = {"path": os.path.join(path, "part-0.parquet"), "rows": rows, "generated": generated}
    if workload == "dedup_minhash":
        out["truth"] = os.path.join(path, "truth.parquet")
    return out
