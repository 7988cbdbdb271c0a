"""Similarity search over an embedding column (``list<float>``).

- :func:`knn_brute` — exact top-k cosine: the query matrix is broadcast once
  (``ray.put``), each batch does one float64 matmul against it and emits only
  its local top-k per query (k rows per query per batch leave the stage, not
  the full score matrix), then a single small groupby reduces to the global
  top-k. This is the 100-TB-safe shape: per-batch partial top-k ≡ combiner,
  and the shuffle carries O(queries x k x batches) tiny rows.
- :func:`knn_lsh` — the scale path: hyperplane bucketing with multi-probe
  (flip each signature bit once), brute-force only within probed buckets.
  Signatures use INTEGER hyperplanes over micro-quantized embeddings
  (``floor(v * 1e6)``), so the whole bucketing is exact integer arithmetic —
  bit-reproducible in DuckDB, which is what the ``q_knn_lsh`` oracle rebuilds.
- :func:`knn_ivf` — inverted-file ANN: deterministic distributed k-means
  (seeded init, Lloyd iterations via per-batch partial sums — only
  ``n_centroids × n_batches`` tiny rows reach the driver), then queries probe
  their ``n_probe`` nearest centroid cells and brute-force only those.

All three collect the query vectors in ONE pushed-down id-filtered pass (or
accept them directly via ``query_vectors`` and skip the scan entirely); none
runs an extra dataset execution just to learn the dimension.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..kernels.vectors import embedding_matrix


def _unit(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1)
    norms[norms == 0] = 1.0
    return m / norms[:, None]


def _topk_table(
    qids: list, ids: list, cos: list, id_type: pa.DataType, qid_type: pa.DataType
) -> pa.Table:
    return pa.table(
        {
            "query_id": pa.array(qids, qid_type),
            "vec_id": pa.array(ids, id_type),
            "cosine": pa.array(cos, pa.float64()),
        }
    )


class _BatchTopK:
    """Per-batch partial top-k against a broadcast query matrix."""

    def __init__(self, query_ref, k: int, embedding_column: str, id_column: str) -> None:
        q = ray.get(query_ref)
        self._qids = q["ids"]
        self._qmat = _unit(np.asarray(q["vecs"], dtype=np.float64)).T  # [dim, Q]
        self._k = k
        self._emb = embedding_column
        self._id = id_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self._id].to_pylist()
        emb = _unit(embedding_matrix(batch[self._emb]))
        cos = emb @ self._qmat  # [N, Q]
        out_q, out_i, out_c = [], [], []
        for qi, qid in enumerate(self._qids):
            col = cos[:, qi]
            # exclude the query vector itself
            mask = np.fromiter((i != qid for i in ids), dtype=bool, count=len(ids))
            cand = np.nonzero(mask)[0]
            if cand.size == 0:
                continue
            take = cand[np.argsort(-col[cand], kind="stable")][: self._k]
            for t in take:
                out_q.append(qid)
                out_i.append(ids[t])
                out_c.append(round(float(col[t]), 6))
        return _topk_table(out_q, out_i, out_c, batch[self._id].type, batch[self._id].type)


def _collect_queries(ds, query_ids, id_column, embedding_column, query_vectors=None):
    """Query (id, vector) rows, sorted by id.

    ``query_vectors`` (a ``{id: vector}`` mapping) skips the corpus scan
    entirely; otherwise ONE pushed-down id-filtered pass collects them —
    shared by brute/LSH/IVF so no variant pays a second execution.
    """
    import pyarrow.compute as pc

    if query_vectors is not None:
        return [
            {id_column: qid, embedding_column: list(query_vectors[qid])}
            for qid in sorted(query_vectors)
        ]
    q_rows = (
        ds.map_batches(
            lambda b: b.filter(pc.is_in(b[id_column], value_set=pa.array(query_ids))),
            batch_format="pyarrow",
        )
        .select_columns([id_column, embedding_column])
        .take_all()
    )
    q_rows.sort(key=lambda r: r[id_column])
    return q_rows


def _reduce_topk(k: int):
    def reduce_topk(group: pa.Table) -> pa.Table:
        rows = sorted(
            zip(group["vec_id"].to_pylist(), group["cosine"].to_pylist()),
            key=lambda r: (-r[1], r[0]),
        )[:k]
        qid = group["query_id"][0].as_py()
        return _topk_table(
            [qid] * len(rows),
            [r[0] for r in rows],
            [r[1] for r in rows],
            group["vec_id"].type,
            group["query_id"].type,
        )

    return reduce_topk


def _brute_from_queries(ds, q_rows, k, embedding_column, id_column):
    query_ref = ray.put(
        {"ids": [r[id_column] for r in q_rows], "vecs": [r[embedding_column] for r in q_rows]}
    )
    partial = ds.map_batches(
        _BatchTopK,
        batch_format="pyarrow",
        concurrency=(1, 4),
        fn_constructor_kwargs=dict(
            query_ref=query_ref, k=k, embedding_column=embedding_column, id_column=id_column
        ),
    )
    return partial.groupby("query_id").map_groups(_reduce_topk(k), batch_format="pyarrow")


def knn_brute(
    ds: ray.data.Dataset,
    query_ids: list,
    k: int = 10,
    embedding_column: str = "embedding",
    id_column: str = "vec_id",
    query_vectors: dict | None = None,
) -> ray.data.Dataset:
    """Exact cosine top-k for the vectors whose ids are ``query_ids``.

    Result: ``(query_id, vec_id, cosine)`` sorted by (query_id, -cosine,
    vec_id) with deterministic tie-breaks; k rows per query.
    """
    q_rows = _collect_queries(ds, query_ids, id_column, embedding_column, query_vectors)
    if not q_rows:
        # zero-row corpus (or no matching query ids): typed empty result
        return ray.data.from_arrow(_topk_table([], [], [], pa.int64(), pa.int64()))
    return _brute_from_queries(ds, q_rows, k, embedding_column, id_column)


# ------------------------------------------------------------------ LSH


def lsh_hyperplanes_int(dim: int, planes: int, seed: int = 11) -> np.ndarray:
    """Deterministic small-integer hyperplanes in {-8..8}, shape [dim, planes].

    Small integers (not gaussians) so the signature is exact integer
    arithmetic on micro-quantized embeddings — the ``q_knn_lsh`` oracle
    inlines these very values and recomputes every bucket bit-exactly in
    DuckDB. All-zero planes are impossible at these sizes (P < 17^-dim).
    """
    return np.random.RandomState(seed).randint(-8, 9, size=(dim, planes)).astype(np.int64)


def lsh_bucket_ints(emb: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Bucket ids from integer hyperplane signs: ``floor(v * 1e6)`` per
    component (exact in float64 for |v| ≲ 8e9), int64 dot, strict > 0 bit."""
    q = np.floor(emb.astype(np.float64) * 1_000_000.0).astype(np.int64)
    bits = (q @ h) > 0  # [N, planes] — |dot| ≤ dim * 8e6, far from overflow
    planes = h.shape[1]
    return (bits.astype(np.int64) << np.arange(planes, dtype=np.int64)).sum(1)


def knn_lsh(
    ds: ray.data.Dataset,
    query_ids: list,
    k: int = 10,
    embedding_column: str = "embedding",
    id_column: str = "vec_id",
    planes: int = 8,
    seed: int = 11,
    query_vectors: dict | None = None,
) -> ray.data.Dataset:
    """Approximate top-k: hyperplane-bucketed with single-bit multi-probe.

    Each vector lands in one bucket; each query probes its own bucket plus the
    ``planes`` single-bit-flip neighbors (hamming-1 probing). Only probed
    buckets are scanned — the scan cost drops by ~2^planes/(planes+1).
    """
    q_rows = _collect_queries(ds, query_ids, id_column, embedding_column, query_vectors)
    if not q_rows:
        return ray.data.from_arrow(_topk_table([], [], [], pa.int64(), pa.int64()))
    qvecs = np.asarray([r[embedding_column] for r in q_rows], dtype=np.float64)
    dim = qvecs.shape[1]
    h = lsh_hyperplanes_int(dim, planes, seed)
    q_buckets = lsh_bucket_ints(qvecs, h)
    probe: set[int] = set()
    for b in q_buckets:
        probe.add(int(b))
        for p in range(planes):
            probe.add(int(b) ^ (1 << p))
    probe_list = sorted(probe)

    def bucket_filter(batch: pa.Table) -> pa.Table:
        emb = embedding_matrix(batch[embedding_column], dtype=np.float64)
        keys = lsh_bucket_ints(emb, h)
        return batch.filter(pa.array(np.isin(keys, probe_list)))

    filtered = ds.map_batches(bucket_filter, batch_format="pyarrow")
    return _brute_from_queries(filtered, q_rows, k, embedding_column, id_column)


# ------------------------------------------------------------------ IVF


def train_ivf_centroids(
    ds: ray.data.Dataset,
    n_centroids: int = 16,
    embedding_column: str = "embedding",
    seed: int = 13,
    lloyd_iters: int = 2,
    dim: int | None = None,
) -> np.ndarray:
    """Deterministic distributed k-means on the unit sphere.

    Seeded gaussian init; each Lloyd iteration is ONE ``map_batches`` pass
    emitting per-batch (centroid, sum-vector, count) partials — the driver
    merges ``n_centroids × n_batches`` tiny rows, never the vectors. Empty
    cells keep their previous centroid (deterministic). Pass ``dim`` when the
    caller already knows it (e.g. from the collected query vectors) to avoid
    an extra dataset execution.
    """
    if dim is None:
        first = ds.take(1)
        if not first:
            raise ValueError("train_ivf_centroids: empty dataset")
        dim = len(first[0][embedding_column])
    cent = _unit(np.random.RandomState(seed).standard_normal((n_centroids, dim)))
    for _ in range(lloyd_iters):
        cent_t = cent.T.copy()

        def partials(batch: pa.Table) -> pa.Table:
            emb = _unit(embedding_matrix(batch[embedding_column]))
            assign = np.argmax(emb @ cent_t, axis=1)
            sums = np.zeros((n_centroids, emb.shape[1]))
            np.add.at(sums, assign, emb)
            counts = np.bincount(assign, minlength=n_centroids)
            keep = np.nonzero(counts)[0]
            return pa.table(
                {
                    "centroid": pa.array(keep.astype(np.int32), pa.int32()),
                    "vec_sum": pa.array([sums[c].tobytes() for c in keep], pa.binary()),
                    "count": pa.array(counts[keep].astype(np.int64), pa.int64()),
                }
            )

        rows = ds.map_batches(partials, batch_format="pyarrow").take_all()
        sums = np.zeros((n_centroids, dim))
        counts = np.zeros(n_centroids)
        for r in rows:
            sums[r["centroid"]] += np.frombuffer(r["vec_sum"], dtype=np.float64)
            counts[r["centroid"]] += r["count"]
        nonempty = counts > 0
        cent = cent.copy()
        cent[nonempty] = _unit(sums[nonempty] / counts[nonempty, None])
    return cent


def knn_ivf(
    ds: ray.data.Dataset,
    query_ids: list,
    k: int = 10,
    embedding_column: str = "embedding",
    id_column: str = "vec_id",
    n_centroids: int = 16,
    n_probe: int = 4,
    seed: int = 13,
    lloyd_iters: int = 2,
    query_vectors: dict | None = None,
) -> ray.data.Dataset:
    """IVF approximate top-k: scan only the cells whose centroids are among
    each query's ``n_probe`` nearest — scan cost ~ ``n_probe/n_centroids`` of
    brute force at equal recall for clustered data."""
    q_rows = _collect_queries(ds, query_ids, id_column, embedding_column, query_vectors)
    if not q_rows:
        return ray.data.from_arrow(_topk_table([], [], [], pa.int64(), pa.int64()))
    qvecs = _unit(np.asarray([r[embedding_column] for r in q_rows], dtype=np.float64))
    cent = train_ivf_centroids(
        ds, n_centroids=n_centroids, embedding_column=embedding_column,
        seed=seed, lloyd_iters=lloyd_iters, dim=qvecs.shape[1],
    )
    sims = qvecs @ cent.T
    probe: set[int] = set()
    for row in sims:
        for c in np.argsort(-row, kind="stable")[:n_probe]:
            probe.add(int(c))
    probe_arr = np.array(sorted(probe), dtype=np.int64)
    cent_t = cent.T.copy()

    def cell_filter(batch: pa.Table) -> pa.Table:
        emb = _unit(embedding_matrix(batch[embedding_column]))
        assign = np.argmax(emb @ cent_t, axis=1)
        return batch.filter(pa.array(np.isin(assign, probe_arr)))

    filtered = ds.map_batches(cell_filter, batch_format="pyarrow")
    return _brute_from_queries(filtered, q_rows, k, embedding_column, id_column)


def ann_recall_report(
    approx: ray.data.Dataset,
    exact: ray.data.Dataset,
    k: int,
    recall_bound: float = 0.8,
) -> ray.data.Dataset:
    """Per-query recall@k of an ANN result vs the exact top-k, floored at the
    bound: ``hits_at_least = min(|approx ∩ exact|, ceil(bound*k))``.

    The floor makes the table a driver-checkable CONTAINMENT oracle: when the
    ANN meets the bound every row is the constant ``ceil(bound*k)`` (what the
    SQL oracle emits); a recall miss surfaces as the actual smaller hit count
    — an informative value mismatch. Both inputs are tiny (queries × k rows).
    """
    import math

    floor_hits = math.ceil(recall_bound * k)
    a = approx.select_columns(["query_id", "vec_id"]).to_pandas()
    e = exact.select_columns(["query_id", "vec_id"]).to_pandas()
    exact_sets = e.groupby("query_id")["vec_id"].agg(set).to_dict()
    rows = []
    for qid, grp in a.groupby("query_id"):
        hits = len(set(grp["vec_id"]) & exact_sets.get(qid, set()))
        rows.append({"query_id": qid, "k": k, "hits_at_least": min(hits, floor_hits)})
    rows.sort(key=lambda r: r["query_id"])
    return ray.data.from_arrow(
        pa.table(
            {
                "query_id": pa.array([r["query_id"] for r in rows]),
                "k": pa.array([r["k"] for r in rows], pa.int64()),
                "hits_at_least": pa.array([r["hits_at_least"] for r in rows], pa.int64()),
            }
        )
    )


def quantize_embeddings(
    ds: ray.data.Dataset,
    embedding_column: str = "embedding",
    out_column: str = "embedding_q",
) -> ray.data.Dataset:
    """Symmetric per-vector int8 quantization of an embedding column — the
    4× storage/shuffle reducer for 100-TB embedding tables (e.g. before the
    ANN index build; cosine against dequantized vectors degrades recall only
    marginally — pinned in pytest). Each vector stores its own float32 scale
    (max-abs / 127) + an int8 payload packed as ONE binary column, so the
    quantized table survives shuffles and Acero joins (which reject list<>
    payloads). Fully vectorized per batch."""

    def q(batch: pa.Table) -> pa.Table:
        m = embedding_matrix(batch[embedding_column], dtype=np.float64)
        scale = np.abs(m).max(axis=1) / 127.0
        scale[scale == 0] = 1.0
        codes = np.clip(np.rint(m / scale[:, None]), -127, 127).astype(np.int8)
        payloads = [
            np.float32(s).tobytes() + c.tobytes() for s, c in zip(scale, codes)
        ]
        return batch.drop_columns([embedding_column]).append_column(
            out_column, pa.array(payloads, pa.binary())
        )

    return ds.map_batches(q, batch_format="pyarrow")


def dequantize_embeddings(
    ds: ray.data.Dataset,
    quant_column: str = "embedding_q",
    out_column: str = "embedding",
) -> ray.data.Dataset:
    """Inverse of :func:`quantize_embeddings`: binary (scale ‖ int8 codes) →
    ``list<float>`` column."""

    def dq(batch: pa.Table) -> pa.Table:
        vecs = []
        for payload in batch[quant_column].to_pylist():
            scale = np.frombuffer(payload[:4], np.float32)[0]
            codes = np.frombuffer(payload[4:], np.int8).astype(np.float32)
            vecs.append((codes * scale).tolist())
        return batch.drop_columns([quant_column]).append_column(
            out_column, pa.array(vecs, pa.list_(pa.float32()))
        )

    return ds.map_batches(dq, batch_format="pyarrow")


def semantic_pairs(
    ds: ray.data.Dataset,
    embedding_column: str = "embedding",
    id_column: str = "vec_id",
    threshold: float = 0.95,
    n_centroids: int = 16,
    seed: int = 13,
    lloyd_iters: int = 2,
    max_cluster: int = 4096,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """SemDeDup candidate generation (Abbas et al. 2023, "SemDeDup:
    Data-efficient learning at web-scale through semantic deduplication" —
    public literature): deterministic k-means clusters the embedding space,
    then pairwise cosine runs ONLY within each cluster — the published
    web-scale recipe for turning the O(n²) all-pairs problem into
    sum-over-clusters O(Σ|c|²).

    Returns exact-verified ``(id_a, id_b, cosine)`` pairs with id_a < id_b
    (precision 1.0 by construction — every emitted cosine is computed, not
    approximated; recall is bounded by cluster assignment, the method's
    documented trade-off). Clusters larger than ``max_cluster`` truncate
    deterministically (smallest ids kept) and are counted via the shared
    truncation reporter. One shuffle, keyed by cluster id."""
    from ..functions.bucketed import bucketed_map_groups
    from .dedup import _capped_collisions, _cosine_pairs, _dedup_pair_rows

    try:
        cent = train_ivf_centroids(
            ds, n_centroids, embedding_column, seed=seed, lloyd_iters=lloyd_iters
        )
    except ValueError:
        # zero-row corpus: no clusters, no pairs — typed empty result
        return ray.data.from_arrow(
            pa.table(
                {
                    "id_a": pa.array([], pa.int64()),
                    "id_b": pa.array([], pa.int64()),
                    "cosine": pa.array([], pa.float64()),
                }
            )
        )
    cent_t = cent.T.copy()

    def assign(batch: pa.Table) -> pa.Table:
        emb = _unit(embedding_matrix(batch[embedding_column]))
        cl = np.argmax(emb @ cent_t, axis=1).astype(np.int64)
        return pa.table(
            {
                "cluster": pa.array(cl, pa.int64()),
                "band": pa.array(np.zeros(len(cl), np.int32), pa.int32()),
                id_column: batch[id_column],
                embedding_column: batch[embedding_column],
            }
        )

    def emit_cluster(g) -> "pd.DataFrame":
        capped, bounds = _capped_collisions(g, ["cluster"], id_column, max_cluster, "semantic")
        return _cosine_pairs(capped, bounds, id_column, embedding_column, threshold)

    assigned = ds.map_batches(assign, batch_format="pyarrow")
    return _dedup_pair_rows(
        bucketed_map_groups(assigned, ["band", "cluster"], emit_cluster, num_buckets, "pandas")
    )


def dedup_semantic(
    ds: ray.data.Dataset,
    embedding_column: str = "embedding",
    id_column: str = "vec_id",
    threshold: float = 0.95,
    **kwargs,
) -> ray.data.Dataset:
    """SemDeDup end-to-end: semantic pairs → connected components → one
    ``(doc_id, cluster_id)`` row per vector involved in a duplicate group
    (``doc_id == cluster_id`` marks the canonical keeper, min id — rows a
    training pipeline keeps; vectors that pair with nothing never enter the
    graph, so the output is pair-graph-sized, not corpus-sized)."""
    from .graph import connected_components

    pairs = semantic_pairs(
        ds, embedding_column, id_column, threshold=threshold, **kwargs
    )
    return connected_components(pairs, "id_a", "id_b")


# ------------------------------------------------------------------ PQ (ADC)


def train_pq_codebooks(
    ds: ray.data.Dataset,
    m_subspaces: int = 8,
    n_codes: int = 16,
    embedding_column: str = "embedding",
    seed: int = 17,
    lloyd_iters: int = 3,
    dim: int | None = None,
) -> np.ndarray:
    """Product-quantization codebooks (Jégou et al. 2011): the unit-normalized
    embedding splits into ``m_subspaces`` contiguous sub-vectors, each with
    its own ``n_codes``-centroid k-means codebook. ALL subspaces train in the
    SAME streaming pass per Lloyd iteration — one ``map_batches`` emits
    per-(subspace, code) sum/count partials, the driver merges
    ``m × n_codes × n_batches`` tiny rows, never the vectors. Deterministic
    (seeded init, empty cells keep their centroid). Returns
    ``[m, n_codes, dim/m]`` float64.
    """
    if dim is None:
        first = ds.take(1)
        if not first:
            raise ValueError("train_pq_codebooks: empty dataset")
        dim = len(first[0][embedding_column])
    if dim % m_subspaces:
        raise ValueError(f"dim {dim} not divisible by m_subspaces {m_subspaces}")
    sub = dim // m_subspaces
    rng = np.random.RandomState(seed)
    books = rng.standard_normal((m_subspaces, n_codes, sub)) * 0.1
    for _ in range(lloyd_iters):
        bks = books.copy()

        def partials(batch: pa.Table) -> pa.Table:
            emb = _unit(embedding_matrix(batch[embedding_column]))
            subs, codes, sums_out, counts_out = [], [], [], []
            for mi in range(m_subspaces):
                x = emb[:, mi * sub : (mi + 1) * sub]
                # argmin of ||x-c||^2 = argmin of -2 x·c + ||c||^2 (GEMM, no
                # [n, codes, sub] intermediate)
                d = -2.0 * (x @ bks[mi].T) + (bks[mi] ** 2).sum(1)[None, :]
                assign = np.argmin(d, axis=1)
                sums = np.zeros((n_codes, sub))
                np.add.at(sums, assign, x)
                counts = np.bincount(assign, minlength=n_codes)
                keep = np.nonzero(counts)[0]
                subs.extend([mi] * len(keep))
                codes.extend(int(c) for c in keep)
                sums_out.extend(sums[c].tobytes() for c in keep)
                counts_out.extend(int(counts[c]) for c in keep)
            return pa.table(
                {
                    "sub": pa.array(subs, pa.int32()),
                    "code": pa.array(codes, pa.int32()),
                    "vec_sum": pa.array(sums_out, pa.binary()),
                    "count": pa.array(counts_out, pa.int64()),
                }
            )

        rows = ds.map_batches(partials, batch_format="pyarrow").take_all()
        sums = np.zeros((m_subspaces, n_codes, sub))
        counts = np.zeros((m_subspaces, n_codes))
        for r in rows:
            sums[r["sub"], r["code"]] += np.frombuffer(r["vec_sum"], np.float64)
            counts[r["sub"], r["code"]] += r["count"]
        nonempty = counts > 0
        books = books.copy()
        books[nonempty] = sums[nonempty] / counts[nonempty][:, None]
    return books


def knn_pq(
    ds: ray.data.Dataset,
    query_ids: list,
    k: int = 10,
    embedding_column: str = "embedding",
    id_column: str = "vec_id",
    m_subspaces: int = 8,
    n_codes: int = 16,
    oversample: int = 8,
    seed: int = 17,
    lloyd_iters: int = 3,
    query_vectors: dict | None = None,
) -> ray.data.Dataset:
    """PQ ANN with asymmetric-distance candidate generation + exact re-rank.

    Scale shape: codes are ``m`` bytes per vector (a 32× memory cut at
    dim=64 float32), the per-batch ADC score is ``m`` table lookups per
    vector (one ``[n_queries, m, n_codes]`` LUT built ONCE per batch from
    the broadcast query matrix — no full-dim GEMM on the corpus side), and
    only the ADC top ``oversample×k`` candidates per query are re-ranked
    with exact cosine. At 100 TB the codebooks are trained once on a sample
    and shipped via ``ray.put``; here they train in-line (deterministic).
    """
    q_rows = _collect_queries(ds, query_ids, id_column, embedding_column, query_vectors)
    if not q_rows:
        return ray.data.from_arrow(_topk_table([], [], [], pa.int64(), pa.int64()))
    qvecs = _unit(np.asarray([r[embedding_column] for r in q_rows], dtype=np.float64))
    dim = qvecs.shape[1]
    books = train_pq_codebooks(
        ds, m_subspaces=m_subspaces, n_codes=n_codes,
        embedding_column=embedding_column, seed=seed, lloyd_iters=lloyd_iters, dim=dim,
    )
    sub = dim // m_subspaces
    # LUT[q, m, c] = q_sub · centroid — ADC approximates q·x by Σ_m LUT[q,m,code]
    lut = np.einsum("qmd,mcd->qmc", qvecs.reshape(len(qvecs), m_subspaces, sub), books)
    n_cand = oversample * k
    qids = [r[id_column] for r in q_rows]

    def adc_partials(batch: pa.Table) -> pa.Table:
        emb = _unit(embedding_matrix(batch[embedding_column]))
        n = emb.shape[0]
        codes = np.empty((n, m_subspaces), np.int64)
        for mi in range(m_subspaces):
            x = emb[:, mi * sub : (mi + 1) * sub]
            d = -2.0 * (x @ books[mi].T) + (books[mi] ** 2).sum(1)[None, :]
            codes[:, mi] = np.argmin(d, axis=1)
        # scores[q, n] = Σ_m lut[q, m, codes[n, m]]
        scores = lut[:, np.arange(m_subspaces)[None, :], codes].sum(axis=2)
        ids = batch[id_column].to_numpy(zero_copy_only=False)
        # per-query batch top-n_cand under the reduce's (-score, id) order,
        # so the global reduce sees every candidate it would keep
        top = np.stack([np.lexsort((ids, -sq))[:n_cand] for sq in scores]).ravel()
        q = np.repeat(np.arange(len(qids)), len(top) // len(qids))
        return _topk_table(
            np.asarray(qids)[q].tolist(),
            ids[top].tolist(),
            scores[q, top].tolist(),
            batch[id_column].type,
            batch[id_column].type,
        )

    # global per-query ADC top-n_cand: the same groupby reduce as brute kNN,
    # so take_all() collects ≤ Q·n_cand rows whatever the block count; then
    # filter by broadcast membership (a join would have to carry the
    # list<float> embedding as an Acero payload column, which Acero
    # rejects — the documented landmine)
    cand_rows = (
        ds.select_columns([id_column, embedding_column])
        .map_batches(adc_partials, batch_format="pyarrow")
        .groupby("query_id")
        .map_groups(_reduce_topk(n_cand), batch_format="pyarrow")
        .take_all()
    )
    cand_ids = np.unique(np.array([r["vec_id"] for r in cand_rows]))

    def keep_candidates(batch: pa.Table) -> pa.Table:
        ids = batch[id_column].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(np.isin(ids, cand_ids)))

    filtered = ds.select_columns([id_column, embedding_column]).map_batches(
        keep_candidates, batch_format="pyarrow"
    )
    # exact cosine re-rank over candidates only — lossiness lives solely in
    # candidate SELECTION, never in the final ranking
    return _brute_from_queries(filtered, q_rows, k, embedding_column, id_column)
