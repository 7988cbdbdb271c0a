"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

The reference only deduplicates exactly, by content-hash id at insert time
(``image.py:627-628``) and via NMS for overlapping boxes (``nms.py:64-127``);
the approximate family here is the standard public toolkit a training-data
pipeline needs at 100 TB.

Scale notes (every op keeps ONE wide shuffle):

- exact:    hash column per batch → groupby(hash) → first-wins. Pre-hash makes
            the shuffle key small even for multi-MB texts.
- minhash:  per-batch signature (one numpy broadcast) → explode to
            (band, band_hash, doc) rows → groupby band bucket → candidate
            pairs → bucketed verify: candidate ids semi-join back against the
            corpus, only colliding docs re-shingle, two bucketed hash joins
            attach shingle lists to the pairs — nothing corpus-sized on the
            driver at any scale.
- simhash:  64-bit signature, banded into ``max_hamming + 1`` chunks
            (pigeonhole ⇒ recall 1.0) → same bucket shape; verify by exact
            Hamming distance.
- cosine:   random-hyperplane LSH bucket → within-bucket pairwise cosine.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..kernels.ids import md5_hex, stable_int
from ..kernels.vectors import embedding_matrix

# ---------------------------------------------------------------- exact dedup


def add_content_hash(batch: pa.Table, text_column: str = "text", out: str = "dedup_key") -> pa.Table:
    texts = batch[text_column].to_pylist()
    return batch.append_column(out, pa.array([md5_hex(t or "") for t in texts], pa.string()))


def dedup_exact(
    ds: ray.data.Dataset,
    text_column: str = "text",
    id_column: str = "doc_id",
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """First-wins exact dedup: smallest id per identical text survives.

    Returns columns ``(dedup_key, {id_column}, n_dups)`` — deterministic and
    SQL-oracle-friendly (``GROUP BY text``). On a mostly-unique corpus (the
    common case) almost every hash is its own group, so the combine is
    BUCKETED: rows co-partition by ``hash(dedup_key) % num_buckets`` and each
    bucket runs ONE vectorized ``pyarrow.Table.group_by`` (C hash
    aggregation) — no per-distinct-text Python call, no per-key Ray task.
    """
    from ..functions.bucketed import bucketed_map_groups

    hashed = ds.map_batches(
        lambda b: add_content_hash(b, text_column).select(["dedup_key", id_column]),
        batch_format="pyarrow",
    )

    def first_wins_bucket(g: pa.Table) -> pa.Table:
        t = g.group_by("dedup_key").aggregate([(id_column, "min"), ([], "count_all")])
        return pa.table(
            {
                "dedup_key": t["dedup_key"],
                id_column: t[f"{id_column}_min"],
                "n_dups": pc.cast(t["count_all"], pa.int64()),
            }
        )

    return bucketed_map_groups(hashed, ["dedup_key"], first_wins_bucket, num_buckets)


# ------------------------------------------------------------- minhash + LSH

_MERSENNE = (1 << 61) - 1


def _hash_params(num_hashes: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=num_hashes, dtype=np.int64).astype(np.uint64)
    b = rng.randint(0, _MERSENNE, size=num_hashes, dtype=np.int64).astype(np.uint64)
    return a, b


def shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Hashes of word k-shingles (uint64) — ``stable_int`` over the ONE
    canonical gram definition (``kernels.normalize.word_ngrams``, shared with
    the string-gram operators so the oracle families stay consistent)."""
    from ..kernels.normalize import word_ngrams

    grams = word_ngrams(text, k)
    return np.fromiter(
        (stable_int(g) for g in grams), dtype=np.uint64, count=len(grams)
    )


def batch_shingle_hashes(text_col, k: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Whole-batch shingle hashing: ``(row_index, hash)`` arrays equal to
    exploding :func:`shingle_hashes` per row, with the tokenize/join loop
    replaced by the Arrow gram kernels and md5 evaluated once per DISTINCT
    gram in the batch (dictionary-encoded — corpora repeat grams heavily).
    The hash function itself stays ``stable_int`` so every oracle that
    rebuilds signatures in SQL is unaffected."""
    from ..kernels.grams import explode_ngrams

    row_idx, grams = explode_ngrams(text_col, k)
    enc = grams.dictionary_encode()
    dict_vals = enc.dictionary.to_pylist()
    dh = np.fromiter(
        (stable_int(g) for g in dict_vals), dtype=np.uint64, count=len(dict_vals)
    )
    if len(dh) == 0:
        return row_idx, np.empty(0, dtype=np.uint64)
    return row_idx, dh[enc.indices.to_numpy(zero_copy_only=False)]


class MinHasher:
    """Actor: signature params built once; emits (band, band_key, id) rows."""

    def __init__(
        self,
        text_column: str = "text",
        id_column: str = "doc_id",
        num_hashes: int = 64,
        bands: int = 16,
        k: int = 3,
        seed: int = 7,
    ) -> None:
        assert num_hashes % bands == 0
        self._a, self._b = _hash_params(num_hashes, seed)
        self._rows_per_band = num_hashes // bands
        self._bands = bands
        self._k = k
        self._text_column = text_column
        self._id_column = id_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        r = self._rows_per_band
        num_hashes = self._bands * r
        sigs = np.empty((n, num_hashes), dtype=np.uint64)
        if n:
            # whole-batch vectorized shingling; signatures via ONE
            # segment-min per hash over the row-sorted gram stream (memory
            # stays O(grams), never O(grams × hashes))
            row_idx, sh = batch_shingle_hashes(batch[self._text_column], self._k)
            order = np.argsort(row_idx, kind="stable")
            sh = sh[order]
            counts = np.bincount(row_idx, minlength=n)  # ≥ 1 per row (gram fallback)
            offs = np.concatenate([[0], np.cumsum(counts)])[:-1]
            sig_t = np.empty((num_hashes, n), dtype=np.uint64)
            with np.errstate(over="ignore"):
                for j in range(num_hashes):
                    vj = (sh * self._a[j] + self._b[j]) % np.uint64(_MERSENNE)
                    sig_t[j] = np.minimum.reduceat(vj, offs)
            sigs = sig_t.T.copy()
        # band key: mix the band's signature rows into ONE uint64 (multiply-
        # xor chain) — replaces a per-band md5 call; collisions only create
        # extra candidates that exact-Jaccard verification discards
        mixed = sigs[:, 0::r].copy()
        prime = np.uint64(0x9E3779B97F4A7C15)
        with np.errstate(over="ignore"):
            for j in range(1, r):
                mixed = mixed * prime ^ sigs[:, j::r]
        band_ids = np.tile(np.arange(self._bands, dtype=np.int32), n)
        keys = mixed.reshape(-1).view(np.int64)
        idx = np.repeat(np.arange(n, dtype=np.int64), self._bands)
        return pa.table(
            {
                "band": pa.array(band_ids, pa.int32()),
                "band_key": pa.array(keys, pa.int64()),
                self._id_column: pc.take(batch[self._id_column], pa.array(idx, pa.int64())),
            }
        )


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


# ----------------------------------------------------- truncation observability

_TRUNC_ACTOR_NAME = "ddray_truncation_counter"


@ray.remote(num_cpus=0)
class _TruncationCounter:
    """Job-wide tally of LSH buckets that hit ``max_bucket`` — the silent
    recall cap made loud. Zero-CPU named actor; workers report, the driver
    reads via :func:`truncation_counts`. The actor itself is detached (it
    must outlive the transient map worker that first creates it), but every
    tally is keyed by the Ray JOB id — on a persistent shared cluster a new
    driver session starts from zero instead of inheriting prior runs'
    counts."""

    def __init__(self) -> None:
        self._counts: dict = {}

    def add(self, job_id: str, op: str, buckets: int, dropped_rows: int) -> None:
        job = self._counts.setdefault(job_id, {})
        c = job.setdefault(op, {"buckets": 0, "dropped_rows": 0})
        c["buckets"] += buckets
        c["dropped_rows"] += dropped_rows

    def get(self, job_id: str) -> dict:
        return {k: dict(v) for k, v in self._counts.get(job_id, {}).items()}

    def reset(self, job_id: str) -> None:
        self._counts.pop(job_id, None)


def _job_id() -> str:
    try:
        return ray.get_runtime_context().get_job_id()
    except Exception:
        return "local"


def _report_truncation(op: str, buckets: int, dropped_rows: int) -> None:
    """Called from inside a bucket UDF when ``max_bucket`` dropped candidates.
    Logs a warning and increments the job-wide counter (synchronously, so a
    driver reading right after the dataset resolves sees the final tally) —
    truncation is rare, so the per-bucket round-trip is off the hot path."""
    import logging

    logging.getLogger(__name__).warning(
        "%s: max_bucket cap truncated %d collision bucket(s), dropping %d "
        "candidate row(s) — recall is capped; raise max_bucket to recover",
        op, buckets, dropped_rows,
    )
    try:
        # detached: the counter must outlive the map worker that first
        # creates it (non-detached named actors fate-share with their owner)
        actor = _TruncationCounter.options(
            name=_TRUNC_ACTOR_NAME, get_if_exists=True, lifetime="detached"
        ).remote()
        ray.get(actor.add.remote(_job_id(), op, buckets, dropped_rows))
    except Exception:
        pass  # observability must never fail the pipeline


def truncation_counts() -> dict:
    """Per-op ``{"buckets": n, "dropped_rows": m}`` for every dedup op whose
    ``max_bucket`` cap dropped candidate pairs in THIS driver session
    (job-scoped; {} if none)."""
    try:
        actor = ray.get_actor(_TRUNC_ACTOR_NAME)
        return ray.get(actor.get.remote(_job_id()))
    except Exception:
        # no actor yet, or a stale pre-upgrade detached actor with the old
        # method signature survived on a persistent cluster — observability
        # reads must never raise
        return {}


def reset_truncation_counts() -> None:
    try:
        ray.get(ray.get_actor(_TRUNC_ACTOR_NAME).reset.remote(_job_id()))
    except Exception:
        pass


def _grouped_collisions(
    ds: ray.data.Dataset,
    group_cols: list[str],
    emit_bucket,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """groupby(group_cols) WITHOUT the tiny-group explosion.

    A naive ``groupby(band, band_key).map_groups`` creates one Python call per
    LSH bucket — hundreds of thousands of ~1-row groups. Instead rows
    co-partition by ``hash(group key) % num_buckets`` (one shuffle, bounded
    group count) and ``emit_bucket`` receives a whole bucket as ONE pandas
    frame, and :func:`_capped_collisions` turns it into capped collision
    groups with vectorized pandas/numpy steps.

    Kept separate from the generic ``functions.bucketed.bucketed_map_groups``
    on purpose: LSH keys are (int32 band, int64 band_key) pairs, and the
    multiply-xor mix below is cheaper than the generic ``tag_buckets``
    (``hash_rows``) row hash on the per-band exploded volume (rows × bands):
    8.5-9.8 ms against 12.6-13.9 ms for 384k band rows, single-threaded on a
    shared Xeon VM. Any partitioning-semantics change must be applied to
    BOTH. The inner function names are load-bearing:
    Ray Data labels the operators ``MapBatches(tag)`` and
    ``MapBatches(emit_arrow)``, and perfbench's traced run reads those labels
    as its ``band_tag`` and ``emit_pairs`` layers.
    """
    import pandas as pd

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        arrays = [df[c].to_numpy() for c in group_cols]
        if all(np.issubdtype(a.dtype, np.number) for a in arrays):
            # numeric keys (LSH band ids/keys): one multiply-xor mix, no
            # per-row string building
            acc = arrays[0].astype(np.uint64)
            prime = np.uint64(0x9E3779B97F4A7C15)
            with np.errstate(over="ignore"):
                for a in arrays[1:]:
                    acc = acc * prime ^ a.astype(np.uint64)
            bucket = acc % np.uint64(num_buckets)
        else:
            key = df[group_cols[0]].astype(str)
            for c in group_cols[1:]:
                key = key + "\x1f" + df[c].astype(str)
            bucket = pd.util.hash_array(key.to_numpy(dtype=object)) % np.uint64(num_buckets)
        df["__bucket"] = bucket.astype(np.int64)
        return df

    def emit_arrow(g):
        # hand back ARROW with explicit schema: a 0-row pandas frame would
        # become a schema-less block that poisons downstream Acero joins
        out = emit_bucket(g)
        return pa.Table.from_pandas(out, preserve_index=False)

    return (
        ds.map_batches(tag, batch_format="pandas", batch_size=None)
        .groupby("__bucket")
        .map_groups(emit_arrow, batch_format="pandas")
    )


def _capped_collisions(g, keys: list[str], id_column: str, max_bucket: int, op: str):
    """The ONE owner of the LSH recall cap, for one exchange bucket ``g``.

    Keeps only the groups of ``keys`` that collide (two or more rows), sorts
    each by ascending id (stable) and keeps its first ``max_bucket`` rows, so
    the kept candidates never depend on row arrival order. Truncated groups
    and their dropped rows are reported once per bucket through
    :func:`_report_truncation`. One sort and one ``groupby().head()`` — no
    pandas call per group.

    Returns ``(frame, bounds)``: the capped groups, contiguous and each in
    ascending id order, and the ``n_groups + 1`` row offsets delimiting them.
    """
    sizes = g.groupby(keys, sort=False)[id_column].transform("size").to_numpy()
    coll = g[sizes > 1].sort_values([*keys, id_column], kind="stable")
    groups = coll.groupby(keys, sort=False)  # first appearance = sorted order
    full = groups.size().to_numpy()
    over = full > max_bucket
    if over.any():
        _report_truncation(op, int(over.sum()), int((full[over] - max_bucket).sum()))
    bounds = np.concatenate([[0], np.cumsum(np.minimum(full, max_bucket))])
    return groups.head(max_bucket), bounds


def _pairs_within(bounds: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row positions ``(i, j)``, ``i < j``, of every pair of distinct ids
    inside one group of a :func:`_capped_collisions` frame (ids ascend within
    a group, so ``ids[i] < ids[j]``); ``i`` is non-decreasing."""
    from ..kernels.grams import ranges

    n = int(bounds[-1])
    after = np.repeat(bounds[1:], np.diff(bounds)) - np.arange(n) - 1
    i = np.repeat(np.arange(n), after)
    j = i + 1 + ranges(after)
    keep = ids[i] != ids[j]
    return i[keep], j[keep]


def _pair_frame(id_a: np.ndarray, id_b: np.ndarray, **scores) -> "pd.DataFrame":
    """The emitters' one output shape: typed ``(id_a, id_b, *scores)`` rows,
    one per distinct id pair (a pair colliding in several groups of the
    bucket keeps its first row)."""
    import pandas as pd

    return pd.DataFrame({"id_a": id_a, "id_b": id_b, **scores}).drop_duplicates(["id_a", "id_b"])


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of 64-bit words (int64 or uint64 bits)."""
    return np.unpackbits(x.view(np.uint8)).reshape(-1, 64).sum(axis=1).astype(np.int64)


def _cosine_pairs(capped, bounds, id_column: str, embedding_column: str, threshold: float):
    """Within-group pairs with cosine ≥ ``threshold`` over a
    :func:`_capped_collisions` frame — the scoring core of the embedding LSH
    and SemDeDup emitters. Each group's cosines come from one
    ``unit @ unit.T``; the filter reads the unrounded value (mirrors the
    oracle) and the output rounds to 6 places."""
    ids = capped[id_column].to_numpy()
    i, j = _pairs_within(bounds, ids)
    cos = np.empty(len(i))
    if len(ids):
        emb = np.asarray(capped[embedding_column].tolist(), dtype=np.float64)
        norms = np.linalg.norm(emb, axis=1)
        norms[norms == 0] = 1.0
        unit = emb / norms[:, None]
        cuts = np.searchsorted(i, bounds)
        for s, e, p, q in zip(bounds[:-1], bounds[1:], cuts[:-1], cuts[1:]):
            u = unit[s:e]
            cos[p:q] = (u @ u.T)[i[p:q] - s, j[p:q] - s]
    keep = cos >= threshold
    rounded = np.array([round(float(c), 6) for c in cos[keep]], dtype=np.float64)
    return _pair_frame(ids[i[keep]], ids[j[keep]], cosine=rounded)


def _dedup_pair_rows(pairs: ray.data.Dataset, num_buckets: int = 32) -> ray.data.Dataset:
    """Global (id_a, id_b) dedup on the generic bucketed pattern — same pair
    always lands in one bucket (keyed by id_a), ONE drop_duplicates per
    bucket."""
    from ..functions.bucketed import bucketed_map_groups

    def dedup(g):
        return g.drop_duplicates(["id_a", "id_b"], keep="first")

    return bucketed_map_groups(
        pairs, ["id_a"], dedup, num_buckets, batch_format="pandas"
    )


def dedup_minhash(
    ds: ray.data.Dataset,
    text_column: str = "text",
    id_column: str = "doc_id",
    threshold: float = 0.8,
    num_hashes: int = 64,
    bands: int = 16,
    k: int = 3,
    seed: int = 7,
    verify: bool = True,
    max_bucket: int = 64,
) -> ray.data.Dataset:
    """MinHash-LSH near-duplicate pairs, exact-Jaccard verified.

    Returns ``(id_a, id_b, jaccard)`` with id_a < id_b, deduplicated across
    bands. Verification is FULLY BUCKETED — nothing corpus-sized ever touches
    the driver or the object store as one object:

    1. candidate doc ids are exploded out of the pairs (a tiny fraction of
       the corpus — only docs that collided in some band);
    2. a bucketed semi-join re-shingles exactly those docs inside
       ``map_batches`` (one corpus pass, shingle lists only for candidates);
    3. two bucketed hash joins attach ``shingles_a`` / ``shingles_b`` to each
       pair; exact Jaccard filters ≥ threshold.
    """
    buckets = ds.map_batches(
        MinHasher,
        batch_format="pyarrow",
        concurrency=(1, 4),
        fn_constructor_kwargs=dict(
            text_column=text_column, id_column=id_column, num_hashes=num_hashes,
            bands=bands, k=k, seed=seed,
        ),
    )

    def emit_bucket(g) -> "pd.DataFrame":
        capped, bounds = _capped_collisions(g, ["band", "band_key"], id_column, max_bucket, "minhash")
        ids = capped[id_column].to_numpy()
        i, j = _pairs_within(bounds, ids)
        return _pair_frame(ids[i], ids[j])

    pairs = _dedup_pair_rows(  # cross-band dedup (bucketed, not per-pair groups)
        _grouped_collisions(buckets, ["band", "band_key"], emit_bucket)
    )
    if not verify:
        return pairs
    return _verify_pairs_exact(ds, pairs, text_column, id_column, threshold, k)


def _verify_pairs_exact(
    ds: ray.data.Dataset,
    pairs: ray.data.Dataset,
    text_column: str,
    id_column: str,
    threshold: float,
    k: int,
) -> ray.data.Dataset:
    """Exact-Jaccard verification of candidate ``(id_a, id_b)`` pairs —
    fully bucketed, shared by the minhash and n-gram-Jaccard dedups."""
    from ..functions.joins import hash_join

    # pairs fans out to two consumers below (candidate explode + join probe);
    # materialize the SMALL candidate set once so the corpus-wide candidate
    # chain is not re-executed per consumer (blocks stay in the object store
    # and spill — never on the driver)
    pairs = pairs.materialize()

    # 1. candidate ids: explode pairs → distinct doc ids that collided anywhere
    def explode_ids(batch: pa.Table) -> pa.Table:
        ids = pa.concat_arrays(
            [batch["id_a"].combine_chunks(), batch["id_b"].combine_chunks()]
        )
        return pa.table({id_column: pc.unique(ids)})

    candidates = pairs.map_batches(explode_ids, batch_format="pyarrow")

    # 2. corpus ⋉ candidates (bucketed semi-join), then shingle ONLY those docs
    colliding = hash_join(
        ds.select_columns([id_column, text_column]), candidates, id_column, how="semi"
    )

    def to_shingles(batch: pa.Table) -> pa.Table:
        # packed as binary (uint64 little-endian) — Acero hash joins carry
        # binary payload columns but reject list<> non-key fields
        sh = [
            np.unique(shingle_hashes(t or "", k)).tobytes()
            for t in batch[text_column].to_pylist()
        ]
        return pa.table(
            {
                id_column: batch[id_column],
                "shingles": pa.array(sh, pa.binary()),
            }
        )

    # doc_shingles also feeds two joins — materialize (candidate-sized, small)
    doc_shingles = colliding.map_batches(to_shingles, batch_format="pyarrow").materialize()

    # 3. attach shingles to each pair side via two bucketed joins, then verify
    side_a = doc_shingles.rename_columns({id_column: "id_a", "shingles": "shingles_a"})
    side_b = doc_shingles.rename_columns({id_column: "id_b", "shingles": "shingles_b"})
    withs = hash_join(pairs, side_a, "id_a", {"shingles_a": pa.binary()}, how="inner")
    withs = hash_join(withs, side_b, "id_b", {"shingles_b": pa.binary()}, how="inner")

    def verify_batch(batch: pa.Table) -> pa.Table:
        ja = [
            jaccard(
                set(np.frombuffer(a or b"", dtype=np.uint64)),
                set(np.frombuffer(b_ or b"", dtype=np.uint64)),
            )
            for a, b_ in zip(batch["shingles_a"].to_pylist(), batch["shingles_b"].to_pylist())
        ]
        batch = batch.drop_columns(["shingles_a", "shingles_b"])
        # filter on the UNROUNDED value (mirrors the oracle's WHERE), round for display
        keep = pa.array([j >= threshold for j in ja])
        rounded = pa.array([round(j, 6) for j in ja], pa.float64())
        batch = batch.append_column("jaccard", rounded)
        return batch.filter(keep)

    return withs.map_batches(verify_batch, batch_format="pyarrow")


def dedup_ngram_jaccard(
    ds: ray.data.Dataset,
    text_column: str = "text",
    id_column: str = "doc_id",
    threshold: float = 0.5,
    k: int = 3,
    max_bucket: int = 256,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """EXACT word-k-gram Jaccard near-duplicate pairs ≥ ``threshold``.

    Unlike :func:`dedup_minhash` (probabilistic banding) this is exact by
    construction, yet never enumerates all O(n²) pairs: candidate generation
    uses PREFIX FILTERING (the PPJoin/All-Pairs family, Xiao et al. 2008 —
    public literature, no reference analog). Each doc's distinct shingle
    hashes sort under the global numeric order; only the first
    ``|S| - ceil(t·|S|) + 1`` of them are posted to the inverted index.
    Lossless: Jaccard(A,B) ≥ t ⟹ |A∩B| ≥ t·max(|A|,|B|), and the first
    common element of two sorted sets with overlap ≥ ceil(t·|X|) must sit
    inside X's prefix for both sides — so every qualifying pair still
    collides on a posted shingle. At t=0.8 only ~20% of each doc's shingles
    enter the shuffle.

    Collision detection reuses the bucketed groupby (no per-shingle Python
    group), pair dedup is bucketed, and verification is the same bucketed
    exact-Jaccard join chain as minhash. Over-``max_bucket`` shingle buckets
    (stop-phrase shingles) are truncated and REPORTED via
    :func:`truncation_counts`.
    """

    def to_prefix_postings(batch: pa.Table) -> pa.Table:
        from ..kernels.grams import ranges

        n_rows = len(batch)
        if n_rows == 0:
            return pa.table(
                {"shingle": pa.array([], pa.int64()),
                 id_column: batch[id_column]}
            )
        # whole-batch vectorized: explode hashes, per-row sorted-unique via
        # one lexsort + consecutive-dedup, then the first
        # |S| - ceil(t·|S|) + 1 hashes per row via index arithmetic
        row_idx, h = batch_shingle_hashes(batch[text_column], k)
        order = np.lexsort((h, row_idx))
        r, hh = row_idx[order], h[order]
        keep = np.ones(len(r), dtype=bool)
        keep[1:] = (r[1:] != r[:-1]) | (hh[1:] != hh[:-1])
        r, hh = r[keep], hh[keep]
        counts = np.bincount(r, minlength=n_rows)  # ≥ 1 per row (gram fallback)
        p = np.maximum(1, counts - np.ceil(threshold * counts).astype(np.int64) + 1)
        offs = np.concatenate([[0], np.cumsum(counts)])[:-1]
        sel = np.repeat(offs, p) + ranges(p)
        take = pa.array(np.repeat(np.arange(n_rows, dtype=np.int64), p))
        return pa.table(
            {
                "shingle": pa.array(hh[sel].view(np.int64), pa.int64()),
                id_column: pc.take(batch[id_column], take),
            }
        )

    postings = ds.map_batches(to_prefix_postings, batch_format="pyarrow")

    def emit_bucket(g) -> "pd.DataFrame":
        capped, bounds = _capped_collisions(g, ["shingle"], id_column, max_bucket, "ngram_jaccard")
        ids = capped[id_column].to_numpy()
        i, j = _pairs_within(bounds, ids)
        return _pair_frame(ids[i], ids[j])

    pairs = _dedup_pair_rows(
        _grouped_collisions(postings, ["shingle"], emit_bucket, num_buckets)
    )
    return _verify_pairs_exact(ds, pairs, text_column, id_column, threshold, k)


# ------------------------------------------------------------------- simhash


def simhash64(text: str) -> int:
    """64-bit SimHash over whitespace tokens, one matrix op per document:
    token hashes → [n_tok, 64] bit matrix → column vote → sign bits."""
    toks = text.split()
    if not toks:
        return 0
    hs = np.fromiter(
        (
            stable_int(tok, bits=63) | (stable_int("~" + tok, bits=1) << 63)
            for tok in toks
        ),
        dtype=np.uint64,
        count=len(toks),
    )
    shifts = np.arange(64, dtype=np.uint64)
    bits = (hs[:, None] >> shifts[None, :]) & np.uint64(1)  # [n_tok, 64]
    acc = (2 * bits.astype(np.int64) - 1).sum(axis=0)
    return int(((acc > 0).astype(np.uint64) << shifts).sum())


def add_simhash(batch: pa.Table, text_column: str = "text") -> pa.Table:
    texts = batch[text_column].to_pylist()
    return batch.append_column(
        "simhash", pa.array([f"{simhash64(t or ''):016x}" for t in texts], pa.string())
    )


def _simhash_band_bounds(bands: int) -> list[tuple[int, int]]:
    """Split the 64 signature bits into ``bands`` near-equal contiguous chunks;
    returns (shift, width) per band."""
    base, rem = divmod(64, bands)
    bounds, shift = [], 0
    for b in range(bands):
        width = base + (1 if b < rem else 0)
        bounds.append((shift, width))
        shift += width
    return bounds


def dedup_simhash(
    ds: ray.data.Dataset,
    text_column: str = "text",
    id_column: str = "doc_id",
    max_hamming: int = 3,
    max_bucket: int = 64,
    bands: int | None = None,
) -> ray.data.Dataset:
    """SimHash near-dup pairs: banded bucketing + exact Hamming verification.

    Pigeonhole guarantee: a pair within Hamming distance ``max_hamming`` of 64
    bits differs in at most ``max_hamming`` bands, so with
    ``bands > max_hamming`` (the default ``max_hamming + 1``) it shares at
    least one *exact* band — recall is 1.0 by construction, not probabilistic.
    """
    if bands is None:
        bands = max_hamming + 1
    if bands <= max_hamming:
        raise ValueError(
            f"bands={bands} cannot guarantee recall for max_hamming={max_hamming}; "
            "need bands > max_hamming (pigeonhole)"
        )
    bounds = _simhash_band_bounds(bands)

    def to_bands(batch: pa.Table) -> pa.Table:
        batch = add_simhash(batch, text_column)
        sims = batch["simhash"].to_pylist()
        ids = batch[id_column].to_pylist()
        band_ids, keys, out_ids, out_sims = [], [], [], []
        for i, s in zip(ids, sims):
            v = int(s, 16)
            for band, (shift, width) in enumerate(bounds):
                band_ids.append(band)
                keys.append((v >> shift) & ((1 << width) - 1))
                out_ids.append(i)
                out_sims.append(s)
        return pa.table(
            {
                "band": pa.array(band_ids, pa.int32()),
                "band_key": pa.array(keys, pa.int32()),
                id_column: pa.array(out_ids, batch[id_column].type),
                "simhash": pa.array(out_sims, pa.string()),
            }
        )

    def emit_bucket(g) -> "pd.DataFrame":
        capped, bounds = _capped_collisions(g, ["band", "band_key"], id_column, max_bucket, "simhash")
        ids = capped[id_column].to_numpy()
        i, j = _pairs_within(bounds, ids)
        sims = np.array([int(h, 16) for h in capped["simhash"]], dtype=np.uint64)
        dist = _popcount64(sims[i] ^ sims[j])
        keep = dist <= max_hamming
        return _pair_frame(ids[i[keep]], ids[j[keep]], hamming=dist[keep].astype(np.int32))

    banded = ds.map_batches(to_bands, batch_format="pyarrow")
    return _dedup_pair_rows(_grouped_collisions(banded, ["band", "band_key"], emit_bucket))


# ------------------------------------------------------- embedding near-dup


def dedup_embedding_cosine(
    ds: ray.data.Dataset,
    embedding_column: str = "embedding",
    id_column: str = "vec_id",
    threshold: float = 0.95,
    planes: int = 8,
    bands: int = 8,
    seed: int = 11,
    max_bucket: int = 256,
) -> ray.data.Dataset:
    """Multiband random-hyperplane LSH + within-bucket pairwise cosine ≥ τ.

    ``bands`` independent plane sets; a pair is a candidate if it agrees on
    ALL planes of ANY band — miss probability for a pair at angle θ is
    ``(1 - (1-θ/π)^planes)^bands`` (≈1e-6 at cosine 0.997 with 8×8), vs ~26%
    for the old single 12-plane band. One shuffle keyed by (band, signature);
    embeddings are duplicated ``bands``× across the exchange — the recall
    price, tunable per call. Hyperplanes are seeded numpy, identical on every
    worker (regenerated in the stage, no broadcast needed).
    """

    def to_buckets(batch: pa.Table) -> pa.Table:
        emb = embedding_matrix(batch[embedding_column])
        dim = emb.shape[1]
        h = np.random.RandomState(seed).standard_normal((dim, bands * planes))
        signs = (emb @ h) > 0  # [n, bands*planes]
        weights = (1 << np.arange(planes, dtype=np.uint64))
        n = emb.shape[0]
        out_band, out_key, out_idx = [], [], []
        for b in range(bands):
            keys = (signs[:, b * planes : (b + 1) * planes].astype(np.uint64) * weights).sum(1)
            out_band.append(np.full(n, b, dtype=np.int32))
            out_key.append(keys.astype(np.int64))
            out_idx.append(np.arange(n))
        idx = np.concatenate(out_idx)
        return pa.table(
            {
                "band": pa.array(np.concatenate(out_band), pa.int32()),
                "bucket": pa.array(np.concatenate(out_key), pa.int64()),
                id_column: pc.take(batch[id_column], pa.array(idx, pa.int64())),
                embedding_column: pc.take(batch[embedding_column], pa.array(idx, pa.int64())),
            }
        )

    def emit_bucket(g) -> "pd.DataFrame":
        capped, bounds = _capped_collisions(
            g, ["band", "bucket"], id_column, max_bucket, "embedding_cosine"
        )
        return _cosine_pairs(capped, bounds, id_column, embedding_column, threshold)

    banded = ds.map_batches(to_buckets, batch_format="pyarrow")
    return _dedup_pair_rows(_grouped_collisions(banded, ["band", "bucket"], emit_bucket))


class ContaminationFlagger:
    """Actor: membership of each doc's k-gram hashes against a broadcast
    benchmark gram set (``ray.put`` once, ``ray.get`` once per ACTOR in
    ``__init__`` — never re-shipped per batch). The benchmark side of a
    decontamination scan is small (an eval suite); the corpus side streams."""

    def __init__(self, bench_ref, text_column: str = "text", id_column: str = "doc_id", k: int = 8) -> None:
        import ray

        self._bench = ray.get(bench_ref)  # sorted unique uint64
        self._text = text_column
        self._id = id_column
        self._k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        shared_counts = []
        for t in batch[self._text].to_pylist():
            sh = np.unique(shingle_hashes(t or "", self._k))
            shared_counts.append(
                int(np.isin(sh, self._bench, assume_unique=True).sum())
            )
        n_shared = pa.array(shared_counts, pa.int64())
        return pa.table(
            {
                self._id: batch[self._id],
                "n_shared": n_shared,
                "contaminated": pc.greater(n_shared, pa.scalar(0, pa.int64())),
            }
        )


def flag_contaminated(
    corpus: ray.data.Dataset,
    benchmark: ray.data.Dataset,
    text_column: str = "text",
    id_column: str = "doc_id",
    k: int = 8,
) -> ray.data.Dataset:
    """Benchmark decontamination: flag every corpus doc sharing ≥1 word
    k-gram with the benchmark set (the train/test-leakage scan of an LLM
    data pipeline; k=8 is the common contamination window).

    The benchmark grams reduce per batch (unique within batch), union on the
    driver (benchmark-sized by assumption — an eval suite, not a corpus) and
    broadcast once via ``ray.put``; the corpus pass is a streaming
    ``map_batches`` with a vectorized sorted-array membership test. Output:
    ``(id, n_shared, contaminated)`` with ``n_shared`` = distinct shared
    grams — equal to the SQL intersect count barring 63-bit hash collisions.
    """
    import ray

    def bench_grams(batch: pa.Table) -> pa.Table:
        acc = [shingle_hashes(t or "", k) for t in batch[text_column].to_pylist()]
        u = np.unique(np.concatenate(acc)) if acc else np.empty(0, np.uint64)
        return pa.table({"g": pa.array(u.view(np.int64), pa.int64())})

    parts = benchmark.map_batches(bench_grams, batch_format="pyarrow").take_all()
    merged = (
        np.unique(np.array([r["g"] for r in parts], np.int64).view(np.uint64))
        if parts
        else np.empty(0, np.uint64)
    )
    bench_ref = ray.put(merged)
    return corpus.map_batches(
        ContaminationFlagger,
        batch_format="pyarrow",
        concurrency=(1, 4),
        fn_constructor_kwargs=dict(
            bench_ref=bench_ref, text_column=text_column, id_column=id_column, k=k
        ),
    )


def dedup_segments(
    ds: ray.data.Dataset,
    text_column: str = "text",
    id_column: str = "doc_id",
    window: int = 20,
    num_buckets: int = 64,
    keep_text: bool = False,
) -> ray.data.Dataset:
    """Cross-document repetition removal at sub-document granularity (the
    paragraph/line-dedup step of an LLM data pipeline, cf. Lee et al. 2022
    "Deduplicating Training Data Makes Language Models Better" — public
    literature): documents split into fixed ``window``-word segments and only
    the FIRST occurrence of every distinct segment survives, "first" =
    smallest ``(id, seg_idx)`` — deterministic and oracle-matchable.

    The exchange ships ONLY ``(id, seg_idx, seg_key)`` where ``seg_key`` is
    the md5 of the segment — the segment TEXT never crosses the shuffle (the
    same pre-hash that makes :func:`dedup_exact` scale; at 100 TB of 20-word
    segments this cuts the dominant shuffle's bytes several-fold). First-wins
    runs on the bucketed pattern keyed by ``seg_key`` (ONE vectorized
    drop-duplicates per hash bucket, no per-segment Python call).

    Output: ``(id, seg_idx, seg_key)`` surviving rows; with
    ``keep_text=True`` a second explode pass re-derives the survivors' text
    via a bucketed semi join on the (id, seg_idx) row key and the output is
    ``(id, seg_idx, seg)`` instead (costs one more corpus scan + one
    survivor-sized shuffle — only pay it when downstream needs the text)."""
    import pandas as pd

    from ..functions.bucketed import bucketed_map_groups

    def explode_keys(batch: pa.Table) -> pa.Table:
        ids, idxs, keys = [], [], []
        for i, t in zip(batch[id_column].to_pylist(), batch[text_column].to_pylist()):
            toks = (t or "").split()
            n_segs = max(1, -(-len(toks) // window))
            for s in range(n_segs):
                ids.append(i)
                idxs.append(s)
                keys.append(md5_hex(" ".join(toks[s * window : (s + 1) * window])))
        return pa.table(
            {
                id_column: pa.array(ids, batch[id_column].type),
                "seg_idx": pa.array(idxs, pa.int64()),
                "seg_key": pa.array(keys, pa.string()),
            }
        )

    def first_wins(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["seg_key", id_column, "seg_idx"], kind="stable").drop_duplicates(
            "seg_key", keep="first"
        )

    survivors = bucketed_map_groups(
        ds.map_batches(explode_keys, batch_format="pyarrow"),
        ["seg_key"],
        first_wins,
        num_buckets,
        batch_format="pandas",
    )
    if not keep_text:
        return survivors

    from ..functions.joins import hash_join

    def explode_text(batch: pa.Table) -> pa.Table:
        ids, idxs, segs, rks = [], [], [], []
        for i, t in zip(batch[id_column].to_pylist(), batch[text_column].to_pylist()):
            toks = (t or "").split()
            n_segs = max(1, -(-len(toks) // window))
            for s in range(n_segs):
                ids.append(i)
                idxs.append(s)
                segs.append(" ".join(toks[s * window : (s + 1) * window]))
                rks.append(f"{i}#{s}")
        return pa.table(
            {
                id_column: pa.array(ids, batch[id_column].type),
                "seg_idx": pa.array(idxs, pa.int64()),
                "seg": pa.array(segs, pa.string()),
                "row_key": pa.array(rks, pa.string()),
            }
        )

    def survivor_keys(batch: pa.Table) -> pa.Table:
        rks = [
            f"{i}#{s}"
            for i, s in zip(batch[id_column].to_pylist(), batch["seg_idx"].to_pylist())
        ]
        return pa.table({"row_key": pa.array(rks, pa.string())})

    keys = survivors.map_batches(survivor_keys, batch_format="pyarrow")
    rejoined = hash_join(
        ds.map_batches(explode_text, batch_format="pyarrow"), keys, "row_key", how="semi"
    )
    return rejoined.select_columns([id_column, "seg_idx", "seg"])


# --------------------------------------------------------------------------
# Bloom-filter decontamination — the memory-bounded scale path
# --------------------------------------------------------------------------

_BLOOM_HEX = 12  # md5 prefix nibbles -> 48-bit position space before % m


def _bloom_positions(grams, n_hashes: int, m_bits: int) -> "np.ndarray":
    """(len(grams), n_hashes) bit positions; position h of gram g is
    ``md5(f"{h}:{g}")`` — SQL: ``('0x' || substr(md5(h || ':' || g), 1,
    12))::UBIGINT % m``. md5 runs per DISTINCT (h, gram) only because the
    caller passes uniques."""
    import hashlib

    out = np.empty((len(grams), n_hashes), dtype=np.int64)
    for gi, g in enumerate(grams):
        for h in range(n_hashes):
            out[gi, h] = (
                int(
                    hashlib.md5(f"{h}:{g}".encode("utf-8")).hexdigest()[:_BLOOM_HEX],
                    16,
                )
                % m_bits
            )
    return out


class BloomContaminationFlagger:
    """Actor: Bloom-filter membership scan. The filter (a bool bitset of
    ``m_bits``) broadcasts once via ``ray.put`` and is fetched once per
    ACTOR; each batch explodes grams with the vectorized Arrow kernel,
    hashes per distinct gram, and a gram counts as a (possible) hit only if
    ALL ``n_hashes`` of its bits are set — no false negatives ever."""

    def __init__(self, bits_ref, text_column: str, id_column: str, k: int,
                 n_hashes: int, m_bits: int) -> None:
        import ray

        self._bits = ray.get(bits_ref)
        self._text = text_column
        self._id = id_column
        self._k = k
        self._nh = n_hashes
        self._m = m_bits

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..kernels.grams import explode_ngrams

        row_idx, grams = explode_ngrams(batch[self._text], self._k)
        import pandas as pd

        n = len(batch)
        n_maybe = np.zeros(n, dtype=np.int64)
        if len(grams):
            df = pd.DataFrame({"r": row_idx, "g": grams.to_pylist()})
            df = df.drop_duplicates()  # distinct grams PER DOC
            uniq, inv = np.unique(df["g"].to_numpy(object), return_inverse=True)
            pos = _bloom_positions(uniq, self._nh, self._m)
            hit_u = self._bits[pos].all(axis=1)
            np.add.at(n_maybe, df["r"].to_numpy(np.int64), hit_u[inv].astype(np.int64))
        arr = pa.array(n_maybe, pa.int64())
        return pa.table(
            {
                self._id: batch[self._id],
                "n_maybe": arr,
                "contaminated": pc.greater(arr, pa.scalar(0, pa.int64())),
            }
        )


def bloom_flag_contaminated(
    corpus: ray.data.Dataset,
    benchmark: ray.data.Dataset,
    text_column: str = "text",
    id_column: str = "doc_id",
    k: int = 8,
    n_hashes: int = 4,
    m_bits: int = 1 << 20,
) -> ray.data.Dataset:
    """Decontamination via a Bloom filter — the scale path of
    :func:`flag_contaminated` (Bloom 1970; the standard memory-bounded
    membership structure LLM pipelines use when the benchmark gram set
    outgrows an exact broadcast array).

    The filter is a FIXED ``m_bits / 8`` bytes however many benchmark grams
    exist (vs the exact path's 8 bytes per gram), at the price of a bounded
    false-POSITIVE rate ``≈ (1 - e^{-kn/m})^k``; false negatives are
    impossible, so every truly contaminated doc is flagged — the guarantee
    the oracle checks. Build: one benchmark pass emitting distinct bit
    positions per batch (position stream is benchmark-sized); scan: one
    streaming corpus pass against the broadcast bitset.

    Output: ``(id, n_maybe, contaminated)`` where ``n_maybe`` counts the
    doc's distinct grams whose ``n_hashes`` bits are all set
    (``n_maybe >= n_shared`` of the exact scan, elementwise)."""
    import ray

    from ..kernels.grams import explode_ngrams

    def bench_bits(batch: pa.Table) -> pa.Table:
        _, grams = explode_ngrams(batch[text_column], k)
        uniq = np.unique(np.asarray(grams.to_pylist(), dtype=object))
        pos = _bloom_positions(uniq, n_hashes, m_bits)
        return pa.table({"pos": pa.array(np.unique(pos.ravel()), pa.int64())})

    parts = benchmark.map_batches(bench_bits, batch_format="pyarrow").take_all()
    bits = np.zeros(m_bits, dtype=bool)
    if parts:
        bits[np.array([r["pos"] for r in parts], dtype=np.int64)] = True
    bits_ref = ray.put(bits)
    return corpus.map_batches(
        BloomContaminationFlagger,
        batch_format="pyarrow",
        concurrency=(1, 4),
        fn_constructor_kwargs=dict(
            bits_ref=bits_ref, text_column=text_column, id_column=id_column,
            k=k, n_hashes=n_hashes, m_bits=m_bits,
        ),
    )


# ------------------------------------------------------- incremental dedup


def dedup_incremental(
    new: ray.data.Dataset,
    existing: ray.data.Dataset,
    text_column: str = "text",
    id_column: str = "doc_id",
    num_buckets: int = 8,
) -> ray.data.Dataset:
    """Incremental ingestion dedup: flag each NEW document whose text
    already exists in the EXISTING corpus (exact content match) — the shape
    a growing 100-TB corpus actually needs: a new crawl shard dedups against
    the standing index without ever re-deduplicating the standing corpus
    against itself.

    Both sides reduce to ``(md5(text))`` keys per batch BEFORE the exchange
    (the same pre-hash that makes :func:`dedup_exact` scale — multi-MB texts
    never cross); the existing side additionally collapses to DISTINCT keys
    per batch (within-corpus duplicates are irrelevant here). One bucketed
    hash join marks the hits. Output: every NEW row's
    ``(id, dedup_key, is_duplicate)``.

    Compose with :func:`dedup_exact` on the new shard itself for the full
    ingest step (intra-shard first-wins, then cross-corpus flagging)."""
    from ..functions.joins import hash_join

    def key_rows(batch: pa.Table) -> pa.Table:
        texts = batch[text_column].to_pylist()
        return pa.table(
            {
                id_column: batch[id_column],
                "dedup_key": pa.array([md5_hex(t or "") for t in texts], pa.string()),
            }
        )

    def existing_keys(batch: pa.Table) -> pa.Table:
        texts = batch[text_column].to_pylist()
        keys = sorted({md5_hex(t or "") for t in texts})
        return pa.table({"dedup_key": pa.array(keys, pa.string()),
                         "_hit": pa.array([True] * len(keys), pa.bool_())})

    new_keys = new.map_batches(key_rows, batch_format="pyarrow")
    # per-batch distinct, then one bucketed first-wins to global-distinct —
    # the existing side enters the join at one row per distinct text
    from ..functions.bucketed import bucketed_map_groups

    def distinct_bucket(g: pa.Table) -> pa.Table:
        t = g.group_by("dedup_key").aggregate([("_hit", "min")])
        return t.rename_columns(["dedup_key", "_hit"])

    old_keys = bucketed_map_groups(
        existing.map_batches(existing_keys, batch_format="pyarrow"),
        ["dedup_key"],
        distinct_bucket,
        num_buckets=64,
    )
    joined = hash_join(
        new_keys, old_keys, "dedup_key", {"_hit": pa.bool_()}, how="left",
        num_buckets=num_buckets,
    )

    def finish(batch: pa.Table) -> pa.Table:
        hit = pc.fill_null(batch["_hit"], False)
        return pa.table(
            {
                id_column: batch[id_column],
                "dedup_key": batch["dedup_key"],
                "is_duplicate": hit,
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


def band_signatures(
    ds: ray.data.Dataset,
    text_column: str = "text",
    id_column: str = "doc_id",
    num_hashes: int = 128,
    bands: int = 64,
    k: int = 3,
    seed: int = 7,
) -> ray.data.Dataset:
    """Standing-corpus MinHash band rows ``(band, band_key, id)`` — the table
    a growing-corpus pipeline computes once at ingest and STORES, so each
    arriving shard only signatures itself (pass the result to
    :func:`dedup_incremental_minhash` as ``existing_bands=``; write it with
    ``.write_parquet`` and read it back on later shards)."""
    return ds.map_batches(
        MinHasher, batch_format="pyarrow", concurrency=(1, 4),
        fn_constructor_kwargs=dict(
            text_column=text_column, id_column=id_column, num_hashes=num_hashes,
            bands=bands, k=k, seed=seed,
        ),
    )


def dedup_incremental_minhash(
    new: ray.data.Dataset,
    existing: ray.data.Dataset,
    text_column: str = "text",
    id_column: str = "doc_id",
    threshold: float = 0.5,
    num_hashes: int = 128,
    bands: int = 64,
    k: int = 3,
    seed: int = 7,
    max_bucket: int = 64,
    existing_bands: "ray.data.Dataset | None" = None,
) -> ray.data.Dataset:
    """NEAR-duplicate incremental ingestion dedup: flag each NEW document
    whose text is ≥ ``threshold`` Jaccard-similar (k-word shingles) to SOME
    document of the EXISTING corpus — the growing-corpus companion of
    :func:`dedup_incremental` (exact) and :func:`dedup_minhash` (batch).

    Scale shape: the standing corpus is banded ONCE with the same
    ``(num_hashes, bands, k, seed)`` signature parameters as the new shard —
    at 100 TB those standing band rows are computed at ingest time and kept
    as a table, so each arriving shard only signatures ITSELF and joins; the
    standing corpus is never re-banded per shard and never compared against
    itself. Candidates are cross-side only (a band bucket with no new doc or
    no existing doc emits nothing), verified by exact Jaccard on the hashed
    shingle sets (same verifier as :func:`dedup_minhash`, so the banding is
    lossless pruning at these parameters, not an approximation).

    Requires globally-unique ids across the two sides (true for any ingest
    pipeline that assigns shard-scoped ids). Returns one row per NEW doc:
    ``(id, is_near_duplicate, n_matches, max_jaccard)`` with ``max_jaccard``
    the largest per-pair ROUNDED (6dp) Jaccard, 0.0 when no match.
    """
    from ..functions.bucketed import bucketed_map_groups
    from ..functions.joins import hash_join

    mh_kwargs = dict(
        text_column=text_column, id_column=id_column, num_hashes=num_hashes,
        bands=bands, k=k, seed=seed,
    )

    def tag_side(batch: pa.Table, side: int) -> pa.Table:
        return batch.append_column("_side", pa.array(np.full(len(batch), side, np.int8)))

    new_bands = new.map_batches(
        MinHasher, batch_format="pyarrow", concurrency=(1, 4),
        fn_constructor_kwargs=mh_kwargs,
    ).map_batches(tag_side, batch_format="pyarrow", fn_kwargs={"side": 0})
    # the stored-signatures path: when the caller supplies the standing
    # corpus's band table (band_signatures written at ingest time), the
    # standing TEXT is only touched for candidate verification — the shard
    # never re-bands the corpus
    if existing_bands is None:
        existing_bands = existing.map_batches(
            MinHasher, batch_format="pyarrow", concurrency=(1, 4),
            fn_constructor_kwargs=mh_kwargs,
        )
    old_bands = existing_bands.map_batches(
        tag_side, batch_format="pyarrow", fn_kwargs={"side": 1}
    )
    banded = new_bands.union(old_bands)

    def emit_bucket(g: "pd.DataFrame") -> "pd.DataFrame":
        # only band buckets containing BOTH sides can produce a pair
        gb = g.groupby(["band", "band_key"], sort=False)
        mixed = gb["_side"].transform("nunique") == 2
        coll = g[mixed]
        empty = np.empty(0, g[id_column].dtype)
        a_out, b_out = [empty], [empty]
        trunc_buckets = trunc_rows = 0
        for _, sub in coll.groupby(["band", "band_key"], sort=False):
            # per-SIDE cap (distinct ids, ascending): a bucket pairs across
            # sides only, so the shared whole-group cap does not apply
            ns = np.unique(sub.loc[sub["_side"] == 0, id_column].to_numpy())
            es = np.unique(sub.loc[sub["_side"] == 1, id_column].to_numpy())
            if len(ns) > max_bucket or len(es) > max_bucket:
                trunc_buckets += 1
                trunc_rows += max(len(ns) - max_bucket, 0) + max(len(es) - max_bucket, 0)
                ns, es = ns[:max_bucket], es[:max_bucket]
            a_out.append(np.repeat(ns, len(es)))
            b_out.append(np.tile(es, len(ns)))
        if trunc_buckets:
            _report_truncation("incremental_minhash", trunc_buckets, trunc_rows)
        return _pair_frame(np.concatenate(a_out), np.concatenate(b_out))

    pairs = _dedup_pair_rows(_grouped_collisions(banded, ["band", "band_key"], emit_bucket))

    # verification shingles only the candidate docs of BOTH sides (semi-join
    # against the union stream); ids are globally unique so the union is a
    # plain id→text lookup table, never a self-comparison
    corpus = new.select_columns([id_column, text_column]).union(
        existing.select_columns([id_column, text_column])
    )
    verified = _verify_pairs_exact(corpus, pairs, text_column, id_column, threshold, k)

    def agg_matches(g: pa.Table) -> pa.Table:
        t = g.group_by("id_a").aggregate([("id_b", "count"), ("jaccard", "max")])
        return pa.table(
            {
                id_column: t["id_a"],
                "n_matches": pc.cast(t["id_b_count"], pa.int64()),
                "max_jaccard": t["jaccard_max"],
            }
        )

    matches = bucketed_map_groups(verified, ["id_a"], agg_matches, num_buckets=16)
    joined = hash_join(
        new.select_columns([id_column]), matches, id_column,
        {"n_matches": pa.int64(), "max_jaccard": pa.float64()}, how="left",
    )

    def finish(batch: pa.Table) -> pa.Table:
        n_m = pc.fill_null(batch["n_matches"], 0)
        return pa.table(
            {
                id_column: batch[id_column],
                "is_near_duplicate": pc.greater(n_m, 0),
                "n_matches": n_m,
                "max_jaccard": pc.fill_null(batch["max_jaccard"], 0.0),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


def remove_duplicate_substrings(
    ds: ray.data.Dataset,
    text_column: str = "text",
    id_column: str = "doc_id",
    window: int = 8,
    min_count: int = 2,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """ExactSubstr-style duplicated-span removal (Lee et al. 2021,
    "Deduplicating Training Data Makes Language Models Better"): every token
    whose ``window``-token context window appears ≥ ``min_count`` times in
    the WHOLE corpus (including within one document) is cut from the text.

    Distributed shape — a practical window-hash reformulation of the paper's
    suffix array, expressible as two streaming passes plus bucketed
    reductions, with nothing corpus-sized on the driver:

    1. one pass explodes overlapping windows to ``(key, 1)`` partials, where
       ``key = stable_int(window_string)`` is evaluated once per DISTINCT
       window per batch (dictionary-encoded) — window TEXT never crosses;
    2. a bucketed grouped count keeps keys with total ≥ ``min_count``;
    3. windows semi-join the duplicated key set (all flat int64 columns —
       join-safe), and surviving ``(doc, start)`` pairs reduce per doc to a
       packed positions blob (bucketed);
    4. one left join back onto the corpus + a fully-vectorized rebuild: the
       covered-token mask is one ``grams.covered_mask`` difference array per
       batch, kept tokens re-join through Arrow ``binary_join``.

    Output: ``(id, clean_text, n_tokens_removed)`` where ``clean_text`` is
    the WHITESPACE-NORMALIZED text (single-space joins — the paper operates
    on token streams) with covered tokens removed. Documents shorter than
    ``window`` tokens pass through normalized, never cut.
    """
    from ..functions.bucketed import bucketed_map_groups
    from ..functions.joins import hash_join
    from ..kernels.grams import covered_mask, segment_sum, split_tokens, token_windows

    def explode(batch: pa.Table) -> pa.Table:
        flat, lens, offs = split_tokens(batch[text_column])
        row_idx, starts, wins = token_windows(flat, lens, offs, window)
        enc = wins.dictionary_encode()
        dvals = enc.dictionary.to_pylist()
        dh = np.fromiter((stable_int(g) for g in dvals), np.int64, len(dvals))
        return pa.table(
            {
                id_column: pc.take(batch[id_column], pa.array(row_idx, pa.int64())),
                "pos": pa.array(starts - offs[row_idx], pa.int64()),  # start WITHIN its row
                "wkey": pa.array(dh[enc.indices.to_numpy(zero_copy_only=False)], pa.int64()),
            }
        )

    wins = ds.map_batches(explode, batch_format="pyarrow", batch_size=None)

    # bucketed count of window keys → the duplicated-key table (flat int64)
    def count_bucket(g: pa.Table) -> pa.Table:
        t = g.group_by("wkey").aggregate([("wkey", "count")])
        t = t.filter(pc.greater_equal(t["wkey_count"], min_count))
        return pa.table({"wkey": t["wkey"], "_dup": pa.array([True] * len(t), pa.bool_())})

    dup_keys = bucketed_map_groups(
        wins.select_columns(["wkey"]), ["wkey"], count_bucket, num_buckets
    )
    dup_wins = hash_join(wins, dup_keys, "wkey", how="semi")

    def pack_positions(g: pa.Table) -> pa.Table:
        t = g.group_by(id_column).aggregate([("pos", "list")])
        ids = t[id_column]
        packed = [
            np.sort(np.asarray(p, np.int64)).tobytes() for p in t["pos_list"].to_pylist()
        ]
        return pa.table({id_column: ids, "dup_pos": pa.array(packed, pa.binary())})

    pos_tbl = bucketed_map_groups(dup_wins, [id_column], pack_positions, num_buckets)
    joined = hash_join(
        ds.select_columns([id_column, text_column]), pos_tbl, id_column,
        {"dup_pos": pa.binary()}, how="left",
    )

    def rebuild(batch: pa.Table) -> pa.Table:
        flat, lens, offs = split_tokens(batch[text_column])
        # each row's packed in-row dup-window starts, shifted to flat positions
        blobs = pc.fill_null(batch["dup_pos"], b"")
        n_pos = pc.binary_length(blobs).to_numpy(zero_copy_only=False) // 8
        pos = np.frombuffer(b"".join(blobs.to_pylist()), np.int64)
        keep = ~covered_mask(np.repeat(offs[:-1], n_pos) + pos, window, int(offs[-1]))
        kept_counts = segment_sum(keep, offs)
        lists = pa.ListArray.from_arrays(
            pa.array(np.concatenate([[0], np.cumsum(kept_counts)]), pa.int32()),
            flat.filter(pa.array(keep)),
        )
        return pa.table(
            {
                id_column: batch[id_column],
                "clean_text": pc.binary_join(lists, " "),
                "n_tokens_removed": pa.array(lens - kept_counts, pa.int64()),
            }
        )

    return joined.map_batches(rebuild, batch_format="pyarrow", batch_size=None)

