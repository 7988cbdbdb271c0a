"""Dedup and similarity operators: planted duplicates must be found; the LSH
ANN must agree with brute force on easy (high-margin) neighbors."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st


@pytest.fixture(scope="module")
def docs_with_dups(ray_session):
    import ray.data

    base = "the quick brown fox jumps over the lazy dog again and again".split()
    rows = []
    rng = np.random.RandomState(3)
    for i in range(30):
        words = [base[j % len(base)] for j in rng.permutation(40)]
        rows.append({"doc_id": i, "text": " ".join(words)})
    # planted exact dup and near dup (one word changed out of 40)
    rows.append({"doc_id": 100, "text": rows[0]["text"]})
    near = rows[1]["text"].split()
    near[5] = "sideways"
    rows.append({"doc_id": 101, "text": " ".join(near)})
    return ray.data.from_items(rows)


def test_dedup_exact_finds_planted(ray_session, docs_with_dups):
    from deepdoctection_ray.stages.dedup import dedup_exact

    out = dedup_exact(docs_with_dups).to_pandas()
    dup_groups = out[out["n_dups"] > 1]
    assert len(dup_groups) == 1
    assert dup_groups.iloc[0]["doc_id"] == 0  # first-wins: smallest id survives
    assert dup_groups.iloc[0]["n_dups"] == 2
    assert out["n_dups"].sum() == 32


def test_dedup_minhash_finds_near_dup(ray_session, docs_with_dups):
    from deepdoctection_ray.stages.dedup import dedup_minhash

    pairs = dedup_minhash(docs_with_dups, threshold=0.7).to_pandas()
    found = set(zip(pairs["id_a"], pairs["id_b"]))
    assert (0, 100) in found  # exact dup: jaccard 1.0
    assert (1, 101) in found  # near dup
    assert (pairs["jaccard"] >= 0.7).all()


def test_dedup_simhash_finds_near_dup(ray_session, docs_with_dups):
    from deepdoctection_ray.stages.dedup import dedup_simhash

    pairs = dedup_simhash(docs_with_dups, max_hamming=6).to_pandas()
    found = set(zip(pairs["id_a"], pairs["id_b"]))
    assert (0, 100) in found
    assert pairs[(pairs["id_a"] == 0) & (pairs["id_b"] == 100)]["hamming"].iloc[0] == 0


@pytest.fixture(scope="module")
def clustered_embeddings(ray_session):
    import ray.data

    rng = np.random.RandomState(9)
    centers = rng.standard_normal((5, 16)) * 4
    rows = []
    for i in range(200):
        c = i % 5
        v = centers[c] + rng.standard_normal(16) * 0.2
        rows.append({"vec_id": i, "embedding": v.astype(np.float32).tolist(), "label": c})
    return ray.data.from_items(rows)


def test_knn_brute_exact(ray_session, clustered_embeddings):
    from deepdoctection_ray.stages.similarity import knn_brute

    out = knn_brute(clustered_embeddings, query_ids=[0], k=5).to_pandas()
    assert len(out) == 5
    # same-cluster vectors (ids ≡ 0 mod 5) dominate the neighborhood
    assert all(v % 5 == 0 for v in out["vec_id"])
    assert out["cosine"].is_monotonic_decreasing
    # cross-check against a local numpy brute force
    rows = clustered_embeddings.take_all()
    mat = np.array([r["embedding"] for r in rows], dtype=np.float64)
    ids = [r["vec_id"] for r in rows]
    unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    q = unit[ids.index(0)]
    cos = unit @ q
    expected = sorted(
        ((c, i) for i, c in zip(ids, cos) if i != 0), key=lambda t: (-t[0], t[1])
    )[:5]
    assert out["vec_id"].tolist() == [i for _, i in expected]


def test_knn_lsh_recall(ray_session, clustered_embeddings):
    from deepdoctection_ray.stages.similarity import knn_brute, knn_lsh

    brute = knn_brute(clustered_embeddings, query_ids=[0, 1], k=5).to_pandas()
    approx = knn_lsh(clustered_embeddings, query_ids=[0, 1], k=5, planes=4).to_pandas()
    for qid in (0, 1):
        b = set(brute[brute["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        assert len(a & b) / len(b) >= 0.6  # clustered data: probing finds most


def test_dedup_embedding_cosine(ray_session, clustered_embeddings):
    from deepdoctection_ray.stages.dedup import dedup_embedding_cosine

    pairs = dedup_embedding_cosine(clustered_embeddings, threshold=0.99).to_pandas()
    assert len(pairs) > 0
    assert (pairs["cosine"] >= 0.99).all()
    # near-dup pairs must come from the same cluster
    assert ((pairs["id_a"] % 5) == (pairs["id_b"] % 5)).all()


def test_knn_ivf_recall(ray_session, clustered_embeddings):
    """IVF probe search recovers most of the exact top-k on clustered data
    (the same recall bar the LSH variant meets)."""
    from deepdoctection_ray.stages.similarity import knn_brute, knn_ivf

    exact = knn_brute(clustered_embeddings, query_ids=[0, 1], k=5).to_pandas()
    approx = knn_ivf(
        clustered_embeddings, query_ids=[0, 1], k=5, n_centroids=8, n_probe=3
    ).to_pandas()
    for qid in (0, 1):
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        assert len(e & a) / len(e) >= 0.8, (qid, e, a)


def test_truncation_cap_is_reported(ray_session):
    """An over-cap LSH bucket must not drop pairs silently: the job-wide
    truncation counter records the bucket and the dropped candidate rows."""
    import ray.data
    from deepdoctection_ray.stages.dedup import (
        dedup_minhash, reset_truncation_counts, truncation_counts,
    )

    reset_truncation_counts()
    text = "identical text shared by every planted document in this bucket"
    rows = [{"doc_id": i, "text": text} for i in range(12)]
    pairs = dedup_minhash(
        ray.data.from_items(rows), threshold=0.5, max_bucket=4
    ).to_pandas()
    counts = truncation_counts()
    assert "minhash" in counts, counts
    assert counts["minhash"]["buckets"] >= 1
    assert counts["minhash"]["dropped_rows"] >= 1
    # the surviving (un-truncated) candidates still verify
    assert len(pairs) >= 1
    reset_truncation_counts()
    assert truncation_counts().get("minhash") is None


def test_dedup_ngram_jaccard_exact_vs_bruteforce(ray_session, docs_with_dups):
    """The prefix-filtered exact dedup must equal brute-force pairwise Jaccard
    over all docs — the PPJoin prefix lemma makes pruning lossless."""
    from deepdoctection_ray.stages.dedup import dedup_ngram_jaccard, jaccard, shingle_hashes

    threshold = 0.4
    df = docs_with_dups.to_pandas()
    sets = {r.doc_id: set(np.unique(shingle_hashes(r.text))) for r in df.itertuples()}
    ids = sorted(sets)
    expected = {
        (a, b): round(jaccard(sets[a], sets[b]), 6)
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if jaccard(sets[a], sets[b]) >= threshold
    }
    pairs = dedup_ngram_jaccard(docs_with_dups, threshold=threshold).to_pandas()
    got = {
        (r.id_a, r.id_b): r.jaccard for r in pairs.itertuples()
    }
    assert got == expected
    assert (0, 100) in got and got[(0, 100)] == 1.0


def test_dedup_ngram_jaccard_truncation_reported(ray_session):
    import ray.data
    from deepdoctection_ray.stages.dedup import (
        dedup_ngram_jaccard, reset_truncation_counts, truncation_counts,
    )

    reset_truncation_counts()
    text = "identical text shared by every planted document in this bucket"
    rows = [{"doc_id": i, "text": text} for i in range(12)]
    pairs = dedup_ngram_jaccard(
        ray.data.from_items(rows), threshold=0.5, max_bucket=4
    ).to_pandas()
    counts = truncation_counts()
    assert "ngram_jaccard" in counts, counts
    assert counts["ngram_jaccard"]["dropped_rows"] >= 1
    assert len(pairs) >= 1
    reset_truncation_counts()


_SHAPES = ("single", "exact", "plus_one", "triple", "any")


@given(
    shapes=st.lists(st.sampled_from(_SHAPES), min_size=1, max_size=6),
    max_bucket=st.integers(1, 5),
    id_space=st.integers(1, 40),
    seed=st.integers(0, 2**31 - 1),
)
@example(shapes=["single", "single", "single"], max_bucket=3, id_space=40, seed=0)
@example(shapes=["exact", "plus_one", "triple"], max_bucket=4, id_space=1000, seed=1)
@example(shapes=["triple", "plus_one"], max_bucket=2, id_space=3, seed=2)
@settings(max_examples=150, deadline=None)
def test_capped_collisions_ignore_row_order(shapes, max_bucket, id_space, seed):
    """The shared LSH cap keeps, per colliding group, the ``max_bucket``
    smallest ids and reports the same ``(buckets, dropped_rows)`` whatever
    order the rows arrive in — over non-colliding buckets, groups of exactly
    ``max_bucket``, ``max_bucket + 1`` and ``3 × max_bucket`` rows, and
    repeated ids (small ``id_space``)."""
    from unittest import mock

    import pandas as pd

    from deepdoctection_ray.stages import dedup

    rng = np.random.RandomState(seed)
    sizes = {
        "single": 1, "exact": max_bucket, "plus_one": max_bucket + 1,
        "triple": 3 * max_bucket, "any": int(rng.randint(1, 3 * max_bucket + 1)),
    }
    frames = []
    for key, shape in enumerate(shapes):
        n = sizes[shape]
        ids = rng.randint(0, id_space, n).astype(np.int64)
        frames.append(pd.DataFrame({
            "band": np.full(n, key % 2, np.int32),
            "band_key": np.full(n, key * 7919, np.int64),
            "doc_id": ids,
            "payload": ids * 3 + 1,  # a column that rides along with its id
        }))
    g = pd.concat(frames, ignore_index=True)

    # independent oracle: per group of >= 2 rows, the sorted ids' prefix
    want_groups, want_counts = {}, (0, 0)
    for (band, key), sub in g.groupby(["band", "band_key"]):
        if len(sub) > 1:
            want_groups[(band, key)] = sorted(sub["doc_id"])[:max_bucket]
        if len(sub) > max_bucket:
            want_counts = (want_counts[0] + 1, want_counts[1] + len(sub) - max_bucket)

    orders = [np.arange(len(g)), np.arange(len(g))[::-1], rng.permutation(len(g))]
    results = []
    for order in orders:
        reports = []
        with mock.patch.object(
            dedup, "_report_truncation", side_effect=lambda op, b, r: reports.append((b, r))
        ):
            capped, bounds = dedup._capped_collisions(
                g.iloc[order].reset_index(drop=True),
                ["band", "band_key"], "doc_id", max_bucket, "minhash",
            )
        assert len(reports) <= 1
        assert (reports[0] if reports else (0, 0)) == want_counts
        capped = capped.reset_index(drop=True)
        assert bounds[-1] == len(capped)
        got_groups = {
            (int(capped["band"][s]), int(capped["band_key"][s])): capped["doc_id"][s:e].tolist()
            for s, e in zip(bounds[:-1], bounds[1:])
        }
        assert got_groups == want_groups
        assert (capped["payload"] == capped["doc_id"] * 3 + 1).all()
        ids = capped["doc_id"].to_numpy()
        i, j = dedup._pairs_within(bounds, ids)
        want_pairs = {
            (a, b)
            for grp in want_groups.values()
            for x, a in enumerate(grp)
            for b in grp[x + 1 :]
            if a != b
        }
        pairs = dedup._pair_frame(ids[i], ids[j])
        assert set(zip(pairs["id_a"], pairs["id_b"])) == want_pairs
        assert len(pairs) == len(want_pairs)
        results.append(capped)
    for other in results[1:]:
        pd.testing.assert_frame_equal(results[0], other)


def test_capped_collisions_repeated_id_counts_rows():
    """A repeated id is capped and counted as rows, not as distinct ids (the
    n-gram and Hamming emitters used to cap distinct ids): with
    ``max_bucket=2`` the group [9, 5, 7, 5] keeps [5, 5], drops 2 rows and
    yields no pair."""
    from unittest import mock

    import pandas as pd

    from deepdoctection_ray.stages import dedup

    g = pd.DataFrame({"band": np.zeros(4, np.int32), "band_key": np.ones(4, np.int64),
                      "doc_id": np.array([9, 5, 7, 5], np.int64)})
    with mock.patch.object(dedup, "_report_truncation") as report:
        capped, bounds = dedup._capped_collisions(g, ["band", "band_key"], "doc_id", 2, "op")
    report.assert_called_once_with("op", 1, 2)
    assert capped["doc_id"].tolist() == [5, 5] and bounds.tolist() == [0, 2]
    ids = capped["doc_id"].to_numpy()
    i, j = dedup._pairs_within(bounds, ids)
    assert len(i) == 0 and len(j) == 0


def test_embedding_cosine_cap_ignores_row_order(ray_session):
    """An overflowing embedding LSH bucket keeps the ``max_bucket`` smallest
    ids, so the same rows read forward or reversed give identical pairs and
    identical truncation counts (the cap used to keep the first rows to
    arrive)."""
    import ray.data

    from deepdoctection_ray.stages.dedup import (
        dedup_embedding_cosine, reset_truncation_counts, truncation_counts,
    )

    vec = np.random.RandomState(5).standard_normal(16).astype(np.float32).tolist()
    rows = [{"vec_id": i, "embedding": vec} for i in range(12)]
    runs = []
    for ordered in (rows, rows[::-1]):
        reset_truncation_counts()
        pairs = dedup_embedding_cosine(
            ray.data.from_items(ordered, override_num_blocks=1),
            threshold=0.9, planes=4, bands=2, max_bucket=4,
        ).to_pandas()
        runs.append((sorted(zip(pairs["id_a"], pairs["id_b"])), truncation_counts()))
    reset_truncation_counts()
    (fwd_pairs, fwd_counts), (rev_pairs, rev_counts) = runs
    assert fwd_pairs == [(a, b) for a in range(4) for b in range(a + 1, 4)]
    assert rev_pairs == fwd_pairs
    # one overflowing group per band, 12 - 4 rows dropped from each
    assert fwd_counts["embedding_cosine"] == {"buckets": 2, "dropped_rows": 16}
    assert rev_counts == fwd_counts


def test_top_n_per_group_matches_pandas(ray_session):
    import pandas as pd
    import ray.data
    from deepdoctection_ray.functions.aggregates import top_n_per_group

    rng = np.random.RandomState(21)
    df = pd.DataFrame(
        {
            "g": rng.randint(0, 40, 1000),
            "v": rng.permutation(1000),
            "id": np.arange(1000),
        }
    )
    got = (
        top_n_per_group(ray.data.from_pandas(df), ["g"], ["v", "id"], n=3, num_buckets=8)
        .to_pandas()
        .sort_values(["g", "v"], ascending=[True, False])
        .reset_index(drop=True)
    )
    want = (
        df.sort_values(["v", "id"], ascending=[False, True])
        .groupby("g", sort=False)
        .head(3)
        .sort_values(["g", "v"], ascending=[True, False])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["g", "v", "id"]], want[["g", "v", "id"]])


def test_flag_contaminated_exact(ray_session):
    import ray.data
    from deepdoctection_ray.stages.dedup import flag_contaminated

    bench_text = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    rows = [
        {"doc_id": 1, "text": "prefix words then " + bench_text + " suffix"},  # shares 8-grams
        {"doc_id": 2, "text": "completely different content with no overlap at all here"},
        {"doc_id": 3, "text": bench_text},  # identical
    ]
    corpus = ray.data.from_items(rows)
    bench = ray.data.from_items([{"doc_id": 100, "text": bench_text}])
    out = flag_contaminated(corpus, bench).to_pandas().set_index("doc_id")
    assert bool(out.loc[1, "contaminated"]) and bool(out.loc[3, "contaminated"])
    assert not bool(out.loc[2, "contaminated"])
    # doc 3 shares all 3 of the benchmark's 8-grams (10 words -> 3 grams)
    assert out.loc[3, "n_shared"] == 3


def test_dedup_segments_first_wins(ray_session):
    import ray.data
    from deepdoctection_ray.stages.dedup import dedup_segments

    shared = " ".join(f"w{i}" for i in range(20))
    rows = [
        {"doc_id": 1, "text": shared + " unique tail one"},
        {"doc_id": 2, "text": shared + " different tail two"},  # seg 0 duplicates doc 1's
        {"doc_id": 3, "text": "totally fresh segment content"},
        {"doc_id": 4, "text": ""},  # empty doc -> one empty segment
    ]
    out = dedup_segments(ray.data.from_items(rows), window=20).to_pandas()
    got = {(r.doc_id, r.seg_idx) for r in out.itertuples()}
    # doc 2's first segment lost (doc 1 came first); its tail survives
    assert (1, 0) in got and (2, 0) not in got and (2, 1) in got
    assert (3, 0) in got and (4, 0) in got
    # default output carries only the md5 key (the text never crosses the
    # exchange); keep_text=True re-derives the survivors' segment text
    assert set(out.columns) == {"doc_id", "seg_idx", "seg_key"}
    with_text = dedup_segments(
        ray.data.from_items(rows), window=20, keep_text=True
    ).to_pandas()
    assert {(r.doc_id, r.seg_idx) for r in with_text.itertuples()} == got
    assert with_text[with_text["doc_id"] == 4]["seg"].iloc[0] == ""
    assert (
        with_text[(with_text["doc_id"] == 1) & (with_text["seg_idx"] == 0)]["seg"].iloc[0]
        == shared
    )


def test_quantize_roundtrip_and_recall(ray_session, clustered_embeddings):
    from deepdoctection_ray.stages.similarity import (
        dequantize_embeddings, knn_brute, quantize_embeddings,
    )

    ds = clustered_embeddings
    rt = dequantize_embeddings(quantize_embeddings(ds)).to_pandas().sort_values("vec_id")
    orig = ds.to_pandas().sort_values("vec_id")
    a = np.stack(orig["embedding"].to_numpy())
    b = np.stack(rt["embedding"].to_numpy())
    # symmetric int8: error bounded by scale/2 = max|x|/254 per component
    bound = (np.abs(a).max(axis=1) / 254.0)[:, None] + 1e-6
    assert (np.abs(a - b) <= bound).all()

    # kNN over dequantized vectors preserves high-margin neighbors
    qids = [0, 1, 2]
    exact = knn_brute(ds, query_ids=qids, k=5).to_pandas()
    quant = knn_brute(
        dequantize_embeddings(quantize_embeddings(ds)), query_ids=qids, k=5
    ).to_pandas()
    for qid in qids:
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        g = set(quant[quant["query_id"] == qid]["vec_id"])
        assert len(e & g) >= 4  # ≥80% recall on clustered data


def test_semantic_pairs_precision_and_recall(ray_session, clustered_embeddings):
    """SemDeDup: every emitted pair is truly >= threshold (precision 1.0 by
    construction); on well-separated clusters every true pair is recovered
    (cluster assignment cannot split a tight cluster)."""
    from deepdoctection_ray.stages.similarity import semantic_pairs

    got = semantic_pairs(
        clustered_embeddings, "embedding", "vec_id", threshold=0.995, n_centroids=5
    ).to_pandas()
    rows = clustered_embeddings.take_all()
    mat = np.array([r["embedding"] for r in rows], dtype=np.float64)
    ids = np.array([r["vec_id"] for r in rows])
    unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    cos = unit @ unit.T
    true = {
        (int(min(ids[i], ids[j])), int(max(ids[i], ids[j])))
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
        if cos[i, j] >= 0.995
    }
    found = set(zip(got["id_a"].astype(int), got["id_b"].astype(int)))
    assert found <= true          # precision 1.0
    assert len(true) > 10         # non-vacuous
    assert found == true          # tight clusters: full recall
    # emitted cosines are the exact values
    lookup = {(int(a), int(b)): c for a, b, c in zip(got["id_a"], got["id_b"], got["cosine"])}
    for (a, b), c in lookup.items():
        ia, ib = int(np.where(ids == a)[0][0]), int(np.where(ids == b)[0][0])
        assert abs(c - cos[ia, ib]) < 1e-6


def test_dedup_semantic_clusters_keep_min_id(ray_session, clustered_embeddings):
    from deepdoctection_ray.stages.similarity import dedup_semantic

    out = dedup_semantic(
        clustered_embeddings, "embedding", "vec_id", threshold=0.995, n_centroids=5
    ).to_pandas()
    assert len(out) > 0
    # canonical representative is the component-min id
    by_cluster = out.groupby("cluster_id")["doc_id"].min()
    assert (by_cluster.index == by_cluster.values).all()


def test_semantic_truncation_reported(ray_session, clustered_embeddings):
    from deepdoctection_ray.stages.dedup import (
        reset_truncation_counts,
        truncation_counts,
    )
    from deepdoctection_ray.stages.similarity import semantic_pairs

    reset_truncation_counts()
    semantic_pairs(
        clustered_embeddings,
        "embedding",
        "vec_id",
        threshold=0.995,
        n_centroids=5,
        max_cluster=10,
    ).materialize()
    counts = truncation_counts()
    assert counts.get("semantic", {}).get("buckets", 0) > 0


def test_bloom_positions_match_sql_convention():
    import hashlib

    from deepdoctection_ray.stages.dedup import _bloom_positions

    grams = np.asarray(["the quick brown", "lazy dog"], dtype=object)
    pos = _bloom_positions(grams, n_hashes=4, m_bits=1 << 20)
    for gi, g in enumerate(grams):
        for h in range(4):
            exp = int(hashlib.md5(f"{h}:{g}".encode()).hexdigest()[:12], 16) % (1 << 20)
            assert pos[gi, h] == exp


def test_bloom_never_misses_exact_contamination(ray_session):
    """No false negatives: every doc the exact scan flags, the Bloom scan
    flags, and n_maybe >= n_shared elementwise."""
    from deepdoctection_ray.stages.dedup import (
        bloom_flag_contaminated,
        flag_contaminated,
    )

    words = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()
    rng = np.random.RandomState(11)
    rows = []
    for i in range(60):
        toks = [words[int(rng.randint(len(words)))] for _ in range(30)]
        rows.append((i, " ".join(toks)))
    # seed exact leaks: docs 50-54 copy doc 0's text
    for i in range(50, 55):
        rows[i] = (i, rows[0][1])
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }
    )
    import ray.data

    ds = ray.data.from_arrow(t)
    bench = ds.filter(lambda r: r["doc_id"] < 5)
    corpus = ds.filter(lambda r: r["doc_id"] >= 5)
    exact = (
        flag_contaminated(corpus, bench, "text", "doc_id", k=8)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    bloom = (
        bloom_flag_contaminated(corpus, bench, "text", "doc_id", k=8)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert list(exact.index) == list(bloom.index)
    assert (bloom["n_maybe"] >= exact["n_shared"]).all()
    flagged_exact = set(exact[exact["contaminated"]].index)
    flagged_bloom = set(bloom[bloom["contaminated"]].index)
    assert flagged_exact <= flagged_bloom
    assert {50, 51, 52, 53, 54} <= flagged_bloom
    # at m=2^20 with this tiny gram set, false positives are ~impossible:
    # the two scans agree exactly here
    assert (bloom["n_maybe"] == exact["n_shared"]).all()


def test_bloom_filter_is_fixed_size(ray_session):
    """The broadcast filter is m_bits bools regardless of benchmark size."""
    from deepdoctection_ray.stages.dedup import _bloom_positions

    pos = _bloom_positions(
        np.asarray([f"gram number {i}" for i in range(500)], dtype=object),
        n_hashes=4,
        m_bits=1 << 10,
    )
    assert pos.max() < (1 << 10) and pos.min() >= 0


def test_dedup_incremental_flags_cross_corpus_matches(ray_session):
    import ray.data
    from deepdoctection_ray.stages.dedup import dedup_incremental

    old = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(["alpha beta", "gamma delta", "epsilon"], pa.string()),
        }
    )
    new = pa.table(
        {
            "doc_id": pa.array([10, 11, 12, 13], pa.int64()),
            "text": pa.array(
                ["alpha beta", "zeta eta", "epsilon", "theta"], pa.string()
            ),
        }
    )
    out = (
        dedup_incremental(
            ray.data.from_arrow(new), ray.data.from_arrow(old), "text", "doc_id"
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(out["doc_id"]) == [10, 11, 12, 13]
    assert list(out["is_duplicate"]) == [True, False, True, False]
    # empty standing corpus: nothing flagged, join skipped
    empty_old = ray.data.from_arrow(old.slice(0, 0))
    out2 = dedup_incremental(
        ray.data.from_arrow(new), empty_old, "text", "doc_id"
    ).to_pandas()
    assert not out2["is_duplicate"].any() and len(out2) == 4


def test_dedup_incremental_minhash_flags_near_dups(ray_session):
    import ray.data
    from deepdoctection_ray.stages.dedup import dedup_incremental_minhash

    base = "the quick brown fox jumps over the lazy dog again and again today"
    near = base.replace("today", "tonight")  # high-overlap shingle sets
    old = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array([base, "completely different words entirely", base], pa.string()),
        }
    )
    new = pa.table(
        {
            "doc_id": pa.array([10, 11, 12], pa.int64()),
            "text": pa.array([near, "nothing shared here at all", base], pa.string()),
        }
    )
    out = (
        dedup_incremental_minhash(
            ray.data.from_arrow(new), ray.data.from_arrow(old), "text", "doc_id",
            threshold=0.5, num_hashes=128, bands=64,
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(out["doc_id"]) == [10, 11, 12]
    assert list(out["is_near_duplicate"]) == [True, False, True]
    # doc 12 is byte-identical to old 0 AND old 2 -> 2 matches at jaccard 1.0
    assert out.loc[2, "n_matches"] == 2 and out.loc[2, "max_jaccard"] == 1.0
    # near-dup match strictly below 1.0 but >= threshold
    assert 0.5 <= out.loc[0, "max_jaccard"] < 1.0
    # the standing corpus's own duplicate pair (0,2) must NOT appear anywhere:
    # output rows are new-shard rows only
    assert set(out["doc_id"]) == {10, 11, 12}

    # no cross-shard near-dups at all: the verified set is empty and the
    # short-circuit path returns every new row clean
    disjoint_old = pa.table(
        {
            "doc_id": pa.array([0], pa.int64()),
            "text": pa.array(["utterly unrelated content"], pa.string()),
        }
    )
    out2 = dedup_incremental_minhash(
        ray.data.from_arrow(new), ray.data.from_arrow(disjoint_old), "text", "doc_id"
    ).to_pandas()
    assert len(out2) == 3 and not out2["is_near_duplicate"].any()
    assert (out2["max_jaccard"] == 0.0).all()


def test_dedup_incremental_minhash_caps_each_side(ray_session):
    """A band bucket pairs the new and the standing side only, and each side
    is capped on its own at ``max_bucket`` distinct ids, smallest first: with
    three identical docs per side and ``max_bucket=2``, new docs 10 and 11
    match standing docs 0 and 1, doc 12 matches nothing, and every band
    reports one truncated bucket with two dropped rows."""
    import ray.data
    from deepdoctection_ray.stages.dedup import (
        dedup_incremental_minhash, reset_truncation_counts, truncation_counts,
    )

    text = "identical text shared by every planted document in this bucket"
    side = lambda ids: ray.data.from_arrow(  # noqa: E731
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": [text] * len(ids)})
    )
    reset_truncation_counts()
    out = (
        dedup_incremental_minhash(side([12, 10, 11]), side([2, 0, 1]), bands=16, max_bucket=2)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert list(out["is_near_duplicate"]) == [True, True, False]
    assert list(out["n_matches"]) == [2, 2, 0]
    assert truncation_counts()["incremental_minhash"] == {"buckets": 16, "dropped_rows": 32}
    reset_truncation_counts()


def test_knn_pq_recall_with_rerank(ray_session):
    """PQ ADC candidates + exact re-rank: high recall vs brute force on a
    clustered corpus, deterministic across runs, and the codebook trainer's
    partials reconstruct the same books regardless of partitioning."""
    import numpy as np
    import ray.data

    from deepdoctection_ray.stages.similarity import knn_brute, knn_pq, train_pq_codebooks

    rng = np.random.RandomState(5)
    centers = rng.standard_normal((6, 64))
    vecs = np.concatenate(
        [c + 0.15 * rng.standard_normal((80, 64)) for c in centers], axis=0
    )
    t = pa.table(
        {
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs]),
        }
    )
    ds = ray.data.from_arrow(t).repartition(7)
    exact = knn_brute(ds, [0, 100, 250], k=10).to_pandas()
    approx = knn_pq(ds, [0, 100, 250], k=10, oversample=8).to_pandas()
    for qid in (0, 100, 250):
        e = set(exact[exact.query_id == qid]["vec_id"])
        a = set(approx[approx.query_id == qid]["vec_id"])
        assert len(e & a) >= 9, (qid, len(e & a))

    # partition-count invariance of the trained codebooks (merge-exactness)
    b1 = train_pq_codebooks(ds, dim=64)
    b2 = train_pq_codebooks(ray.data.from_arrow(t).repartition(2), dim=64)
    assert np.allclose(b1, b2, atol=1e-9)

    # ... and of the answer: the ADC candidate set is a GLOBAL per-query
    # top-(oversample·k), not a per-block union (oversample=1 makes a union
    # over 8 blocks visibly larger than one block's)
    def top(d):
        out = knn_pq(d, [0, 100, 250], k=10, oversample=1).to_pandas()
        return out.sort_values(["query_id", "vec_id"])[["query_id", "vec_id"]].values.tolist()

    one = ray.data.from_arrow(t)
    assert one.materialize().num_blocks() == 1
    assert top(one) == top(one.repartition(8))


def test_remove_duplicate_substrings_cuts_repeated_spans(ray_session):
    import pandas as pd
    import pyarrow.compute as pc
    import ray.data

    from deepdoctection_ray.stages.dedup import remove_duplicate_substrings

    boiler = "all rights reserved contact us terms of service apply here"  # 10 toks
    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    f"alpha beta {boiler} gamma",
                    f"delta {boiler} epsilon zeta",
                    "totally unique words nothing repeated anywhere at all",
                    "short doc",
                ]
            ),
        }
    )
    out = (
        remove_duplicate_substrings(
            ray.data.from_arrow(docs), "text", "doc_id", window=8
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # the shared 10-token boilerplate is fully covered by repeated 8-windows
    assert out.loc[0, "clean_text"] == "alpha beta gamma"
    assert out.loc[0, "n_tokens_removed"] == 10
    assert out.loc[1, "clean_text"] == "delta epsilon zeta"
    assert out.loc[1, "n_tokens_removed"] == 10
    # unique doc untouched (but whitespace-normalized), short doc passes through
    assert out.loc[2, "n_tokens_removed"] == 0
    assert out.loc[2, "clean_text"] == docs["text"][2].as_py()
    assert out.loc[3, "clean_text"] == "short doc" and out.loc[3, "n_tokens_removed"] == 0

    # a first block holding only docs shorter than the window explodes to no
    # window at all; the block order must not change the answer
    short, long_ = docs.filter(pc.equal(docs["doc_id"], 3)), docs.filter(pc.not_equal(docs["doc_id"], 3))
    for blocks in ([short, long_], [long_, short]):
        got = remove_duplicate_substrings(ray.data.from_arrow(blocks), "text", "doc_id", window=8)
        pd.testing.assert_frame_equal(
            got.to_pandas().sort_values("doc_id").reset_index(drop=True), out
        )

    # WITHIN-document repetition counts too: one doc repeating its own span
    self_rep = pa.table(
        {
            "doc_id": pa.array([7], pa.int64()),
            "text": pa.array([f"{boiler} middle words {boiler}"]),
        }
    )
    out2 = remove_duplicate_substrings(
        ray.data.from_arrow(self_rep), "text", "doc_id", window=8
    ).to_pandas()
    assert out2.loc[0, "clean_text"] == "middle words"
    assert out2.loc[0, "n_tokens_removed"] == 20

    # a doc ending in duplicated tokens, followed in the SAME batch by empty
    # and whitespace-only docs: its kept tokens and counts stay exact
    # (enough trailing empties that every join partition ends in some)
    texts = [f"alpha beta {boiler} gamma", f"zz {boiler}", f"q {boiler}"] + ["", " \t "] * 20
    tail = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts)})
    out4 = (
        remove_duplicate_substrings(ray.data.from_arrow(tail), "text", "doc_id", window=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(out4["clean_text"]) == ["alpha beta gamma", "zz", "q"] + [""] * 40
    assert list(out4["n_tokens_removed"]) == [10, 10, 10] + [0] * 40

    # no duplicates anywhere: the short-circuit normalization-only path
    clean = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["only words here", "other   spaced\ttokens"]),
        }
    )
    out3 = remove_duplicate_substrings(
        ray.data.from_arrow(clean), "text", "doc_id", window=8
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(out3["clean_text"]) == ["only words here", "other spaced tokens"]
    assert (out3["n_tokens_removed"] == 0).all()


def test_dedup_incremental_minhash_stored_bands_path(ray_session):
    """The growing-corpus shape made literal: standing band signatures are
    computed ONCE (band_signatures), round-tripped through parquet, and the
    shard run with existing_bands= produces the identical flags."""
    import ray.data

    from deepdoctection_ray.stages.dedup import band_signatures, dedup_incremental_minhash

    base = "the quick brown fox jumps over the lazy dog again and again today"
    old = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array([base, "completely different words entirely"]),
        }
    )
    new = pa.table(
        {
            "doc_id": pa.array([10, 11], pa.int64()),
            "text": pa.array([base.replace("today", "tonight"), "nothing shared at all"]),
        }
    )
    old_ds, new_ds = ray.data.from_arrow(old), ray.data.from_arrow(new)

    import tempfile

    with tempfile.TemporaryDirectory() as d:
        band_signatures(old_ds).write_parquet(d)
        stored = ray.data.read_parquet(d)
        via_stored = dedup_incremental_minhash(
            new_ds, old_ds, existing_bands=stored
        ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    inline = dedup_incremental_minhash(new_ds, old_ds).to_pandas().sort_values(
        "doc_id"
    ).reset_index(drop=True)
    assert via_stored.equals(inline)
    assert list(via_stored["is_near_duplicate"]) == [True, False]
