"""Text stats, metrics, multimodal plumbing, category ops."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def test_language_id_heuristic():
    from deepdoctection_ray.stages.text_stats import LanguageId

    stage = LanguageId()
    batch = pa.table(
        {
            "text": [
                "the cat and the dog sat on the mat in the sun",
                "el perro y el gato en la casa de la playa",
                "der Hund und die Katze sind mit dem Ball im Garten",
                "xyzzy plugh",
            ]
        }
    )
    out = stage(batch)
    assert out["lang_pred"].to_pylist() == ["en", "es", "de", "und"]


def test_quality_and_token_stats_vectorized():
    from deepdoctection_ray.stages.text_stats import quality_stats, token_stats

    batch = pa.table({"text": ["Hello, world! 42", ""]})
    q = quality_stats(batch)
    assert q["n_tokens"].to_pylist() == [3, 0]
    assert q["n_punct"].to_pylist() == [2, 0]
    assert q["n_chars_text"].to_pylist() == [16, 0]
    t = token_stats(batch)
    assert t["n_pieces"].to_pylist() == [5, 0]  # Hello , world ! 42


def test_metrics_prf1(ray_session):
    import ray.data

    from deepdoctection_ray.functions.metrics import accuracy, precision_recall_f1

    ds = ray.data.from_items(
        [{"gt": "a", "pred": "a"}, {"gt": "a", "pred": "b"}, {"gt": "b", "pred": "b"}, {"gt": "b", "pred": "b"}]
    )
    assert accuracy(ds) == 0.75
    prf = precision_recall_f1(ds)
    assert prf["a"]["precision"] == 1.0
    assert prf["a"]["recall"] == 0.5
    assert prf["b"]["recall"] == 1.0


def test_multimodal_stub_plumbing(ray_session):
    import ray.data

    from deepdoctection_ray.stages.multimodal import FrameSampler, ImageDecoder, make_media_table

    table = make_media_table(8, seed=5)
    ds = ray.data.from_arrow(table)
    out = ds.map_batches(
        ImageDecoder, batch_format="pyarrow", concurrency=2, batch_size=4,
        fn_constructor_kwargs={"fake": True},
    ).to_pandas()
    assert len(out) == 8
    assert "payload" not in out.columns  # binary projected away
    assert all(f["n_pixels"] > 0 for f in out["features"])

    frames = ds.map_batches(
        FrameSampler, batch_format="pyarrow", concurrency=2, batch_size=4,
        fn_constructor_kwargs={"fake": True, "num_frames": 3},
    ).to_pandas()
    assert set(frames["frame_no"]) == {0, 1, 2}
    assert len(frames) == 24

    # real decode path is an explicit stub
    with pytest.raises((NotImplementedError, Exception)):
        ImageDecoder(fake=False)(table.slice(0, 1))


def test_category_ops(ray_session):
    import ray.data

    from deepdoctection_ray.functions.cats import (
        block_category_histogram,
        filter_block_categories,
        remap_categories,
    )

    rows = [
        {
            "id": 0,
            "blocks": [
                {"category": "title", "reading_order": 1, "n_words": 2},
                {"category": "text", "reading_order": 2, "n_words": 5},
                {"category": "list_item", "reading_order": 3, "n_words": 3},
            ],
        },
        {"id": 1, "blocks": [{"category": "text", "reading_order": 1, "n_words": 1}]},
    ]
    ds = ray.data.from_items(rows)
    filtered = filter_block_categories(ds, ["text"]).take_all()
    by_id = {r["id"]: r["blocks"] for r in filtered}
    assert [b["category"] for b in by_id[0]] == ["text"]
    assert by_id[0][0]["reading_order"] == 1  # re-densified

    remapped = remap_categories(ds, {"list_item": "list"}).take_all()
    cats = {b["category"] for r in remapped for b in r["blocks"]}
    assert "list" in cats and "list_item" not in cats

    hist = {r["category"]: r["n"] for r in block_category_histogram(ds).take_all()}
    assert hist == {"title": 1, "text": 2, "list_item": 1}


def test_hll_accuracy():
    import numpy as np

    from deepdoctection_ray.stages.sketches import HyperLogLog

    h = HyperLogLog(p=12)
    h.add_values([f"user-{i}" for i in range(10000)])
    est = h.estimate()
    assert abs(est - 10000) / 10000 < 0.05
    # mergeability: two halves merged == union estimate
    a, b = HyperLogLog(12), HyperLogLog(12)
    a.add_values([f"user-{i}" for i in range(6000)])
    b.add_values([f"user-{i}" for i in range(4000, 10000)])
    merged = a.merge(b)
    assert merged.estimate() == HyperLogLog(12, merged.registers).estimate()
    assert abs(merged.estimate() - 10000) / 10000 < 0.05
    # serialization round-trip
    back = HyperLogLog.from_bytes(merged.to_bytes(), 12)
    assert back.estimate() == merged.estimate()


def test_approx_distinct_grouped(ray_session):
    import ray.data

    from deepdoctection_ray.stages.sketches import approx_distinct

    rows = [
        {"k": "a", "v": f"x{i % 500}"} for i in range(3000)
    ] + [{"k": "b", "v": f"y{i % 50}"} for i in range(1000)]
    ds = ray.data.from_items(rows)
    out = {r["k"]: r["approx_distinct"] for r in approx_distinct(ds, "v", by="k").take_all()}
    assert abs(out["a"] - 500) / 500 < 0.1
    assert abs(out["b"] - 50) / 50 < 0.1
    total = approx_distinct(ds, "v").take_all()
    assert abs(total[0]["approx_distinct"] - 550) / 550 < 0.1


def test_grouped_int_sums_overflow_falls_back_to_bigint(ray_session):
    """The bucketed combine's int64 bound must trip and recompute exactly in
    Python big ints: four partials of 2^61 sum to 2^63 (> int64 max)."""
    import pyarrow as pa
    import ray.data
    from deepdoctection_ray.functions.aggregates import grouped_int_sums

    blocks = [pa.table({"k": ["a"], "x": pa.array([2**61], pa.int64())}) for _ in range(4)]
    out = grouped_int_sums(ray.data.from_arrow(blocks), ["k"], ["x"]).to_pandas()
    assert out["sum_x"].iloc[0] == float(2**63)
    assert out["n"].iloc[0] == 4


def test_grouped_int_sums_high_cardinality_exact(ray_session):
    """Many distinct keys (the per-custkey shape): bucketed combine must stay
    exact and emit one row per key."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from deepdoctection_ray.functions.aggregates import grouped_int_sums

    rng = np.random.RandomState(5)
    keys = rng.randint(0, 5000, size=20000)
    vals = rng.randint(-1000, 1000, size=20000)
    t = pa.table({"k": pa.array(keys, pa.int64()), "x": pa.array(vals, pa.int64())})
    out = grouped_int_sums(ray.data.from_arrow(t), ["k"], ["x"]).to_pandas()
    import pandas as pd

    expect = (
        pd.DataFrame({"k": keys, "x": vals}).groupby("k", as_index=False)
        .agg(sum_x=("x", "sum"), n=("x", "size"))
    )
    merged = out.sort_values("k").reset_index(drop=True)
    expect = expect.sort_values("k").reset_index(drop=True)
    assert len(merged) == len(expect)
    assert (merged["sum_x"].to_numpy() == expect["sum_x"].to_numpy()).all()
    assert (merged["n"].to_numpy() == expect["n"].to_numpy()).all()


def test_metric_registry_lookup():
    """eval/registry.py analog: metrics resolvable by name."""
    from deepdoctection_ray.functions.registry import metric_registry

    assert set(metric_registry.names()) >= {
        "accuracy", "confusion", "precision_recall_f1", "coco_map", "teds",
    }
    assert metric_registry.get("teds")("<table><tr><td>a</td></tr></table>",
                                       "<table><tr><td>a</td></tr></table>") == 1.0


def test_top_ngrams_exact(ray_session):
    from collections import Counter

    import ray.data
    from deepdoctection_ray.stages.text_stats import _word_ngrams, top_ngrams

    rows = []
    for i in range(200):
        body = "the common boilerplate line appears here" if i % 3 == 0 else f"unique text body number {i} with words"
        rows.append({"text": body})
    exact = Counter()
    for r in rows:
        exact.update(_word_ngrams(r["text"]))
    want = sorted(exact.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    got = top_ngrams(ray.data.from_items(rows), k=10, num_buckets=8).to_pandas()
    assert list(zip(got["ngram"], got["n"])) == want


def test_heavy_hitters_guarantee(ray_session):
    from collections import Counter

    import ray.data
    from deepdoctection_ray.stages.text_stats import _word_ngrams, heavy_hitter_ngrams

    rows = []
    for i in range(300):
        body = "hot gram triple repeated" if i % 2 == 0 else f"cold unique filler {i} row body"
        rows.append({"text": body})
    exact = Counter()
    for r in rows:
        exact.update(_word_ngrams(r["text"]))
    total = sum(exact.values())
    cap = 64
    got = heavy_hitter_ngrams(ray.data.from_items(rows), capacity=cap).to_pandas()
    kept = dict(zip(got["ngram"], got["approx_n"]))
    # MG guarantee: every gram with true frequency > N/capacity survives,
    # and no kept count exceeds its true frequency
    for g, n in exact.items():
        if n > total / cap:
            assert g in kept, (g, n, total // cap)
    for g, n in kept.items():
        assert n <= exact[g]


def test_heavy_hitters_exact_equals_true_heavy_set(ray_session):
    """Two-pass MG + exact recount: output must EQUAL the exact heavy set
    (ngram, true count) for threshold n * capacity > total."""
    from collections import Counter

    import ray.data
    from deepdoctection_ray.stages.text_stats import _word_ngrams, heavy_hitters_exact

    rows = []
    for i in range(300):
        body = "hot gram triple repeated" if i % 2 == 0 else f"cold unique filler {i} row body"
        rows.append({"text": body})
    exact = Counter()
    for r in rows:
        exact.update(_word_ngrams(r["text"]))
    total = sum(exact.values())
    cap = 64
    want = sorted(
        ((g, n) for g, n in exact.items() if n * cap > total),
        key=lambda kv: (-kv[1], kv[0]),
    )
    got = heavy_hitters_exact(ray.data.from_items(rows), capacity=cap).to_pandas()
    assert list(zip(got["ngram"], got["n"])) == want
    assert len(want) > 0  # non-vacuous


def test_ann_recall_report_floor_and_miss(ray_session):
    import pyarrow as pa

    import ray.data
    from deepdoctection_ray.stages.similarity import ann_recall_report

    def tbl(rows):
        return ray.data.from_arrow(
            pa.table(
                {
                    "query_id": pa.array([r[0] for r in rows], pa.int64()),
                    "vec_id": pa.array([r[1] for r in rows], pa.int64()),
                    "cosine": pa.array([0.5] * len(rows), pa.float64()),
                }
            )
        )

    exact = tbl([(1, v) for v in range(5)] + [(2, v) for v in range(5)])
    # query 1: perfect recall (floors at ceil(0.8*5)=4); query 2: 2/5 hits
    approx = tbl([(1, v) for v in range(5)] + [(2, 0), (2, 1), (2, 99), (2, 98), (2, 97)])
    got = ann_recall_report(approx, exact, k=5, recall_bound=0.8).to_pandas()
    got = got.sort_values("query_id").reset_index(drop=True)
    assert list(got["hits_at_least"]) == [4, 2]
    assert list(got["k"]) == [5, 5]


def test_split_by_hash_deterministic_and_proportional(ray_session):
    import ray.data
    from deepdoctection_ray.stages.text_stats import split_by_hash

    rows = [{"doc_id": i} for i in range(5000)]
    a = split_by_hash(ray.data.from_items(rows), test_permille=100, val_permille=50).to_pandas()
    b = split_by_hash(ray.data.from_items(rows), test_permille=100, val_permille=50).to_pandas()
    a = a.sort_values("doc_id").reset_index(drop=True)
    b = b.sort_values("doc_id").reset_index(drop=True)
    assert (a["split"] == b["split"]).all()  # pure function of the id
    frac = a["split"].value_counts(normalize=True)
    assert abs(frac["test"] - 0.10) < 0.02 and abs(frac["val"] - 0.05) < 0.015
    # salting re-deals the assignment
    c = split_by_hash(ray.data.from_items(rows), test_permille=100, salt="v2").to_pandas()
    c = c.sort_values("doc_id").reset_index(drop=True)
    assert (a["split"] != c["split"]).any()


def test_global_cumsum_and_packing(ray_session):
    import numpy as np
    import ray.data
    from deepdoctection_ray.functions.scan import global_cumsum, pack_by_token_budget

    rng = np.random.RandomState(11)
    toks = rng.randint(1, 400, size=2000)
    # non-contiguous, shuffled keys — the scan must order by key, not stream
    keys = rng.permutation(np.arange(0, 6000, 3))[:2000]
    rows = [{"k": int(k), "n": int(t)} for k, t in zip(keys, toks)]
    ds = ray.data.from_items(rows)
    out = global_cumsum(ds, "k", "n", num_ranges=16).to_pandas().sort_values("k")
    order = np.argsort(keys)
    assert np.array_equal(out["cumsum"].to_numpy(), np.cumsum(toks[order]))

    packed = pack_by_token_budget(ds, "k", "n", budget=1000, num_ranges=16).to_pandas()
    packed = packed.sort_values("k").reset_index(drop=True)
    expected_bins = (np.cumsum(toks[order]) - toks[order]) // 1000
    assert np.array_equal(packed["seq_bin"].to_numpy(), expected_bins)
    # bins are contiguous from 0 and every doc is packed exactly once
    assert packed["seq_bin"].min() == 0 and len(packed) == 2000


def test_stratified_sample_deterministic(ray_session):
    import ray.data
    from deepdoctection_ray.stages.text_stats import stratified_sample

    rows = [{"doc_id": i, "source": f"s{i % 4}"} for i in range(400)]
    a = stratified_sample(ray.data.from_items(rows), "source", n_per_group=5).to_pandas()
    b = stratified_sample(ray.data.from_items(rows), "source", n_per_group=5).to_pandas()
    assert a["source"].value_counts().eq(5).all() and len(a) == 20
    assert set(map(tuple, a[["doc_id", "source"]].values)) == set(
        map(tuple, b[["doc_id", "source"]].values)
    )
    c = stratified_sample(ray.data.from_items(rows), "source", n_per_group=5, salt="v2").to_pandas()
    assert set(c["doc_id"]) != set(a["doc_id"])  # salted re-deal


def test_repetition_stats():
    import pyarrow as pa
    from deepdoctection_ray.stages.text_stats import repetition_stats

    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "a b c a b c a b c",   # 7 grams, 3 distinct -> 4/7 repeats
                    "all distinct words here now",
                    "hi",                   # <3 tokens: single gram, frac 0
                ]
            ),
        }
    )
    out = repetition_stats(batch).to_pandas()
    assert out["dup_ngram_frac"].tolist() == [round(1 - 3 / 7, 6), 0.0, 0.0]


def test_global_cumsum_empty_and_topn_null_keys(ray_session):
    import pandas as pd
    import ray.data
    from deepdoctection_ray.functions.aggregates import top_n_per_group
    from deepdoctection_ray.functions.scan import global_cumsum

    empty = ray.data.from_arrow(
        pa.table({"k": pa.array([], pa.int64()), "n": pa.array([], pa.int64())})
    )
    out = global_cumsum(empty, "k", "n")
    assert out.count() == 0 and "cumsum" in out.schema().names

    # null group keys form their own partition (ROW_NUMBER semantics), not
    # silently dropped
    df = pd.DataFrame({"g": [1.0, 1.0, None, None, None], "v": [5, 3, 9, 7, 1], "id": [0, 1, 2, 3, 4]})
    got = top_n_per_group(ray.data.from_pandas(df), ["g"], ["v", "id"], n=2, num_buckets=4).to_pandas()
    assert len(got) == 4  # 2 from g=1.0 + 2 from the null partition
    nulls = got[got["g"].isna()]
    assert sorted(nulls["v"]) == [7, 9]


def test_exact_quantiles_vs_numpy(ray_session):
    import math

    import numpy as np
    import ray.data
    from deepdoctection_ray.functions.aggregates import exact_quantiles

    rng = np.random.RandomState(7)
    # heavy tie block straddling the median exercises the degenerate-bin path
    vals = np.concatenate([rng.uniform(0, 100, 8000), np.full(3000, 55.5)])
    ds = ray.data.from_items([{"x": float(v)} for v in vals])
    out = exact_quantiles(
        ds, "x", [0.0, 0.25, 0.5, 0.9, 1.0], num_bins=128, candidate_budget=1000
    ).to_pandas()
    s = np.sort(vals)
    for q, v in zip(out["q"], out["value"]):
        k = max(0, math.ceil(q * len(s)) - 1)
        assert v == s[k], (q, v, s[k])


def test_range_join_overlapping_intervals(ray_session):
    import pandas as pd
    import ray.data
    from deepdoctection_ray.functions.joins import range_join

    left = ray.data.from_pandas(pd.DataFrame(
        {"k": ["a", "a", "a", "b", "b"], "ts": [5, 15, 25, 5, 50], "row": [0, 1, 2, 3, 4]}
    ))
    right = ray.data.from_pandas(pd.DataFrame(
        {"k": ["a", "a", "b"], "w_start": [0, 10, 0], "w_end": [20, 30, 10], "wid": [0, 1, 2]}
    ))
    out = (
        range_join(left, right, "k", "ts", "w_start", "w_end", right_carry=["wid"], num_buckets=4)
        .to_pandas()
        .sort_values(["row", "wid"])
        .reset_index(drop=True)
    )
    got = set(zip(out["row"], out["wid"]))
    # ts=15 in 'a' falls in BOTH overlapping windows; ts=50 in 'b' matches none
    assert got == {(0, 0), (1, 0), (1, 1), (2, 1), (3, 2)}


def test_audio_features_stage_real_wav(ray_session):
    """AudioFeatures actor stage decodes real WAV/PCM payloads in a Ray
    pipeline, drops the binary column, and emits deterministic features."""
    import numpy as np
    import pyarrow as pa

    import ray.data
    from deepdoctection_ray.kernels.wav import encode_wav
    from deepdoctection_ray.stages.multimodal import AudioFeatures

    t = np.linspace(0, 1, 8000)
    rows = []
    for i, freq in enumerate([220, 440, 880]):
        sig = 0.5 * np.sin(2 * np.pi * freq * t)
        rows.append({"media_id": i, "payload": encode_wav(sig, 8000)})
    ds = ray.data.from_arrow(
        pa.table(
            {
                "media_id": pa.array([r["media_id"] for r in rows], pa.int64()),
                "payload": pa.array([r["payload"] for r in rows], pa.binary()),
            }
        )
    )
    out = ds.map_batches(
        AudioFeatures, batch_format="pyarrow", concurrency=(1, 2), batch_size=2
    ).to_pandas()
    assert "payload" not in out.columns
    f = out.sort_values("media_id")["audio_features"].tolist()
    for row in f:
        assert abs(row["rms"] - 0.3536) < 0.01
        assert row["duration_sec"] == 1.0 and row["rate"] == 8000 and row["channels"] == 1
    # zero-crossing rate doubles with frequency
    assert f[0]["zcr"] < f[1]["zcr"] < f[2]["zcr"]
    # resample path halves the duration's sample count, not its seconds
    rs = ds.map_batches(
        AudioFeatures,
        batch_format="pyarrow",
        concurrency=(1, 2),
        fn_constructor_kwargs=dict(resample_to=4000),
    ).to_pandas()
    row = rs.sort_values("media_id")["audio_features"].iloc[0]
    assert row["rate"] == 4000 and abs(row["duration_sec"] - 1.0) < 0.001


def test_audio_features_rejects_non_wav(ray_session):
    import pytest

    from deepdoctection_ray.stages.multimodal import AudioFeatures

    stage = AudioFeatures()
    with pytest.raises(NotImplementedError, match="WAV/PCM decodes natively"):
        stage._decode(b"\xff\xfb\x90\x00 mp3-ish", {})


def test_hash_rows_deterministic_and_content_only():
    """The bucket hash must be stable across processes and depend only on
    key CONTENT (never buffer position / chunking / pandas semantics) — the
    co-location guarantee every bucketed operator rests on. The pinned
    constants freeze the hash function itself: changing it silently would
    reshuffle every bucketed exchange."""
    from deepdoctection_ray.functions.bucketed import hash_rows

    t = pa.table({"k": pa.array(["hello"]), "i": pa.array([42])})
    assert int(hash_rows(t, ["k", "i"])[0]) == 2982966337248567919

    # equal content hashes equal regardless of chunk layout or slicing
    base = pa.table({"k": pa.array(["abc", "abc", "xyz", ""]), "i": pa.array([1, 1, 2, 3])})
    h = hash_rows(base, ["k", "i"])
    assert h[0] == h[1] and len({int(x) for x in h[1:]}) == 3
    chunked = pa.table(
        {"k": pa.chunked_array([["abc"], ["abc", "xyz", ""]]), "i": pa.array([1, 1, 2, 3])}
    )
    assert (hash_rows(chunked, ["k", "i"]) == h).all()
    sliced = pa.table(
        {"k": base["k"].combine_chunks().slice(2, 2), "i": pa.array([2, 3])}
    )
    assert (hash_rows(sliced, ["k", "i"]) == h[2:]).all()

    # nulls collide with each other, not with empty string / zero
    nt = pa.table({"k": pa.array([None, None, ""], pa.string())})
    hn = hash_rows(nt, ["k"])
    assert hn[0] == hn[1] != hn[2]

    # float keys that SQL / pandas grouping treats as one group (0.0 and
    # -0.0; every NaN payload) share one hash, hence one bucket
    nans = np.array(
        [0x7FF8000000000000, 0x7FF8000000000123, 0xFFF8000000000000], np.uint64
    ).view(np.float64)
    ft = pa.table({"k": pa.array(np.concatenate([[0.0, -0.0], nans]))})
    hf = hash_rows(ft, ["k"])
    assert hf[0] == hf[1] != hf[2] and len(set(hf[2:].tolist())) == 1
    fb = (hf % np.uint64(32)).tolist()  # the exchange's bucket of each row
    assert fb[0] == fb[1] and len(set(fb[2:])) == 1

    # bucket ids cover the range roughly uniformly
    big = pa.table({"k": pa.array([f"doc-{i*2654435761 % 10**9:x}" for i in range(20000)])})
    counts = np.bincount((hash_rows(big, ["k"]) % np.uint64(32)).astype(np.int64), minlength=32)
    assert counts.min() > 0.7 * counts.mean()


def test_auto_num_buckets_rule():
    """Pin the sizing rule: clamp(bytes // 64 MiB, 16, 4096)."""
    from deepdoctection_ray.functions.bucketed import auto_num_buckets

    assert auto_num_buckets(0) == 16
    assert auto_num_buckets(10 << 20) == 16  # small corpora floor
    assert auto_num_buckets(64 << 20) == 16
    assert auto_num_buckets((64 << 20) * 100) == 100
    assert auto_num_buckets((64 << 20) * 4097) == 4096  # cap
    assert auto_num_buckets(100 << 40) == 4096  # 100 TB saturates the cap
    assert auto_num_buckets((64 << 20) * 100, lo=1, hi=32) == 32  # overrides


def test_gopher_repetition_signals():
    from deepdoctection_ray.stages.text_stats import gopher_repetition

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "a b\na b\nc d",          # 2/3 duplicate line instances
                    "x y z",                   # clean
                    "",                        # degenerate
                    "one two one two one two", # dominated by one 2-gram
                ]
            ),
        }
    )
    out = gopher_repetition(t).to_pydict()
    assert out["dup_line_frac"] == [0.666667, 0.0, 0.0, 0.0]
    assert out["dup_line_char_frac"] == [0.666667, 0.0, 0.0, 0.0]
    # "one two" (7 chars) x3 / 23 chars
    assert out["top_2gram_char_frac"][3] == 0.913043
    assert out["gopher_keep"] == [False, False, True, False]


def test_chunk_by_tokens_windows(ray_session):
    import ray.data

    from deepdoctection_ray.stages.chunks import chunk_by_tokens

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(["a b c d e f g h i j", "a  b", ""]),
        }
    )
    out = (
        chunk_by_tokens(ray.data.from_arrow(t), "text", "doc_id", max_tokens=4, overlap=1)
        .to_pandas()
        .sort_values(["doc_id", "chunk_idx"])
        .reset_index(drop=True)
    )
    # stride 3: windows at 0/3/6, last takes the remainder
    assert list(out["chunk_text"]) == ["a b c d", "d e f g", "g h i j", "a b"]
    assert list(out["n_tokens"]) == [4, 4, 4, 2]
    assert list(out["doc_id"]) == [0, 0, 0, 1]  # empty doc emits nothing
    # consecutive chunks overlap by exactly `overlap` tokens
    assert out.loc[0, "chunk_text"].split()[-1] == out.loc[1, "chunk_text"].split()[0]

    import pytest

    with pytest.raises(ValueError, match="overlap"):
        chunk_by_tokens(ray.data.from_arrow(t), max_tokens=4, overlap=4)


def test_gopher_coverage_extended_rules():
    from deepdoctection_ray.stages.text_stats import gopher_coverage

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(
                [
                    "a b c d e a b c d e x y z",  # within-doc 5-gram repeat
                    "unique words only here now really",
                    "",
                ]
            ),
        }
    )
    out = gopher_coverage(t).to_pydict()
    # 'a b c d e' x2 covers 10 single-char tokens of a 25-char doc — each
    # covered character counted ONCE despite 2 overlapping-window families
    assert out["dup_5gram_char_frac"][0] == 0.4
    assert out["dup_5gram_char_frac"][1] == 0.0
    # top 2-gram 'a b' (3 chars) occurs twice: 6/25
    assert out["top_2gram_char_frac"][0] == 0.24
    # monotone: longer top-gram coverage grows on this repetitive doc
    assert (
        out["top_2gram_char_frac"][0]
        < out["top_3gram_char_frac"][0]
        < out["top_4gram_char_frac"][0]
    )
    # empty doc: all zeros
    assert all(out[c][2] == 0.0 for c in out if c != "doc_id")

    # an empty doc after the last non-empty one must not change its
    # coverage: 'a b c d e' x2 covers 10 of 21 chars
    rep = "x a b c d e a b c d e"
    for texts in ([rep], [rep, ""]):
        t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts)})
        assert gopher_coverage(t).to_pydict()["dup_5gram_char_frac"][0] == 0.47619


def test_mixture_plan_exact_apportionment(ray_session):
    import ray.data

    from deepdoctection_ray.stages.text_stats import mixture_plan

    t = pa.table(
        {
            "source": pa.array(["a"] * 3 + ["b"] * 2 + ["c"]),
            "text": pa.array(
                ["one two three", "four five", "six", "seven eight nine ten", "x", "y z"]
            ),
        }
    )
    out = mixture_plan(ray.data.from_arrow(t).repartition(3), budget_tokens=100).to_pandas()
    # a: 6 tokens, b: 5, c: 2 → exact shares 46.15/38.46/15.38 of 100
    assert out["alloc_tokens"].sum() == 100  # Hamilton: budget spent exactly
    assert list(out["source"]) == ["a", "b", "c"]
    assert list(out["n_tokens"]) == [6, 5, 2]
    assert list(out["alloc_tokens"]) == [46, 39, 15]  # b wins the remainder (.46 vs .15)


def test_dedup_audio_matches_bruteforce(ray_session):
    import ray.data

    from deepdoctection_ray.stages.multimodal import dedup_audio
    from deepdoctection_ray.synth import make_audio_dedup_corpus

    media, golden = make_audio_dedup_corpus(8, seed=9)
    out = (
        dedup_audio(ray.data.from_arrow(media), threshold=7)
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    want = golden.to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    assert out.equals(want)
    assert len(want) > 0
