"""Text-analysis stages over a document/turn text column.

Vectorized with ``pyarrow.compute`` RE2 kernels wherever a kernel exists
(token/punct counts run in C over the whole batch); the language-ID heuristic
is one Arrow regex split + ``is_in`` membership + bincount segment sum per
batch, hosted in an actor so the stopword value-set arrays build once per
worker.

DuckDB-oracle notes: duckdb's ``regexp_*`` is also RE2, so token and punct
counts are bit-identical between the Ray stage and the SQL oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..kernels.ids import md5_hex

TOKEN_RE = r"[A-Za-z0-9]+"
PUNCT_RE = r"[^A-Za-z0-9\s]"
# a BPE-ish word splitter: word pieces, numbers, or single non-space symbols
BPEISH_RE = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"


def token_stats(batch: pa.Table, text_column: str = "text") -> pa.Table:
    """Append ``n_tokens`` (alnum runs) and ``n_pieces`` (BPE-ish pieces)."""
    col = batch[text_column]
    batch = batch.append_column(
        "n_tokens", pc.cast(pc.count_substring_regex(col, TOKEN_RE), pa.int64())
    )
    batch = batch.append_column(
        "n_pieces", pc.cast(pc.count_substring_regex(col, BPEISH_RE), pa.int64())
    )
    return batch


def quality_stats(batch: pa.Table, text_column: str = "text") -> pa.Table:
    """Quality-scoring features: length, token count, punct count/ratio,
    mean token length. All expressible in ANSI SQL for the oracle."""
    col = batch[text_column]
    n_chars = pc.cast(pc.utf8_length(col), pa.int64())
    n_tokens = pc.cast(pc.count_substring_regex(col, TOKEN_RE), pa.int64())
    n_punct = pc.cast(pc.count_substring_regex(col, PUNCT_RE), pa.int64())
    denom = pc.max_element_wise(n_chars, pa.scalar(1, pa.int64()))
    punct_ratio = pc.round(
        pc.divide(pc.cast(n_punct, pa.float64()), pc.cast(denom, pa.float64())), ndigits=6
    )
    batch = batch.append_column("n_chars_text", n_chars)
    batch = batch.append_column("n_tokens", n_tokens)
    batch = batch.append_column("n_punct", n_punct)
    batch = batch.append_column("punct_ratio", punct_ratio)
    return batch


def fingerprint(batch: pa.Table, text_column: str = "text") -> pa.Table:
    """Append ``fingerprint`` = md5 of the whitespace-normalized text.

    Content-hash document identity (the ``annotation_id`` uuid3 idea,
    ``identifier.py:53-77``, applied at document granularity); the SQL oracle
    is ``md5(regexp_replace(trim(text), '\\s+', ' ', 'g'))``.
    """
    texts = batch[text_column].to_pylist()
    fps = [md5_hex(" ".join((t or "").split())) for t in texts]
    return batch.append_column("fingerprint", pa.array(fps, pa.string()))


def rolling_fingerprint(batch: pa.Table, text_column: str = "text", window: int = 8) -> pa.Table:
    """Winnowing-lite document fingerprint: the MINIMUM window hash over the
    token stream — robust to local edits (an edit perturbs at most ``window``
    of the T window hashes, so the minimum usually survives). The window hash
    is md5 of the space-joined token window, which keeps the sketch
    SQL-oracle-expressible (min over md5 of sliding windows) while preserving
    the rolling/winnowing semantics."""
    texts = batch[text_column].to_pylist()
    out = []
    for t in texts:
        toks = (t or "").split()
        if len(toks) <= window:
            out.append(md5_hex(" ".join(toks)))
            continue
        out.append(
            min(md5_hex(" ".join(toks[i : i + window])) for i in range(len(toks) - window + 1))
        )
    return batch.append_column("rolling_fp", pa.array(out, pa.string()))


STOPWORDS = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "it", "for", "was", "with", "on"},
    "es": {"el", "la", "de", "que", "y", "en", "los", "del", "se", "las", "por", "un"},
    "de": {"der", "die", "und", "das", "von", "zu", "mit", "den", "im", "ist", "des", "ein"},
    "fr": {"le", "la", "les", "de", "des", "et", "en", "un", "une", "du", "que", "est"},
}


class LanguageId:
    """n-gram/stopword language-ID heuristic as an actor-pool stage.

    The Ray analog of ``LanguageDetectionService`` (``pipe/language.py:34-134``)
    with the HF model swapped for a deterministic stopword scorer (no model
    weights in this environment). Ties break alphabetically — deterministic.

    Fully vectorized: ONE Arrow regex split over the batch, ``pc.is_in``
    membership against each language's stopword set over the flattened token
    stream, and a per-row ``bincount`` segment sum. The per-language score is
    the same IEEE ``hits / n_tokens`` float64 division the SQL oracle
    performs, so the doubles stay bit-identical; ``np.argmax`` picks the
    FIRST maximum, which over the alphabetically-sorted language axis is
    exactly the oracle's strict-greater tie rule.
    """

    def __init__(self, text_column: str = "text") -> None:
        self._text_column = text_column
        self._langs = sorted(STOPWORDS)
        self._sets = [pa.array(sorted(STOPWORDS[lang]), pa.string()) for lang in self._langs]
        self._lang_lut = np.array(self._langs, dtype=object)

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self._text_column]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = len(batch)
        # same token rule as the oracle: [a-z]+ runs of lower(text)
        toks = pc.split_pattern_regex(pc.utf8_lower(pc.fill_null(col, "")), "[^a-z]+")
        raw_lens = pc.list_value_length(toks).to_numpy().astype(np.int64)
        flat = toks.flatten()
        row_idx = np.repeat(np.arange(n, dtype=np.int64), raw_lens)
        # boundary empties from the split are not tokens; "" is never a
        # stopword so only the denominator needs the mask
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        n_toks = np.bincount(row_idx[nonempty], minlength=n).astype(np.float64)
        denom = np.maximum(n_toks, 1.0)
        scores = np.empty((len(self._langs), n), dtype=np.float64)
        for i, value_set in enumerate(self._sets):
            hit = pc.is_in(flat, value_set=value_set).to_numpy(zero_copy_only=False)
            scores[i] = np.bincount(row_idx[hit], minlength=n) / denom
        best_i = np.argmax(scores, axis=0)
        best = scores[best_i, np.arange(n)]
        langs = self._lang_lut[best_i]
        langs[best <= 0.0] = "und"
        batch = batch.append_column("lang_pred", pa.array(langs, pa.string()))
        batch = batch.append_column("lang_score", pa.array(best, pa.float64()))
        return batch


def _word_ngrams(text: str, n: int = 3) -> list[str]:
    """Canonical gram definition — see ``kernels.normalize.word_ngrams``."""
    from ..kernels.normalize import word_ngrams

    return word_ngrams(text, n)


def top_ngrams(
    ds: "ray.data.Dataset",
    text_column: str = "text",
    n: int = 3,
    k: int = 100,
    num_buckets: int = 64,
) -> "ray.data.Dataset":
    """EXACT corpus top-k word n-grams — the boilerplate/contamination-scan
    primitive of a training-data pipeline.

    Three-level reduction, nothing corpus-sized anywhere: (1) one Counter
    pass per BATCH emits (ngram, count) partials — the combiner, so the
    exchange carries per-batch-distinct grams, not per-occurrence rows;
    (2) grams co-partition by hash (the bucketed pattern) and each bucket
    folds to its LOCAL top-k with one vectorized groupby — lossless, since
    buckets partition the key space the global top-k is a subset of the
    ≤ buckets×k bucket winners; (3) the tiny winner set sorts globally with
    the deterministic (count DESC, ngram ASC) tie-break the oracle uses.
    """
    from ..functions.bucketed import bucketed_map_groups
    from ..kernels.grams import explode_ngrams

    def partial(batch: pa.Table) -> pa.Table:
        # vectorized: Arrow gram explode + ONE C hash-aggregation per batch
        _, grams = explode_ngrams(batch[text_column], n)
        t = pa.table({"ngram": grams}).group_by("ngram").aggregate([([], "count_all")])
        return pa.table(
            {
                "ngram": t["ngram"],
                "n": pc.cast(t["count_all"], pa.int64()),
            }
        )

    def bucket_topk(g: pa.Table) -> pa.Table:
        t = g.group_by("ngram").aggregate([("n", "sum")])
        df = t.to_pandas().rename(columns={"n_sum": "n"})
        df = df.sort_values(["n", "ngram"], ascending=[False, True], kind="stable").head(k)
        return pa.Table.from_pandas(df[["ngram", "n"]], preserve_index=False)

    winners = bucketed_map_groups(
        ds.map_batches(partial, batch_format="pyarrow"), ["ngram"], bucket_topk, num_buckets
    )
    # winner set is ≤ num_buckets × k rows — a driver-safe global sort+limit
    return winners.sort(["n", "ngram"], descending=[True, False]).limit(k)


class MisraGries:
    """Mergeable Misra-Gries heavy-hitter summary (public algorithm,
    Misra & Gries 1982; merge per Agarwal et al. 2013): any item with true
    frequency > N/capacity is guaranteed present, and every kept count
    undercounts by at most the total decrement — the sketch-path complement
    to the exact :func:`top_ngrams`."""

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self.counts: dict[str, int] = {}

    def add(self, items: list[str]) -> None:
        c = self.counts
        for it in items:
            if it in c:
                c[it] += 1
            elif len(c) < self.capacity:
                c[it] = 1
            else:
                dead = [key for key in c if c[key] == 1]
                for key in c:
                    c[key] -= 1
                for key in dead:
                    del c[key]
        self.counts = c

    def merge(self, other: "MisraGries") -> "MisraGries":
        c = dict(self.counts)
        for key, v in other.counts.items():
            c[key] = c.get(key, 0) + v
        if len(c) > self.capacity:
            # subtract the (capacity+1)-th largest count and drop ≤ 0
            cut = sorted(c.values(), reverse=True)[self.capacity]
            c = {key: v - cut for key, v in c.items() if v - cut > 0}
        out = MisraGries(self.capacity)
        out.counts = c
        return out


def heavy_hitter_ngrams(
    ds: "ray.data.Dataset",
    text_column: str = "text",
    n: int = 3,
    capacity: int = 256,
) -> "ray.data.Dataset":
    """Approximate heavy-hitter n-grams with a fixed-size mergeable summary:
    one Misra-Gries sketch per batch (bounded memory regardless of corpus
    vocabulary), merged in a tiny final reduce — the 100-TB path when the
    distinct-gram space is too large even for the bucketed exact top-k.
    Guarantee: every gram with frequency > N/capacity appears."""
    import json as _json

    def partial(batch: pa.Table) -> pa.Table:
        mg = MisraGries(capacity)
        for t in batch[text_column].to_pylist():
            mg.add(_word_ngrams(t or "", n))
        return pa.table(
            {
                "part": pa.array([0], pa.int64()),
                "sketch": pa.array([_json.dumps(mg.counts)], pa.string()),
            }
        )

    def reduce_group(group: pa.Table) -> pa.Table:
        acc = MisraGries(capacity)
        for payload in group["sketch"].to_pylist():
            other = MisraGries(capacity)
            other.counts = _json.loads(payload)
            acc = acc.merge(other)
        items = sorted(acc.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return pa.table(
            {
                "ngram": pa.array([key for key, _ in items], pa.string()),
                "approx_n": pa.array([v for _, v in items], pa.int64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby("part").map_groups(reduce_group, batch_format="pyarrow")


# sentinel for the total-gram-count row in the recount pass: grams are
# single-space-joined whitespace-split tokens, so no real gram contains a tab
_TOTAL_SENTINEL = "\t__total__"


def heavy_hitters_exact(
    ds: "ray.data.Dataset",
    text_column: str = "text",
    n: int = 3,
    capacity: int = 256,
) -> "ray.data.Dataset":
    """EXACT heavy hitters via the classic two-pass sketch algorithm: a
    Misra-Gries pass proposes ≤ ``capacity`` candidates (guaranteed to
    contain every gram with true count > N/capacity), then ONE more streaming
    pass counts ONLY the candidates exactly (broadcast membership set, tiny
    groupby) and keeps those above the threshold.

    Output ``(ngram, n)`` with TRUE counts — deterministically equal to the
    exact SQL ``HAVING n * capacity > total`` result, which is what makes the
    sketch path driver-oracle-checkable. Scale shape: pass 1 is the mergeable
    MG sketch (fixed memory per batch), pass 2 ships ≤ capacity+1 rows per
    batch; nothing corpus-sized anywhere."""
    from ..kernels.grams import explode_ngrams

    candidates = sorted(
        r["ngram"] for r in heavy_hitter_ngrams(ds, text_column, n, capacity).take_all()
    )
    cand_ref = ray.put(candidates)

    class Recount:
        def __init__(self) -> None:
            self._cand = pa.array(ray.get(cand_ref), pa.string())

        def __call__(self, batch: pa.Table) -> pa.Table:
            # vectorized: explode once, is_in membership against the ≤256
            # broadcast candidates, one C hash-aggregation; the sentinel row
            # carries this batch's total gram count for the threshold
            _, grams = explode_ngrams(batch[text_column], n)
            kept = grams.filter(pc.is_in(grams, value_set=self._cand))
            t = pa.table({"ngram": kept}).group_by("ngram").aggregate([([], "count_all")])
            return pa.table(
                {
                    "ngram": pa.concat_arrays(
                        [t["ngram"].combine_chunks().cast(pa.string()),
                         pa.array([_TOTAL_SENTINEL], pa.string())]
                    ),
                    "n": pa.array(
                        pc.cast(t["count_all"], pa.int64()).to_pylist() + [len(grams)],
                        pa.int64(),
                    ),
                }
            )

    counted = (
        ds.map_batches(Recount, batch_format="pyarrow", concurrency=(1, 4))
        .groupby("ngram")
        .sum("n")
    )
    # ≤ capacity+1 distinct keys: a driver-safe collect
    rows = {r["ngram"]: r["sum(n)"] for r in counted.take_all()}
    total = rows.pop(_TOTAL_SENTINEL, 0)
    heavy = sorted(
        ((g, c) for g, c in rows.items() if c * capacity > total),
        key=lambda kv: (-kv[1], kv[0]),
    )
    return ray.data.from_arrow(
        pa.table(
            {
                "ngram": pa.array([g for g, _ in heavy], pa.string()),
                "n": pa.array([c for _, c in heavy], pa.int64()),
            }
        )
    )


def split_by_hash(
    ds: "ray.data.Dataset",
    id_column: str = "doc_id",
    test_permille: int = 100,
    val_permille: int = 0,
    salt: str = "",
) -> "ray.data.Dataset":
    """Deterministic, reproducible train/val/test assignment by content hash —
    the dataset-split analog (``dd_datasets/base.py:317-366`` samples splits
    randomly; at 100 TB a split must instead be a pure function of the id so
    any worker, any run, any subset of the corpus agrees without coordination).

    The bucket is the first 12 hex digits of ``md5(salt + id)`` taken mod
    1000 (a permille); rows land in ``test`` below ``test_permille``, ``val``
    below ``test+val``, else ``train``. md5 keeps the oracle differential:
    DuckDB's ``md5()`` reproduces the assignment exactly.
    """
    from ..kernels.ids import md5_hex

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch[id_column].to_pylist()
        splits = []
        for i in ids:
            bucket = int(md5_hex(salt + str(i))[:12], 16) % 1000
            if bucket < test_permille:
                splits.append("test")
            elif bucket < test_permille + val_permille:
                splits.append("val")
            else:
                splits.append("train")
        return pa.table(
            {id_column: batch[id_column], "split": pa.array(splits, pa.string())}
        )

    return ds.map_batches(assign, batch_format="pyarrow")


def stratified_sample(
    ds: "ray.data.Dataset",
    group_column: str,
    id_column: str = "doc_id",
    n_per_group: int = 5,
    salt: str = "",
    num_buckets: int = 64,
) -> "ray.data.Dataset":
    """Deterministic stratified sample: the ``n_per_group`` rows of every
    group with the smallest ``md5(salt + id)`` — "random" under the hash yet
    a pure function of the ids (any worker/run/subset agrees; re-deal with
    ``salt``). Source-balancing subsampler for mixture tuning. Composes the
    md5 ranking of :func:`split_by_hash` with the lossless per-batch + 
    bucketed limit-per-key of ``top_n_per_group``."""
    from ..functions.aggregates import top_n_per_group
    from ..kernels.ids import md5_hex

    def rank(batch: pa.Table) -> pa.Table:
        h = [md5_hex(salt + str(i)) for i in batch[id_column].to_pylist()]
        return batch.append_column("__h", pa.array(h, pa.string()))

    ranked = ds.map_batches(rank, batch_format="pyarrow")
    out = top_n_per_group(
        ranked, [group_column], ["__h", id_column], n_per_group,
        descending=False, num_buckets=num_buckets,
    )
    return out.drop_columns(["__h"])


def repetition_stats(batch: pa.Table, text_column: str = "text") -> pa.Table:
    """Intra-document repetition signal (the Gopher-rules duplicate-n-gram
    family, Rae et al. 2021 — public literature): fraction of word 3-gram
    occurrences that are repeats of an earlier gram in the SAME doc.
    ``dup_ngram_frac = 1 - distinct/total`` (0.0 for docs with <3 tokens —
    one whole-text gram, never a repeat). Stateless, one pass per batch."""
    ids_out = []
    fracs = []
    for t in batch[text_column].to_pylist():
        grams = _word_ngrams(t or "", 3)
        total = len(grams)
        distinct = len(set(grams))
        fracs.append(round(1.0 - distinct / total, 6) if total else 0.0)
    return pa.table(
        {
            **{n: batch[n] for n in batch.column_names if n != text_column},
            "dup_ngram_frac": pa.array(fracs, pa.float64()),
        }
    )


def pps_systematic_sample(
    ds: "ray.data.Dataset",
    id_column: str,
    weight_column: str,
    n: int,
    picks_column: str = "n_picks",
) -> "ray.data.Dataset":
    """Deterministic probability-proportional-to-size systematic sampling
    (Madow 1949 — the classic PPS design): lay the docs on a line of
    cumulative weight ``W`` (in ``id_column`` order), drop ``n`` evenly
    spaced sample points ``p_j = j·W/n``, and keep each doc once per point
    inside its weight interval. Every selected doc carries ``n_picks``
    (heavy docs can be hit more than once — the with-replacement PPS
    convention); ``Σ n_picks == n`` exactly.

    100-TB shape: the weight line comes from the two-pass distributed
    prefix sum (:func:`~..functions.scan.global_cumsum` — per-range totals
    to the driver, never rows) plus one streaming pure-INTEGER interval
    pass, so the draw is bit-reproducible and the SQL oracle rebuilds it
    with a window sum (`q_weighted_sample`). No RNG, no transcendental in
    the selection rule — nothing to drift between engines."""
    from ..functions.scan import global_cumsum

    if n <= 0:
        raise ValueError("pps_systematic_sample: n must be positive")
    cum = global_cumsum(
        ds.select_columns([id_column, weight_column]),
        id_column,
        weight_column,
        out_column="_cum",
    )
    from ray.data.aggregate import Max

    total = cum.aggregate(Max("_cum"))["max(_cum)"]
    if total is None or total <= 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    id_column: pa.array([], pa.int64()),
                    picks_column: pa.array([], pa.int64()),
                }
            )
        )
    W = int(total)
    if W > (1 << 62) // max(n, 1):
        raise OverflowError(
            "pps_systematic_sample: n * total_weight exceeds int64 — "
            "scale weights down (selection only needs their ratios)"
        )

    def pick(batch: pa.Table) -> pa.Table:
        c = batch["_cum"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = batch[weight_column].to_numpy(zero_copy_only=False).astype(np.int64)
        if (w < 0).any():
            raise ValueError("pps_systematic_sample: negative weight")
        prev = c - w
        # smallest j with j*W >= x is ceil(x / W); count j in [lo, hi)
        hi = -(-(c * n) // W)
        lo = -(-(prev * n) // W)
        picks = hi - lo
        keep = picks > 0
        return pa.table(
            {
                id_column: batch[id_column].filter(pa.array(keep)),
                picks_column: pa.array(picks[keep], pa.int64()),
            }
        )

    return cum.map_batches(pick, batch_format="pyarrow")


def normalize_text(
    ds: "ray.data.Dataset",
    text_column: str = "text",
    output_column: str = "norm_text",
    nfc: bool = True,
    lower: bool = True,
) -> "ray.data.Dataset":
    """CCNet-style text normalization (the canonical pre-dedup pass of a
    web-scale curation pipeline: Wenzek et al. 2020 normalize before
    hashing): Unicode NFC → lowercase → collapse runs of whitespace to one
    space → trim. Lower/collapse/trim are Arrow C kernels (utf8proc + RE2 —
    the same libraries DuckDB binds, so the oracle `q_normalize_text` is
    bit-exact). NFC runs through ``unicodedata`` ONLY on the rows that
    contain non-ASCII codepoints (a vectorized RE2 mask finds them; web
    corpora are ASCII-dominated so the Python path touches a sliver) —
    pyarrow 16's ``utf8_normalize(form="NFC")`` does NOT compose (measured:
    é stays e+U+0301), so it cannot implement true NFC here. Appends
    ``output_column``; the original column survives for provenance."""
    import unicodedata

    def norm(batch: pa.Table) -> pa.Table:
        col = pc.cast(batch[text_column], pa.string())
        if nfc:
            needs = pc.match_substring_regex(col, "[^\\x00-\\x7f]")
            idx = np.nonzero(
                needs.to_numpy(zero_copy_only=False).astype(bool)
                & pc.is_valid(col).to_numpy(zero_copy_only=False)
            )[0]
            if len(idx):
                vals = col.to_pylist()
                for i in idx:
                    vals[i] = unicodedata.normalize("NFC", vals[i])
                col = pa.array(vals, pa.string())
        if lower:
            col = pc.utf8_lower(col)
        col = pc.replace_substring_regex(col, r"\s+", " ")
        col = pc.utf8_trim(col, " ")
        return batch.append_column(output_column, col)

    return ds.map_batches(norm, batch_format="pyarrow")


def gopher_repetition(batch: pa.Table, text_column: str = "text", id_column: str = "doc_id") -> pa.Table:
    """Gopher-style repetition signals (Rae et al. 2021 §A1.1, public rules)
    — the quality-filter family the reference has no analog for but every
    LLM-curation pipeline runs:

    - ``dup_line_frac``: fraction of (trimmed, non-empty) line INSTANCES
      whose line occurs more than once in the document;
    - ``dup_line_char_frac``: fraction of those lines' characters;
    - ``top_2gram_char_frac``: characters covered by the most frequent word
      2-gram (count × gram length / document length), ties broken by the
      lexicographically smallest gram;
    - ``gopher_keep``: the composite keep rule (≤0.30 / ≤0.20 Gopher
      thresholds).

    One Arrow split + one vectorized pandas groupby per batch — no per-row
    Python. All four columns rebuild exactly in SQL (the oracle).
    """
    import pandas as pd

    from ..kernels.grams import explode_bigrams

    col = batch[text_column]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "")
    n = len(batch)
    n_chars = pc.utf8_length(col).to_numpy(zero_copy_only=False).astype(np.float64)
    denom_chars = np.maximum(n_chars, 1.0)

    # --- duplicate lines (trimmed, non-empty) --------------------------------
    lines = pc.split_pattern(col, "\n")
    raw_lens = pc.list_value_length(lines).to_numpy().astype(np.int64)
    flat = pc.utf8_trim_whitespace(lines.flatten())
    row_idx = np.repeat(np.arange(n, dtype=np.int64), raw_lens)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    ldf = pd.DataFrame(
        {
            "row": row_idx[keep],
            "line": flat.filter(pa.array(keep)).to_pandas(),
        }
    )
    ldf["len"] = ldf["line"].str.len()
    dup_line_frac = np.zeros(n)
    dup_line_char_frac = np.zeros(n)
    if len(ldf):
        cnt = ldf.groupby(["row", "line"], sort=False)["len"].transform("size")
        dup = cnt > 1
        tot = np.maximum(np.bincount(ldf["row"], minlength=n), 1)
        tot_chars = np.maximum(np.bincount(ldf["row"], weights=ldf["len"], minlength=n), 1.0)
        dup_line_frac = np.bincount(ldf.loc[dup, "row"], minlength=n) / tot
        dup_line_char_frac = (
            np.bincount(ldf.loc[dup, "row"], weights=ldf.loc[dup, "len"], minlength=n)
            / tot_chars
        )

    # --- top word-2-gram coverage -------------------------------------------
    g_row, _w1, grams = explode_bigrams(col)
    top_frac = np.zeros(n)
    if len(g_row):
        gdf = pd.DataFrame({"row": g_row, "g": grams.to_pandas()})
        gc = gdf.groupby(["row", "g"], sort=False).size().reset_index(name="c")
        gc = gc.sort_values(["row", "c", "g"], ascending=[True, False, True])
        top = gc.drop_duplicates("row", keep="first")
        cover = top["c"].to_numpy() * top["g"].str.len().to_numpy()
        top_frac[top["row"].to_numpy()] = cover / denom_chars[top["row"].to_numpy()]

    def _round6(x: np.ndarray) -> np.ndarray:
        # DuckDB's round() is half-AWAY-from-zero on x*1e6 doubles; numpy's
        # is half-even — emulate DuckDB exactly (values are non-negative)
        return np.floor(x * 1e6 + 0.5) / 1e6

    dup_line_frac = _round6(dup_line_frac)
    dup_line_char_frac = _round6(dup_line_char_frac)
    top_frac = _round6(top_frac)
    return pa.table(
        {
            id_column: batch[id_column],
            "dup_line_frac": pa.array(dup_line_frac, pa.float64()),
            "dup_line_char_frac": pa.array(dup_line_char_frac, pa.float64()),
            "top_2gram_char_frac": pa.array(top_frac, pa.float64()),
            "gopher_keep": pa.array(
                (dup_line_frac <= 0.3) & (top_frac <= 0.2), pa.bool_()
            ),
        }
    )


def gopher_coverage(
    batch: pa.Table,
    text_column: str = "text",
    id_column: str = "doc_id",
    top_ns: tuple = (2, 3, 4),
    dup_ns: tuple = (5, 10),
) -> pa.Table:
    """The REST of Gopher's repetition family (Rae et al. 2021 §A1.1),
    complementing :func:`gopher_repetition`:

    - ``top_{n}gram_char_frac`` (n ∈ ``top_ns``): characters covered by the
      single most frequent word n-gram (count × gram length / doc length),
      ties by lexicographically smallest gram;
    - ``dup_{n}gram_char_frac`` (n ∈ ``dup_ns``): characters of tokens lying
      under ANY within-doc-duplicated n-gram window, each character counted
      ONCE (the paper's "not counting overlapping n-grams twice"), over the
      doc length.

    One Arrow split per batch; per-n work is a vectorized pandas groupby over
    (row, gram) plus a difference-array coverage mask — no per-row Python.
    """
    import pandas as pd

    from ..kernels.grams import covered_mask, segment_sum, split_tokens, token_windows

    col = batch[text_column]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "")
    nrows = len(batch)
    denom = np.maximum(
        pc.utf8_length(col).to_numpy(zero_copy_only=False).astype(np.float64), 1.0
    )
    flat, lens, offs = split_tokens(col)
    tok_lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    total = int(offs[-1])

    def _round6(x: np.ndarray) -> np.ndarray:
        return np.floor(x * 1e6 + 0.5) / 1e6  # DuckDB half-away rounding

    out: dict[str, pa.Array] = {id_column: batch[id_column]}
    for n in top_ns:
        frac = np.zeros(nrows)
        row_idx, _starts, grams = token_windows(flat, lens, offs, n)
        if len(grams):
            gdf = pd.DataFrame({"row": row_idx, "g": grams.to_pandas()})
            gc_ = gdf.groupby(["row", "g"], sort=False).size().reset_index(name="c")
            gc_ = gc_.sort_values(["row", "c", "g"], ascending=[True, False, True])
            top = gc_.drop_duplicates("row", keep="first")
            cover = top["c"].to_numpy() * top["g"].str.len().to_numpy()
            frac[top["row"].to_numpy()] = cover / denom[top["row"].to_numpy()]
        out[f"top_{n}gram_char_frac"] = pa.array(_round6(frac), pa.float64())
    for n in dup_ns:
        row_idx, starts, grams = token_windows(flat, lens, offs, n)
        gdf = pd.DataFrame({"row": row_idx, "g": grams.to_pandas()})
        cnt = gdf.groupby(["row", "g"], sort=False)["row"].transform("size")
        covered = covered_mask(starts[cnt.to_numpy() > 1], n, total)
        frac = segment_sum(np.where(covered, tok_lens, 0), offs) / denom
        out[f"dup_{n}gram_char_frac"] = pa.array(_round6(frac), pa.float64())
    return pa.table(out)


def mixture_plan(
    ds: "ray.data.Dataset",
    budget_tokens: int,
    source_column: str = "source",
    text_column: str = "text",
) -> pa.Table:
    """Training-mixture allocation: split a token ``budget`` across sources
    proportionally to their corpus token mass, by the deterministic
    largest-remainder (Hamilton) method — Σ alloc == budget exactly, ties by
    source ascending.

    One streaming pass emits per-batch ``(source, tokens)`` partials; the
    per-source table is dimension-sized, so the apportionment runs on the
    driver (the broadcast-lookup pattern). Returns
    ``(source, n_tokens, share, alloc_tokens)``.
    """
    def partials(batch: pa.Table) -> pa.Table:
        toks = pc.cast(pc.count_substring_regex(batch[text_column], TOKEN_RE), pa.int64())
        t = pa.table({source_column: batch[source_column], "n": toks})
        g = t.group_by(source_column).aggregate([("n", "sum")])
        return pa.table({source_column: g[source_column], "n_tokens": g["n_sum"]})

    rows = ds.map_batches(partials, batch_format="pyarrow", batch_size=None).take_all()
    agg: dict = {}
    for r in rows:
        agg[r[source_column]] = agg.get(r[source_column], 0) + int(r["n_tokens"])
    sources = sorted(agg)
    n = np.array([agg[s] for s in sources], np.float64)
    total = n.sum()
    if total == 0 or not sources:
        return pa.table(
            {
                source_column: pa.array(sources, pa.string()),
                "n_tokens": pa.array([0] * len(sources), pa.int64()),
                "share": pa.array([0.0] * len(sources), pa.float64()),
                "alloc_tokens": pa.array([0] * len(sources), pa.int64()),
            }
        )
    exact = budget_tokens * n / total
    fl = np.floor(exact)
    frac = exact - fl
    remaining = int(budget_tokens - fl.sum())
    # largest remainder, ties by source ascending (sources[] is sorted, and
    # argsort is stable, so equal fracs keep ascending source order)
    order = np.argsort(-frac, kind="stable")
    bump = np.zeros(len(sources), np.int64)
    bump[order[:remaining]] = 1
    share = np.floor((n / total) * 1e6 + 0.5) / 1e6  # DuckDB half-away round
    return pa.table(
        {
            source_column: pa.array(sources, pa.string()),
            "n_tokens": pa.array(n.astype(np.int64), pa.int64()),
            "share": pa.array(share, pa.float64()),
            "alloc_tokens": pa.array(fl.astype(np.int64) + bump, pa.int64()),
        }
    )
