"""Vectorized word-gram explosion over Arrow string columns.

The gram-based operators (minhash/jaccard shingles, n-gram stats, bigram LM,
decontamination) all share ONE gram definition
(:func:`..kernels.normalize.word_ngrams`); these kernels produce the exact
same grams without a per-document Python tokenize/join loop — one Arrow
whitespace split, numpy index arithmetic over the flattened token buffer, and
C string-join kernels. On the minhash/jaccard/LM bench queries the per-doc
Python exploder was the hottest remaining loop (round-3 audit).

Equivalence is pinned by ``tests/test_extract_kernels.py`` property tests
against the scalar definitions.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = [
    "ranges",
    "segment_sum",
    "segment_bounds",
    "covered_mask",
    "token_windows",
    "split_tokens",
    "explode_ngrams",
    "explode_bigrams",
]


def ranges(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(c)`` for every c in counts, vectorized."""
    return np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )


def segment_sum(values: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Per-row sums of ``values[offs[i]:offs[i + 1]]`` (``len(offs) ==
    n_rows + 1``) as a cumsum difference taken at the offsets.

    The single owner of per-row sums over a flat token stream: empty rows
    anywhere (a repeated offset, or ``offs[i] == len(values)``) sum to 0 by
    construction — an indexed ufunc reduce instead returns the element AT a
    repeated index and rejects an index equal to ``len``.
    """
    cs = np.concatenate([[0], np.cumsum(values)])
    return cs[offs[1:]] - cs[offs[:-1]]


def segment_bounds(boxes: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Enclosing ``x0, y0, x1, y1`` box of each row ``boxes[offs[i]:offs[i + 1]]``
    of an ``[N, 4]`` array: min of the upper-left, max of the lower-right
    corners. Every row must be non-empty (an indexed ufunc reduce returns the
    element AT a repeated offset)."""
    return np.concatenate(
        [np.minimum.reduceat(boxes[:, :2], offs[:-1]), np.maximum.reduceat(boxes[:, 2:], offs[:-1])], 1
    )


def covered_mask(starts: np.ndarray, width: int, total: int) -> np.ndarray:
    """``mask[t]`` is True iff position ``t < total`` lies under some window
    ``[s, s + width)`` for s in ``starts`` (a difference array: +1 at each
    start, -1 past each end, cumsum > 0)."""
    diff = np.bincount(starts, minlength=total + 1) - np.bincount(
        np.minimum(starts + width, total), minlength=total + 1
    )
    return np.cumsum(diff[:-1]) > 0


def token_windows(
    flat: pa.Array, lens: np.ndarray, offs: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, pa.Array]:
    """Every ``n``-token window of every row of a :func:`split_tokens`
    triple: ``(row_idx, start, window)`` where ``start`` is the window's
    first flat-token position and ``window`` its tokens single-space
    joined. Rows shorter than ``n`` emit nothing."""
    n_win = np.maximum(lens - n + 1, 0)
    starts = np.repeat(offs[:-1], n_win) + ranges(n_win)
    lists = pa.ListArray.from_arrays(
        pa.array(np.arange(starts.size + 1) * n, pa.int32()),
        flat.take(pa.array((starts[:, None] + np.arange(n)).reshape(-1), pa.int64())),
    )
    row_idx = np.repeat(np.arange(len(lens), dtype=np.int64), n_win)
    return row_idx, starts, pc.binary_join(lists, " ")


def split_tokens(text_col) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """Python-``str.split()``-equivalent tokenization of a string column.

    Returns ``(flat_tokens, lens, offsets)``: one flattened Arrow string
    array of all non-empty tokens, the per-row token count, and the exclusive
    offsets into ``flat_tokens`` (``len(offsets) == n_rows + 1``). Arrow's
    ``utf8_split_whitespace`` keeps boundary empties — they are dropped here
    with one vectorized mask so the semantics match ``text.split()``.
    """
    if isinstance(text_col, pa.ChunkedArray):
        text_col = text_col.combine_chunks()
    text_col = pc.fill_null(text_col, "")
    # MEASURED pyarrow 16.1 bug: utf8_split_whitespace sometimes leaves a
    # value's TRAILING whitespace glued to its last piece ('ba\xa0', 'aa\n'),
    # dependent on buffer state (flaky across processes — found by the
    # hypothesis gram fuzz). Trimming first removes the trigger zone; the
    # trim kernel itself is hammer-verified in tests/test_extract_kernels.py.
    toks = pc.utf8_split_whitespace(pc.utf8_trim_whitespace(text_col))
    raw_lens = pc.list_value_length(toks).to_numpy().astype(np.int64)
    flat = toks.flatten()
    mask = pc.not_equal(flat, "")
    raw_offs = np.concatenate([[0], np.cumsum(raw_lens)])
    lens = segment_sum(mask.to_numpy(zero_copy_only=False), raw_offs)
    offs = np.concatenate([[0], np.cumsum(lens)])
    return flat.filter(mask), lens, offs


def explode_ngrams(text_col, k: int = 3) -> tuple[np.ndarray, pa.Array]:
    """``(row_index, gram)`` arrays equal to exploding
    ``word_ngrams(text, k)`` per row — including the short-doc fallback
    (fewer than k tokens → the whole normalized text as ONE gram; empty text
    → one empty gram). Gram order is fallback-rows-first, which is fine for
    every consumer (signatures, counters, joins are order-insensitive)."""
    flat, lens, offs = split_tokens(text_col)

    short = lens < k
    # fallback grams: single-space re-join of each short row's tokens
    short_idx = np.nonzero(short)[0]
    if short_idx.size:
        short_lens = lens[short_idx]
        tok_take = np.repeat(offs[short_idx], short_lens) + ranges(short_lens)
        short_lists = pa.ListArray.from_arrays(
            pa.array(np.concatenate([[0], np.cumsum(short_lens)]), pa.int32()),
            flat.take(pa.array(tok_take, pa.int64())),
        )
        fallback_grams = pc.binary_join(short_lists, " ")
    else:
        fallback_grams = pa.array([], pa.string())

    long_idx = np.nonzero(~short)[0]
    n_grams = lens[long_idx] - k + 1
    first = np.repeat(offs[long_idx], n_grams) + ranges(n_grams)
    if first.size:
        cols = [flat.take(pa.array(first + j, pa.int64())) for j in range(k)]
        long_grams = pc.binary_join_element_wise(*cols, " ") if k > 1 else cols[0]
    else:
        long_grams = pa.array([], pa.string())

    row_idx = np.concatenate(
        [short_idx, np.repeat(long_idx, n_grams)]
    ).astype(np.int64)
    grams = pa.concat_arrays(
        [fallback_grams.cast(pa.string()), long_grams.cast(pa.string())]
    )
    return row_idx, grams


def explode_bigrams(text_col) -> tuple[np.ndarray, pa.Array, pa.Array]:
    """``(row_index, w1, bigram)`` arrays equal to the per-row
    ``zip(toks, toks[1:])`` explode (rows with < 2 tokens emit nothing —
    no short-doc fallback, matching the bigram-LM definition)."""
    flat, lens, offs = split_tokens(text_col)
    nbg = np.maximum(lens - 1, 0)
    first = np.repeat(offs[:-1], nbg) + ranges(nbg)
    row_idx = np.repeat(np.arange(len(lens), dtype=np.int64), nbg)
    if first.size == 0:
        return row_idx, pa.array([], pa.string()), pa.array([], pa.string())
    w1 = flat.take(pa.array(first, pa.int64()))
    w2 = flat.take(pa.array(first + 1, pa.int64()))
    return row_idx, w1, pc.binary_join_element_wise(w1, w2, " ")
