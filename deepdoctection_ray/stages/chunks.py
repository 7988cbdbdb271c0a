"""Block-level chunk projection of extraction output.

The ``Page.chunks`` analog (``view.py:1409-1441``): one row per ordered text
block — (turn keys, block_idx, reading_order, category, chunk text). This is
the natural unit for RAG indexing / chunked training data; the chunk text is
sliced from ``extracted_text`` via the block's span range, so no re-parse
happens.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data


def explode_chunks(
    ds: ray.data.Dataset,
    key_columns: tuple[str, ...] = ("conv_id", "turn_idx"),
) -> ray.data.Dataset:
    """Extraction output → one row per block (vectorized batch explode)."""
    keys = list(key_columns)

    def explode(batch: pa.Table) -> pa.Table:
        out_keys: dict[str, list] = {k: [] for k in keys}
        block_idx: list[int] = []
        reading_order: list[int] = []
        category: list[str] = []
        chunk_text: list[str] = []
        texts = batch["extracted_text"].to_pylist()
        spans = batch["spans"].to_pylist()
        blocks = batch["blocks"].to_pylist()
        key_cols = {k: batch[k].to_pylist() for k in keys}
        for row_i, (text, row_spans, row_blocks) in enumerate(zip(texts, spans, blocks)):
            bounds: dict[int, tuple[int, int]] = {}
            for s in row_spans or []:
                b = s["block_idx"]
                lo, hi = bounds.get(b, (s["start"], s["end"]))
                bounds[b] = (min(lo, s["start"]), max(hi, s["end"]))
            for b_i, blk in enumerate(row_blocks or []):
                if b_i not in bounds:
                    continue
                lo, hi = bounds[b_i]
                for k in keys:
                    out_keys[k].append(key_cols[k][row_i])
                block_idx.append(b_i)
                reading_order.append(blk["reading_order"])
                category.append(blk["category"])
                chunk_text.append(text[lo:hi])
        cols = {k: pa.array(out_keys[k], batch[k].type) for k in keys}
        cols.update(
            {
                "block_idx": pa.array(block_idx, pa.int32()),
                "reading_order": pa.array(reading_order, pa.int32()),
                "category": pa.array(category, pa.string()),
                "chunk_text": pa.array(chunk_text, pa.string()),
            }
        )
        return pa.table(cols)

    return ds.map_batches(explode, batch_format="pyarrow")


def chunk_by_tokens(
    ds: "ray.data.Dataset",
    text_column: str = "text",
    id_column: str = "doc_id",
    max_tokens: int = 64,
    overlap: int = 16,
) -> "ray.data.Dataset":
    """Token-window chunking with overlap — the fixed-context splitter a
    RAG index / training tokenizer runs before embedding or packing.

    Windows start every ``max_tokens - overlap`` tokens (stride), each
    carrying ``max_tokens`` tokens (the last one whatever remains); a
    document emits ``ceil(max(n - overlap, 1) / stride)`` chunks, and an
    empty document emits nothing. Fully vectorized: one Arrow split, numpy
    window-index arithmetic over the flat token buffer, one C ``binary_join``
    — the explode never leaves Arrow. Output: ``(id, chunk_idx, chunk_text,
    n_tokens)``, whitespace-normalized like every token-stream operator.
    """
    if not 0 <= overlap < max_tokens:
        raise ValueError("need 0 <= overlap < max_tokens")
    stride = max_tokens - overlap
    import numpy as np
    import pyarrow.compute as pc

    from ..kernels.grams import ranges, split_tokens

    def explode(batch: pa.Table) -> pa.Table:
        flat, lens, offs = split_tokens(batch[text_column])
        n_chunks = np.where(lens > 0, (np.maximum(lens - overlap, 1) + stride - 1) // stride, 0)
        row_idx = np.repeat(np.arange(len(lens), dtype=np.int64), n_chunks)
        starts_in_row = ranges(n_chunks) * stride
        chunk_lens = np.minimum(np.repeat(lens, n_chunks) - starts_in_row, max_tokens)
        starts = np.repeat(offs[:-1], n_chunks) + starts_in_row
        take = np.repeat(starts, chunk_lens) + ranges(chunk_lens)
        lists = pa.ListArray.from_arrays(
            pa.array(np.concatenate([[0], np.cumsum(chunk_lens)]), pa.int32()),
            flat.take(pa.array(take, pa.int64())),
        )
        return pa.table(
            {
                id_column: pc.take(batch[id_column], pa.array(row_idx, pa.int64())),
                "chunk_idx": pa.array(starts_in_row // stride, pa.int64()),
                "chunk_text": pc.binary_join(lists, " "),
                "n_tokens": pa.array(chunk_lens, pa.int64()),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow", batch_size=None)
