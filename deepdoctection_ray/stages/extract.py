"""The extraction stage: Arrow batch in → Arrow batch out, as Ray tasks.

The Ray analog of the reference's component chain
``ImageLayoutService → TextExtractionService → MatchingService →
TextOrderService → PageParsingService`` collapsed into one batch operator
(every reference component is a per-record map — SURVEY.md §2.3 — so the
fusion is semantics-preserving and saves N object-store round trips per turn).

Plain turns never leave Arrow: ``kernels.extract.classify_column`` sniffs
every row and ``plain_tokens`` tokenizes the plain ones as columns. Only the
html and page rows become Python strings for ``extract_blocks``, whose
kernels return each turn's ordered blocks (page layout runs batch-wide).
Both halves meet in one flat form — blocks per turn, words per block, one
words array, one category per block — that index arithmetic puts back in
row order, and one numpy/Arrow pass assembles the whole batch's text, spans
and blocks from it. The per-row oracles are ``classify_payload``,
``tokenize_plain``, ``extract_blocks`` and ``extract_turn``.

The stage holds only its settings: the HTML parser is built once per batch
(microseconds) and the regexes are compiled at import, so nothing needs an
actor to stay warm.
"""

from __future__ import annotations

import time
import zlib
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..kernels.assemble import Block
from ..kernels.extract import classify_column, extract_blocks, plain_tokens
from ..kernels.extract import extract_turn  # noqa: F401  perfbench/layers.py wraps this name
from ..kernels.grams import ranges, segment_sum
from ..kernels.html_blocks import DEFAULT_MAX_LINK_DENSITY
from ..kernels.reading_order import PARAGRAPH_BREAK

SPAN_TYPE = pa.list_(
    pa.struct(
        [
            ("start", pa.int32()),
            ("end", pa.int32()),
            ("block_idx", pa.int32()),
            ("category", pa.string()),
            ("reading_order", pa.int32()),
        ]
    )
)
BLOCK_TYPE = pa.list_(
    pa.struct(
        [
            ("category", pa.string()),
            ("reading_order", pa.int32()),
            ("n_words", pa.int32()),
        ]
    )
)


def conv_partition_ids(
    conv_ids: pa.ChunkedArray | pa.Array,
    num_partitions: int,
    turn_idx: pa.ChunkedArray | pa.Array | None = None,
    salt_span: int | None = None,
) -> np.ndarray:
    """Stable partition id per row: ``crc32(conv_id) % P``.

    crc32 runs once per DISTINCT key (identical across processes and runs,
    unlike ``hash()``, which is what resumable partitioning needs); the rows
    take their key's id back by its index among the distinct keys.

    With ``salt_span`` set, the key becomes ``conv_id # turn_idx//salt_span``:
    a conversation larger than one partition's budget splits into fixed
    turn-ranges spread over the hash space (SURVEY.md §7.4 skew handling).
    Ordering within each range is preserved by the per-partition sort; a
    consumer that needs one giant conversation contiguous re-merges its
    ranges by turn_idx — that cost is paid only for the pathological key.

    A null key part hashes as the empty string on both paths (a null
    ``conv_id`` as ``""``, a null ``turn_idx`` as an empty range), so its row
    lands in a deterministic partition and is written like any other.
    """
    keys = pc.fill_null(conv_ids, "")
    if salt_span:
        spans = pa.array(np.asarray(pc.fill_null(turn_idx, 0)) // salt_span).cast(pa.string())
        keys = pc.binary_join_element_wise(keys, pc.if_else(pc.is_null(turn_idx), "", spans), "#")
    distinct = pc.unique(keys)
    codes = np.asarray(pc.index_in(keys, distinct), np.int64)
    values = distinct.to_numpy(zero_copy_only=False).tolist()  # ~20x faster than to_pylist
    hashes = np.fromiter(
        (zlib.crc32(k.encode("utf-8")) % num_partitions for k in values),
        dtype=np.int32,
        count=len(values),
    )
    return hashes[codes]


def _offsets(counts: np.ndarray) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts)])


class FlatBlocks(NamedTuple):
    """Ordered blocks of ordered words for a run of turns, as columns."""

    n_blocks: np.ndarray  # blocks per turn
    n_words: np.ndarray  # words per block
    words: pa.Array  # every block's words, block after block
    category: pa.Array  # one per block


def blocks_flat(turns: list[list[Block]]) -> FlatBlocks:
    """The flat form of each turn's ``Block`` list."""
    flat = [b for blocks in turns for b in blocks]
    return FlatBlocks(
        np.fromiter(map(len, turns), dtype=np.int64, count=len(turns)),
        np.fromiter((len(b.words) for b in flat), dtype=np.int64, count=len(flat)),
        pa.array([w for b in flat for w in b.words], pa.string()),
        pa.array([b.category for b in flat], pa.string()),
    )


def _inverse(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    return inv


def interleave(n_rows: int, parts: list[tuple[np.ndarray, FlatBlocks]]) -> FlatBlocks:
    """One flat form in row order from parts that each hold the flat form of
    their ``rows`` (ascending; every row in exactly one part).

    Each source block's place follows from its row's first block
    (``repeat`` + ``ranges``), each source word's from its block's first
    word; the inverse of the word places is the one ``take`` of the words."""
    parts = [(rows, flat) for rows, flat in parts if rows.size]
    if len(parts) < 2:
        return parts[0][1] if parts else blocks_flat([])
    n_blocks = np.zeros(n_rows, np.int64)
    for rows, flat in parts:
        n_blocks[rows] = flat.n_blocks
    first_block = _offsets(n_blocks)[:-1]
    block_at = np.concatenate(
        [np.repeat(first_block[rows], f.n_blocks) + ranges(f.n_blocks) for rows, f in parts]
    )
    src_words = np.concatenate([f.n_words for _, f in parts])
    n_words = np.empty_like(src_words)
    n_words[block_at] = src_words
    word_at = np.repeat(_offsets(n_words)[block_at], src_words) + ranges(src_words)
    return FlatBlocks(
        n_blocks,
        n_words,
        pa.concat_arrays([f.words for _, f in parts]).take(_inverse(word_at)),
        pa.concat_arrays([f.category for _, f in parts]).take(_inverse(block_at)),
    )


def assemble_batch(flat: FlatBlocks) -> tuple[pa.Array, pa.Array, pa.Array]:
    """``assemble_turn`` for every turn at once → the ``extracted_text``,
    ``spans`` and ``blocks`` columns.

    Words join with ``" "`` into blocks and blocks with ``"\\n"`` into turns.
    A word starts after its block's earlier words, each counted as its
    length in code points (Arrow ``utf8_length``, Python ``len``) plus one
    separator; a block starts after its turn's earlier blocks, each counted
    as its text length plus one ``"\\n"`` — a block without words too.
    """
    n_blocks, n_words, words, category = flat
    block_offs, word_offs = _offsets(n_blocks), _offsets(n_words)

    step = pc.utf8_length(words).to_numpy().astype(np.int64) + 1
    word_at = _offsets(step)
    in_block = word_at[:-1] - np.repeat(word_at[word_offs[:-1]], n_words)
    block_at = _offsets(segment_sum(step, word_offs) - (n_words > 0) + 1)
    block_start = block_at[:-1] - np.repeat(block_at[block_offs[:-1]], n_blocks)
    start = np.repeat(block_start, n_words) + in_block
    block_idx = ranges(n_blocks)

    span_struct = pa.StructArray.from_arrays(
        [
            pa.array(start, pa.int32()),
            pa.array(start + step - 1, pa.int32()),
            pa.array(np.repeat(block_idx, n_words), pa.int32()),
            category.take(pa.array(np.repeat(np.arange(len(n_words)), n_words))),
            pa.array(ranges(n_words) + 1, pa.int32()),
        ],
        fields=list(SPAN_TYPE.value_type),
    )
    block_struct = pa.StructArray.from_arrays(
        [category, pa.array(block_idx + 1, pa.int32()), pa.array(n_words, pa.int32())],
        fields=list(BLOCK_TYPE.value_type),
    )
    turn_blocks = pa.array(block_offs, pa.int32())
    block_text = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(word_offs, pa.int32()), words), " "
    )
    text = pc.binary_join(pa.ListArray.from_arrays(turn_blocks, block_text), "\n")
    turn_words = pa.array(word_offs[block_offs], pa.int32())  # a turn's first word
    spans = pa.ListArray.from_arrays(turn_words, span_struct)
    return text, spans, pa.ListArray.from_arrays(turn_blocks, block_struct)


class TurnExtractor:
    """Batch extractor: a callable holding the extraction settings.

    Map it through ``pipelines.extraction.extract_turns``, which passes an
    instance to ``map_batches`` so Ray runs it as tasks. After a call,
    ``sec_by_kind`` holds the seconds its ``page``, ``html`` and ``plain``
    rows took.
    """

    def __init__(
        self,
        max_link_density: float = DEFAULT_MAX_LINK_DENSITY,
        paragraph_break: float = PARAGRAPH_BREAK,
        keep_payload: bool = False,
        text_column: str = "text",
        deskew: bool = False,
    ) -> None:
        self._mld = max_link_density
        self._pb = paragraph_break
        self._keep_payload = keep_payload
        self._text_column = text_column
        self._deskew = deskew
        self.sec_by_kind: dict[str, float] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        column = batch.column(self._text_column)
        texts = column.chunk(0) if column.num_chunks == 1 else column.combine_chunks()
        texts = texts.cast(pa.string())  # zero-copy unless large_string
        kinds = classify_column(texts)
        plain = pc.equal(kinds, "plain").to_numpy(zero_copy_only=False)
        plain_rows, other_rows = np.flatnonzero(plain), np.flatnonzero(~plain)
        blocks, other_kinds, other_errors, self.sec_by_kind = extract_blocks(
            texts.take(other_rows).to_pylist(),
            kinds.take(other_rows).to_pylist(),
            self._mld,
            self._pb,
            self._deskew,
        )
        t_plain = time.perf_counter()
        words, n_words = plain_tokens(texts.take(plain_rows) if other_rows.size else texts)
        has_text = n_words > 0  # a plain turn is no block or one "text" block
        plain_flat = FlatBlocks(
            has_text.astype(np.int64), n_words[has_text], words, pa.repeat("text", has_text.sum())
        )
        self.sec_by_kind["plain"] = time.perf_counter() - t_plain
        extracted, spans, block_lists = assemble_batch(
            interleave(len(texts), [(other_rows, blocks_flat(blocks)), (plain_rows, plain_flat)])
        )
        other = pa.array(~plain)
        kinds = pc.replace_with_mask(kinds, other, pa.array(other_kinds, pa.string()))
        errors = pc.replace_with_mask(
            pa.nulls(len(texts), pa.string()), other, pa.array(other_errors, pa.string())
        )

        out = batch
        if not self._keep_payload:
            out = out.drop_columns([self._text_column])  # payload never crosses the stage
        out = out.append_column("extracted_text", extracted)
        out = out.append_column("spans", spans)
        out = out.append_column("blocks", block_lists)
        out = out.append_column("payload_kind", kinds)
        out = out.append_column("error", errors)
        return out
