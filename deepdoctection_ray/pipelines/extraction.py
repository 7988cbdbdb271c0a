"""The flagship pipeline: transcripts parquet → extracted turns parquet.

Shape (one exchange; plain Ray tasks, all submitted at once):

    per input file: read (pruned columns) → add part_id → one slice per partition
    per partition:  concat its slices; sort by conv_id, turn_idx; extract; write

The single shuffle is keyed by ``part_id = crc32(conv_id) % P`` and carries
the flat INPUT rows only: the nested span/block columns are produced after
the exchange, next to the parquet writer. The key's domain is known, so
each file is cut into the P partitions directly, with no sampling and no
sort. In-partition sorting restores stable turn order (the cross-record
analog of the reference's ``TextOrderService``; the reference itself loses
stream order under parallel maps, SURVEY.md §2.10, and re-establishes order
per record only — here order is re-established per conversation by key,
never by stream position). A conversation with millions of turns is bounded
by its partition, and partition counts are uniform under the hash; P scales
with the cluster (P ≈ 4-8x task slots).

Extraction holds no state worth an actor (every reference component is a
stateless per-record map, SURVEY.md §2.3), so it runs as tasks. Ray core
starts a partition as soon as its slices exist: no all-to-all barrier and
no executor poll stand before the first partition.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions import bucketed
from ..stages.extract import TurnExtractor, conv_partition_ids
from .checkpoint import clear_output, completed_partitions, write_partition

TRANSCRIPT_COLUMNS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
EXTRACT_KINDS = ("page", "html", "plain")  # the payload groups TurnExtractor times


def read_transcripts(path: str | list[str]) -> ray.data.Dataset:
    """Pruned parquet read of a transcript table."""
    return ray.data.read_parquet(path, columns=TRANSCRIPT_COLUMNS)


def extract_turns(
    ds: ray.data.Dataset, batch_size: int = 1024, **extractor_kwargs
) -> ray.data.Dataset:
    """The extraction stage as Ray tasks: a ``TurnExtractor`` instance maps
    every batch (Ray runs a callable instance as tasks, not as an actor
    pool). The payload column is projected away unless ``keep_payload``."""
    return ds.map_batches(
        TurnExtractor(**extractor_kwargs), batch_format="pyarrow", batch_size=batch_size
    )


def assemble_conversations(
    extracted: ray.data.Dataset,
    separator: str = "\n\n",
    with_roles: bool = True,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Extraction output → one row per conversation.

    The cross-record analog of ``Page.text``: turns sort by ``turn_idx``
    inside their conversation (order restored by key, never by stream
    position) and join into one document, optionally with ``[role]``
    prefixes. Result: ``(conv_id, n_turns, conversation_text)``.

    Conversations co-partition by ``hash(conv_id) % num_buckets`` and each
    bucket is assembled in ONE call (vectorized sort + pandas str-join per
    group) — no per-conversation Python task, which at 10^9 conversations
    would dominate the job. Only the columns the assembly needs cross the
    exchange.
    """
    cols = ["conv_id", "turn_idx", "extracted_text"] + (["role"] if with_roles else [])

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table(
                {
                    "conv_id": pa.array([], g.schema.field("conv_id").type),
                    "n_turns": pa.array([], pa.int64()),
                    "conversation_text": pa.array([], pa.string()),
                }
            )
        t = g.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
        texts = pc.fill_null(pc.cast(t["extracted_text"], pa.string()), "").combine_chunks()
        if with_roles:
            # all in Arrow C: "[role] text", or bare "[role]" for empty turns
            # (binary_join_element_wise's LAST argument is the separator)
            roles = pc.cast(t["role"], pa.string())
            bare = pc.binary_join_element_wise("[", roles, "]", "")
            full = pc.binary_join_element_wise(bare, texts, " ")
            parts = pc.if_else(pc.equal(texts, ""), bare, full).combine_chunks()
        else:
            parts = texts
        # conversation boundaries of the SORTED bucket → one list per conv,
        # joined by the separator in one C kernel (no per-group Python)
        conv = t["conv_id"].combine_chunks()
        codes = pc.dictionary_encode(conv).indices.to_numpy(zero_copy_only=False)
        n = len(codes)
        starts = np.concatenate([[0], np.nonzero(np.diff(codes))[0] + 1, [n]]).astype(np.int64)
        lists = pa.ListArray.from_arrays(pa.array(starts, pa.int32()), parts)
        return pa.table(
            {
                "conv_id": conv.take(pa.array(starts[:-1], pa.int64())),
                "n_turns": pa.array(np.diff(starts), pa.int64()),
                "conversation_text": pc.binary_join(lists, separator),
            }
        )

    return bucketed.bucketed_map_groups(
        extracted.select_columns(cols), ["conv_id"], per_bucket, num_buckets
    )


_SUMMARY_SCHEMA = pa.schema(
    [("part_id", pa.int32()), ("n_rows", pa.int64()), ("n_errors", pa.int64())]
    + [(f"{stage}_sec", pa.float64()) for stage in ("sort", "extract", "write")]
    + [(f"extract_{kind}_sec", pa.float64()) for kind in EXTRACT_KINDS]
)


def _extract_and_write_partition(
    batch: pa.Table, output_dir: str, chaos_kill_once: str | None = None
) -> pa.Table:
    """Fused per-partition finisher: sort → extract → write → summary row.

    Receives one complete partition of INPUT rows; a 0-row block writes
    nothing and returns a typed 0-row summary. A block holding two part_ids
    raises rather than write them as one. The nested output columns
    (spans/blocks) are produced AFTER the shuffle and go straight to parquet;
    the partition is sorted by (conv_id, turn_idx) and written atomically.
    """
    if batch.num_rows == 0:
        return _SUMMARY_SCHEMA.empty_table()
    part_ids = pc.unique(batch["part_id"]).to_pylist()
    if len(part_ids) > 1:
        raise ValueError(f"one partition per block, got part_ids {sorted(part_ids)}")
    if chaos_kill_once:
        # fault-injection surface (chaos test): the FIRST task to reach this
        # point claims the sentinel atomically, then dies mid-task exactly
        # the way a preempted/OOM-killed worker does. Ray retries the task
        # in a fresh worker; the markers/idempotent-write path must absorb
        # the crash with byte-identical output.
        try:
            os.close(os.open(chaos_kill_once, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            os._exit(1)
        except FileExistsError:
            pass

    t0 = time.perf_counter()
    ordered = batch.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    sort_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    extractor = TurnExtractor()
    extracted = extractor(ordered.combine_chunks())
    extract_s = time.perf_counter() - t0
    extra = {"extract_sec": round(extract_s, 3)}
    try:  # a counter never fails the partition
        by_kind = {kind: float(extractor.sec_by_kind[kind]) for kind in EXTRACT_KINDS}
        extra["extract_sec_by_kind"] = {kind: round(sec, 3) for kind, sec in by_kind.items()}
    except Exception:
        by_kind = dict.fromkeys(EXTRACT_KINDS, 0.0)
    t0 = time.perf_counter()
    lineage = write_partition(output_dir, part_ids[0], extracted, extra_lineage=extra)
    write_s = time.perf_counter() - t0
    row = [part_ids[0], lineage["n_rows"], lineage["n_errors"], sort_s, extract_s, write_s]
    row += [by_kind[kind] for kind in EXTRACT_KINDS]
    return pa.table([[value] for value in row], schema=_SUMMARY_SCHEMA)


def _split_file(
    path: str, filesystem, num_partitions: int, todo: list[int], salt_span: int | None
) -> "pa.Table | tuple":
    """One input file's rows with their ``part_id``, cut into one typed slice
    per unfinished partition in ``todo`` order (rows of finished partitions
    are dropped); one partition is one slice (``num_returns=1``)."""
    import pyarrow.parquet as pq

    batch = pq.read_table(path, columns=TRANSCRIPT_COLUMNS, filesystem=filesystem)
    part = conv_partition_ids(batch["conv_id"], num_partitions, batch["turn_idx"], salt_span)
    batch = batch.append_column("part_id", pa.array(part, pa.int32()))
    slot = np.full(num_partitions, len(todo))  # finished → one extra slice, dropped
    slot[todo] = np.arange(len(todo))
    slices = bucketed.split_by(batch, slot[part], len(todo) + 1)[:-1]
    return tuple(slices) if len(todo) > 1 else slices[0]


def _finish_partition(output_dir: str, chaos_kill_once: str | None, *slices: pa.Table) -> pa.Table:
    """One partition from its slice of every file; the concat promotes a
    file's all-null column, so every partition writes one schema."""
    batch = pa.concat_tables(slices, promote_options="default")
    return _extract_and_write_partition(batch, output_dir, chaos_kill_once)


# Ray Data's task retries: a task whose worker dies runs again
_retried = ray.remote(max_retries=-1, retry_exceptions=[ray.exceptions.RaySystemError])
_split_task = _retried(_split_file)
_partition_task = _retried(_finish_partition)


def _input_listing(input_path: str | list[str]) -> tuple[list[str], pa.fs.FileSystem, int]:
    """(files, filesystem, byte total) of the parquet files ``input_path``
    names: pyarrow dataset discovery — nested directories included,
    ``_``/``.`` files (``_meta.json``) skipped."""
    import pyarrow.dataset as pads

    if not isinstance(input_path, str) and len(input_path) == 1:
        input_path = input_path[0]  # a one-element list may name a directory
    listing = pads.dataset(input_path, format="parquet")
    sizes = [info.size for info in listing.filesystem.get_file_info(listing.files)]
    return listing.files, listing.filesystem, sum(sizes)


def run_extraction(
    input_path: str | list[str],
    output_dir: str,
    num_partitions: int | None = 32,
    resume: bool = True,
    salt_span: int | None = None,
    chaos_kill_once: str | None = None,
) -> dict:
    """Checkpointed end-to-end run; returns a summary dict.

    The summary sums the partitions' stage seconds (``sort_core_sec``,
    ``extract_core_sec``, ``write_core_sec``) and their extraction seconds
    per payload group (``extract_core_sec_by_kind``: ``page``, ``html``,
    ``plain``), which each partition's lineage JSON also holds as
    ``extract_sec_by_kind``. Walls: ``shuffle_sec`` until every split task
    is done (read, tag, cut), ``drain_sec`` for the rest of the call.

    ``salt_span``: break conversations into ``salt_span``-turn ranges before
    hashing, so one pathologically hot conv_id cannot exceed a partition's
    budget (see :func:`conv_partition_ids`).

    Stage shape: see the module docstring. The driver holds F×P slice refs
    (F files, P partitions) until every task is submitted, as many as a
    sort's map outputs; each slice is freed once its partition is written.
    A rerun skips partitions that already have a success marker (the split
    drops their rows).

    ``num_partitions=None`` derives the count from the input's parquet bytes
    via :func:`..functions.bucketed.auto_num_buckets` (~64 MiB of input per
    partition, clamped to [16, 4096]) — deterministic for a given input, so
    resume stays consistent across runs of the same corpus. The bytes and
    the split fan-out come from one listing of the input files.
    """
    start = time.perf_counter()
    files, filesystem, num_bytes = _input_listing(input_path)
    if num_partitions is None:
        num_partitions = bucketed.auto_num_buckets(num_bytes)
    if resume:
        done = completed_partitions(output_dir)
    else:
        clear_output(output_dir)
        done = set()
    todo = [p for p in range(num_partitions) if p not in done] if files else []
    split = _split_task.options(num_returns=max(len(todo), 1))
    # per file: its slice refs in todo order (no split task when nothing is left)
    slices = [split.remote(f, filesystem, num_partitions, todo, salt_span) for f in files if todo]
    if len(todo) == 1:
        slices = [[ref] for ref in slices]
    tasks = [
        _partition_task.remote(output_dir, chaos_kill_once, *(s[i] for s in slices))
        for i in range(len(todo))
    ]
    # every partition needs every file's slice, so none starts before this wait
    ray.wait([s[0] for s in slices], num_returns=len(slices), fetch_local=False)
    shuffled = time.perf_counter()
    del slices  # each slice is freed once its partition is written
    rows = [row for table in ray.get(tasks) for row in table.to_pylist()]
    return {
        "partitions_written": len(rows),
        "partitions_skipped": len(done),
        "rows_written": int(sum(r["n_rows"] for r in rows)),
        "errors": int(sum(r["n_errors"] for r in rows)),
        "output_dir": output_dir,
        "shuffle_sec": round(shuffled - start, 3),
        "drain_sec": round(time.perf_counter() - shuffled, 3),
        "sort_core_sec": round(sum(r["sort_sec"] for r in rows), 2),
        "extract_core_sec": round(sum(r["extract_sec"] for r in rows), 2),
        "write_core_sec": round(sum(r["write_sec"] for r in rows), 2),
        "extract_core_sec_by_kind": {
            kind: round(sum(r[f"extract_{kind}_sec"] for r in rows), 2) for kind in EXTRACT_KINDS
        },
    }
