"""The flagship pipeline: transcripts parquet → extracted turns parquet.

Shape (all streaming, one exchange, every stage a Ray task):

    read_parquet (pruned columns)
      → map_batches(add part_id, filter finished partitions)
      → groupby(part_id).map_groups(sort by conv_id, turn_idx;
                                    extract; write partition + lineage)

The single shuffle is keyed by ``part_id = crc32(conv_id) % P`` and carries
the flat INPUT rows only: the nested span/block columns are produced after
the exchange, next to the parquet writer. In-group sorting restores stable
turn order (the cross-record analog of the reference's ``TextOrderService``;
the reference itself loses stream order under parallel maps, SURVEY.md
§2.10, and re-establishes order per record only — here order is
re-established per conversation by key, never by stream position). A
conversation with millions of turns is bounded by its partition, and
partition counts are uniform under the hash; P scales with the cluster
(P ≈ 4-8x task slots).

Extraction holds no state worth an actor (every reference component is a
stateless per-record map, SURVEY.md §2.3), so it runs as tasks: Ray Data
sizes task parallelism to the free CPUs, and no pool can hold the only CPU
of a small session while the read, tag and sort tasks wait.
"""

from __future__ import annotations

import os
import time

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

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
    from ..functions.bucketed import bucketed_map_groups

    cols = ["conv_id", "turn_idx", "extracted_text"] + (["role"] if with_roles else [])

    def per_bucket(g: pa.Table) -> pa.Table:
        import numpy as np

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

    return bucketed_map_groups(
        extracted.select_columns(cols), ["conv_id"], per_bucket, num_buckets
    )


def _extract_and_write_partition(
    batch: pa.Table, output_dir: str, chaos_kill_once: str | None = None
) -> pa.Table:
    """Fused per-partition finisher: sort → extract → write → summary row.

    Receives exactly one complete partition of INPUT rows per call: the sort
    shuffle co-locates each part_id in one block, and ``map_groups`` slices
    the block into its groups before calling the UDF. The expensive nested
    output columns (spans/blocks) are produced AFTER the shuffle and go
    straight to parquet — they never cross the object store. The partition
    is sorted by (conv_id, turn_idx) and written atomically.
    """
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
    part_id = ordered["part_id"][0].as_py()
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
    lineage = write_partition(output_dir, part_id, extracted, extra_lineage=extra)
    write_s = time.perf_counter() - t0
    return pa.table(
        {
            "part_id": pa.array([part_id], pa.int32()),
            "n_rows": pa.array([lineage["n_rows"]], pa.int64()),
            "n_errors": pa.array([lineage["n_errors"]], pa.int64()),
            "sort_sec": pa.array([sort_s], pa.float64()),
            "extract_sec": pa.array([extract_s], pa.float64()),
            "write_sec": pa.array([write_s], pa.float64()),
            **{f"extract_{kind}_sec": pa.array([sec], pa.float64()) for kind, sec in by_kind.items()},
        }
    )


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
    ``extract_sec_by_kind``.

    ``salt_span``: break conversations into ``salt_span``-turn ranges before
    hashing, so one pathologically hot conv_id cannot exceed a partition's
    budget (see :func:`conv_partition_ids`).

    Stage shape: read → tag/filter (stateless) → sort-shuffle the FLAT input
    rows by part_id → one fused task per partition (sort, extract, write,
    lineage). Shuffling before extraction keeps the exchange payload to the
    input columns (flat strings — cheap to slice/serialize); the nested
    span/block columns are born next to the parquet writer.

    A rerun after failure skips partitions that already have a success marker
    (their input rows are dropped at the read stage, before any work).

    ``num_partitions=None`` derives the count from the input's parquet bytes
    via :func:`..functions.bucketed.auto_num_buckets` (~64 MiB of input per
    partition, clamped to [16, 4096]) — deterministic for a given input, so
    resume stays consistent across runs of the same corpus.
    """
    if num_partitions is None:
        import glob as _glob

        from ..functions.bucketed import auto_num_buckets

        paths = [input_path] if isinstance(input_path, str) else list(input_path)
        total = 0
        for p in paths:
            files = _glob.glob(os.path.join(p, "*.parquet")) if os.path.isdir(p) else [p]
            total += sum(os.path.getsize(f) for f in files if os.path.exists(f))
        num_partitions = auto_num_buckets(total)
    if resume:
        done = completed_partitions(output_dir)
    else:
        clear_output(output_dir)
        done = set()
    done_list = sorted(done)

    def tag_and_filter(batch: pa.Table) -> pa.Table:
        part = conv_partition_ids(
            batch["conv_id"], num_partitions, turn_idx=batch["turn_idx"], salt_span=salt_span
        )
        batch = batch.append_column("part_id", pa.array(part, pa.int32()))
        if done_list:
            mask = pc.invert(pc.is_in(batch["part_id"], value_set=pa.array(done_list, pa.int32())))
            batch = batch.filter(mask)
        return batch

    # batch_size=None: the tag stage maps whole blocks — re-chunking here
    # fragments the shuffle into thousands of tiny per-partition slices and
    # object-store overhead swamps the exchange (8x slower, measured)
    ds = read_transcripts(input_path).map_batches(
        tag_and_filter, batch_format="pyarrow", batch_size=None
    )
    summary = ds.groupby("part_id").map_groups(
        _extract_and_write_partition,
        batch_format="pyarrow",
        fn_kwargs={"output_dir": output_dir, "chaos_kill_once": chaos_kill_once},
    )
    rows = summary.take_all()  # small: one row per partition
    return {
        "partitions_written": len(rows),
        "partitions_skipped": len(done),
        "rows_written": int(sum(r["n_rows"] for r in rows)),
        "errors": int(sum(r["n_errors"] for r in rows)),
        "output_dir": output_dir,
        "sort_core_sec": round(sum(r["sort_sec"] for r in rows), 2),
        "extract_core_sec": round(sum(r["extract_sec"] for r in rows), 2),
        "write_core_sec": round(sum(r["write_sec"] for r in rows), 2),
        "extract_core_sec_by_kind": {
            kind: round(sum(r[f"extract_{kind}_sec"] for r in rows), 2) for kind in EXTRACT_KINDS
        },
    }
