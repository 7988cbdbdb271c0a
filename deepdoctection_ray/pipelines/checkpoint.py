"""Partitioned, resumable output layout with per-partition lineage.

The reference has no stream-level checkpointing (SURVEY.md §4); this design is
native to the Ray rebuild:

- output is hash-partitioned by ``crc32(conv_id) % P``, the key of the
  extraction shuffle, the output layout and resume (the bucketed stages
  downstream hash their own keys with ``functions.bucketed.hash_rows``);
- each partition writes atomically (temp file → ``os.replace``) as
  ``part-{i:05d}.parquet`` plus ``part-{i:05d}.lineage.json`` (row counts,
  error tally, payload-kind histogram, engine version) and a
  ``_SUCCESS.{i:05d}`` marker;
- a resumed run scans the markers and filters finished partitions OUT at the
  read, before any extraction work happens;
- a retried partition is compared by content with the one already
  finalized: identical content keeps the first write, so retries are
  idempotent (see :func:`write_partition`).
"""

from __future__ import annotations

import json
import os
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

from .. import __version__

PART_FMT = "part-{i:05d}.parquet"
LINEAGE_FMT = "part-{i:05d}.lineage.json"
MARKER_FMT = "_SUCCESS.{i:05d}"


def completed_partitions(output_dir: str) -> set[int]:
    """Partition ids with a success marker AND an output file present."""
    if not os.path.isdir(output_dir):
        return set()
    names = set(os.listdir(output_dir))
    done = set()
    for name in names:
        if name.startswith("_SUCCESS."):
            try:
                i = int(name.split(".", 1)[1])
            except ValueError:
                continue  # stray non-numeric suffix (e.g. crash leftovers)
            if PART_FMT.format(i=i) in names:
                done.add(i)
    return done


def clear_output(output_dir: str) -> None:
    """Remove all partition files/lineage/markers (clean-slate rerun)."""
    if not os.path.isdir(output_dir):
        return
    for name in os.listdir(output_dir):
        if name.startswith(("part-", "_SUCCESS.", ".tmp-")):
            os.remove(os.path.join(output_dir, name))


def write_partition(output_dir: str, part_id: int, table: pa.Table, extra_lineage: dict | None = None) -> dict:
    """Atomically write one partition + lineage + marker; returns the lineage.

    Duplicate-finalize handling: Ray retries failed partition-writer tasks, so
    a worker killed after finalizing but before its output block commits may
    legitimately re-run. If the success marker exists and the already-written
    partition holds *identical content*, the re-write is silently skipped (the
    retry case — extraction is deterministic, so a retry's rows are the
    same). A marker with *different* content means a partition's rows
    arrived in two different writer tasks (an input block split — size
    ``num_partitions`` so a partition stays under
    ``target_max_block_size``), which would silently drop rows if allowed —
    that stays a hard error.
    """
    os.makedirs(output_dir, exist_ok=True)
    if os.path.exists(os.path.join(output_dir, MARKER_FMT.format(i=part_id))):
        existing_path = os.path.join(output_dir, PART_FMT.format(i=part_id))
        try:
            existing = pq.read_table(existing_path)
        except Exception:
            existing = None
        canon = table.sort_by([(c, "ascending") for c in table.column_names[:2]]) if table.num_rows else table
        if existing is not None and existing.num_rows == table.num_rows:
            ex_canon = (
                existing.sort_by([(c, "ascending") for c in existing.column_names[:2]])
                if existing.num_rows
                else existing
            )
            if ex_canon.equals(canon):
                with open(os.path.join(output_dir, LINEAGE_FMT.format(i=part_id))) as fh:
                    return json.load(fh)  # idempotent task retry: keep first write
        raise RuntimeError(
            f"partition {part_id} already finalized in {output_dir} with different "
            "content; duplicate write detected (block split or dirty output dir)"
        )
    tmp = os.path.join(output_dir, f".tmp-{part_id}-{uuid.uuid4().hex}")
    pq.write_table(table, tmp)
    os.replace(tmp, os.path.join(output_dir, PART_FMT.format(i=part_id)))

    n_errors = 0
    kind_hist: dict[str, int] = {}
    if "error" in table.column_names:
        n_errors = int(pa.compute.sum(table["error"].is_valid()).as_py() or 0)
    if "payload_kind" in table.column_names:
        counts = table.group_by("payload_kind").aggregate([("payload_kind", "count")])
        kind_hist = dict(
            zip(counts["payload_kind"].to_pylist(), counts["payload_kind_count"].to_pylist())
        )
    lineage = {
        "part_id": part_id,
        "n_rows": table.num_rows,
        "n_errors": n_errors,
        "payload_kinds": kind_hist,
        "engine_version": __version__,
        **(extra_lineage or {}),
    }
    lin_tmp = os.path.join(output_dir, f".tmp-lin-{part_id}-{uuid.uuid4().hex}")
    with open(lin_tmp, "w") as fh:
        json.dump(lineage, fh)
    os.replace(lin_tmp, os.path.join(output_dir, LINEAGE_FMT.format(i=part_id)))
    # marker last: its presence implies data + lineage are on disk. The temp
    # name must NOT share the '_SUCCESS.' prefix, or a crash between write and
    # rename would leave a file that completed_partitions() tries to parse.
    marker = os.path.join(output_dir, MARKER_FMT.format(i=part_id))
    marker_tmp = os.path.join(output_dir, f".tmp-marker-{part_id}-{uuid.uuid4().hex}")
    with open(marker_tmp, "w") as fh:
        fh.write("ok")
    os.replace(marker_tmp, marker)
    return lineage


def read_lineage(output_dir: str) -> list[dict]:
    out = []
    for name in sorted(os.listdir(output_dir)):
        if name.endswith(".lineage.json"):
            with open(os.path.join(output_dir, name)) as fh:
                out.append(json.load(fh))
    return out
