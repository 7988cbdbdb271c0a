"""Checkpoint retry semantics (pipelines/checkpoint.py): idempotent
re-finalize on identical content, hard error on divergent content, marker
temp files that never parse as markers (ADVICE round-1 fixes)."""

from __future__ import annotations

import os

import pyarrow as pa
import pytest

from deepdoctection_ray.pipelines.checkpoint import (
    completed_partitions,
    write_partition,
)

TABLE = pa.table({"conv_id": ["a", "b"], "turn_idx": [0, 1], "v": [1.0, 2.0]})


def test_identical_retry_is_idempotent(tmp_path):
    out = str(tmp_path)
    first = write_partition(out, 3, TABLE)
    # a Ray task retry re-runs the finalized partition with identical rows
    again = write_partition(out, 3, TABLE)
    assert again["n_rows"] == first["n_rows"] == 2
    assert completed_partitions(out) == {3}


def test_divergent_refinalize_raises(tmp_path):
    out = str(tmp_path)
    write_partition(out, 3, TABLE)
    other = pa.table({"conv_id": ["a", "c"], "turn_idx": [0, 5], "v": [1.0, 9.0]})
    with pytest.raises(RuntimeError, match="different content"):
        write_partition(out, 3, other)


def test_stray_marker_suffix_does_not_break_resume(tmp_path):
    out = str(tmp_path)
    write_partition(out, 1, TABLE)
    # crash leftovers / foreign files with the marker prefix but junk suffixes
    for junk in ("_SUCCESS.abc", "_SUCCESS.00002.tmp"):
        with open(os.path.join(out, junk), "w") as fh:
            fh.write("x")
    assert completed_partitions(out) == {1}


def test_marker_requires_data_file(tmp_path):
    out = str(tmp_path)
    write_partition(out, 1, TABLE)
    os.remove(os.path.join(out, "part-00001.parquet"))
    assert completed_partitions(out) == set()  # marker without data ≠ done


def test_chaos_actor_kill_mid_run_self_heals(ray_session, tmp_path):
    """Kill one fused extract+write task mid-run (os._exit inside the task —
    the preempted-worker failure mode): Ray must retry the task in a fresh
    worker, the marker/idempotent-write path must absorb any partially-written
    partition, and the final output must be byte-identical to a clean run."""
    import glob
    import hashlib
    import os

    import pyarrow.parquet as pq

    from deepdoctection_ray import fixtures
    from deepdoctection_ray.pipelines.extraction import run_extraction

    fixtures.ensure_fixtures()
    inp = fixtures.TRANSCRIPTS_DIR

    def output_digest(d):
        h = hashlib.md5()
        for f in sorted(glob.glob(os.path.join(d, "part-*.parquet"))):
            t = pq.read_table(f)
            t = t.sort_by([("row_id", "ascending")]) if "row_id" in t.column_names else t
            h.update(os.path.basename(f).encode())
            for c in sorted(t.column_names):
                h.update(str(t[c].to_pylist()).encode())
        return h.hexdigest()

    clean_dir = str(tmp_path / "clean")
    chaos_dir = str(tmp_path / "chaos")
    sentinel = str(tmp_path / "kill.once")

    s_clean = run_extraction(inp, clean_dir, num_partitions=8, resume=False)
    assert s_clean["partitions_written"] == 8 and s_clean["errors"] == 0

    s_chaos = run_extraction(
        inp, chaos_dir, num_partitions=8, resume=False, chaos_kill_once=sentinel
    )
    # the kill actually happened (sentinel claimed) AND the run completed
    assert os.path.exists(sentinel)
    assert s_chaos["rows_written"] == s_clean["rows_written"]
    assert s_chaos["errors"] == 0
    # every partition has its marker+lineage; none double-finalized divergent
    for i in range(8):
        assert os.path.exists(os.path.join(chaos_dir, f"_SUCCESS.{i:05d}"))
        assert os.path.exists(os.path.join(chaos_dir, f"part-{i:05d}.lineage.json"))
    assert output_digest(chaos_dir) == output_digest(clean_dir)

    # resume over the healed output is a no-op (all partitions skipped)
    s_resume = run_extraction(inp, chaos_dir, num_partitions=8, resume=True)
    assert s_resume["partitions_skipped"] == 8 and s_resume["rows_written"] == 0
