"""End-to-end pipeline tests: Ray extraction output equals the single-threaded
pure-python oracle row for row (per-turn text equality under stable turn
ordering), and a resumed run only touches unfinished partitions (F6)."""

from __future__ import annotations

import os

import pyarrow.parquet as pq
import pytest

from deepdoctection_ray.pipelines.checkpoint import (
    completed_partitions,
    read_lineage,
)
from deepdoctection_ray.synth import make_transcripts, oracle_extract, write_transcripts


@pytest.fixture(scope="module")
def small_transcripts(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("transcripts"))
    write_transcripts(path, n_convs=40, seed=42, hot_factor=10)
    return path


def _read_output(output_dir: str):
    files = sorted(
        os.path.join(output_dir, f) for f in os.listdir(output_dir) if f.endswith(".parquet")
    )
    tables = [pq.read_table(f) for f in files]
    import pyarrow as pa

    return pa.concat_tables(tables)


def test_extraction_matches_oracle(ray_session, small_transcripts, tmp_path):
    from deepdoctection_ray.pipelines.extraction import run_extraction

    out_dir = str(tmp_path / "out")
    summary = run_extraction(small_transcripts, out_dir, num_partitions=8)
    table = _read_output(out_dir)

    golden = oracle_extract(make_transcripts(n_convs=40, seed=42, hot_factor=10))
    assert summary["rows_written"] == len(golden)
    assert summary["errors"] == 0

    got = sorted(
        zip(
            table["conv_id"].to_pylist(),
            table["turn_idx"].to_pylist(),
            table["extracted_text"].to_pylist(),
            table["payload_kind"].to_pylist(),
        )
    )
    exp = [(g["conv_id"], g["turn_idx"], g["extracted_text"], g["payload_kind"]) for g in golden]
    assert got == exp  # per-turn text equality, all payload kinds

    # per-kind extraction seconds: in every lineage file and summed in the summary
    for lin in read_lineage(out_dir):
        by_kind = lin["extract_sec_by_kind"]
        assert set(by_kind) == {"page", "html", "plain"} and min(by_kind.values()) >= 0
        assert sum(by_kind.values()) <= lin["extract_sec"] + 0.003  # each rounded to 1 ms
    assert set(summary["extract_core_sec_by_kind"]) == {"page", "html", "plain"}

    # spans index into the extracted text correctly
    for row_spans, row_text in zip(table["spans"].to_pylist(), table["extracted_text"].to_pylist()):
        for s in row_spans:
            token = row_text[s["start"] : s["end"]]
            assert token and " " not in token and "\n" not in token


def test_partition_files_sorted_within(ray_session, small_transcripts, tmp_path):
    from deepdoctection_ray.pipelines.extraction import run_extraction

    out_dir = str(tmp_path / "out_sorted")
    run_extraction(small_transcripts, out_dir, num_partitions=4)
    for f in sorted(os.listdir(out_dir)):
        if not f.endswith(".parquet"):
            continue
        t = pq.read_table(os.path.join(out_dir, f))
        keys = list(zip(t["conv_id"].to_pylist(), t["turn_idx"].to_pylist()))
        assert keys == sorted(keys)  # stable turn ordering inside every partition


def test_resume_skips_completed_partitions(ray_session, small_transcripts, tmp_path):
    from deepdoctection_ray.pipelines.extraction import run_extraction

    full_dir = str(tmp_path / "full")
    run_extraction(small_transcripts, full_dir, num_partitions=8)
    full = _read_output(full_dir)

    # simulate a crashed run: copy 3 finished partitions + markers, drop the rest
    resumed_dir = str(tmp_path / "resumed")
    os.makedirs(resumed_dir)
    import shutil

    for i in (0, 3, 5):
        for pat in (f"part-{i:05d}.parquet", f"part-{i:05d}.lineage.json", f"_SUCCESS.{i:05d}"):
            src = os.path.join(full_dir, pat)
            if os.path.exists(src):
                shutil.copy(src, os.path.join(resumed_dir, pat))
    pre_done = completed_partitions(resumed_dir)

    summary = run_extraction(small_transcripts, resumed_dir, num_partitions=8, resume=True)
    assert summary["partitions_skipped"] == len(pre_done)
    resumed = _read_output(resumed_dir)

    # final corpus equals the from-scratch run row-for-row
    key = lambda t: sorted(
        zip(t["conv_id"].to_pylist(), t["turn_idx"].to_pylist(), t["extracted_text"].to_pylist())
    )
    assert key(resumed) == key(full)

    lineage = read_lineage(resumed_dir)
    assert sum(l["n_rows"] for l in lineage) == full.num_rows
    assert all("engine_version" in l for l in lineage)


def test_salted_skew_equals_unsalted(ray_session, small_transcripts, tmp_path):
    """A hot conversation splits across partitions under salting; the corpus
    is row-identical to the unsalted run and partitions stay sorted."""
    import zlib

    from deepdoctection_ray.pipelines.extraction import run_extraction

    plain_dir = str(tmp_path / "plain")
    salted_dir = str(tmp_path / "salted")
    run_extraction(small_transcripts, plain_dir, num_partitions=8)
    run_extraction(small_transcripts, salted_dir, num_partitions=8, salt_span=16)

    plain = _read_output(plain_dir)
    salted = _read_output(salted_dir)
    key = lambda t: sorted(
        zip(t["conv_id"].to_pylist(), t["turn_idx"].to_pylist(), t["extracted_text"].to_pylist())
    )
    assert key(salted) == key(plain)

    # the hot conversation (conv-000000, 70 turns at hot_factor=10) must span
    # several partitions under span-16 salting
    expected_parts = {
        zlib.crc32(f"conv-000000#{t // 16}".encode()) % 8 for t in range(70)
    }
    got_parts = set()
    for f in sorted(os.listdir(salted_dir)):
        if f.endswith(".parquet"):
            t = pq.read_table(os.path.join(salted_dir, f))
            mask = [c == "conv-000000" for c in t["conv_id"].to_pylist()]
            if any(mask):
                got_parts.add(int(f.split("-")[1].split(".")[0]))
            keys = list(zip(t["conv_id"].to_pylist(), t["turn_idx"].to_pylist()))
            assert keys == sorted(keys)
    assert got_parts == expected_parts
    assert len(got_parts) >= 2


def test_resume_with_everything_done_is_noop(ray_session, small_transcripts, tmp_path):
    from deepdoctection_ray.pipelines.extraction import run_extraction

    out_dir = str(tmp_path / "noop")
    first = run_extraction(small_transcripts, out_dir, num_partitions=4)
    again = run_extraction(small_transcripts, out_dir, num_partitions=4, resume=True)
    assert again["partitions_skipped"] == first["partitions_written"]
    assert again["rows_written"] == 0


def test_assemble_conversations(ray_session):
    import ray.data

    from deepdoctection_ray.pipelines.extraction import assemble_conversations

    rows = [
        {"conv_id": "a", "turn_idx": 1, "role": "assistant", "extracted_text": "second"},
        {"conv_id": "a", "turn_idx": 0, "role": "user", "extracted_text": "first"},
        {"conv_id": "b", "turn_idx": 0, "role": "user", "extracted_text": "solo"},
    ]
    out = {r["conv_id"]: r for r in assemble_conversations(ray.data.from_items(rows)).take_all()}
    assert out["a"]["conversation_text"] == "[user] first\n\n[assistant] second"
    assert out["a"]["n_turns"] == 2
    assert out["b"]["conversation_text"] == "[user] solo"


def test_run_extraction_auto_partitions(ray_session, tmp_path):
    """num_partitions=None derives the partition count from input bytes
    (auto_num_buckets rule) — tiny fixture corpus floors at 16, and the run
    completes with lineage for every derived partition."""
    import os

    from deepdoctection_ray import fixtures
    from deepdoctection_ray.pipelines.extraction import run_extraction

    fixtures.ensure_fixtures()
    out = str(tmp_path / "auto")
    s = run_extraction(fixtures.TRANSCRIPTS_DIR, out, num_partitions=None, resume=False)
    assert s["partitions_written"] == 16  # floor of the auto rule
    assert s["errors"] == 0
    assert len([f for f in os.listdir(out) if f.startswith("_SUCCESS.")]) == 16


def test_kind_timing_failure_never_fails_the_partition(monkeypatch, tmp_path):
    """A TurnExtractor whose per-kind seconds cannot be read still writes its
    partition: the lineage just lacks ``extract_sec_by_kind`` and the
    summary row counts zeros."""
    import pyarrow as pa

    from deepdoctection_ray.pipelines import extraction
    from deepdoctection_ray.stages.extract import TurnExtractor

    class NoTimings(TurnExtractor):
        def __call__(self, batch):
            out = super().__call__(batch)
            self.sec_by_kind = None
            return out

    monkeypatch.setattr(extraction, "TurnExtractor", NoTimings)
    table = make_transcripts(n_convs=3, seed=1)
    table = table.append_column("part_id", pa.array([0] * table.num_rows, pa.int32()))
    row = extraction._extract_and_write_partition(table, str(tmp_path)).to_pylist()[0]
    assert row["n_rows"] == table.num_rows
    assert [row[f"extract_{k}_sec"] for k in ("page", "html", "plain")] == [0.0, 0.0, 0.0]
    [lin] = read_lineage(str(tmp_path))
    assert lin["n_rows"] == table.num_rows and "extract_sec_by_kind" not in lin
