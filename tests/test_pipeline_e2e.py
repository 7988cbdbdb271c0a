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


def _write_split(path, table, slices):
    """Write ``table`` as one parquet file per ``(relative name, start, stop)``
    slice, plus a ``_meta.json`` that no reader may take for data."""
    import json

    for name, start, stop in slices:
        os.makedirs(os.path.dirname(os.path.join(path, name)), exist_ok=True)
        pq.write_table(table.slice(start, stop - start), os.path.join(path, name))
    with open(os.path.join(path, "_meta.json"), "w") as fh:
        json.dump({"note": "not a data file"}, fh)
    return path


def _partitions(output_dir):
    return {
        f: pq.read_table(os.path.join(output_dir, f))
        for f in sorted(os.listdir(output_dir))
        if f.endswith(".parquet")
    }


def test_nested_listing_sizes_and_reads_every_file(ray_session, tmp_path, monkeypatch):
    """One listing feeds both P and the read fan-out: a nested file and an
    empty file are read, ``_meta.json`` is not, and the auto partition count
    sees every data file's bytes."""
    from deepdoctection_ray.functions import bucketed
    from deepdoctection_ray.pipelines.extraction import run_extraction

    table = make_transcripts(n_convs=40, seed=42, hot_factor=10)
    n = table.num_rows
    src = _write_split(
        str(tmp_path / "nested"),
        table,
        [("top.parquet", 0, n // 3), ("empty.parquet", 0, 0), ("sub/deep.parquet", n // 3, n)],
    )
    seen = []
    auto = bucketed.auto_num_buckets
    monkeypatch.setattr(bucketed, "auto_num_buckets", lambda b: seen.append(b) or auto(b))
    s = run_extraction(src, str(tmp_path / "out"), num_partitions=None, resume=False)
    assert s["rows_written"] == n and s["partitions_written"] == 16
    files = ("top.parquet", "empty.parquet", "sub/deep.parquet")
    assert seen == [sum(os.path.getsize(os.path.join(src, f)) for f in files)]


@pytest.mark.parametrize("salt_span", [None, 16])
def test_file_fan_out_gives_equal_partitions(ray_session, tmp_path, salt_span):
    """The same transcripts as one file and as three (one empty, one nested)
    write Table.equals partitions."""
    from deepdoctection_ray.pipelines.extraction import run_extraction

    table = make_transcripts(n_convs=40, seed=42, hot_factor=10)
    n = table.num_rows
    one = _write_split(str(tmp_path / "one"), table, [("all.parquet", 0, n)])
    three = _write_split(
        str(tmp_path / "three"),
        table,
        [("a.parquet", 0, n // 2), ("b.parquet", 0, 0), ("sub/c.parquet", n // 2, n)],
    )
    outs = []
    for src in (one, three):
        out = str(tmp_path / f"out_{os.path.basename(src)}")
        run_extraction(src, out, num_partitions=8, resume=False, salt_span=salt_span)
        outs.append(_partitions(out))
    assert list(outs[0]) == list(outs[1]) and len(outs[0]) == 8
    assert all(outs[0][f].equals(outs[1][f]) for f in outs[0])


@pytest.mark.parametrize("num_partitions, n_convs", [(1, 40), (64, 60)])
def test_boundary_sort_writes_each_nonempty_partition(ray_session, tmp_path, num_partitions, n_convs):
    """Every non-empty partition is written once, and only those: P=1 puts
    the corpus in one file; P=64 over 60 conversations leaves 12 empty."""
    from deepdoctection_ray.pipelines.extraction import run_extraction
    from deepdoctection_ray.stages.extract import conv_partition_ids

    table = make_transcripts(n_convs=n_convs, seed=7, hot_factor=10)
    src = _write_split(str(tmp_path / "src"), table, [("t.parquet", 0, table.num_rows)])
    expected = set(conv_partition_ids(table["conv_id"], num_partitions).tolist())
    out = str(tmp_path / "out")
    s = run_extraction(src, out, num_partitions=num_partitions, resume=False)
    assert s["partitions_written"] == len(expected) == {1: 1, 64: 52}[num_partitions]
    assert completed_partitions(out) == expected
    assert s["rows_written"] == table.num_rows


def test_resume_with_one_partition_left(ray_session, small_transcripts, tmp_path):
    """All but one partition done: the finished ones are dropped at the tag,
    their sort blocks are empty, and only the missing one is written again."""
    from deepdoctection_ray.pipelines.extraction import run_extraction

    out = str(tmp_path / "resume_one")
    full = run_extraction(small_transcripts, out, num_partitions=8, resume=False)
    before = _partitions(out)
    for name in ("part-00005.parquet", "part-00005.lineage.json", "_SUCCESS.00005"):
        os.remove(os.path.join(out, name))
    again = run_extraction(small_transcripts, out, num_partitions=8, resume=True)
    assert (again["partitions_written"], again["partitions_skipped"]) == (1, 7)
    assert again["rows_written"] == before["part-00005.parquet"].num_rows
    after = _partitions(out)
    assert list(after) == list(before) and all(after[f].equals(before[f]) for f in before)
    assert full["rows_written"] == sum(t.num_rows for t in after.values())


def _schema_warnings(run):
    """``run()``'s result and the messages of every schema-drift warning the
    ``ray.data`` logger emitted while it ran."""
    import logging

    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        result = run()
    finally:
        logger.removeHandler(handler)
    return result, [r.getMessage() for r in records if "different schema" in r.getMessage()]


def test_full_run_keeps_one_schema_and_times_its_stages(ray_session, small_transcripts, tmp_path):
    """A full run logs no Ray Data schema-drift warning; the summary's stage
    walls (read+tag+cut until every split task is done, then the rest of
    the call) fit inside the call's wall."""
    import time

    from deepdoctection_ray.pipelines.extraction import run_extraction

    out = str(tmp_path / "out")
    t0 = time.perf_counter()
    s, drift = _schema_warnings(
        lambda: run_extraction(small_transcripts, out, num_partitions=8, resume=False)
    )
    wall = time.perf_counter() - t0
    assert s["partitions_written"] == 8
    assert drift == []
    assert s["shuffle_sec"] >= 0 and s["drain_sec"] >= 0
    assert s["shuffle_sec"] + s["drain_sec"] <= wall + 1e-3  # both rounded to ms


@pytest.mark.parametrize("case", ["one_partition", "more_partitions_than_convs", "tail_done"])
def test_partition_runs_with_empty_partitions_log_no_schema_drift(
    ray_session, small_transcripts, tmp_path, case
):
    """Runs where some partition holds no rows: P=1, P=64 over 40
    conversations, and a resume whose last four of 8 partitions are done.
    None logs Ray Data's schema-drift warning, and each writes its rows."""
    from deepdoctection_ray.pipelines.extraction import run_extraction
    from deepdoctection_ray.stages.extract import conv_partition_ids

    out = str(tmp_path / "out")
    num_partitions = {"one_partition": 1, "more_partitions_than_convs": 64, "tail_done": 8}[case]
    if case == "tail_done":
        run_extraction(small_transcripts, out, num_partitions=8, resume=False)
        for part in range(4):
            for name in ("part-{:05d}.parquet", "part-{:05d}.lineage.json", "_SUCCESS.{:05d}"):
                os.remove(os.path.join(out, name.format(part)))
    s, drift = _schema_warnings(
        lambda: run_extraction(small_transcripts, out, num_partitions=num_partitions, resume=True)
    )
    assert drift == []
    assert s["partitions_skipped"] == (4 if case == "tail_done" else 0)
    conv_ids = pq.read_table(small_transcripts, columns=["conv_id"])["conv_id"]
    assert completed_partitions(out) == set(conv_partition_ids(conv_ids, num_partitions).tolist())
    assert _read_output(out).num_rows == len(conv_ids)


def test_every_partition_writes_one_schema(ray_session, tmp_path):
    """File A types ``tool`` as string; file B's ``tool`` is an all-null
    ``null`` column and alone feeds partition 7 of 8. Every partition still
    writes ``tool: string``: each file sends a typed slice to every
    partition, and the partition's concat promotes B's null column."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from deepdoctection_ray.pipelines.extraction import run_extraction
    from deepdoctection_ray.stages.extract import conv_partition_ids

    table = make_transcripts(n_convs=40, seed=42, hot_factor=10)
    in_b = pa.array(conv_partition_ids(table["conv_id"], 8) == 7)
    a, b = table.filter(pc.invert(in_b)), table.filter(in_b)
    b = b.set_column(b.schema.get_field_index("tool"), "tool", pa.nulls(b.num_rows))
    assert a.num_rows and b.num_rows and b.schema.field("tool").type == pa.null()
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(a, str(src / "a.parquet"))
    pq.write_table(b, str(src / "b.parquet"))
    out = str(tmp_path / "out")
    s = run_extraction(str(src), out, num_partitions=8, resume=False)
    assert s["partitions_written"] == 8 and s["rows_written"] == table.num_rows
    parts = _partitions(out)
    types = {f: t.schema.field("tool").type for f, t in parts.items() if f.endswith(".parquet")}
    assert len(types) == 8 and set(types.values()) == {pa.string()}
    assert parts["part-00007.parquet"].num_rows == b.num_rows


def test_partition_writer_block_guard(tmp_path):
    """A 0-row block writes nothing and returns the typed empty summary; a
    block holding two partitions raises instead of writing them as one."""
    import pyarrow as pa

    from deepdoctection_ray.pipelines import extraction

    table = make_transcripts(n_convs=3, seed=1)
    ids = [i % 2 for i in range(table.num_rows)]
    table = table.append_column("part_id", pa.array(ids, pa.int32()))
    empty = extraction._extract_and_write_partition(table.slice(0, 0), str(tmp_path))
    assert empty.num_rows == 0 and empty.schema == extraction._SUMMARY_SCHEMA
    assert os.listdir(tmp_path) == []
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        extraction._extract_and_write_partition(table, str(tmp_path))
    assert os.listdir(tmp_path) == []
