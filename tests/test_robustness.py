"""Edge-case robustness: unicode, nulls, empty and adversarial payloads must
never fail a batch — worst case is an empty extraction or a dead-letter row."""

from __future__ import annotations

import json

import pyarrow as pa
import pytest

from deepdoctection_ray.kernels.extract import extract_turn
from deepdoctection_ray.stages.extract import TurnExtractor


def test_unicode_payloads():
    out = extract_turn("héllo wörld 你好 \U0001F600")
    assert out["extracted_text"] == "héllo wörld 你好 \U0001F600"
    assert out["error"] is None
    # spans index correctly through multibyte text
    sp = out["spans"]
    for s, e in zip(sp["start"], sp["end"]):
        assert " " not in out["extracted_text"][s:e]

    html = "<body><p>café &amp; naïve</p></body>"
    out = extract_turn(html)
    assert out["extracted_text"] == "café & naïve"


def test_control_chars_stripped():
    out = extract_turn("a\x00b\x01 c\x7fd")
    assert out["extracted_text"] == "ab cd"


def test_adversarial_payloads_never_raise():
    cases = [
        "",                                   # empty
        " \t\n ",                             # whitespace only
        "<" * 1000,                           # tag soup
        "<p>" * 500,                          # unclosed nesting
        '{"words": "not-a-list", "page": 3}', # malformed pdfish
        '{"blocks": [{"category": 1}], "words": []}',  # malformed layout
        json.dumps({"page": {"width": 0, "height": 0}, "words": [
            {"text": "x", "x0": 0, "top": 0, "x1": 1, "bottom": 1}]}),  # zero page
        "<body>" + "&amp;" * 2000 + "</body>",
        # (lone surrogates cannot exist in Arrow/parquet string columns, so
        # they cannot reach the stage — excluded by the input format itself)
    ]
    ex = TurnExtractor()
    batch = pa.table({"text": pa.array(cases, pa.string())})
    out = ex(batch)
    assert out.num_rows == len(cases)  # every row survived (text or dead-letter)


def test_null_text_column(ray_session):
    import ray.data

    ds = ray.data.from_arrow(
        pa.table({"doc_id": [1, 2], "text": pa.array(["ok", None], pa.string())})
    )
    out = ds.map_batches(TurnExtractor, batch_format="pyarrow", concurrency=1).to_pandas()
    assert out["extracted_text"].tolist() == ["ok", ""]


def test_empty_dataset_extraction(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from deepdoctection_ray.pipelines.extraction import run_extraction
    from deepdoctection_ray.synth import SCHEMA

    src = tmp_path / "empty"
    src.mkdir()
    pq.write_table(SCHEMA.empty_table(), str(src / "part.parquet"))
    summary = run_extraction(str(src), str(tmp_path / "out"), num_partitions=4, resume=False)
    assert summary["rows_written"] == 0
    assert summary["errors"] == 0


@pytest.mark.parametrize("salt_span", [None, 2])
def test_null_keys_get_a_partition(ray_session, tmp_path, salt_span):
    """A null conv_id or turn_idx hashes as the empty string on both key
    paths, and its row is extracted and written like any other."""
    import pyarrow.parquet as pq

    from deepdoctection_ray.pipelines.extraction import run_extraction
    from deepdoctection_ray.stages.extract import conv_partition_ids
    from deepdoctection_ray.synth import SCHEMA

    # 2**31 partitions: no modulo collision between the compared keys
    ids = conv_partition_ids(pa.array([None, "", "None"]), 2**31, pa.array([3, 3, 3]), salt_span)
    assert ids[0] == ids[1] != ids[2]

    table = pa.table(
        {
            "conv_id": ["a", None, "b", "a"],
            "turn_idx": [0, 1, None, 1],
            "role": ["user"] * 4,
            "text": ["one", "two", "<p>three</p>", "four"],
            "tool": [None] * 4,
            "ts": [None] * 4,
        },
        schema=SCHEMA,
    )
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(table, str(src / "part.parquet"))
    summary = run_extraction(
        str(src), str(tmp_path / "out"), num_partitions=4, resume=False, salt_span=salt_span
    )
    assert summary["rows_written"] == 4 and summary["errors"] == 0
    parts = sorted((tmp_path / "out").glob("part-*.parquet"))
    out = pa.concat_tables(
        pq.read_table(str(p), columns=["conv_id", "turn_idx", "extracted_text"]) for p in parts
    )
    assert sorted(zip(*out.to_pydict().values()), key=str) == sorted(
        [("a", 0, "one"), (None, 1, "two"), ("b", None, "three"), ("a", 1, "four")], key=str
    )
