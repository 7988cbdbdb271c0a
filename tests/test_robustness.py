"""Edge-case robustness: unicode, nulls, empty and adversarial payloads must
never fail a batch — worst case is an empty extraction or a dead-letter row."""

from __future__ import annotations

import json
import zlib

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _per_row_partition_ids(conv_ids, num_partitions, turn_idx, salt_span):
    """The per-row definition ``conv_partition_ids`` must equal: one crc32
    per row of ``conv_id`` (null as ``""``), or of ``conv_id#range``."""
    keys = ["" if v is None else v for v in conv_ids]
    if salt_span:
        keys = [f"{v}#{'' if t is None else t // salt_span}" for v, t in zip(keys, turn_idx)]
    return [zlib.crc32(k.encode("utf-8")) % num_partitions for k in keys]


@given(
    rows=st.lists(
        st.tuples(
            st.none() | st.sampled_from(["a", "", "None", "a#1", "é", "会话"]) | st.text(max_size=4),
            st.none() | st.integers(-40, 40),
        ),
        max_size=60,
    ),
    num_partitions=st.sampled_from([1, 2, 16, 2**31]),
    salt_span=st.sampled_from([None, 1, 3]),
    cuts=st.none() | st.lists(st.integers(0, 60), max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_conv_partition_ids_equal_the_per_row_hash(rows, num_partitions, salt_span, cuts):
    """Hashing each distinct key once gives every row the id its own crc32
    gives it: null conv_ids and turn_idx, non-ASCII ids, plain and chunked
    columns (``cuts`` are the chunk bounds), P = 1."""
    from deepdoctection_ray.stages.extract import conv_partition_ids

    convs, turns = [c for c, _ in rows], [t for _, t in rows]

    def column(values, typ):
        if cuts is None:
            return pa.array(values, typ)
        bounds = sorted({min(c, len(values)) for c in cuts} | {0, len(values)})
        return pa.chunked_array([values[a:b] for a, b in zip(bounds, bounds[1:])], typ)

    got = conv_partition_ids(
        column(convs, pa.string()), num_partitions, column(turns, pa.int64()), salt_span
    )
    assert got.dtype == np.int32
    assert got.tolist() == _per_row_partition_ids(convs, num_partitions, turns, salt_span)


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
