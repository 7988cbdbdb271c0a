"""Sources/sinks wrappers (SURVEY.md §2.1 parity)."""

from __future__ import annotations

import json
import os

import pytest


def test_jsonl_roundtrip(ray_session, tmp_path):
    from deepdoctection_ray.sources import read_jsonl, write_jsonl

    src = tmp_path / "in.jsonl"
    src.write_text("\n".join(json.dumps({"a": i, "b": f"x{i}"}) for i in range(10)))
    ds = read_jsonl(str(src), max_datapoints=7)
    assert ds.count() == 7
    out_dir = str(tmp_path / "out")
    write_jsonl(ds, out_dir)
    import ray.data

    assert ray.data.read_json(out_dir).count() == 7


def test_read_tabsep(ray_session, tmp_path):
    from deepdoctection_ray.sources import read_tabsep

    src = tmp_path / "lines.txt"
    src.write_text("a\tb\nc\td\ne\tf\n")
    rows = read_tabsep(str(src)).take_all()
    assert [r["text"] for r in rows] == ["a\tb", "c\td", "e\tf"]


def test_read_files_extension_filter(ray_session, tmp_path):
    from deepdoctection_ray.sources import read_files

    (tmp_path / "a.bin").write_bytes(b"one")
    (tmp_path / "b.bin").write_bytes(b"two")
    (tmp_path / "c.txt").write_bytes(b"nope")
    rows = read_files(str(tmp_path), file_extensions=["bin"]).take_all()
    assert sorted(r["bytes"] for r in rows) == [b"one", b"two"]
    assert all(r["path"].endswith(".bin") for r in rows)


def test_read_coco_join(ray_session, tmp_path):
    from deepdoctection_ray.sources import read_coco

    doc = {
        "images": [{"id": 1, "file_name": "a.png"}, {"id": 2, "file_name": "b.png"}],
        "annotations": [
            {"id": 10, "image_id": 1, "bbox": [0, 0, 5, 5]},
            {"id": 11, "image_id": 1, "bbox": [5, 5, 9, 9]},
            {"id": 12, "image_id": 2, "bbox": [1, 1, 2, 2]},
        ],
    }
    src = tmp_path / "coco.json"
    src.write_text(json.dumps(doc))
    rows = read_coco(str(src)).take_all()
    by_file = {r["image"]["file_name"]: r["annotations"] for r in rows}
    assert len(by_file["a.png"]) == 2
    assert len(by_file["b.png"]) == 1
    assert {a["id"] for a in by_file["a.png"]} == {10, 11}


def test_read_pdf_page_split(ray_session, tmp_path):
    from deepdoctection_ray.sources import read_pdf

    (tmp_path / "doc.pdf").write_bytes(b"page-one%PAGE%page-two%PAGE%page-three")
    rows = read_pdf(str(tmp_path / "doc.pdf")).take_all()
    assert [r["page_number"] for r in rows] == [0, 1, 2]
    assert rows[1]["pdf_bytes"] == b"page-two"
    assert rows[0]["file_name"] == "doc.pdf"


def test_semi_and_anti_join(ray_session):
    import ray.data

    from deepdoctection_ray.functions.joins import hash_join

    ds = ray.data.from_items([{"k": i} for i in range(10)])
    keys = ray.data.from_items([{"k": k} for k in [2, 4, 6]])
    kept = hash_join(ds, keys, "k", how="semi").take_all()
    assert sorted(r["k"] for r in kept) == [2, 4, 6]
    dropped = hash_join(ds, keys, "k", how="anti").take_all()
    assert sorted(r["k"] for r in dropped) == [0, 1, 3, 5, 7, 8, 9]
