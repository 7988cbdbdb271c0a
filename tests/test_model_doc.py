"""ModelCatalog/ModelDownloadManager surface (extern/model.py:44-520 analog),
pdfium line-mode extraction (extern/pdftext.py:138-232) and the multi-page
Document container (dd_core/doc.py:148)."""

from __future__ import annotations

import pytest


def test_model_catalog_register_lookup_and_stage_wiring(tmp_path):
    from deepdoctection_ray.model import (
        ModelCatalog, ModelDownloadManager, ModelProfile, stage_for_profile,
    )

    assert "rules/turn_extractor" in ModelCatalog.get_model_list()
    profile = ModelCatalog.get_profile("rules/token_classifier")
    assert profile.model_wrapper == "token_classifier"
    # profile → instantiated stage through the registry
    stage = stage_for_profile("rules/token_classifier")
    assert type(stage).__name__ == "TokenClassifier"
    with pytest.raises(KeyError, match="does not exist"):
        ModelCatalog.get_profile("no/such/model")
    # catalog JSON round trip
    p = tmp_path / "catalog.json"
    ModelCatalog.save(str(p))
    n = len(ModelCatalog.CATALOG)
    ModelCatalog.load(str(p))  # idempotent: already-registered names skipped
    assert len(ModelCatalog.CATALOG) == n
    # download manager: unregistered → path; registered-with-source-but-
    # uncached → loud error naming the artifact
    assert ModelDownloadManager.maybe_download_weights_and_configs("unregistered").endswith(
        "unregistered"
    )
    ModelCatalog.register(
        "hub/model", ModelProfile(name="hub/model", description="", size=[123],
                                  hf_repo_id="org/repo", model_wrapper="turn_extractor"),
    )
    with pytest.raises(RuntimeError, match="no network"):
        ModelDownloadManager.maybe_download_weights_and_configs("hub/model")
    del ModelCatalog.CATALOG["hub/model"]


def test_pdf_line_mode_groups_baselines():
    from deepdoctection_ray.kernels.pdf import PdfReader, write_pdf
    from deepdoctection_ray.sources import split_pdf_pages

    pages = [
        {
            "width": 600, "height": 400,
            "words": [
                ("world", 120, 350, 12), ("hello", 50, 350, 12),  # same baseline
                ("second", 50, 320, 12), ("line", 110, 320, 12),
            ],
        }
    ]
    reader = PdfReader(write_pdf(pages))
    lines = reader.page_lines(0)
    # bottom is top-left-convention: smaller bottom = higher on page, so the
    # y=350 line comes first — natural reading order
    assert [l["text"] for l in lines] == ["hello world", "second line"]
    # line box is the union of its words
    assert lines[0]["x0"] == 50.0 and lines[0]["x1"] > 120.0
    # split in line mode embeds line records in the payload
    import json

    rows = split_pdf_pages({"bytes": write_pdf(pages), "path": "/x/d.pdf"}, mode="line")
    payload = json.loads(rows[0]["text"])
    assert [w["text"] for w in payload["words"]] == ["hello world", "second line"]
    with pytest.raises(ValueError, match="mode"):
        split_pdf_pages({"bytes": b"%PDF", "path": "p"}, mode="块")


def test_document_container_roundtrip(ray_session):
    from deepdoctection_ray.doc import Document, documents_from_dataset

    rows = [
        {"file_name": "a.pdf", "page_number": 1, "extracted_text": "page two"},
        {"file_name": "a.pdf", "page_number": 0, "extracted_text": "page one"},
        {"file_name": "b.pdf", "page_number": 0, "extracted_text": "solo"},
    ]
    doc = Document.from_rows("a.pdf", [r for r in rows if r["file_name"] == "a.pdf"])
    assert doc.number_of_pages == 2
    assert doc.page(1).text == "page one"  # 1-based, sorted by page_number
    assert doc.page(2).text == "page two"
    assert doc.text == "page one\n\npage two"
    assert [p.text for p in doc] == ["page one", "page two"]
    with pytest.raises(IndexError):
        doc.page(3)
    back = Document.from_json(doc.to_json())
    assert back.text == doc.text and back.document_id == doc.document_id

    import ray.data

    out = documents_from_dataset(ray.data.from_items(rows)).to_pandas()
    out = out.sort_values("file_name").reset_index(drop=True)
    assert list(out["file_name"]) == ["a.pdf", "b.pdf"]
    assert list(out["n_pages"]) == [2, 1]
    assert Document.from_json(out.iloc[0]["document_json"]).text == "page one\n\npage two"


def test_replay_detector_interface():
    from deepdoctection_ray.model import ReplayDetector

    det = ReplayDetector(
        {"p1": [{"category": "table", "x0": 1.0, "top": 2.0, "x1": 9.0, "bottom": 8.0, "score": 0.9}]}
    )
    out = det.predict(image_id="p1")
    assert out[0]["category"] == "table" and det.predict(image_id="missing") == []
    assert det.get_category_names() == ["table"]
    clone = det.clone()
    assert clone.predict(image_id="p1") == out  # clone() ≡ __init__ contract
    import pytest

    with pytest.raises(ValueError, match="image_id"):
        det.predict()


def test_attach_detections_join(ray_session):
    import json

    import ray.data
    from deepdoctection_ray.model import attach_detections

    docs = ray.data.from_items(
        [
            {"doc_id": 1, "payload": json.dumps({"page": {"width": 100, "height": 100}, "blocks": []})},
            {"doc_id": 2, "payload": json.dumps({"page": {"width": 100, "height": 100},
                                                 "blocks": [{"category": "text", "x0": 0, "top": 0, "x1": 5, "bottom": 5}]})},
            {"doc_id": 3, "payload": json.dumps({"blocks": []})},  # no detections: untouched
        ]
    )
    detections = ray.data.from_items(
        [
            {"doc_id": 1, "category": "table", "x0": 10.0, "top": 10.0, "x1": 90.0, "bottom": 50.0, "score": 0.8},
            {"doc_id": 1, "category": "figure", "x0": 5.0, "top": 60.0, "x1": 50.0, "bottom": 90.0, "score": 0.7},
            {"doc_id": 2, "category": "table", "x0": 20.0, "top": 20.0, "x1": 80.0, "bottom": 80.0, "score": 0.9},
        ]
    )
    out = attach_detections(docs, detections, num_buckets=4).to_pandas()
    rows = {r.doc_id: json.loads(r.payload) for r in out.itertuples()}
    assert {b["category"] for b in rows[1]["blocks"]} == {"table", "figure"}
    cats2 = [b["category"] for b in rows[2]["blocks"]]
    assert cats2[0] == "text" and "table" in cats2  # existing blocks kept, detections appended
    assert rows[3]["blocks"] == []

    # no detections at all: every payload comes back unchanged
    none = detections.filter(expr="doc_id < 0")
    before = {r["doc_id"]: r["payload"] for r in docs.take_all()}
    after = attach_detections(docs, none, num_buckets=4).take_all()
    assert {r["doc_id"]: r["payload"] for r in after} == before
