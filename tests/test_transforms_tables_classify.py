"""Transforms, table segmentation, classifiers, evaluator, registry."""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pytest

from deepdoctection_ray.kernels import transforms as T
from deepdoctection_ray.kernels.table_segment import (
    grid_from_cells,
    grid_to_csv,
    grid_to_html,
    segment_cells,
    segment_table_payload,
)


def test_rotate_roundtrip():
    boxes = np.array([[10.0, 20.0, 110.0, 60.0]])
    w, h = 600.0, 400.0
    r90 = T.rotate_boxes(boxes, 90, w, h)
    w2, h2 = T.rotated_extent(90, w, h)
    assert (w2, h2) == (h, w)
    back = T.rotate_boxes(r90, 270, w2, h2)
    assert np.allclose(back, boxes)
    r180 = T.rotate_boxes(boxes, 180, w, h)
    assert r180.tolist() == [[490.0, 340.0, 590.0, 380.0]]


def test_resize_and_pad():
    boxes = np.array([[10.0, 20.0, 110.0, 60.0]])
    resized = T.resize_boxes(boxes, 600, 400, 1200, 800)
    assert resized.tolist() == [[20.0, 40.0, 220.0, 120.0]]
    padded = T.pad_boxes(boxes, 5, 7)
    assert padded.tolist() == [[15.0, 27.0, 115.0, 67.0]]
    assert T.unpad_boxes(padded, 5, 7, 600, 400).tolist() == boxes.tolist()


def test_local_global_roundtrip():
    frame = np.array([100.0, 50.0, 400.0, 300.0])
    local = np.array([[10.0, 10.0, 60.0, 40.0]])
    glob = T.local_to_global(local, frame)
    assert glob.tolist() == [[110.0, 60.0, 160.0, 90.0]]
    assert T.global_to_local(glob, frame).tolist() == local.tolist()


def test_crop_boxes_selects_intersecting():
    frame = np.array([0.0, 0.0, 100.0, 100.0])
    boxes = np.array([[10.0, 10.0, 20.0, 20.0], [200.0, 200.0, 210.0, 210.0]])
    keep, local = T.crop_boxes(boxes, frame)
    assert keep.tolist() == [0]
    assert local.tolist() == [[10.0, 10.0, 20.0, 20.0]]


def test_table_segmentation_grid():
    # 2x3 grid, shuffled input, jittered coords
    cells = []
    for r in range(2):
        for c in range(3):
            cells.append(([50.0 + 120 * c + 2, 40.0 + 40 * r - 1, 160.0 + 120 * c, 70.0 + 40 * r], f"r{r}c{c}"))
    cells = [cells[i] for i in (3, 0, 5, 2, 1, 4)]
    boxes = np.array([c[0] for c in cells])
    rows, cols = segment_cells(boxes)
    grid = grid_from_cells([c[1] for c in cells], rows, cols)
    assert grid == [["r0c0", "r0c1", "r0c2"], ["r1c0", "r1c1", "r1c2"]]
    assert grid_to_csv(grid) == "r0c0,r0c1,r0c2\nr1c0,r1c1,r1c2"
    assert grid_to_html(grid).startswith("<table><tr><td>r0c0</td>")


def test_table_docs_roundtrip_known_assignment():
    from deepdoctection_ray.synth import make_table_docs

    table = make_table_docs(30, seed=42)
    for payload in table["text"].to_pylist():
        doc = json.loads(payload)
        boxes = np.array([[c["x0"], c["top"], c["x1"], c["bottom"]] for c in doc["cells"]])
        texts = [c["text"] for c in doc["cells"]]
        res = segment_table_payload(boxes, texts)
        # every placed cell lands on its construction (row, col)
        for line_no, line in enumerate(res["csv"].split("\n")):
            for col_no, cell in enumerate(line.split(",")):
                if cell:
                    assert cell.startswith(f"r{line_no}c{col_no} "), (cell, line_no, col_no)


def test_token_classifier():
    from deepdoctection_ray.stages.classify import TokenClassifier

    tc = TokenClassifier()
    assert tc.classify_token("1234") == "number"
    assert tc.classify_token("3.14") == "number"
    assert tc.classify_token("2026-08-17") == "date"
    assert tc.classify_token("https://x.y/z") == "url"
    assert tc.classify_token("a@b.co") == "email"
    assert tc.classify_token("hello") == "word"

    from deepdoctection_ray.stages.extract import TurnExtractor

    batch = pa.table({"text": ["pay 42 at https://shop.example now"]})
    out = tc(TurnExtractor()(batch))
    assert out["token_classes"].to_pylist() == [["word", "number", "word", "url", "word"]]


def test_sequence_classifier():
    from deepdoctection_ray.stages.classify import SequenceClassifier

    sc = SequenceClassifier()
    assert sc.classify("layout", ["title", "text", "text"]) == "article"
    assert sc.classify("layout", ["table", "text"]) == "table_doc"
    assert sc.classify("plain", ["text"]) == "chat"
    assert sc.classify("html", ["list_item", "list_item"]) == "listing"


def test_evaluator(ray_session):
    import ray.data

    from deepdoctection_ray.pipelines.evaluate import evaluate_extraction

    golden = ray.data.from_items(
        [
            {"conv_id": "a", "turn_idx": 0, "extracted_text": "x", "payload_kind": "plain"},
            {"conv_id": "a", "turn_idx": 1, "extracted_text": "y", "payload_kind": "plain"},
            {"conv_id": "b", "turn_idx": 0, "extracted_text": "z", "payload_kind": "html"},
        ]
    )
    produced = ray.data.from_items(
        [
            {"conv_id": "a", "turn_idx": 0, "extracted_text": "x", "payload_kind": "plain"},
            {"conv_id": "a", "turn_idx": 1, "extracted_text": "WRONG", "payload_kind": "plain"},
            {"conv_id": "c", "turn_idx": 0, "extracted_text": "new", "payload_kind": "plain"},
        ]
    )
    res = evaluate_extraction(golden, produced)
    assert res["matched"] == 1 and res["mismatched"] == 1
    assert res["missing"] == 1 and res["extra"] == 1
    assert res["exact_match_rate"] == 0.5


def test_registry():
    from deepdoctection_ray.functions.registry import build_stage, register_categories, stage_registry

    assert "turn_extractor" in stage_registry.names()
    stage = build_stage("turn_extractor", keep_payload=True)
    out = stage(pa.table({"text": ["a  b"]}))
    assert out["extracted_text"].to_pylist() == ["a b"]

    cats = register_categories("custom", ["foo", "bar"])
    assert "foo" in cats
    with pytest.raises(KeyError):
        stage_registry.get("nope")


def test_rotated_pdfish_equals_unrotated():
    """A page whose content is rotated 90° CW with rotation=90 declared must
    extract identically to the upright page (SimpleTransformService analog)."""
    import json as _json

    from deepdoctection_ray.kernels import transforms as TR
    from deepdoctection_ray.kernels.extract import extract_turn

    W, H = 600.0, 400.0
    upright_words = [
        {"text": "hello", "x0": 110, "top": 165, "x1": 130, "bottom": 180},
        {"text": "world", "x0": 140, "top": 162, "x1": 180, "bottom": 180},
        {"text": "bye", "x0": 100, "top": 320, "x1": 130, "bottom": 340},
        {"text": "world", "x0": 140, "top": 320, "x1": 180, "bottom": 340},
    ]
    golden = extract_turn(
        _json.dumps({"page": {"width": W, "height": H}, "words": upright_words})
    )["extracted_text"]
    assert golden == "hello world\nbye world"

    # rotate the content 90° clockwise into an H x W page: applying the
    # engine's CCW-90 restore must undo it — build via the inverse (270 CCW)
    boxes = np.array([[w["x0"], w["top"], w["x1"], w["bottom"]] for w in upright_words], float)
    rotated = TR.rotate_boxes(boxes, 270, W, H)
    rot_words = [
        {"text": w["text"], "x0": b[0], "top": b[1], "x1": b[2], "bottom": b[3]}
        for w, b in zip(upright_words, rotated.tolist())
    ]
    rw, rh = TR.rotated_extent(270, W, H)
    out = extract_turn(
        _json.dumps({"page": {"width": rw, "height": rh, "rotation": 90}, "words": rot_words})
    )
    assert out["extracted_text"] == golden


def test_explode_chunks(ray_session):
    import ray.data

    from deepdoctection_ray.pipelines.extraction import extract_turns
    from deepdoctection_ray.stages.chunks import explode_chunks

    ds = ray.data.from_items(
        [
            {"conv_id": "a", "turn_idx": 0,
             "text": "<body><h1>Top Title</h1><p>first para</p><p>second para</p></body>"},
            {"conv_id": "a", "turn_idx": 1, "text": "plain words"},
        ]
    )
    out = extract_turns(ds)
    chunks = explode_chunks(out).to_pandas().sort_values(["turn_idx", "block_idx"])
    assert chunks["chunk_text"].tolist() == ["Top Title", "first para", "second para", "plain words"]
    assert chunks["category"].tolist() == ["title", "text", "text", "text"]
    assert chunks["reading_order"].tolist() == [1, 2, 3, 1]


def test_table_similarity():
    from deepdoctection_ray.functions.eval_extras import table_similarity

    a = [["h1", "h2"], ["x", "y"]]
    assert table_similarity(a, a) == 1.0
    b = [["h1", "h2"], ["x", "WRONG"]]
    assert table_similarity(a, b) == 0.75
    assert table_similarity(a, [["h1", "h2"]]) == 0.5
    assert table_similarity([], []) == 1.0


def test_detection_metrics():
    from deepdoctection_ray.functions.eval_extras import detection_metrics

    gt = np.array([[0, 0, 10, 10], [20, 20, 30, 30]], float)
    pred = np.array([[1, 1, 11, 11], [50, 50, 60, 60]], float)
    scores = np.array([0.9, 0.8])
    m = detection_metrics(gt, pred, scores)
    assert m["tp"] == 1 and m["precision"] == 0.5 and m["recall"] == 0.5
    perfect = detection_metrics(gt, gt)
    assert perfect["f1"] == 1.0


def test_merge_by_key(ray_session):
    import ray.data

    from deepdoctection_ray.functions.merge import merge_by_key

    left = ray.data.from_items(
        [{"conv_id": "a", "turn_idx": 0, "extracted_text": "x"},
         {"conv_id": "a", "turn_idx": 1, "extracted_text": "y"}]
    )
    right = ray.data.from_items(
        [{"conv_id": "a", "turn_idx": 0, "lang_pred": "en", "extracted_text": "IGNORED"},
         {"conv_id": "a", "turn_idx": 1, "lang_pred": "de", "extracted_text": "IGNORED"}]
    )
    merged = {(r["conv_id"], r["turn_idx"]): r for r in merge_by_key(left, right).take_all()}
    assert merged[("a", 0)]["extracted_text"] == "x"  # left wins on clash
    assert merged[("a", 0)]["lang_pred"] == "en"
    assert merged[("a", 1)]["lang_pred"] == "de"


def test_parse_xml_payload():
    from deepdoctection_ray.kernels.xml_payload import xml_to_dict

    xml = "<doc><title>T</title><body><p>one</p><p>two</p></body></doc>"
    d = xml_to_dict(xml)
    assert d["tag"] == "doc"
    assert d["children"][0]["text"] == "T"
    texts = [c["text"] for c in d["children"][1]["children"]]
    assert texts == ["one", "two"]


def test_deskew_recovers_known_angle():
    """Projection-profile estimator: rotate a clean multi-line page by a known
    angle; the estimate lands within ±0.5 degrees (reference extern/deskew.py
    semantics, geometry-based)."""
    import numpy as np

    from deepdoctection_ray.kernels.transforms import (
        estimate_skew_angle,
        rotate_boxes_by_degrees,
    )

    rng = np.random.RandomState(5)
    boxes = []
    for line in range(12):
        y = 40.0 + 30.0 * line
        x = 50.0
        for _ in range(8):
            w = rng.uniform(20, 60)
            boxes.append([x, y, x + w, y + 14.0])
            x += w + 8.0
    boxes = np.array(boxes)
    assert abs(estimate_skew_angle(boxes)) <= 0.2  # clean page ≈ 0°
    for true_angle in (-4.0, 2.5, 7.0):
        rotated = rotate_boxes_by_degrees(boxes, true_angle, 600.0, 400.0)
        est = estimate_skew_angle(rotated)
        assert abs(est - (-true_angle)) <= 0.5, (true_angle, est)
