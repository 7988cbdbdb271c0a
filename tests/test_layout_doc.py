"""Layout-payload extraction: the full NMS → matching → residual-lines →
reading-order composition, mirroring the reference's integration fixture
(``tests/pipe/conftest.py:202-247``) and ``test_order.py:122-177``
expectations (block order title=1, text=2, residual line=3)."""

from __future__ import annotations

import json

from deepdoctection_ray.kernels.extract import classify_payload, extract_turn
from deepdoctection_ray.kernels.pdf_layout import extract_layout

PAGE = {"width": 600, "height": 400}
TITLE = {"category": "title", "score": 0.9, "x0": 100, "top": 160, "x1": 200, "bottom": 260}
TEXT = {"category": "text", "score": 0.8, "x0": 100, "top": 300, "x1": 250, "bottom": 350}
WORDS = [
    {"text": "hello", "x0": 110, "top": 165, "x1": 130, "bottom": 180},
    {"text": "world", "x0": 140, "top": 162, "x1": 180, "bottom": 180},
    {"text": "bye", "x0": 100, "top": 320, "x1": 130, "bottom": 340},
    {"text": "world", "x0": 140, "top": 320, "x1": 180, "bottom": 340},
]
RESIDUAL = {"text": "residual", "x0": 350, "top": 390, "x1": 355, "bottom": 395}


def _payload(blocks, words):
    return json.dumps({"page": PAGE, "blocks": blocks, "words": words})


def test_classify_layout_payload():
    assert classify_payload(_payload([TITLE], WORDS)) == "layout"
    assert classify_payload(json.dumps({"page": PAGE, "words": WORDS})) == "pdfish"


def test_late_blocks_key_still_detected():
    """The sniff only sees the first 2,048 chars: a page with 60 words ahead
    of its "blocks" key sniffs as pdfish, yet its kind and its detected
    title come from the decoded keys."""
    words = [
        {"text": f"w{i}", "x0": 5.0 + 9 * i, "top": 20.0, "x1": 12.0 + 9 * i, "bottom": 30.0}
        for i in range(60)
    ]
    title = {"category": "title", "score": 0.9, "x0": 0, "top": 0, "x1": 599, "bottom": 100}
    payload = json.dumps({"page": {"width": 600, "height": 800}, "words": words, "blocks": [title]})
    assert payload.index('"blocks"') > 2048 and classify_payload(payload) == "pdfish"
    out = extract_turn(payload)
    assert out["payload_kind"] == "layout"
    assert out["blocks"]["category"] == ["title"]
    assert out["extracted_text"] == " ".join(w["text"] for w in words)


def test_reference_fixture_order_and_text():
    blocks = extract_layout(_payload([TEXT, TITLE], WORDS))  # input order reversed
    assert [(b.category, " ".join(b.words)) for b in blocks] == [
        ("title", "hello world"),
        ("text", "bye world"),
    ]


def test_residual_word_becomes_line():
    blocks = extract_layout(_payload([TITLE, TEXT], WORDS + [RESIDUAL]))
    assert [(b.category, " ".join(b.words)) for b in blocks] == [
        ("title", "hello world"),
        ("text", "bye world"),
        ("line", "residual"),
    ]
    # matches test_order.py:122-177: residual gets reading order 3 via a line
    out = extract_turn(_payload([TITLE, TEXT], WORDS + [RESIDUAL]))
    assert out["extracted_text"] == "hello world\nbye world\nresidual"
    assert out["blocks"]["reading_order"] == [1, 2, 3]


def test_nms_suppresses_duplicate_detection():
    dup_title = {**TITLE, "score": 0.5, "x0": 102, "top": 162, "x1": 202, "bottom": 262}
    blocks = extract_layout(_payload([TITLE, dup_title, TEXT], WORDS))
    assert [b.category for b in blocks] == ["title", "text"]  # one title survived


def test_table_words_not_in_narrative():
    table = {"category": "table", "score": 0.9, "x0": 100, "top": 300, "x1": 250, "bottom": 350}
    blocks = extract_layout(_payload([TITLE, table], WORDS))
    # bye/world fall inside the table: matched there, excluded from text,
    # and NOT residual (so no synthetic line for them) — Page.text semantics
    assert [(b.category, " ".join(b.words)) for b in blocks] == [("title", "hello world")]


def test_unmatched_words_with_no_blocks():
    blocks = extract_layout(_payload([], WORDS))
    # everything residual → synthetic lines in reading order
    assert [b.category for b in blocks] == ["line", "line"]
    assert [" ".join(b.words) for b in blocks] == ["hello world", "bye world"]


def test_out_of_bounds_word_dropped():
    ghost = {"text": "ghost", "x0": 600, "top": 10, "x1": 650, "bottom": 30}
    blocks = extract_layout(_payload([TITLE], WORDS[:2] + [ghost]))
    assert [" ".join(b.words) for b in blocks] == ["hello world"]
