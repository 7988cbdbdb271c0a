"""Layout-payload extraction: the full NMS → matching → residual-lines →
reading-order composition, mirroring the reference's integration fixture
(``tests/pipe/conftest.py:202-247``) and ``test_order.py:122-177``
expectations (block order title=1, text=2, residual line=3)."""

from __future__ import annotations

import json

from deepdoctection_ray.kernels.extract import SNIFF_HEAD, classify_payload, extract_turn
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
    """The sniff only sees the first ``SNIFF_HEAD`` chars: a page with 60
    words ahead of its "blocks" key sniffs as pdfish, yet its kind and its
    detected title come from the decoded keys."""
    words = [
        {"text": f"w{i}", "x0": 5.0 + 9 * i, "top": 20.0, "x1": 12.0 + 9 * i, "bottom": 30.0}
        for i in range(60)
    ]
    title = {"category": "title", "score": 0.9, "x0": 0, "top": 0, "x1": 599, "bottom": 100}
    payload = json.dumps({"page": {"width": 600, "height": 800}, "words": words, "blocks": [title]})
    assert payload.index('"blocks"') > SNIFF_HEAD and classify_payload(payload) == "pdfish"
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


# --- the batch page kernel against the per-page chain ----------------------


def _pages_equal(batch, one_by_one):
    """``pdfish_blocks`` results → comparable (blocks with boxes, kind, error)."""
    return [
        ([(b.category, b.words, b.bbox) for b in blocks], kind, repr(err))
        for blocks, kind, err in zip(*batch)
    ] == [
        ([(b.category, b.words, b.bbox) for b in blocks], kind, repr(err))
        for res in one_by_one
        for blocks, kind, err in zip(*res)
    ]


def _spy_batch(monkeypatch):
    """Record how many pages each batch pass laid out itself."""
    from deepdoctection_ray.kernels import pdf_layout

    laid, real = [], pdf_layout._layout_batch

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        laid.append(sum(o is not None for o in out))
        return out

    monkeypatch.setattr(pdf_layout, "_layout_batch", spy)
    return laid


def test_batch_layout_matches_per_page_chain(monkeypatch):
    """A batch of pages through the batch passes equals each page through the
    per-page chain (a batch of one), blocks with their boxes, kinds and
    dead letters, on hypothesis pages built for the strict comparisons:
    equal tops, centers exactly on a band edge, page extents one ulp apart,
    single-word pages, pages whose words are all out of bounds, NaN
    coordinates, rotation 90/180/270, deskew, and layout pages with
    overlapping detected blocks of one category."""
    import math

    from hypothesis import HealthCheck, given, settings, strategies as st

    from deepdoctection_ray.kernels.pdf_layout import BATCH_MIN_PAGES, pdfish_blocks

    laid = _spy_batch(monkeypatch)
    coord = st.sampled_from([0.0, 10.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0]) | st.integers(0, 420).map(float)
    extent = st.sampled_from([400.0, 600.0]).flatmap(
        lambda v: st.sampled_from([v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)])
    )
    word = st.fixed_dictionaries({
        "text": st.sampled_from(["a", "bb", "c", "", "\x01d"]),
        "x0": coord, "top": coord,
        "x1": st.sampled_from([5.0, 10.0, 40.0]), "bottom": st.sampled_from([0.0, 5.0, 10.0, 14.0, 20.0]),
    }).map(lambda w: {**w, "x1": w["x0"] + w["x1"], "bottom": w["top"] + w["bottom"]})
    box = st.fixed_dictionaries({
        "category": st.sampled_from(["text", "title", "list", "table", "figure", "caption", "other"]),
        "score": st.floats(0.1, 1.0), "x0": coord, "top": coord,
        "x1": st.integers(20, 600).map(float), "bottom": st.integers(20, 400).map(float),
    })
    blocks = st.none() | st.lists(box, max_size=5).map(  # overlapping same-category detections
        lambda bs: bs + [{**b, "score": b["score"] / 2, "x0": b["x0"] + 3, "top": b["top"] + 3} for b in bs[:1]]
    )

    @st.composite
    def page(draw):
        words = draw(st.lists(word, min_size=1, max_size=30))
        if draw(st.integers(0, 9)) == 0:
            words = [{**w, "x0": 1000.0} for w in words]  # every word out of bounds
        if draw(st.integers(0, 19)) == 0:
            words.append({"text": "n", "x0": math.nan, "top": 1.0, "x1": 2.0, "bottom": 3.0})
        doc = {"page": {"width": draw(extent), "height": draw(extent),
                        "rotation": draw(st.sampled_from([0, 0, 90, 180, 270]))}, "words": words}
        if (detected := draw(blocks)) is not None:
            doc["blocks"] = detected
        return json.dumps(doc)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(page(), min_size=BATCH_MIN_PAGES, max_size=14), st.booleans())
    def check(pages, deskew):
        assert _pages_equal(pdfish_blocks(pages, deskew=deskew), [pdfish_blocks([p], deskew=deskew) for p in pages])

    check()
    assert sum(laid) > 0.5 * BATCH_MIN_PAGES * len(laid)  # most pages took the batch passes


def test_batch_layout_poison_page_dead_letters_only_itself(monkeypatch):
    """In one mixed batch a malformed page, a NaN word and a NaN floating
    block each dead-letter their own page only; every other page comes out
    as the per-page chain gives it. A batch pass that fails outright leaves
    every page to the per-page chain."""
    from deepdoctection_ray import synth
    from deepdoctection_ray.kernels import pdf_layout

    good = synth.make_layout_docs(6, seed=3)["text"].to_pylist() + [
        t for t in synth.make_transcripts(30, seed=4, scale=2)["text"].to_pylist() if t.startswith("{")
    ][:6]
    nan_block = {**TEXT, "x0": float("nan")}
    poison = [
        '{"words": [{"text": "a"}]}',
        json.dumps({"page": PAGE, "words": WORDS + [{**RESIDUAL, "top": float("nan")}]}),
        _payload([TITLE, nan_block], WORDS),
        "{not json",
    ]
    pages = good[:3] + poison[:2] + good[3:9] + poison[2:] + good[9:]
    want = [pdf_layout.pdfish_blocks([p]) for p in pages]
    errors = [repr(err) for res in want for err in res[2]]
    assert [e != "None" for e in errors] == [p in poison for p in pages]
    laid = _spy_batch(monkeypatch)
    assert _pages_equal(pdf_layout.pdfish_blocks(pages), want)
    assert laid == [len(good)]  # the NaN floating block's page went to the per-page chain
    matched = [_payload([TITLE, TEXT], WORDS)] * 8  # no residual word in the whole batch
    assert _pages_equal(pdf_layout.pdfish_blocks(matched), [pdf_layout.pdfish_blocks(matched[:1])] * 8)
    assert laid[-1] == 8

    def broken(*args, **kwargs):
        raise MemoryError("batch pass")

    monkeypatch.setattr(pdf_layout, "_layout_batch", broken)
    assert _pages_equal(pdf_layout.pdfish_blocks(pages), want)


def test_batch_order_blocks_matches_order_blocks():
    """``batch_order_blocks`` over many pages equals ``order_blocks`` page by
    page on boxes of the relative fixed-point grid drawn from a coarse set,
    so that column merges, shared component edges, 2-decimal rounding ties
    and dropped blocks all occur (hypothesis)."""
    import numpy as np
    from hypothesis import given, settings, strategies as st

    from deepdoctection_ray.kernels import boxes as B
    from deepdoctection_ray.kernels.reading_order import batch_order_blocks, order_blocks

    edge = st.sampled_from([0.0, 0.005, 0.1, 0.125, 0.2, 0.25, 0.3, 0.5, 0.505, 0.6, 0.75, 1.0]) | st.floats(0, 1)
    block = st.tuples(edge, edge, edge, edge).map(lambda b: (min(b[0], b[2]), min(b[1], b[3]), max(b[0], b[2]), max(b[1], b[3])))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(block, min_size=1, max_size=12), min_size=1, max_size=6))
    def check(pages):
        rel = [B.snap_rel(np.array(p, dtype=np.float64)) for p in pages]
        offs = np.concatenate([[0], np.cumsum([len(r) for r in rel])])
        got = batch_order_blocks(np.concatenate(rel), offs)
        want = [int(offs[p]) + i for p, r in enumerate(rel) for i in order_blocks(r)]
        assert got.tolist() == want

    check()


def test_grid_pos_keeps_grid_comparisons():
    """A strict comparison of a relative fixed-point grid value against any
    value in [0, 1.5] — its float neighbours, midpoints, centers — is the
    same comparison of their ``grid_pos`` integers (hypothesis)."""
    import math

    import numpy as np
    from hypothesis import given, settings, strategies as st

    from deepdoctection_ray.kernels import boxes as B
    from deepdoctection_ray.kernels.reading_order import grid_pos

    grid = st.integers(0, B.REL_SCALE).map(lambda k: k / B.REL_SCALE)
    near = grid.flatmap(lambda g: st.sampled_from([g, math.nextafter(g, 0.0), math.nextafter(g, 2.0)]))
    other = near | st.floats(0, 1.5) | st.tuples(grid, grid).map(lambda ab: (ab[0] + ab[1]) / 2.0)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(grid, min_size=1, max_size=20), st.lists(other, min_size=1, max_size=20))
    def check(gs, vs):
        g, v = np.array(gs)[:, None], np.array(vs)[None, :]
        pg, pv = grid_pos(g), grid_pos(v)
        assert np.array_equal(g < v, pg < pv) and np.array_equal(v < g, pv < pg)

    check()


def test_batch_lines_match_make_text_lines():
    """The batch row pass, in-block word order and line builder equal
    ``group_words_into_lines`` and ``make_text_lines`` run by run, on
    relative grid boxes whose gaps hit ``paragraph_break`` exactly, whose
    centers sit on band edges and whose sub-lines span rows (hypothesis).
    A run the batch flags as split is one whose sub-line the per-run
    builder splits again."""
    import numpy as np
    from hypothesis import given, settings, strategies as st

    from deepdoctection_ray.kernels import boxes as B
    from deepdoctection_ray.kernels.reading_order import (
        PARAGRAPH_BREAK,
        batch_group_order,
        batch_row_openers,
        group_words_into_lines,
        rel_center_arrays,
    )
    from deepdoctection_ray.kernels.textlines import batch_lines, make_text_lines

    grid = np.arange(0, 10**6, 7) / B.REL_SCALE * 100  # a sparse slice of the 1e-8 grid
    at_break = np.flatnonzero(np.isin(np.round((grid + PARAGRAPH_BREAK) * B.REL_SCALE) / B.REL_SCALE - grid, [PARAGRAPH_BREAK]))
    assert at_break.size  # pairs of grid values exactly one paragraph break apart
    top = st.sampled_from([0.1, 0.1, 0.12, 0.125, 0.14, 0.2, 0.3])
    height = st.sampled_from([0.0, 0.02, 0.025, 0.04, 0.05])
    word = st.tuples(st.floats(0, 0.9), st.sampled_from([0.01, 0.02, 0.05]), top, height).map(
        lambda w: [[w[0], w[2], w[0] + w[1], w[2] + w[3]]]
    )
    gap_pair = st.tuples(st.sampled_from(at_break.tolist()), top, height).map(  # gap == paragraph_break
        lambda w: [[grid[w[0]] - 0.02, w[1], grid[w[0]], w[1] + w[2]],
                   [grid[w[0]] + PARAGRAPH_BREAK, w[1], grid[w[0]] + 0.06, w[1] + w[2]]]
    )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(word | gap_pair, min_size=1, max_size=8), min_size=1, max_size=5))
    def check(runs):
        rel = [np.clip(B.snap_rel(np.array([w for ws in r for w in ws])), 0.0, 1.0) for r in runs]
        offs = np.concatenate([[0], np.cumsum([len(r) for r in rel])])
        flat = np.concatenate(rel)
        cx, cy = rel_center_arrays(flat)
        opener, fit = batch_row_openers(offs, flat[:, 1], flat[:, 3], cy)
        assert fit.all()
        order = batch_group_order(offs, flat[:, 1], cx, opener)
        in_line, l_offs, l_boxes, split = batch_lines(offs, flat, cx, cy, opener)
        lines = []
        for r, (a, b) in enumerate(zip(offs[:-1].tolist(), offs[1:].tolist())):
            centers = list(zip(cx[a:b].tolist(), cy[a:b].tolist()))
            grouped = group_words_into_lines(rel[r].tolist(), absolute=False, centers=centers)
            assert order[a:b].tolist() == [a + t[2] for t in grouped]
            want = make_text_lines(rel[r], 1.0, 1.0, True, PARAGRAPH_BREAK, absolute=False, centers=centers)
            got = [
                (l_boxes[i].tolist(), in_line[l_offs[i] : l_offs[i + 1]].tolist())
                for i in range(len(l_offs) - 1)
                if a <= in_line[l_offs[i]] < b
            ]
            if not split[r]:
                assert got == [(box.tolist(), [a + m for m in in_order]) for box, _, in_order in want]
            else:  # some sub-line comes back as more than one line
                assert len(want) != len(got) or any(
                    sorted(g[1]) != sorted(a + m for m in w[2]) for g, w in zip(got, want)
                )

    check()
