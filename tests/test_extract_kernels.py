"""HTML boilerplate stripping, pdfish layout parsing and turn assembly (F1/F2).

The end-to-end expectation ``"hello world\\nbye world"`` mirrors the
reference's ``Page.text`` for the two-block ordering fixture
(``tests/pipe/conftest.py:202-247`` + ``view.py:1323-1336``).
"""

from __future__ import annotations

import json

from deepdoctection_ray.kernels.assemble import Block, assemble_turn
from deepdoctection_ray.kernels.extract import classify_payload, extract_turn
from deepdoctection_ray.kernels.html_blocks import parse_html_blocks


def test_assemble_two_blocks_page_text():
    blocks = [Block("title", ["hello", "world"]), Block("text", ["bye", "world"])]
    text, spans = assemble_turn(blocks)
    assert text == "hello world\nbye world"
    assert list(zip(spans["start"], spans["end"])) == [(0, 5), (6, 11), (12, 15), (16, 21)]
    assert [text[s:e] for s, e in zip(spans["start"], spans["end"])] == ["hello", "world", "bye", "world"]
    assert spans["block_idx"] == [0, 0, 1, 1]
    assert spans["reading_order"] == [1, 2, 1, 2]


def test_classify_payload():
    assert classify_payload("just words here") == "plain"
    assert classify_payload("<html><p>x</p></html>") == "html"
    assert classify_payload('{"page": {"width": 600}, "words": []}') == "pdfish"
    assert classify_payload("") == "plain"
    assert classify_payload("a < b and c > d") == "plain"
    # a skewed pdfish page holding the word "blocks" sniffs as layout; its
    # kind, and with it the deskew gate, comes from its decoded keys
    from deepdoctection_ray.synth import make_deskew_docs

    skewed = make_deskew_docs(1, seed=3)["text"][0].as_py()
    doc = json.loads(skewed)
    doc["words"][0]["text"] = "blocks"
    page = json.dumps(doc)
    assert classify_payload(page) == "layout"
    out = extract_turn(page, deskew=True)
    assert out["payload_kind"] == "pdfish"
    assert out["blocks"] == extract_turn(skewed, deskew=True)["blocks"] != extract_turn(skewed)["blocks"]


def test_html_strips_nav_header_footer():
    html = (
        "<html><head><title>T</title><style>p{}</style></head><body>"
        "<nav><a href='/'>Home</a> <a href='/x'>About</a></nav>"
        "<header><h1>Site Name</h1></header>"
        "<h1>Real Title</h1>"
        "<p>Main content paragraph.</p>"
        "<ul><li>item one</li><li>item two</li></ul>"
        "<footer>© 2026 <a href='#'>imprint</a></footer>"
        "</body></html>"
    )
    blocks = parse_html_blocks(html)
    assert [(b.category, " ".join(b.words)) for b in blocks] == [
        ("title", "Real Title"),
        ("text", "Main content paragraph."),
        ("list_item", "item one"),
        ("list_item", "item two"),
    ]


def test_html_link_farm_dropped():
    html = "<body><p><a>l1</a> <a>l2</a> <a>l3</a> x</p><p>real text here</p></body>"
    blocks = parse_html_blocks(html)
    assert [" ".join(b.words) for b in blocks] == ["real text here"]


def test_html_container_direct_text():
    html = "<div>intro words<p>inner para</p></div>"
    blocks = parse_html_blocks(html)
    assert [" ".join(b.words) for b in blocks] == ["intro words", "inner para"]


def test_extract_turn_plain_matches_sql_normalization():
    text = "  the \t fast\nkey   order "
    out = extract_turn(text)
    assert out["payload_kind"] == "plain"
    assert out["extracted_text"] == "the fast key order"
    assert out["error"] is None
    assert out["spans"]["start"] == [0, 4, 9, 13]


def test_extract_turn_pdfish_two_lines():
    payload = json.dumps(
        {
            "page": {"width": 600, "height": 400},
            "words": [
                {"text": "bye", "x0": 100, "top": 320, "x1": 130, "bottom": 340},
                {"text": "hello", "x0": 110, "top": 165, "x1": 130, "bottom": 180},
                {"text": "world", "x0": 140, "top": 162, "x1": 180, "bottom": 180},
                # gap 10px < paragraph_break (0.035 * 600 = 21px) keeps the line
                {"text": "world", "x0": 140, "top": 320, "x1": 180, "bottom": 340},
                # out of bounds → dropped (pipe/text.py:132-137)
                {"text": "ghost", "x0": 600, "top": 10, "x1": 650, "bottom": 30},
            ],
        }
    )
    out = extract_turn(payload)
    assert out["payload_kind"] == "pdfish"
    assert out["extracted_text"] == "hello world\nbye world"
    assert out["blocks"]["category"] == ["line", "line"]
    assert out["blocks"]["n_words"] == [2, 2]


def test_extract_turn_error_is_dead_letter():
    out = extract_turn('{"words": [{"text": "a"}]}', kind="pdfish")  # missing coords
    assert out["error"] is not None
    assert out["extracted_text"] == ""


def test_html_fast_engine_matches_stdlib():
    """The regex tokenizer and html.parser drive the same collector; block
    output must be identical over the synthetic HTML corpus."""
    from deepdoctection_ray.kernels.html_blocks import _BlockCollector
    from deepdoctection_ray.synth import _make_html, _rng

    p = _BlockCollector()
    for i in range(300):
        h = _make_html(_rng(7, "eq", i), scale=2)
        fast = parse_html_blocks(h, parser=p, engine="fast")
        slow = parse_html_blocks(h, parser=p, engine="stdlib")
        assert [(b.category, b.words) for b in fast] == [(b.category, b.words) for b in slow]


def test_html_fast_engine_entities_and_comments():
    html = "<body><!-- note --><p>a &amp; b &lt;tag&gt;</p><br/><p>two</p></body>"
    blocks = parse_html_blocks(html)
    assert [" ".join(b.words) for b in blocks] == ["a & b <tag>", "two"]


def test_gram_kernels_match_scalar_definitions():
    """Vectorized Arrow gram explosion (kernels/grams.py) must emit exactly
    the scalar word_ngrams / zip(toks, toks[1:]) grams per row, including the
    short-doc fallback and whitespace edge cases (hypothesis fuzz)."""
    import pyarrow as pa
    from hypothesis import given, settings, strategies as st

    from deepdoctection_ray.kernels.grams import explode_bigrams, explode_ngrams
    from deepdoctection_ray.kernels.normalize import word_ngrams

    texts_st = st.lists(
        st.text(alphabet="ab \t\n ", max_size=30), min_size=0, max_size=20
    )

    @settings(max_examples=150, deadline=4000)
    @given(texts_st, st.integers(min_value=1, max_value=4))
    def check(texts, k):
        col = pa.array(texts, pa.string())
        ridx, grams = explode_ngrams(col, k)
        got: dict = {}
        for r, g in zip(ridx, grams.to_pylist()):
            got.setdefault(int(r), []).append(g)
        for i, t in enumerate(texts):
            assert sorted(got.get(i, [])) == sorted(word_ngrams(t, k)), (i, repr(t), k)
        ridx, w1, bg = explode_bigrams(col)
        got = {}
        for r, a, b in zip(ridx, w1.to_pylist(), bg.to_pylist()):
            got.setdefault(int(r), []).append((a, b))
        for i, t in enumerate(texts):
            toks = t.split()
            want = [(a, a + " " + b) for a, b in zip(toks, toks[1:])]
            assert sorted(got.get(i, [])) == sorted(want), (i, repr(t))

    check()


def test_segment_helpers_match_per_row_python():
    """grams.ranges / segment_sum / covered_mask / token_windows against
    per-row Python over random row lengths with empty rows at the start, in
    the middle and at the end (the shapes a clipped ``reduceat`` gets
    wrong), plus very long rows (hypothesis fuzz)."""
    import numpy as np
    import pyarrow as pa
    from hypothesis import given, settings, strategies as st

    from deepdoctection_ray.kernels.grams import covered_mask, ranges, segment_sum, token_windows

    len_st = st.one_of(st.integers(0, 6), st.integers(0, 6), st.integers(2000, 5000))
    rows_st = st.lists(len_st, max_size=8)

    @settings(max_examples=100, deadline=None)
    @given(rows_st, rows_st, st.integers(1, 9), st.integers(0, 2**31))
    def check(head, tail, width, seed):
        lens = np.array([0, *head, 0, *tail, 0, 0], np.int64)
        offs = np.concatenate([[0], np.cumsum(lens)])
        total = int(offs[-1])
        rng = np.random.RandomState(seed)
        vals = rng.randint(-50, 50, total)
        assert ranges(lens).tolist() == [j for n in lens for j in range(n)]
        sums = segment_sum(vals, offs)
        assert sums.tolist() == [int(vals[a:b].sum()) for a, b in zip(offs[:-1], offs[1:])]
        assert segment_sum(vals > 0, offs).tolist() == [
            int((vals[a:b] > 0).sum()) for a, b in zip(offs[:-1], offs[1:])
        ]
        # in-row windows, as every caller builds them
        starts, want = [], np.zeros(total, bool)
        for a, n in zip(offs[:-1], lens):
            for p in np.nonzero(rng.rand(max(n - width + 1, 0)) < 0.2)[0]:
                starts.append(a + p)
                want[a + p : a + p + width] = True
        got = covered_mask(np.array(starts, np.int64), width, total)
        assert got.tolist() == want.tolist()
        toks = [f"t{j}" for j in range(total)]
        row_idx, wstart, wins = token_windows(pa.array(toks, pa.string()), lens, offs, width)
        expect = [
            (i, a + j, " ".join(toks[a + j : a + j + width]))
            for i, (a, n) in enumerate(zip(offs[:-1], lens))
            for j in range(n - width + 1)
        ]
        assert list(zip(row_idx.tolist(), wstart.tolist(), wins.to_pylist())) == expect

    check()


def test_batch_shingle_hashes_matches_scalar():
    import numpy as np
    import pyarrow as pa

    from deepdoctection_ray.stages.dedup import batch_shingle_hashes, shingle_hashes

    texts = ["", "a", "a b c d e", "x y", "a b c", "repeat repeat repeat repeat"]
    ridx, h = batch_shingle_hashes(pa.array(texts), k=3)
    got: dict = {}
    for r, v in zip(ridx, h):
        got.setdefault(int(r), []).append(int(v))
    for i, t in enumerate(texts):
        want = [int(v) for v in shingle_hashes(t, 3)]
        assert sorted(got.get(i, [])) == sorted(want), (i, t)


def test_split_tokens_trailing_whitespace_arrow_bug_regression():
    """MEASURED pyarrow 16.1 bug: utf8_split_whitespace can leave a value's
    TRAILING whitespace glued to its last piece depending on buffer state
    (flaky — found by the gram hypothesis fuzz at trial 5309 of a seeded
    hammer). split_tokens trims first; this hammer (10k seeded batches over
    an alphabet with tab/newline/NBSP) pins both the workaround and the
    trim kernel's own agreement with Python str.strip()."""
    import random

    import pyarrow as pa
    import pyarrow.compute as pc

    from deepdoctection_ray.kernels.grams import split_tokens

    rng = random.Random(0)
    alpha = "ab \t\n\xa0"
    for _ in range(10000):
        texts = [
            "".join(rng.choice(alpha) for _ in range(rng.randrange(0, 30)))
            for _ in range(rng.randrange(0, 20))
        ]
        col = pa.array(texts, pa.string())
        flat, lens, offs = split_tokens(col)
        toks = flat.to_pylist()
        for i, t in enumerate(texts):
            assert toks[offs[i] : offs[i + 1]] == t.split(), (i, repr(t))
        trimmed = pc.utf8_trim_whitespace(col).to_pylist()
        for t, tr in zip(texts, trimmed):
            assert tr == t.strip(), (repr(t), repr(tr))


def _stage_rows(out) -> list[dict]:
    """TurnExtractor output rows in ``extract_turn``'s dict shape."""

    def columns(structs: list[dict], names: list[str]) -> dict:
        return {n: [s[n] for s in structs] for n in names}

    span_names = ["start", "end", "block_idx", "category", "reading_order"]
    block_names = ["category", "reading_order", "n_words"]
    return [
        {
            "extracted_text": text,
            "spans": columns(spans, span_names),
            "blocks": columns(blocks, block_names),
            "payload_kind": kind,
            "error": error,
        }
        for text, spans, blocks, kind, error in zip(
            *(out[c].to_pylist() for c in ("extracted_text", "spans", "blocks", "payload_kind", "error"))
        )
    ]


def _assert_stage_matches_oracle(batch, text_column="text", **kwargs):
    import pyarrow as pa

    from deepdoctection_ray.stages.extract import SPAN_TYPE, BLOCK_TYPE, TurnExtractor

    out = TurnExtractor(text_column=text_column, **kwargs)(batch)
    assert out.schema.field("spans").type == SPAN_TYPE
    assert out.schema.field("blocks").type == BLOCK_TYPE
    assert out.schema.field("extracted_text").type == pa.string()
    assert (text_column in out.column_names) == bool(kwargs.get("keep_payload"))
    texts = batch[text_column].to_pylist()
    want = [
        extract_turn(t if t is not None else "", deskew=kwargs.get("deskew", False)) for t in texts
    ]
    got = _stage_rows(out)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, (i, texts[i][:200] if texts[i] else texts[i])
    return out


def _rotated(payload: str, rotation: int) -> str:
    doc = json.loads(payload)
    doc.setdefault("page", {})["rotation"] = rotation
    return json.dumps(doc)


def _mixed_texts(seed: int) -> list[str]:
    """Scale-3 transcripts, their pdfish pages rotated 90/180/270, and layout
    payloads, some rotated 90/180/270, interleaved."""
    import random

    from deepdoctection_ray import synth

    texts = synth.make_transcripts(12, seed=seed, scale=3)["text"].to_pylist()
    pdf = [t for t in texts if classify_payload(t) == "pdfish"]
    texts += [_rotated(t, r) for t, r in zip(pdf, [90, 180, 270] * len(pdf))]
    layout = synth.make_layout_docs(20, seed=seed)["text"].to_pylist()
    texts += layout + [_rotated(t, r) for t, r in zip(layout[:12], [90, 180, 270] * 4)]
    random.Random(seed).shuffle(texts)
    return texts


def test_turn_extractor_matches_extract_turn_per_row():
    """The columnar batch operator equals the per-turn oracle on every row:
    scale-3 mixed transcripts at several seeds, rotated pdfish pages and
    layout payloads, in batches cut so that every payload kind starts one
    batch and ends another."""
    import pyarrow as pa

    for seed in (1, 2, 5):
        texts = _mixed_texts(seed)
        kinds = [classify_payload(t) for t in texts]
        assert set(kinds) == {"plain", "html", "pdfish", "layout"}
        cuts = sorted({0, len(texts)} | {i + d for k in set(kinds) for i in [kinds.index(k)] for d in (0, 1)})
        table = pa.table({"turn": list(range(len(texts))), "text": texts})
        parts = [
            _assert_stage_matches_oracle(table.slice(a, b - a)) for a, b in zip(cuts[:-1], cuts[1:])
        ]
        assert pa.concat_tables(parts)["turn"].to_pylist() == list(range(len(texts)))


def test_turn_extractor_options_match_extract_turn():
    """deskew=True, keep_payload=True and a custom text column; deskew
    leaves skewed pages with a "blocks" key exactly as they are without it."""
    import pyarrow as pa

    from deepdoctection_ray.synth import make_deskew_docs

    skewed = make_deskew_docs(12, seed=3)["text"].to_pylist()
    texts = _mixed_texts(3)[:300] + skewed
    _assert_stage_matches_oracle(pa.table({"text": texts}), deskew=True)
    skewed_layout = pa.table({"text": [json.dumps({"blocks": [], **json.loads(t)}) for t in skewed]})
    kept = _assert_stage_matches_oracle(skewed_layout, deskew=True)
    assert kept.equals(_assert_stage_matches_oracle(skewed_layout))
    assert kept["payload_kind"].to_pylist() == ["layout"] * len(skewed)
    deskewed = _assert_stage_matches_oracle(pa.table({"text": skewed}), deskew=True)
    assert kept["extracted_text"] != deskewed["extracted_text"]
    out = _assert_stage_matches_oracle(pa.table({"payload": texts}), text_column="payload", keep_payload=True)
    assert out["payload"].to_pylist() == texts


def test_turn_extractor_edge_batches():
    """0 rows; only None/"" texts; only dead letters; multi-code-point words
    (emoji, CJK, combining marks, zero-width space): offsets count code
    points, exactly as ``assemble_turn`` does."""
    import pyarrow as pa

    out = _assert_stage_matches_oracle(pa.table({"text": pa.array([], pa.string())}))
    assert out.num_rows == 0
    out = _assert_stage_matches_oracle(pa.table({"text": pa.array([None, "", None, "  \n"], pa.string())}))
    assert out["extracted_text"].to_pylist() == [""] * 4
    dead = '{"words": [{"text": "a"}]}'
    out = _assert_stage_matches_oracle(pa.table({"text": [dead] * 3}))
    assert out["error"].null_count == 0 and out["extracted_text"].to_pylist() == [""] * 3
    words = ["🙂", "日本語", "é", "​", "a\U0001f3fdb", "ﬁ"]
    page = {"page": {"width": 600, "height": 800}, "words": [
        {"text": w, "x0": 10 + 40 * i, "top": 10 + 30 * (i % 2), "x1": 40 + 40 * i, "bottom": 25 + 30 * (i % 2)}
        for i, w in enumerate(words)
    ]}
    texts = [
        " ".join(words),
        "<p>" + " ".join(words) + "</p><h1>日本 🙂</h1>",
        json.dumps(page),
        dead,
        None,
        "​ x 　 y",
    ]
    out = _assert_stage_matches_oracle(pa.table({"text": texts}))
    for text, spans in zip(out["extracted_text"].to_pylist(), out["spans"].to_pylist()):
        assert [text[s["start"] : s["end"]] for s in spans] == text.replace("\n", " ").split(" ") if text else not spans


def test_assemble_batch_matches_assemble_turn():
    """Blocks without words (no kernel emits one, the assembly still counts
    their "\\n"), turns without blocks, and multi-code-point words."""
    from deepdoctection_ray.stages.extract import assemble_batch

    turns = [
        [],
        [Block("text", [])],
        [Block("title", ["a", "日本"]), Block("text", []), Block("text", []), Block("list", ["🙂", "éx"])],
        [],
        [Block("text", []), Block("cell", ["​"])],
        [Block("line", ["x"])],
    ]
    text, spans, blocks = assemble_batch(turns)
    names = ["start", "end", "block_idx", "category", "reading_order"]
    for blocks_in, t, sp, bl in zip(turns, text.to_pylist(), spans.to_pylist(), blocks.to_pylist()):
        want_text, want_spans = assemble_turn(blocks_in)
        assert t == want_text
        assert {n: [s[n] for s in sp] for n in names} == want_spans
        assert bl == [
            {"category": b.category, "reading_order": i + 1, "n_words": len(b.words)}
            for i, b in enumerate(blocks_in)
        ]


def test_tokenize_fast_path_matches_definition():
    """``tokenize_plain``/``clean_token`` skip the substitution when a text
    has no control character; both equal the per-token definition over
    letters, whitespace-like controls, NBSP, ideographic space, zero-width
    space and the whole control class (hypothesis)."""
    from hypothesis import given, settings, strategies as st

    from deepdoctection_ray.kernels.normalize import _CONTROL, clean_token, tokenize_plain

    controls = [chr(c) for c in range(0x80) if _CONTROL.match(chr(c))]
    alphabet = list("ab é日") + controls + ["\x1c", "\x1f", "\x85", "\xa0", "　", "​", " ", "\t", "\n"]

    @settings(max_examples=600, deadline=None)
    @given(st.text(alphabet=alphabet, max_size=30))
    def check(text):
        assert tokenize_plain(text) == [t for t in (_CONTROL.sub("", t) for t in text.split()) if t]
        assert clean_token(text) == _CONTROL.sub("", text)

    check()


def test_text_lines_hand_back_in_line_order():
    """The in-line order ``make_text_lines`` hands back equals a fresh
    ``group_words_into_lines`` over each line's members, on random pages of
    jittered word rows with column gaps (hypothesis), in relative and
    absolute mode, with and without sub-lines."""
    import numpy as np
    from hypothesis import given, settings, strategies as st

    from deepdoctection_ray.kernels import boxes as B
    from deepdoctection_ray.kernels.reading_order import group_words_into_lines, rel_centers
    from deepdoctection_ray.kernels.textlines import make_text_lines

    word = st.tuples(
        st.integers(0, 5),  # row
        st.floats(0, 560),  # x0
        st.floats(4, 60),  # width
        st.floats(-6, 6),  # vertical jitter
        st.floats(6, 20),  # height
    )

    @settings(max_examples=150, deadline=None)
    @given(st.lists(word, min_size=1, max_size=40), st.booleans())
    def check(words, sub_lines):
        page = np.array([[x, 40 + 30 * r + j, x + w, 40 + 30 * r + j + h] for r, x, w, j, h in words])
        rel = B.to_relative(B.snap_abs(page), 600.0, 800.0).tolist()
        centers = rel_centers(rel)
        runs = [
            (rel, dict(absolute=False, centers=centers), (1.0, 1.0)),
            (B.snap_abs(page), dict(absolute=True), (600.0, 800.0)),
        ]
        for boxes, mode, (width, height) in runs:
            lines = make_text_lines(boxes, width, height, sub_lines, 0.035, **mode)
            assert lines
            for _, members, in_line in lines:
                sub = dict(mode)
                if "centers" in sub:
                    sub["centers"] = [centers[m] for m in members]
                fresh = group_words_into_lines([list(boxes[m]) for m in members], **sub)
                assert in_line == [members[t[2]] for t in fresh]

    check()


def test_pdfish_batch_dead_letters_pinned():
    """Malformed pages dead-letter (or not) exactly as the per-word decoder
    always did for pdfish pages, now that filtering and geometry run
    batch-wide, and layout pages follow the same rule: a NaN coordinate
    survives the bounds filter and fails the fixed-point centers; a word
    without text fails only when it is inside the page; a word without
    coordinates fails even with empty text; a non-right rotation fails only
    when a word or a detected block survives."""
    import pyarrow as pa

    def page(words, blocks=None, **extra):
        doc = {"page": {"width": 100, "height": 100, **extra}, "words": words}
        if blocks is not None:
            doc["blocks"] = blocks
        return json.dumps(doc)

    def word(text=None, x0=10.0, top=10.0):
        w = {"x0": x0, "top": top, "x1": x0 + 5, "bottom": top + 5}
        if text is not None:
            w["text"] = text
        return w

    block = {"category": "text", "score": 0.9, "x0": 0, "top": 0, "x1": 60, "bottom": 60}
    right_angles = "ValueError: only right angles supported, got 45"
    nan = "ValueError: cannot convert float NaN to integer"
    shared = [  # (words, page extras, text, error) on both kinds
        ([word("a"), word("nan", x0=float("nan"))], {}, "", nan),
        ([word("a"), word(None)], {}, "", "KeyError: 'text'"),
        ([word("a"), {"text": ""}], {}, "", "KeyError: 'x0'"),
        ([word("a"), {**word("s"), "x0": "abc"}], {}, "", "ValueError: could not convert string to float: 'abc'"),
        ([word("a"), word(None, x0=500.0)], {}, "a", None),
        ([word("a", top=150.0), word("b")], {}, "b", None),
        ([word("a")], {"rotation": 45}, "", right_angles),
        ([word("\x00"), word("b\x01c", x0=30.0)], {}, "bc", None),
    ]
    cases = [(page(w, **x), t, e, "pdfish") for w, x, t, e in shared]
    cases += [(page(w, [block], **x), t, e, "layout") for w, x, t, e in shared]
    no_x0 = {k: v for k, v in block.items() if k != "x0"}
    cases += [
        (page([word("a", x0=500.0)], rotation=45), "", None, "pdfish"),
        (page([word("a", x0=500.0)], [], rotation=45), "", None, "layout"),
        (page([word("a", x0=500.0)], [block], rotation=45), "", right_angles, "layout"),
        (page([], [block], rotation=45), "", right_angles, "layout"),
        (page([word("a")], [no_x0]), "", "KeyError: 'x0'", "layout"),
        (page([word("a")], [{**block, "x0": float("nan")}]), "", nan, "layout"),
    ]
    out = _assert_stage_matches_oracle(pa.table({"text": [c[0] for c in cases]}))
    assert out["extracted_text"].to_pylist() == [c[1] for c in cases]
    assert out["error"].to_pylist() == [c[2] for c in cases]
    assert out["payload_kind"].to_pylist() == [c[3] for c in cases]


def test_rel_center_arrays_match_rel_centers():
    """The batch fixed-point centers equal the per-word Python ``round``
    definition bit for bit, on relative boxes snapped to the 1e-8 grid and
    on raw floats at half-grid ties (hypothesis)."""
    import numpy as np
    from hypothesis import given, settings, strategies as st

    from deepdoctection_ray.kernels import boxes as B
    from deepdoctection_ray.kernels.reading_order import rel_center_arrays, rel_centers

    coord = st.one_of(
        st.floats(0, 1),
        st.integers(0, 2 * 10**8).map(lambda k: k / 2e8),  # exact half-grid ties
    )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(coord, coord, coord, coord), max_size=20), st.booleans())
    def check(raw, snap):
        rel = np.array(raw, dtype=np.float64).reshape(-1, 4)
        if snap:
            rel = B.snap_rel(rel)
        cx, cy = rel_center_arrays(rel)
        assert list(zip(cx.tolist(), cy.tolist())) == rel_centers(rel.tolist())

    check()
