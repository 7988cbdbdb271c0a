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
