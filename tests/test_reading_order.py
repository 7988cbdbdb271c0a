"""Reading-order kernel tests.

The F2 fixture mirrors the reference's
``dp_image_with_layout_and_word_annotations``
(``deepdoctection/tests/pipe/conftest.py:202-247``) and the expectations of
``deepdoctection/tests/pipe/test_order.py:32-117``: page 600x400, a title block
(100,160,200,260) with words "hello"/"world" and a text block (100,300,250,350)
with words "bye"/"world"; expected block order [title, text] and word order
[1,2] within each block.
"""

from __future__ import annotations

import numpy as np

from deepdoctection_ray.kernels import boxes as B
from deepdoctection_ray.kernels.reading_order import group_words_into_lines, order_blocks
from deepdoctection_ray.kernels.textlines import make_text_lines

PAGE_W, PAGE_H = 600.0, 400.0
TITLE_BOX = [100.0, 160.0, 200.0, 260.0]
TEXT_BOX = [100.0, 300.0, 250.0, 350.0]
TITLE_WORDS = np.array([[110.0, 165.0, 130.0, 180.0], [140.0, 162.0, 180.0, 180.0]])
TEXT_WORDS = np.array([[100.0, 320.0, 130.0, 340.0], [175.0, 320.0, 205.0, 340.0]])


def test_words_within_block_order_title():
    order = group_words_into_lines(TITLE_WORDS)
    # both words share one line; left-to-right: hello (idx 0) then world (idx 1)
    assert [(t[0], t[2]) for t in order] == [(1, 0), (2, 1)]
    assert all(t[1] == 1 for t in order)  # single line


def test_words_within_block_order_text():
    order = group_words_into_lines(TEXT_WORDS)
    assert [(t[0], t[2]) for t in order] == [(1, 0), (2, 1)]


def test_two_lines_top_to_bottom():
    words = np.array(
        [[100.0, 320.0, 130.0, 340.0], [110.0, 165.0, 130.0, 180.0], [140.0, 162.0, 180.0, 180.0]]
    )
    order = group_words_into_lines(words)
    # top row words first (indices 1, 2), then the lower word (index 0)
    assert [t[2] for t in order] == [1, 2, 0]
    # line numbering is number_rows - original_row_index (order.py:132)
    assert [t[1] for t in order] == [1, 1, 2]


def test_block_order_title_before_text():
    blocks = np.array([TEXT_BOX, TITLE_BOX])  # input order reversed on purpose
    rel = B.to_relative(blocks, PAGE_W, PAGE_H)
    assert order_blocks(rel) == [1, 0]


def test_two_column_page_order():
    """F3 two-column layout. Goldens produced by running the ACTUAL reference
    ``OrderGenerator.order_blocks`` (order.py:201-330) on these boxes:

    - without a header, columns are detected and read left column first;
    - a full-width header block opens a page-wide column that absorbs every
      block, so the reference interleaves rows — we reproduce that behavior
      bit-for-bit (it is the reference's, not a bug here).
    """
    left = [[0.05, 0.15 + 0.25 * i, 0.45, 0.30 + 0.25 * i] for i in range(3)]
    right = [[0.55, 0.15 + 0.25 * i, 0.95, 0.30 + 0.25 * i] for i in range(3)]

    two_cols = np.array([right[0], left[0], right[1], left[1], right[2], left[2]])
    names = ["R0", "L0", "R1", "L1", "R2", "L2"]
    got = [names[i] for i in order_blocks(two_cols)]
    assert got == ["L0", "L1", "L2", "R0", "R1", "R2"], got

    header = [0.05, 0.02, 0.95, 0.08]
    with_header = np.array([right[0], left[0], header, right[1], left[1], right[2], left[2]])
    names_h = ["R0", "L0", "H", "R1", "L1", "R2", "L2"]
    got_h = [names_h[i] for i in order_blocks(with_header)]
    assert got_h == ["H", "L0", "R0", "L1", "R1", "L2", "R2"], got_h


def test_make_text_lines_single_row():
    lines = make_text_lines(TITLE_WORDS, PAGE_W, PAGE_H)
    assert len(lines) == 1
    box, members, in_line = lines[0]
    assert members == in_line == [0, 1]
    assert box.tolist() == [110.0, 162.0, 180.0, 180.0]  # merged box


def test_make_text_lines_paragraph_break_splits_columns():
    # two words on one visual row, gap 200px >> 0.035 * 600 = 21px
    words = np.array([[50.0, 100.0, 100.0, 115.0], [300.0, 100.0, 350.0, 115.0]])
    lines = make_text_lines(words, PAGE_W, PAGE_H)
    assert len(lines) == 2
    assert [m for _, m, _ in lines] == [[0], [1]]


def test_make_text_lines_small_gap_keeps_line():
    words = np.array([[50.0, 100.0, 100.0, 115.0], [110.0, 100.0, 160.0, 115.0]])
    lines = make_text_lines(words, PAGE_W, PAGE_H)
    assert len(lines) == 1
    assert lines[0][1] == [0, 1]
