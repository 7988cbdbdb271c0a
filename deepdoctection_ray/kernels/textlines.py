"""Synthetic text-line construction from word boxes.

Mirrors the reference's ``TextLineGenerator`` (``pipe/order.py:389-524``): rows
of words become LINE records; when ``make_sub_lines`` is on, a horizontal gap
wider than ``paragraph_break`` (relative coords) splits a row into sub-lines,
which is how a multi-column structure is detected from bare word boxes.

This is the path a turn takes when its payload has word geometry but no
detected layout blocks (the pdfminer/OCR-only configuration of the flagship
pipeline, ``analyzer/factory.py:1766-1776``): every word is "residual", lines
are synthesized, and the lines act as the floating text blocks.

Hot loops run on plain python floats (lists), not numpy rows — the typical
turn has 5-50 words, where per-element ndarray indexing would dominate.
"""

from __future__ import annotations

import numpy as np

from .grams import segment_bounds
from .reading_order import PARAGRAPH_BREAK, grid_pos, group_words_into_lines, row_ids


def _merge_list(boxes: list[list[float]], members: list[int]) -> np.ndarray:
    """Smallest box containing the member boxes (``box.py:757-773``)."""
    return np.array(
        [
            min(boxes[i][0] for i in members),
            min(boxes[i][1] for i in members),
            max(boxes[i][2] for i in members),
            max(boxes[i][3] for i in members),
        ],
        dtype=np.float64,
    )


Line = tuple[np.ndarray, list[int], list[int]]


def make_text_lines(
    word_boxes: np.ndarray,
    width: float,
    height: float,
    make_sub_lines: bool = True,
    paragraph_break: float = PARAGRAPH_BREAK,
    absolute: bool = True,
    centers: list[tuple[float, float]] | None = None,
) -> list[Line]:
    """Build synthetic lines from word boxes — ``order.py:423-524``.

    Args:
        word_boxes: ``[N, 4]`` xyxy word boxes; pass RELATIVE boxes with
            ``width=height=1.0, absolute=False`` to replicate the real
            pipeline (words carry relative embeddings after
            ``image_ann_to_image``, ``image.py:843-844``).
        width / height: page extent (for the relative gap threshold).

    Returns:
        List of ``(line_box, member_word_indices, in_line_order)`` in
        creation order. The member indices index into ``word_boxes`` and are
        ulx-sorted within a row segment; ``in_line_order`` holds the same
        indices in the line's word reading order, i.e. what
        ``group_words_into_lines`` gives for the members.
    """
    boxes = word_boxes.tolist() if hasattr(word_boxes, "tolist") else list(word_boxes)
    if not boxes:
        return []
    lines, _ = _lines_rec(
        boxes, list(range(len(boxes))), width, make_sub_lines, paragraph_break, True, absolute,
        centers,
    )
    return lines


def _group(
    boxes: list[list[float]],
    subset: list[int],
    absolute: bool,
    centers: list[tuple[float, float]] | None,
) -> list[tuple[int, int, int]]:
    return group_words_into_lines(
        [boxes[i] for i in subset],
        absolute=absolute,
        centers=None if centers is None else [centers[i] for i in subset],
    )


def _lines_rec(
    boxes: list[list[float]],
    subset: list[int],
    width: float,
    make_sub_lines: bool,
    paragraph_break: float,
    highest_level: bool,
    absolute: bool = True,
    centers: list[tuple[float, float]] | None = None,
) -> tuple[list[Line], list[int] | None]:
    """Lines of ``subset``, plus ``subset`` in in-line reading order when a
    nested call finds it is ONE row: the lines are then empty and the caller
    makes the segment one line (``order.py:456-457``). Every line of two or
    more words is such a segment, so its word order comes from the one
    ``group_words_into_lines`` call that already ran on exactly its members."""
    order = _group(boxes, subset, absolute, centers)
    n_rows = max(t[1] for t in order)
    if n_rows == 1 and not highest_level:
        return [], [subset[t[2]] for t in order]

    out: list[Line] = []
    for row_no in range(1, n_rows + 1):
        members = [subset[t[2]] for t in order if t[1] == row_no]
        members.sort(key=lambda i: boxes[i][0])  # order.py:464

        if len(members) < 2:
            out.append((_merge_list(boxes, members), members, members))
            continue
        if not make_sub_lines:
            in_line = [members[t[2]] for t in _group(boxes, members, absolute, centers)]
            out.append((_merge_list(boxes, members), members, in_line))
            continue

        segment: list[int] = []
        last = len(members) - 1
        for pos, i in enumerate(members):
            if pos == 0:
                segment = [i]
                continue
            gap = boxes[i][0] / width - boxes[members[pos - 1]][2] / width
            if gap < paragraph_break:
                segment.append(i)
            else:
                nested, in_line = _lines_rec(boxes, segment, width, make_sub_lines, paragraph_break, False, absolute, centers)
                if nested:
                    # a sub-line that itself spans rows keeps its nested split
                    # (order.py:499-503)
                    out.extend(nested)
                else:
                    out.append((_merge_list(boxes, segment), segment, in_line))
                    segment = [i]
            if pos == last:
                nested, in_line = _lines_rec(boxes, segment, width, make_sub_lines, paragraph_break, False, absolute, centers)
                if nested:
                    out.extend(nested)
                else:
                    out.append((_merge_list(boxes, segment), segment, in_line))
    return out, None


def batch_lines(
    offs: np.ndarray,
    rel: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    opener: np.ndarray,
    paragraph_break: float = PARAGRAPH_BREAK,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`make_text_lines` in the real-pipeline mode (relative boxes,
    ``width=1``, sub-lines on) for every run ``offs[s]:offs[s + 1]`` at once,
    given the runs' rows (``reading_order.batch_row_openers``).

    Returns ``(words, line_offs, line_boxes, split)``: the elements of every
    line in in-line reading order, line by line in creation order (run by
    run; each run's rows bottom-created first, as ``_lines_rec`` walks
    them), the line offsets into ``words``, the line boxes, and per run
    whether some sub-line spans more than one row.

    A row's members are walked by ``ulx`` and cut where the gap reaches
    ``paragraph_break``. ``_lines_rec`` groups every such sub-line again;
    it comes back as ONE row iff each member passes the row test against
    the band of the sub-line's first member, which opens that row, and then
    its word order is ``cx`` order. A run where that fails (``split``) keeps
    the nested split the per-page chain computes."""
    seg = np.repeat(np.arange(len(offs) - 1), np.diff(offs))
    row = row_ids(opener)
    # members by (run, row from the last created, ulx, cx, input order); ulx
    # is on the fixed-point grid, so one integer key orders all but exact ties
    last = np.concatenate([[0], np.cumsum(opener == np.arange(len(opener)))])
    key = ((last[offs[:-1]] + last[offs[1:]])[seg] - row) << 32 | grid_pos(rel[:, 0])
    o = np.argsort(key)
    if (key[o][1:] == key[o][:-1]).any():
        o = np.lexsort((cx, rel[:, 0], -row, seg))
    x0, y0, x1, y1 = rel[o].T
    start = np.ones(len(o), dtype=bool)
    start[1:] = (row[o][1:] != row[o][:-1]) | ~(x0[1:] - x1[:-1] < paragraph_break)
    line = np.cumsum(start) - 1
    first = np.flatnonzero(start)
    top, bottom = y0[first][line], y1[first][line]
    mid, c = (top + bottom) / 2.0, cy[o]
    one_row = start | ((top < c) & (c < bottom)) | ((y0 < mid) & (mid < y1))
    split = np.zeros(len(offs) - 1, dtype=bool)
    split[seg[o][~one_row]] = True
    line_offs = np.concatenate([first, [len(o)]])
    cx = cx[o]
    ordered = (cx[1:] >= cx[:-1]) | start[1:]  # mostly ulx order is already cx order
    in_line = o if ordered.all() else o[np.lexsort((cx, line))]
    return in_line, line_offs, segment_bounds(rel[o], line_offs), split
