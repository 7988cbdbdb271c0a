"""PDF text-layer payload → ordered text blocks.

A ``pdfish`` transcript payload is the JSON shape a pdfplumber-style miner
emits (reference ``extern/pdftext.py:41-47``):

    {"page": {"width": W, "height": H},
     "words": [{"text": str, "x0": f, "top": f, "x1": f, "bottom": f}, ...]}

The kernel replays the flagship pipeline's miner-only configuration
(``analyzer/factory.py:1766-1776`` — no layout detector, so every word is a
residual text container):

1. out-of-page-bounds words are skipped (``pipe/text.py:132-137``: any
   coordinate ≥ page width/height drops the word);
2. boxes snap to ints with the reference's half-up/half-down construction
   rounding (``box.py:268-276``);
3. synthetic LINEs are built with sub-line splitting at ``paragraph_break``
   (``TextLineGenerator``, ``order.py:389-524``);
4. lines act as floating text blocks and get a reading order via
   ``order_blocks`` (``order.py:201-330``);
5. words are ordered within each line via ``group_words_into_lines``
   (``order.py:72-132``) — the order ``make_text_lines`` already computed.

JSON is decoded per turn; the bounds filter, snapping, the relative
transform and the fixed-point centers run once over the flat words of a
whole batch (elementwise IEEE operations, so bit-identical to a per-turn
run); line building and block ordering stay per turn.
"""

from __future__ import annotations

import json
import math
from itertools import compress

import numpy as np

from . import boxes as B
from .assemble import Block
from .normalize import clean_token
from .reading_order import PARAGRAPH_BREAK, order_blocks, rel_center_arrays
from .textlines import make_text_lines
from .transforms import estimate_skew_angle, rotate_boxes, rotate_boxes_by_degrees, rotated_extent

DESKEW_MIN_ANGLE = 0.5  # degrees; a smaller estimated skew is left alone


def _decode(payload: str) -> tuple[list[str], list[float], float, float, int]:
    """JSON → (cleaned tokens, flat ``x0, top, x1, bottom`` coords, width,
    height, rotation) of every word with a non-empty token; the bounds
    filter runs batch-wide."""
    doc = json.loads(payload)
    page = doc.get("page") or {}
    width = float(page.get("width", 612.0))
    height = float(page.get("height", 792.0))
    rotation = int(page.get("rotation", 0))
    tokens: list[str] = []
    coords: list[float] = []
    for w in doc.get("words") or []:
        x0, top, x1, bottom = float(w["x0"]), float(w["top"]), float(w["x1"]), float(w["bottom"])
        if "text" in w:
            token = clean_token(str(w["text"]))
        elif x0 >= width or top >= height or x1 >= width or bottom >= height:
            continue  # out of bounds: the filter drops it unread
        else:
            raise KeyError("text")
        if token:
            tokens.append(token)
            coords += (x0, top, x1, bottom)
    return tokens, coords, width, height, rotation


def _reframe(
    boxes: np.ndarray, width: float, height: float, rotation: int, deskew: bool
) -> tuple[np.ndarray, float, float]:
    """One page's right-angle rotation, then its opt-in skew correction."""
    if rotation % 360:
        boxes = rotate_boxes(boxes, rotation, width, height)
        width, height = rotated_extent(rotation, width, height)
    if deskew and boxes.shape[0] >= 3:
        angle = estimate_skew_angle(boxes)
        if abs(angle) >= DESKEW_MIN_ANGLE:
            boxes = rotate_boxes_by_degrees(boxes, angle, width, height)
    return boxes, width, height


def blocks_from_words(
    texts: list[str],
    rel: list[list[float]],
    centers: list[tuple[float, float]],
    paragraph_break: float = PARAGRAPH_BREAK,
) -> list[Block]:
    """One page's words (RELATIVE boxes and their fixed-point centers) →
    reading-ordered line blocks (steps 3–5 above)."""
    lines = make_text_lines(rel, 1.0, 1.0, True, paragraph_break, absolute=False, centers=centers)
    line_order = order_blocks(np.stack([box for box, _, _ in lines]))
    return [
        Block(
            category="line",
            words=[texts[m] for m in lines[li][2]],
            bbox=tuple(lines[li][0].tolist()),
        )
        for li in line_order
    ]


def pdfish_blocks(
    payloads: list[str],
    paragraph_break: float = PARAGRAPH_BREAK,
    deskew: bool = False,
) -> tuple[list[list[Block]], list[Exception | None]]:
    """Full pdfish path for a batch: JSON → filtered words → (rotation) →
    ordered blocks, plus the exception that dead-lettered each turn.

    A ``page.rotation`` of 90/180/270 marks content that must be rotated CCW
    by that angle to restore reading orientation — the
    ``SimpleTransformService`` analog (``pipe/transform.py:33-113``): the
    rotation is applied to the coordinates before any ordering runs.

    ``deskew`` is the OPT-IN variant (``USE_DESKEW`` in the analyzer
    config): after the right-angle rotation, the residual small-angle skew
    is ESTIMATED from the word geometry (projection profile + per-line
    regression, ``transforms.estimate_skew_angle``) and applied before any
    ordering runs — the angle estimation the reference delegates to its
    deskew predictor (``extern/deskew.py:37``). It is off by default because
    the default pipeline is pinned bit-exact against the reference, which
    does not deskew unless configured.
    """
    blocks: list[list[Block]] = [[] for _ in payloads]
    errors: list[Exception | None] = [None] * len(payloads)
    rows: list[int] = []
    pages: list[tuple[float, float, int]] = []
    counts: list[int] = []
    tokens: list[str] = []
    coords: list[float] = []
    for row, payload in enumerate(payloads):
        try:
            toks, xy, width, height, rotation = _decode(payload)
        except Exception as exc:
            errors[row] = exc
            continue
        rows.append(row)
        pages.append((width, height, rotation))
        counts.append(len(toks))
        tokens += toks
        coords += xy
    if not rows:
        return blocks, errors

    boxes = np.array(coords, dtype=np.float64).reshape(-1, 4)
    extent = np.repeat(np.array(pages, dtype=np.float64)[:, [0, 1, 0, 1]], counts, axis=0)
    # page-bounds filter, pipe/text.py:132-137: any coordinate ≥ the page
    # extent drops the word (a NaN coordinate compares False and stays)
    keep = ~(boxes >= extent).any(axis=1)
    offs = np.concatenate([[0], np.cumsum(keep)])[np.concatenate([[0], np.cumsum(counts)])]
    boxes, extent = B.snap_abs(boxes[keep]), extent[keep]
    tokens = list(compress(tokens, keep))
    offs = offs.tolist()

    for t, (row, (page_w, page_h, rotation)) in enumerate(zip(rows, pages)):
        s, e = offs[t], offs[t + 1]
        if e > s and (rotation % 360 or deskew):
            try:
                boxes[s:e], width, height = _reframe(boxes[s:e], page_w, page_h, rotation, deskew)
                extent[s:e] = (width, height, width, height)
            except Exception as exc:
                errors[row] = exc

    # ordering runs on RELATIVE coords: after image_ann_to_image every word's
    # base-frame embedding is relative (image.py:843-844), so the real
    # pipeline's line grouping sees unrounded relative floats
    rel = B.to_relative(boxes, extent[:, 0], extent[:, 1])
    cx, cy = rel_center_arrays(rel)
    nan_turns = set()
    if math.isnan(rel.sum()):  # the per-word centers' Python round() rejects NaN
        nan_turns = set((np.searchsorted(offs, np.flatnonzero(np.isnan(cx + cy)), "right") - 1).tolist())
    rel_list = rel.tolist()
    centers = list(zip(cx.tolist(), cy.tolist()))
    for t, row in enumerate(rows):
        s, e = offs[t], offs[t + 1]
        if e == s or errors[row] is not None:
            continue
        if t in nan_turns:
            errors[row] = ValueError("cannot convert float NaN to integer")
            continue
        try:
            blocks[row] = blocks_from_words(
                tokens[s:e], rel_list[s:e], centers[s:e], paragraph_break
            )
        except Exception as exc:
            errors[row] = exc
    return blocks, errors


def extract_pdfish(payload: str, paragraph_break: float = PARAGRAPH_BREAK) -> list[Block]:
    """:func:`pdfish_blocks` for one payload; raises its dead-letter error."""
    [blocks], [error] = pdfish_blocks([payload], paragraph_break)
    if error is not None:
        raise error
    return blocks
