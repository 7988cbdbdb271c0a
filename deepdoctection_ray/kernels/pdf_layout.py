"""Page payload → ordered text blocks: the one page kernel.

A page payload is the JSON shape a pdfplumber-style miner emits
(reference ``extern/pdftext.py:41-47``), optionally with layout-detector
output — the shape a page has after deepdoctection's detector + OCR ran:

    {"page": {"width": W, "height": H, "rotation": R},
     "blocks": [{"category": "title|text|list|table|figure|...",
                 "score": f, "x0": f, "top": f, "x1": f, "bottom": f}, ...],
     "words":  [{"text": str, "x0": f, "top": f, "x1": f, "bottom": f}, ...]}

A page with a ``"blocks"`` key is a ``layout`` page, one without is a
``pdfish`` page. Both replay the flagship component chain
(``analyzer/factory.py:1708-1807``); the miner-only configuration
(``analyzer/factory.py:1766-1776``) is the same chain with the detector off,
so a pdfish page is a layout page with no detected blocks:

1. out-of-page-bounds words are skipped (``pipe/text.py:132-137``: any
   coordinate ≥ page width/height drops the word);
2. boxes snap to ints with the reference's half-up/half-down construction
   rounding (``box.py:268-276``);
3. per-category NMS over detected blocks (``AnnotationNmsService``,
   ``pipe/common.py:459-538`` / ``mapper/nms.py:64-127``);
4. word→block assignment by ioa ≥ 0.3, arg-max parent only
   (``MatchingService``, ``conf_dd_one.yaml:183-187``);
5. unassigned words become synthetic LINEs with sub-line splitting at
   ``paragraph_break`` (``TextLineGenerator``, ``order.py:389-524``;
   ``TextOrderService`` residual handling, ``pipe/order.py:738-748``);
6. reading order over the FLOATING blocks only — text/title/list/
   key_value_area + synthetic lines (``IMAGE_DEFAULTS``, ``view.py:963-971``)
   via ``order_blocks`` (``order.py:201-330``); table/figure/cell blocks take
   their words but are not narrative, exactly like ``Page.text``
   (``view.py:1318-1329``);
7. words ordered within each block by ``group_words_into_lines``
   (``order.py:72-132``); a line's order is the one ``make_text_lines``
   already computed.

JSON is decoded, and NMS and rotation run, per page; the bounds filter,
snapping, the relative transform and the fixed-point centers run once over
the flat words of a whole batch (elementwise IEEE operations, so
bit-identical to a per-page run). Steps 4–7 run batch-wide too
(:func:`_layout_batch`): matching over padded per-page block rows, the row
pass, line building and the in-block word order over runs of words keyed by
run id (``reading_order.batch_row_openers``, ``textlines.batch_lines``),
and block ordering over all pages at once
(``reading_order.batch_order_blocks``). The per-page chain
(:func:`_layout_blocks`) is their differential oracle; it also lays out a
batch of fewer than :data:`BATCH_MIN_PAGES` pages, where the batch passes'
fixed cost exceeds their saving, and any page the batch passes leave to it.
"""

from __future__ import annotations

import json
import math
from itertools import chain, compress
from operator import itemgetter

import numpy as np

from . import boxes as B
from .assemble import Block
from .grams import ranges
from .matching import match_by_ioa, match_rows_by_ioa, nms
from .normalize import clean_token
from .reading_order import (
    PARAGRAPH_BREAK,
    batch_group_order,
    batch_order_blocks,
    batch_row_openers,
    group_words_into_lines,
    order_blocks,
    rel_center_arrays,
)
from .textlines import batch_lines, make_text_lines
from .transforms import estimate_skew_angle, rotate_boxes, rotate_boxes_by_degrees, rotated_extent

DESKEW_MIN_ANGLE = 0.5  # degrees; a smaller estimated skew is left alone
NMS_THRESHOLD = 0.5
# below this many pages a batch runs the per-page chain: the batch passes'
# fixed cost (measured about 1.7 ms) exceeds what they save per page
BATCH_MIN_PAGES = 8
# view.py:963-971 — narrative-text block categories
FLOATING_CATEGORIES = frozenset({"text", "title", "list", "list_item", "key_value_area"})
# view.py:972-988 — categories that hold words but are not narrative
TEXT_BLOCK_CATEGORIES = FLOATING_CATEGORIES | frozenset(
    {"caption", "page_header", "page_footer", "page_number", "mark", "figure", "cell", "table"}
)

Detected = tuple[list[str], np.ndarray]  # a page's surviving block categories and boxes
NO_BLOCKS: Detected = ([], np.empty((0, 4)))


def _detected(raw_blocks: list[dict], nms_threshold: float) -> Detected:
    """Detected blocks → the categories and snapped boxes that survive NMS
    within their category (``conf_dd_one.yaml:9-56`` pairs same-category
    detectors; the priority mechanism is unused when one detector runs)."""
    if not raw_blocks:
        return NO_BLOCKS
    categories = [str(b.get("category", "text")) for b in raw_blocks]
    scores = np.array([float(b.get("score", 1.0)) for b in raw_blocks])
    boxes = B.snap_abs(
        np.array([[b["x0"], b["top"], b["x1"], b["bottom"]] for b in raw_blocks], dtype=np.float64)
    )
    keep = np.zeros(len(raw_blocks), dtype=bool)
    for cat in set(categories):
        idx = np.array([i for i, c in enumerate(categories) if c == cat], dtype=np.int64)
        keep[idx[nms(boxes[idx], scores[idx], nms_threshold)]] = True
    return list(compress(categories, keep)), boxes[keep]


_TEXT = itemgetter("text")
_COORDS = itemgetter("x0", "top", "x1", "bottom")


def _decode(
    payload: str, nms_threshold: float
) -> tuple[list[str], list[float], float, float, int, Detected | None]:
    """JSON → (cleaned tokens, flat ``x0, top, x1, bottom`` coords, width,
    height, rotation) of every word with a non-empty token, plus the page's
    detected blocks (``None`` without a ``"blocks"`` key); the bounds filter
    runs batch-wide."""
    doc = json.loads(payload)
    page = doc.get("page") or {}
    width = float(page.get("width", 612.0))
    height = float(page.get("height", 792.0))
    rotation = int(page.get("rotation", 0))
    detected = _detected(doc.get("blocks") or [], nms_threshold) if "blocks" in doc else None
    words = doc.get("words") or []
    try:  # the common page: every word has a str text and float coordinates
        texts = list(map(_TEXT, words))
        joined = "".join(texts)
        coords = list(map(float, chain.from_iterable(map(_COORDS, words))))
    except Exception:
        texts = []
    # one check for the page: no empty token, no control character anywhere
    if texts and all(texts) and clean_token(joined) is joined:
        return texts, coords, width, height, rotation, detected
    tokens: list[str] = []
    coords = []
    for w in words:
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
    return tokens, coords, width, height, rotation, detected


def _reframe(
    words: np.ndarray, blocks: np.ndarray, width: float, height: float, rotation: int, deskew: bool
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """One page's right-angle rotation of its words and detected blocks, then
    the opt-in skew correction of its words."""
    if rotation % 360:
        words, blocks = (
            rotate_boxes(b, rotation, width, height) if b.shape[0] else b for b in (words, blocks)
        )
        width, height = rotated_extent(rotation, width, height)
    if deskew and words.shape[0] >= 3:
        angle = estimate_skew_angle(words)
        if abs(angle) >= DESKEW_MIN_ANGLE:
            words = rotate_boxes_by_degrees(words, angle, width, height)
    return words, blocks, width, height


def _layout_blocks(
    texts: list[str],
    boxes: np.ndarray,
    rel: list[list[float]],
    centers: list[tuple[float, float]],
    detected: Detected,
    width: float,
    height: float,
    paragraph_break: float = PARAGRAPH_BREAK,
) -> list[Block]:
    """One page's words (absolute boxes, RELATIVE boxes and their fixed-point
    centers) and surviving detected blocks → reading-ordered blocks (steps
    4–7 above)."""
    categories, block_boxes = detected
    text_ids = [i for i, c in enumerate(categories) if c in TEXT_BLOCK_CATEGORIES]
    floats: list[tuple[str, np.ndarray, list[str]]] = []  # (category, rel box, ordered words)
    residual = range(len(texts))
    if text_ids:
        children: dict[int, list[int]] = {i: [] for i in text_ids}
        c_idx, p_idx = match_by_ioa(block_boxes[text_ids], boxes)
        for c, p in zip(c_idx.tolist(), p_idx.tolist()):
            children[text_ids[p]].append(c)
        residual = np.setdiff1d(residual, c_idx).tolist()
        float_ids = [i for i in text_ids if categories[i] in FLOATING_CATEGORIES]
        for i, box in zip(float_ids, B.to_relative(block_boxes[float_ids], width, height)):
            members = children[i]
            order = group_words_into_lines(
                [rel[m] for m in members], absolute=False, centers=[centers[m] for m in members]
            )
            floats.append((categories[i], box, [texts[members[t[2]]] for t in order]))
    lines = make_text_lines(
        [rel[r] for r in residual], 1.0, 1.0, True, paragraph_break,
        absolute=False, centers=[centers[r] for r in residual],
    )
    floats += [("line", box, [texts[residual[m]] for m in in_line]) for box, _, in_line in lines]
    if not floats:
        return []
    return [
        Block(category=category, words=words, bbox=tuple(box.tolist()))
        for category, box, words in (floats[i] for i in order_blocks(np.stack([f[1] for f in floats])))
        if words  # a block with no words contributes nothing to the text
    ]


def _layout_batch(
    tokens: np.ndarray,
    boxes: np.ndarray,
    rel: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    offs: np.ndarray,
    detections: list[Detected],
    pages: list[tuple[float, float, int]],
    live: list[int],
    paragraph_break: float = PARAGRAPH_BREAK,
) -> list[list[Block] | None]:
    """Steps 4–7 for the pages ``live`` (words ``offs[t]:offs[t + 1]``) at
    once: what :func:`_layout_blocks` gives page by page, from whole-batch
    passes keyed by run and page ids. A page comes back ``None`` when it is
    left to :func:`_layout_blocks`: a sub-line spans rows, a run exceeds the
    row pass's pair budget, or a floating block's box is NaN (the per-page
    ``order_blocks`` raises on it)."""
    n_pages = len(live)
    n = offs[np.add(live, 1)] - offs[live]
    words = np.repeat(offs[live], n) + ranges(n)
    page = np.repeat(np.arange(n_pages), n)

    # step 4: each word's arg-max text block by ioa, among its page's
    t_page, t_cat, t_box = [], [], []
    for p, t in enumerate(live):
        categories, block_boxes = detections[t]
        ids = [i for i, c in enumerate(categories) if c in TEXT_BLOCK_CATEGORIES]
        if ids:
            t_page += [p] * len(ids)
            t_cat += [categories[i] for i in ids]
            t_box.append(block_boxes[ids])
    t_page = np.array(t_page, dtype=np.int64)
    t_box = np.concatenate(t_box) if t_box else np.empty((0, 4))
    per_page = np.bincount(t_page, minlength=n_pages)
    parent = np.full(len(words), -1)
    matched = np.flatnonzero(per_page[page] > 0)
    if matched.size:
        padded = np.zeros((n_pages, per_page.max(), 4))
        padded[t_page, ranges(per_page)] = t_box
        valid = np.arange(per_page.max()) < per_page[:, None]
        slot = match_rows_by_ioa(padded[page[matched]], valid[page[matched]], boxes[words[matched]])
        first = np.cumsum(per_page) - per_page
        parent[matched] = np.where(slot < 0, -1, first[page[matched]] + slot)

    # steps 5 and 7: rows of every floating block's words and of every
    # page's residual words in one pass, then block word order and lines
    floating = np.flatnonzero([c in FLOATING_CATEGORIES for c in t_cat]).astype(np.int64)
    members = np.flatnonzero(np.isin(parent, floating))
    members = members[np.argsort(parent[members], kind="stable")]
    residual = np.flatnonzero(parent < 0)
    f_offs = np.concatenate([[0], np.cumsum(np.bincount(parent[members], minlength=len(t_cat))[floating])])
    r_counts = np.bincount(page[residual], minlength=n_pages)
    r_offs = np.concatenate([[0], np.cumsum(r_counts)])
    k = len(members)
    elems = words[np.concatenate([members, residual])]
    opener, fit = batch_row_openers(
        np.concatenate([f_offs, k + r_offs[1:]]), rel[elems, 1], rel[elems, 3], cy[elems]
    )
    f_words = elems[:k][batch_group_order(f_offs, rel[elems[:k], 1], cx[elems[:k]], opener[:k])]
    res = elems[k:]
    in_line, l_offs, l_boxes, split = batch_lines(
        r_offs, rel[res], cx[res], cy[res], opener[k:] - k, paragraph_break
    )
    f_page = t_page[floating]
    extent = np.array([pages[t][:2] for t in live]).reshape(-1, 2)[f_page]
    f_boxes = B.to_relative(t_box[floating], extent[:, 0], extent[:, 1])
    declined = ~fit[len(floating) :] | split
    declined[f_page[~fit[: len(floating)] | np.isnan(f_boxes).any(1)]] = True

    # step 6: each page's floating blocks, then its lines, in reading order
    b_page = np.concatenate([f_page, np.repeat(np.arange(n_pages), r_counts)[in_line[l_offs[:-1]]]])
    b_offs = np.concatenate([f_offs, k + l_offs[1:]])
    b_box = np.concatenate([f_boxes, l_boxes])
    b_cat = [t_cat[i] for i in floating.tolist()] + ["line"] * (len(l_offs) - 1)
    kept = np.flatnonzero(~declined[b_page])
    kept = kept[np.argsort(b_page[kept], kind="stable")]
    kept_offs = np.concatenate([[0], np.cumsum(np.bincount(b_page[kept], minlength=n_pages))])
    order = kept[batch_order_blocks(b_box[kept], kept_offs)]
    order = order[b_offs[order + 1] > b_offs[order]]  # a block with no words adds no text
    texts = tokens[np.concatenate([f_words, res[in_line]])].tolist()
    made = list(map(
        Block,
        [b_cat[b] for b in order.tolist()],
        [texts[s:e] for s, e in zip(b_offs[order].tolist(), b_offs[order + 1].tolist())],
        zip(*b_box[order].T.tolist()),
    ))
    counts = np.bincount(b_page[order], minlength=n_pages)
    ends = np.cumsum(counts).tolist()
    return [None if d else made[e - c : e] for d, e, c in zip(declined.tolist(), ends, counts.tolist())]


def pdfish_blocks(
    payloads: list[str],
    paragraph_break: float = PARAGRAPH_BREAK,
    deskew: bool = False,
    nms_threshold: float = NMS_THRESHOLD,
) -> tuple[list[list[Block]], list[str | None], list[Exception | None]]:
    """Full page path for a batch: JSON → filtered words (and NMS-surviving
    blocks) → (rotation) → ordered blocks, plus each page's kind from its
    decoded keys (``layout`` with a ``"blocks"`` key, else ``pdfish``;
    ``None`` when it did not decode) and the exception that dead-lettered it.

    A ``page.rotation`` of 90/180/270 marks content that must be rotated CCW
    by that angle to restore reading orientation — the
    ``SimpleTransformService`` analog (``pipe/transform.py:33-113``): the
    rotation is applied to the coordinates before any ordering runs.

    ``deskew`` is the OPT-IN variant (``USE_DESKEW`` in the analyzer
    config) for pages without a ``"blocks"`` key: after the right-angle
    rotation, the residual small-angle skew is ESTIMATED from the word
    geometry (projection profile + per-line regression,
    ``transforms.estimate_skew_angle``) and applied before any ordering runs
    — the angle estimation the reference delegates to its deskew predictor
    (``extern/deskew.py:37``). It is off by default because the default
    pipeline is pinned bit-exact against the reference, which does not
    deskew unless configured.
    """
    blocks: list[list[Block]] = [[] for _ in payloads]
    kinds: list[str | None] = [None] * len(payloads)
    errors: list[Exception | None] = [None] * len(payloads)
    rows: list[int] = []
    pages: list[tuple[float, float, int]] = []
    detections: list[Detected] = []
    counts: list[int] = []
    tokens: list[str] = []
    coords: list[float] = []
    for row, payload in enumerate(payloads):
        try:
            toks, xy, width, height, rotation, detected = _decode(payload, nms_threshold)
        except Exception as exc:
            errors[row] = exc
            continue
        kinds[row] = "pdfish" if detected is None else "layout"
        rows.append(row)
        pages.append((width, height, rotation))
        detections.append(detected or NO_BLOCKS)
        counts.append(len(toks))
        tokens += toks
        coords += xy
    if not rows:
        return blocks, kinds, errors

    boxes = np.array(coords, dtype=np.float64).reshape(-1, 4)
    extent = np.repeat(np.array(pages, dtype=np.float64)[:, [0, 1, 0, 1]], counts, axis=0)
    # page-bounds filter, pipe/text.py:132-137: any coordinate ≥ the page
    # extent drops the word (a NaN coordinate compares False and stays)
    keep = ~(boxes >= extent).any(axis=1)
    offs = np.concatenate([[0], np.cumsum(keep)])[np.concatenate([[0], np.cumsum(counts)])]
    boxes, extent = B.snap_abs(boxes[keep]), extent[keep]
    tokens = np.array(tokens, dtype=object)[keep]
    offs = offs.tolist()

    for t, (row, (page_w, page_h, rotation), (categories, block_boxes)) in enumerate(
        zip(rows, pages, detections)
    ):
        s, e = offs[t], offs[t + 1]
        skew = deskew and kinds[row] == "pdfish"  # never a page with a "blocks" key
        if (e > s or categories) and (rotation % 360 or skew):
            try:
                boxes[s:e], block_boxes, width, height = _reframe(
                    boxes[s:e], block_boxes, page_w, page_h, rotation, skew
                )
                extent[s:e] = (width, height, width, height)
                pages[t] = (width, height, rotation)
                detections[t] = (categories, block_boxes)
            except Exception as exc:
                errors[row] = exc

    # ordering runs on RELATIVE coords: after image_ann_to_image every
    # embedding is relative (image.py:843-844), so the real pipeline's
    # ordering sees unrounded relative floats
    rel = B.to_relative(boxes, extent[:, 0], extent[:, 1])
    cx, cy = rel_center_arrays(rel)
    nan_turns = set()
    if math.isnan(rel.sum()):  # the per-word centers' Python round() rejects NaN
        nan_turns = set((np.searchsorted(offs, np.flatnonzero(np.isnan(cx + cy)), "right") - 1).tolist())
    live = []
    for t, row in enumerate(rows):
        if errors[row] is not None or (offs[t + 1] == offs[t] and not detections[t][0]):
            continue
        if t in nan_turns:
            errors[row] = ValueError("cannot convert float NaN to integer")
        else:
            live.append(t)
    laid: list[list[Block] | None] = []
    if len(live) >= BATCH_MIN_PAGES:
        try:
            laid = _layout_batch(
                tokens, boxes, rel, cx, cy, np.array(offs), detections, pages, live, paragraph_break
            )
        except Exception:  # the per-page chain below dead-letters only a page that fails
            laid = []
    for t, page_blocks in zip(live, laid + [None] * (len(live) - len(laid))):
        s, e = offs[t], offs[t + 1]
        try:
            blocks[rows[t]] = page_blocks if page_blocks is not None else _layout_blocks(
                tokens[s:e].tolist(), boxes[s:e], rel[s:e].tolist(),
                list(zip(cx[s:e].tolist(), cy[s:e].tolist())), detections[t], *pages[t][:2], paragraph_break,
            )
        except Exception as exc:
            errors[rows[t]] = exc
    return blocks, kinds, errors


def extract_layout(
    payload: str, nms_threshold: float = NMS_THRESHOLD, paragraph_break: float = PARAGRAPH_BREAK
) -> list[Block]:
    """:func:`pdfish_blocks` for one payload; raises its dead-letter error."""
    [blocks], _, [error] = pdfish_blocks([payload], paragraph_break, nms_threshold=nms_threshold)
    if error is not None:
        raise error
    return blocks


def extract_pdfish(payload: str, paragraph_break: float = PARAGRAPH_BREAK) -> list[Block]:
    """:func:`extract_layout` with the default NMS threshold."""
    return extract_layout(payload, paragraph_break=paragraph_break)
