"""Layout-document payload → ordered text blocks: the full reference pipeline.

A ``layout`` payload carries detector output AND word geometry — the shape a
page has after deepdoctection's layout detector + OCR ran:

    {"page": {"width": W, "height": H},
     "blocks": [{"category": "title|text|list|table|figure|...",
                 "score": f, "x0": f, "top": f, "x1": f, "bottom": f}, ...],
     "words":  [{"text": str, "x0": f, "top": f, "x1": f, "bottom": f}, ...]}

The kernel replays the flagship component chain
(``analyzer/factory.py:1708-1807``):

1. per-category NMS over detected blocks (``AnnotationNmsService``,
   ``pipe/common.py:459-538`` / ``mapper/nms.py:64-127``) — overlapping
   detections of the same category suppress by score;
2. word→block assignment by ioa ≥ 0.3, arg-max parent only
   (``MatchingService``, ``conf_dd_one.yaml:183-187``);
3. unassigned words become synthetic LINE blocks with paragraph-break
   splitting (``TextOrderService.serve`` residual handling,
   ``pipe/order.py:738-748``);
4. reading order over the FLOATING text blocks only — text/title/list/
   key_value_area + synthetic lines (``IMAGE_DEFAULTS``, ``view.py:963-971``);
   table/figure/cell blocks are text blocks but not narrative, exactly like
   ``Page.text`` which only joins ``layouts`` with a reading order
   (``view.py:1318-1329``);
5. words ordered within each block (``group_words_into_lines``).
"""

from __future__ import annotations

import json

import numpy as np

from . import boxes as B
from .assemble import Block
from .matching import MATCH_IOA_THRESHOLD, match_by_ioa, nms
from .normalize import clean_token
from .reading_order import PARAGRAPH_BREAK, group_words_into_lines, order_blocks, rel_centers
from .textlines import make_text_lines

# view.py:963-971 — narrative-text block categories
FLOATING_CATEGORIES = frozenset({"text", "title", "list", "list_item", "key_value_area"})
# view.py:972-988 — categories that hold words but are not narrative
TEXT_BLOCK_CATEGORIES = FLOATING_CATEGORIES | frozenset(
    {"caption", "page_header", "page_footer", "page_number", "mark", "figure", "cell", "table"}
)
NMS_THRESHOLD = 0.5


def extract_layout(
    payload: str,
    match_threshold: float = MATCH_IOA_THRESHOLD,
    nms_threshold: float = NMS_THRESHOLD,
    paragraph_break: float = PARAGRAPH_BREAK,
    include_residuals: bool = True,
) -> list[Block]:
    doc = json.loads(payload)
    page = doc.get("page") or {}
    width = float(page.get("width", 612.0))
    height = float(page.get("height", 792.0))

    raw_blocks = doc.get("blocks") or []
    categories = [str(b.get("category", "text")) for b in raw_blocks]
    scores = np.array([float(b.get("score", 1.0)) for b in raw_blocks])
    block_boxes = (
        B.snap_abs(
            np.array(
                [[b["x0"], b["top"], b["x1"], b["bottom"]] for b in raw_blocks], dtype=np.float64
            )
        )
        if raw_blocks
        else np.empty((0, 4))
    )

    # 1. NMS within each category (conf_dd_one.yaml:9-56 pairs same-category
    # detectors; the priority mechanism is unused when one detector runs)
    keep_mask = np.zeros(len(raw_blocks), dtype=bool)
    for cat in set(categories):
        idx = np.array([i for i, c in enumerate(categories) if c == cat], dtype=np.int64)
        kept = nms(block_boxes[idx], scores[idx], nms_threshold)
        keep_mask[idx[kept]] = True
    surviving = np.nonzero(keep_mask)[0]

    words_raw = doc.get("words") or []
    texts: list[str] = []
    wb: list[list[float]] = []
    for w in words_raw:
        token = clean_token(str(w.get("text", "")))
        if not token:
            continue
        x0, top, x1, bottom = float(w["x0"]), float(w["top"]), float(w["x1"]), float(w["bottom"])
        if x0 >= width or top >= height or x1 >= width or bottom >= height:
            continue  # pipe/text.py:132-137
        texts.append(token)
        wb.append([x0, top, x1, bottom])
    word_boxes = B.snap_abs(np.array(wb, dtype=np.float64)) if wb else np.empty((0, 4))

    # rotation normalization before any geometry-dependent step
    # (SimpleTransformService analog, pipe/transform.py:33-113)
    rotation = int(page.get("rotation", 0))
    if rotation % 360:
        from .transforms import rotate_boxes, rotated_extent

        if block_boxes.shape[0]:
            block_boxes = rotate_boxes(block_boxes, rotation, width, height)
        if word_boxes.shape[0]:
            word_boxes = rotate_boxes(word_boxes, rotation, width, height)
        width, height = rotated_extent(rotation, width, height)

    # 2. word→block matching against surviving text blocks
    text_block_ids = [i for i in surviving if categories[i] in TEXT_BLOCK_CATEGORIES]
    children: dict[int, list[int]] = {i: [] for i in text_block_ids}
    assigned = np.zeros(word_boxes.shape[0], dtype=bool)
    if text_block_ids and word_boxes.shape[0]:
        parent_boxes = block_boxes[np.array(text_block_ids, dtype=np.int64)]
        c_idx, p_idx = match_by_ioa(parent_boxes, word_boxes, match_threshold)
        for c, p in zip(c_idx, p_idx):
            children[text_block_ids[int(p)]].append(int(c))
            assigned[int(c)] = True

    # ordering semantics run on RELATIVE coords: words/blocks carry relative
    # base-frame embeddings after image_ann_to_image (image.py:843-844)
    word_rel = (
        B.to_relative(word_boxes, width, height) if word_boxes.shape[0] else word_boxes
    )
    word_rel_list = word_rel.tolist() if word_boxes.shape[0] else []
    word_centers = rel_centers(word_rel_list)

    # 3. residual words → synthetic lines
    residual = np.nonzero(~assigned)[0]
    line_entries: list[tuple[np.ndarray, list[int]]] = []
    if include_residuals and residual.size:
        res_idx = [int(r) for r in residual]
        lines = make_text_lines(
            [word_rel_list[r] for r in res_idx], 1.0, 1.0, True, paragraph_break,
            absolute=False, centers=[word_centers[r] for r in res_idx],
        )
        line_entries = [(box, [res_idx[m] for m in members]) for box, members, _ in lines]

    # 4. reading order over floating blocks + lines (relative coords)
    floats: list[tuple[str, np.ndarray, list[int]]] = []  # (category, rel box, word ids)
    for i in surviving:
        if categories[i] in FLOATING_CATEGORIES:
            floats.append(
                (categories[i], B.to_relative(block_boxes[i : i + 1], width, height)[0], children.get(i, []))
            )
    for box, members in line_entries:
        floats.append(("line", box, members))
    if not floats:
        return []
    float_boxes = np.stack([f[1] for f in floats])
    order = order_blocks(float_boxes)

    # 5. word order within each block
    out: list[Block] = []
    for fi in order:
        category, box, members = floats[fi]
        if not members:
            continue  # a block with no words contributes nothing to the text
        word_order = group_words_into_lines(
            [word_rel_list[m] for m in members], absolute=False,
            centers=[word_centers[m] for m in members],
        )
        out.append(
            Block(
                category=category,
                words=[texts[members[t[2]]] for t in word_order],
                bbox=tuple(float(v) for v in box),
            )
        )
    return out
