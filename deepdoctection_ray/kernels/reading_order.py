"""Reading-order kernels.

Row-local re-implementation of the reference's ordering logic
(``deepdoctection/src/deepdoctection/pipe/order.py``):

- ``group_words_into_lines`` — words → horizontal text lines, words sorted
  left-to-right within a line, lines top-to-bottom (``order.py:72-132``);
- ``order_blocks`` — text blocks → columns → consolidated columns → connected
  components → final block reading order (``order.py:201-386``);
- the default tolerances come from ``configs/conf_dd_one.yaml:146-167``.

All functions take numpy ``[N, 4]`` xyxy arrays and return orderings as index
lists, so a Ray ``map_batches`` stage can run them per turn without building
any annotation objects.
"""

from __future__ import annotations

import math

import numpy as np

from . import boxes as B

# conf_dd_one.yaml:146-167
STARTING_POINT_TOLERANCE = 0.005
BROKEN_LINE_TOLERANCE = 0.003
HEIGHT_TOLERANCE = 2.0
PARAGRAPH_BREAK = 0.035
IOA_COLUMN_THRESHOLD = 0.9  # order.py:68


def rel_centers(boxes: list[list[float]]) -> list[tuple[float, float]]:
    """(cx, cy) per relative box with BoundingBox's exact fixed-point float
    expression (``box.py:385-434``); hoist this out of repeated ordering calls."""
    scale = float(B.REL_SCALE)
    return [
        (
            b[0] + 0.5 * ((round(b[2] * scale) - round(b[0] * scale)) / scale),
            b[1] + 0.5 * ((round(b[3] * scale) - round(b[1] * scale)) / scale),
        )
        for b in boxes
    ]


def rel_center_arrays(rel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`rel_centers` over an ``[N, 4]`` array, bit-identical: ``np.rint``
    is Python ``round``'s half-to-even, and the register differences are
    exact integers below 2**53. Unlike ``round``, a NaN passes through."""
    scale = float(B.REL_SCALE)
    reg = np.rint(rel * scale)
    cx = rel[:, 0] + 0.5 * ((reg[:, 2] - reg[:, 0]) / scale)
    cy = rel[:, 1] + 0.5 * ((reg[:, 3] - reg[:, 1]) / scale)
    return cx, cy


def group_words_into_lines(
    word_boxes: np.ndarray,
    absolute: bool = True,
    centers: list[tuple[float, float]] | None = None,
) -> list[tuple[int, int, int]]:
    """Arrange word boxes into lines and produce a within-block reading order.

    Mirrors ``order.py:72-132``: greedy row assignment in input order (a word
    joins the first existing row whose vertical band contains its center, or
    whose center its own band contains; row bounds are fixed by the first word
    that opened the row), then a sort by (row-rank-by-top, center-x).

    ``absolute=False`` is the REAL-pipeline mode: after ``image_ann_to_image``
    every word's base-frame embedding is stored relative
    (``image.py:843-844``), so ``TextOrderService`` orders unrounded relative
    floats. ``absolute=True`` replicates ordering directly on absolute boxes
    (int-rounded centers, ``box.py:423-434``) for callers that skip the
    embedding step.

    Returns:
        One triple per word: ``(reading_order, line_no, word_index)`` where
        ``reading_order`` is 1-based over all words of the block, ``line_no``
        reproduces the reference's ``number_rows - original_row_index``
        numbering, and ``word_index`` indexes into ``word_boxes``.
    """
    n = word_boxes.shape[0] if hasattr(word_boxes, "shape") else len(word_boxes)
    if n == 0:
        return []
    # plain-python floats in the hot loop: per-element numpy indexing costs
    # ~1µs/access, which dominates for the typical 5-50-word turn
    boxes = word_boxes.tolist() if hasattr(word_boxes, "tolist") else list(word_boxes)
    # the exact float expressions matter at strict-comparison boundaries
    # (1-ulp differences flip row tests): relative centers come from the
    # INTEGER fixed-point registers (rel_centers, or the caller's)
    if centers is None and not absolute:
        centers = rel_centers(boxes)
    assigned: list[tuple[int, int, float]] = []  # (row_idx, word_idx, cx)
    rows: list[tuple[float, float]] = []  # (upper, lower), frozen at creation
    floor = math.floor
    for i in range(n):
        ulx, uly, lrx, lry = boxes[i]
        if centers is not None:
            cx, cy = centers[i]
        else:
            cx = ulx + 0.5 * (lrx - ulx)  # ints in float: exact
            cy = uly + 0.5 * (lry - uly)
        if absolute:
            # BoundingBox.cx/.cy round half-up to ints for absolute coords
            # (box.py:423-434); the row-membership comparisons see the
            # rounded centers
            cx = float(floor(cx + 0.5))
            cy = float(floor(cy + 0.5))
        placed = False
        for r, (upper, lower) in enumerate(rows):
            row_cy = (upper + lower) / 2.0
            if (upper < cy < lower) or (uly < row_cy < lry):
                assigned.append((r, i, cx))
                placed = True
                break
        if not placed:
            rows.append((uly, lry))
            assigned.append((len(rows) - 1, i, cx))

    # order.py:118-123 — the reference rebuilds ``rows_dict`` as
    # {rank: original_row_index} (sorted by row top) but then *indexes it by
    # the original row index*, i.e. it sorts by the INVERSE permutation.
    # Reproduce that exactly (verified by differential fuzz vs the reference).
    perm = [orig for orig, _ in sorted(enumerate(rows), key=lambda kv: kv[1][0])]
    assigned.sort(key=lambda t: (perm[t[0]], t[2]))
    n_rows = len(rows)
    return [(pos + 1, n_rows - row_idx, word_idx) for pos, (row_idx, word_idx, _) in enumerate(assigned)]


def order_lines(line_boxes: np.ndarray) -> list[int]:
    """Sort line boxes by vertical center — ``group_lines_into_lines``
    (``order.py:135-162``). Returns line indices in reading order."""
    if line_boxes.shape[0] == 0:
        return []
    cy = (line_boxes[:, 1] + line_boxes[:, 3]) / 2.0
    return sorted(range(line_boxes.shape[0]), key=lambda i: cy[i])


def _consolidate_columns(columns: list[list[float]], ioa_threshold: float) -> dict[int, int]:
    """Column merge map — ``order.py:332-349``.

    A column whose ioa with another exceeds the threshold maps to that other
    column's index; the remaining columns get fresh sequential ids (this is
    the reference's exact — slightly quirky — renumbering).
    """
    if not columns:
        return {}
    arr = np.array(columns, dtype=np.float64)
    mat = B.ioa_matrix(arr, arr).T  # [child, parent] = inter / area(child)
    np.fill_diagonal(mat, 0.0)
    child_idx, parent_idx = (mat > ioa_threshold).nonzero()
    mapping = {int(c): int(p) for c, p in zip(child_idx, parent_idx)}  # last parent wins
    fresh = 0
    for idx in range(len(columns)):
        if idx not in mapping:
            mapping[idx] = fresh
            fresh += 1
    return mapping


def _connected_components(columns: list[list[float]]) -> list[list[int]]:
    """Group columns into vertically-overlapping components — ``order.py:165-199``.

    Greedy in input order: a column joins the first component whose vertical
    extent overlaps it, stretching the component. Inside a component, columns
    sort by (ulx, uly) rounded to 2 decimals; components sort by top. The
    rounding mutates the column coords, exactly as the reference does.

    Returns the component-ordered list of column-index groups.
    """
    comps: list[dict] = []
    for idx, col in enumerate(columns):
        ulx, uly, lrx, lry = col
        hit = None
        for comp in comps:
            if (
                comp["top"] < uly < comp["bottom"]
                or comp["top"] < lry < comp["bottom"]
                or uly < comp["top"] < lry
                or uly < comp["bottom"] < lry
            ):
                hit = comp
                break
        if hit is not None:
            hit["top"] = min(hit["top"], uly)
            hit["bottom"] = max(hit["bottom"], lry)
            hit["members"].append(idx)
        else:
            comps.append({"top": uly, "bottom": lry, "members": [idx]})
        # reference re-sorts after every insertion, with 2-decimal rounding of
        # the upper-left corner (order.py:188-196); replicate including the
        # in-place coordinate rounding
        for comp in comps:
            for m in comp["members"]:
                columns[m][0] = round(columns[m][0], 2)
                columns[m][1] = round(columns[m][1], 2)
            comp["members"].sort(key=lambda m: (columns[m][0], columns[m][1]))
        comps.sort(key=lambda c: c["top"])
    return [c["members"] for c in comps]


def order_blocks(
    block_boxes_rel: np.ndarray,
    starting_point_tolerance: float = STARTING_POINT_TOLERANCE,
    broken_line_tolerance: float = BROKEN_LINE_TOLERANCE,
    height_tolerance: float = HEIGHT_TOLERANCE,
    ioa_column_threshold: float = IOA_COLUMN_THRESHOLD,
) -> list[int]:
    """Reading order of text blocks — ``order.py:201-330``.

    Args:
        block_boxes_rel: ``[N, 4]`` RELATIVE xyxy boxes (caller transforms with
            :func:`deepdoctection_ray.kernels.boxes.to_relative`).

    Returns:
        Block indices in reading order (position 0 reads first).
    """
    n = block_boxes_rel.shape[0]
    if n == 0:
        return []
    rel = block_boxes_rel.tolist()  # python floats: fast scalar access
    scale = float(B.REL_SCALE)
    centers = rel_centers(rel)
    scan = sorted(range(n), key=lambda i: (centers[i][1], centers[i][0]))  # order.py:231-236

    # greedy column building (order.py:237-291)
    block_to_col: list[tuple[int, int]] = []  # (column_idx, block_idx)
    columns: list[list[float]] = []  # mutable [ulx, uly, lrx, lry]
    for i in scan:
        bx0, by0, bx1, by1 = rel[i]
        height = (round(by1 * scale) - round(by0 * scale)) / scale  # register math
        placed = False
        for c, col in enumerate(columns):
            inside = (col[0] - starting_point_tolerance < bx0) and (
                bx1 < col[2] + starting_point_tolerance
            )
            contains = (bx0 - starting_point_tolerance < col[0]) and (
                col[2] < bx1 + starting_point_tolerance
            )
            broken = abs(bx0 - col[2]) < broken_line_tolerance
            near_below = abs(by0 - col[3]) < height_tolerance * height
            near_above = abs(by1 - col[1]) < height_tolerance * height
            if (inside or contains or broken) and (near_below or near_above):
                block_to_col.append((c, i))
                col[0] = min(bx0, col[0])
                col[1] = min(by0, col[1])
                col[2] = max(bx1, col[2])
                col[3] = max(by1, col[3])
                placed = True
                break
        if not placed:
            columns.append([bx0, by0, bx1, by1])
            block_to_col.append((len(columns) - 1, i))

    merge_map = _consolidate_columns(columns, ioa_column_threshold)

    # unique surviving columns in original-index order (order.py:295-298);
    # dedup by coordinate value, matching BoundingBox equality semantics
    surviving: list[list[float]] = []
    seen: list[tuple[float, ...]] = []
    for idx in range(len(columns)):
        target = columns[merge_map[idx]]
        key = tuple(target)
        if key not in seen:
            seen.append(key)
            surviving.append(target)

    block_to_col = [(merge_map.get(c, c), i) for c, i in block_to_col]  # order.py:300

    components = _connected_components(surviving)
    flat = [m for comp in components for m in comp]
    col_rank = {old: new for new, old in enumerate(flat)}  # order.py:303-306

    ranked = [(col_rank.get(c, merge_map.get(c)), i) for c, i in block_to_col]  # order.py:307
    ranked.sort(key=lambda t: (t[0] if t[0] is not None else -1))
    max_rank = max(col_rank.values())
    ordered: list[int] = []
    for rank in range(max_rank + 1):
        group = [i for r, i in ranked if r == rank]
        # within a column: sort by 2-decimal-rounded (uly, ulx); candidates kept
        # in the cy/cx scan order first, as the reference filters the scan-sorted
        # ann list (order.py:351-371)
        group_set = set(group)
        group_in_scan_order = [i for i in scan if i in group_set]
        group_in_scan_order.sort(key=lambda i: (round(rel[i][1], 2), round(rel[i][0], 2)))
        ordered.extend(group_in_scan_order)
    return ordered
