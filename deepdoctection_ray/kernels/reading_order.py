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
from .grams import ranges

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


# --- batch forms: every run / page of a batch in whole-array passes --------

PAIR_BUDGET = 1 << 20  # row-test pairs per run: bounds the row pass's memory


def grid_pos(values: np.ndarray) -> np.ndarray:
    """``2k`` for a value ON the relative fixed-point grid (``k / REL_SCALE``,
    what :func:`boxes.snap_rel` gives), else the odd integer between its two
    grid neighbours. A strict comparison of a grid value against any value
    in [0, 1] is the same comparison of these integers: grid values sit
    1e-8 apart, far beyond a float's rounding there, and the one float
    comparison that decides the odd side is done exactly."""
    k = np.rint(values * B.REL_SCALE)
    return (2 * k + np.sign(values - k / B.REL_SCALE)).astype(np.int64)


def batch_row_openers(
    offs: np.ndarray, uly: np.ndarray, lry: np.ndarray, cy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`group_words_into_lines`' greedy rows for every run
    ``offs[s]:offs[s + 1]`` of relative word boxes at once: the element that
    opened each element's row (itself for an opener), and per run whether
    its row test passes for at most :data:`PAIR_BUDGET` word pairs (in a
    run that does not, every word opens its own row: its page is left to
    the per-page chain).

    A row's band is fixed by the word that opened it, so a word opens a row
    iff no earlier OPENER's row takes it, and joins the first opener's row
    that does. The pairs that pass the row test — the later word's center
    inside the earlier one's band, or the earlier band's middle inside the
    later word's — come from two interval joins on one sorted integer key
    (run, :func:`grid_pos`), so only passing pairs are ever built. The
    recursion is then a fixed point over them: from "every word opens",
    each pass fixes at least one more word of every run, and the first pass
    that changes nothing is the answer (the fixed point is unique)."""
    n = np.diff(offs)
    size = len(cy)
    run = np.repeat(np.arange(len(n)), n)
    key_cy, key_mid, key_up, key_low = (
        (run << 32) + grid_pos(np.stack([cy, (uly + lry) / 2.0, uly, lry]))
    )
    up_order, low_order = np.argsort(key_up), np.argsort(key_low)
    joins = []
    for points in (key_cy, key_mid):  # (band owner, point) pairs, band strictly around the point
        order = np.argsort(points)
        start, stop = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
        start[up_order] = np.searchsorted(points[order], key_up[up_order], "right")
        stop[low_order] = np.searchsorted(points[order], key_low[low_order], "left")
        joins.append((order, start, np.maximum(stop - start, 0)))
    fit = np.bincount(run, weights=joins[0][2] + joins[1][2], minlength=len(n)) <= PAIR_BUDGET
    sides = []
    for order, start, count in joins:
        count = np.where(fit[run], count, 0)
        sides.append((np.repeat(np.arange(size), count), order[np.repeat(start, count) + ranges(count)]))
    (band_i, j_a), (band_j, i_b) = sides  # the band is the earlier word's, then the later word's
    i, j = np.concatenate([band_i, i_b]), np.concatenate([j_a, band_j])
    earlier = i < j
    opens = np.ones(size, dtype=bool)
    while True:
        nxt = np.bincount(j, weights=opens[i] & earlier, minlength=size) == 0
        if np.array_equal(nxt, opens):
            break
        opens = nxt
    opener = np.arange(size)
    np.minimum.at(opener, j, np.where(opens[i] & earlier, i, j))  # a word's first opener
    return opener, fit


def row_ids(opener: np.ndarray) -> np.ndarray:
    """Each element's row as a batch-wide id, numbered in row-creation order
    run by run (``opener`` from :func:`batch_row_openers`)."""
    return (np.cumsum(opener == np.arange(len(opener))) - 1)[opener]


def batch_group_order(offs: np.ndarray, uly: np.ndarray, cx: np.ndarray, opener: np.ndarray) -> np.ndarray:
    """Element order of :func:`group_words_into_lines` for every run at once:
    by run, then the row key the reference sorts by (the row at the rank
    position of the word's own row index — the inverse-permutation quirk
    above), then ``cx``, ties in input order."""
    seg = np.repeat(np.arange(len(offs) - 1), np.diff(offs))
    openers = np.flatnonzero(opener == np.arange(len(opener)))
    by_top = np.lexsort((uly[openers], seg[openers]))  # row ids, each run's rows by top
    return np.lexsort((cx, by_top[row_ids(opener)], seg))


def _round2(values: np.ndarray) -> np.ndarray:
    """Python's correctly rounded ``round(x, 2)`` elementwise. ``np.round``
    (``rint(x * 100) / 100``) agrees unless ``x * 100`` lies near a .5 tie
    (or ``x`` is huge or not finite): only those take the Python call."""
    out = np.round(values, 2)
    near = ~((np.abs(values * 100.0 % 1.0 - 0.5) > 1e-6) & (np.abs(values) < 1e6))
    out[near] = [round(v, 2) for v in values[near].tolist()]
    return out


def batch_order_blocks(
    rel: np.ndarray,
    offs: np.ndarray,
    starting_point_tolerance: float = STARTING_POINT_TOLERANCE,
    broken_line_tolerance: float = BROKEN_LINE_TOLERANCE,
    height_tolerance: float = HEIGHT_TOLERANCE,
    ioa_column_threshold: float = IOA_COLUMN_THRESHOLD,
) -> np.ndarray:
    """:func:`order_blocks` for the blocks ``rel[offs[p]:offs[p + 1]]`` of
    every page at once (finite relative boxes): the indices into ``rel`` in
    reading order, page by page. A block the reference drops (its merged
    column's rank lies past the last surviving column) is left out.

    The greedy column and component passes step through block (column)
    position across all pages together, over padded per-page tables; a NaN
    pad fails every strict comparison, so it never takes a block."""
    n = np.diff(offs)
    if not len(rel):
        return np.empty(0, dtype=np.int64)
    pages, k_max = len(n), int(n.max())
    page = np.repeat(np.arange(pages), n)
    scale = float(B.REL_SCALE)
    cx, cy = rel_center_arrays(rel)
    scan = np.lexsort((cx, cy, page))
    scan_pos = np.empty(len(rel), dtype=np.int64)
    scan_pos[scan] = ranges(n)
    reg = np.rint(rel * scale)
    near = height_tolerance * ((reg[:, 3] - reg[:, 1]) / scale)

    # greedy column building in scan order (order.py:237-291)
    cols = np.full((pages, k_max, 4), np.nan)
    n_cols = np.zeros(pages, dtype=np.int64)
    col_of = np.empty(len(rel), dtype=np.int64)
    for k in range(k_max):
        act = np.flatnonzero(n > k)
        b = scan[offs[act] + k]
        x0, y0, x1, y1 = (rel[b, i, None] for i in range(4))
        c, h = cols[act, : k + 1], near[b, None]
        hit = (
            ((c[..., 0] - starting_point_tolerance < x0) & (x1 < c[..., 2] + starting_point_tolerance))
            | ((x0 - starting_point_tolerance < c[..., 0]) & (c[..., 2] < x1 + starting_point_tolerance))
            | (np.abs(x0 - c[..., 2]) < broken_line_tolerance)
        ) & ((np.abs(y0 - c[..., 3]) < h) | (np.abs(y1 - c[..., 1]) < h))
        j = hit.argmax(1)
        found = hit[np.arange(len(act)), j]
        j = np.where(found, j, n_cols[act])
        n_cols[act] += ~found
        col_of[b] = j
        old = cols[act, j]
        cols[act, j] = np.concatenate([np.fmin(rel[b, :2], old[:, :2]), np.fmax(rel[b, 2:], old[:, 2:])], 1)

    # column merge map (order.py:332-349): a child maps to the LAST parent
    # holding more than the threshold of its area, others get fresh ids
    cols = cols[:, : n_cols.max()]
    width = cols.shape[1]
    lo = np.maximum(cols[:, :, None, :2], cols[:, None, :, :2])
    inter = np.prod(np.maximum(np.minimum(cols[:, :, None, 2:], cols[:, None, :, 2:]) - lo, 0.0), axis=-1)
    area = np.maximum(cols[..., 2] - cols[..., 0], 0.0) * np.maximum(cols[..., 3] - cols[..., 1], 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        big = inter * (1.0 / area)[:, :, None] > ioa_column_threshold
    big[:, np.arange(width), np.arange(width)] = False
    has = big.any(2)
    merge_map = np.where(has, width - 1 - big[:, :, ::-1].argmax(2), np.cumsum(~has, axis=1) - 1)

    # surviving columns: distinct merge targets by value, first occurrence
    # first (order.py:295-298)
    cp, ci = np.nonzero(np.arange(width) < n_cols[:, None])
    target = cols[cp, merge_map[cp, ci]]
    o = np.lexsort((ci, *target.T[::-1], cp))
    fresh = np.concatenate([[True], (cp[o][1:] != cp[o][:-1]) | (target[o][1:] != target[o][:-1]).any(1)])
    first = np.sort(o[fresh])
    surv, s_page = target[first], cp[first]
    n_surv = np.bincount(s_page, minlength=pages)
    s_offs = np.concatenate([[0], np.cumsum(n_surv)])

    # connected components over the surviving columns (order.py:165-199):
    # greedy, components kept sorted by top after every insertion
    s_max = int(n_surv.max())
    top, bottom = np.full((pages, s_max), np.nan), np.full((pages, s_max), np.nan)
    comp_order = np.tile(np.arange(s_max), (pages, 1))
    n_comps = np.zeros(pages, dtype=np.int64)
    comp_of = np.empty(len(surv), dtype=np.int64)
    for k in range(s_max):
        act = np.flatnonzero(n_surv > k)
        x = s_offs[act] + k
        u, low = surv[x, 1][:, None], surv[x, 3][:, None]
        o = comp_order[act]
        t, bt = np.take_along_axis(top[act], o, 1), np.take_along_axis(bottom[act], o, 1)
        hit = ((t < u) & (u < bt)) | ((t < low) & (low < bt)) | ((u < t) & (t < low)) | ((u < bt) & (bt < low))
        pos = hit.argmax(1)
        found = hit[np.arange(len(act)), pos]
        slot = np.where(found, o[np.arange(len(act)), pos], n_comps[act])
        n_comps[act] += ~found
        top[act, slot] = np.fmin(top[act, slot], u[:, 0])
        bottom[act, slot] = np.fmax(bottom[act, slot], low[:, 0])
        comp_of[x] = slot
        comp_order[act] = np.take_along_axis(
            o, np.argsort(np.take_along_axis(top[act], o, 1), axis=1, kind="stable"), 1
        )
    comp_rank = np.empty_like(comp_order)
    np.put_along_axis(comp_rank, comp_order, np.arange(s_max), 1)
    # members by 2-decimal (ulx, uly), ties in insertion order; the flat
    # position is the column's rank (order.py:303-306)
    col_rank = np.empty(len(surv), dtype=np.int64)
    members = np.lexsort((_round2(surv[:, 1]), _round2(surv[:, 0]), comp_rank[s_page, comp_of], s_page))
    col_rank[members] = ranges(n_surv)

    # blocks by the rank of their (merged) column — a merge-map value read
    # as a surviving position, else as a column index (order.py:300-307) —
    # then 2-decimal (uly, ulx), ties in scan order (order.py:351-371)
    mapped = merge_map[page, col_of]
    inside = mapped < n_surv[page]
    rank = np.where(inside, col_rank[s_offs[page] + np.where(inside, mapped, 0)], merge_map[page, mapped])
    order = np.lexsort((scan_pos, _round2(rel[:, 0]), _round2(rel[:, 1]), rank, page))
    return order[(rank < n_surv[page])[order]]
