"""Spatial matching kernels: parent↔child assignment and NMS.

- :func:`match_by_ioa` mirrors ``dd_core/src/dd_core/mapper/match.py:38-167``
  (the ``MatchingService`` word→block assignment; defaults
  ``configs/conf_dd_one.yaml:183-187``: rule=ioa, threshold=0.3,
  ``max_parent_only=True``).
- :func:`match_by_distance` mirrors ``match.py:170-214`` (nearest child by
  center distance, caption→figure style).
- :func:`nms` mirrors ``dd_core/src/dd_core/mapper/nms.py:64-127`` in plain
  numpy (no torch): score-descending greedy suppression with an optional
  priority category whose members always survive.
"""

from __future__ import annotations

import numpy as np

from . import boxes as B

MATCH_IOA_THRESHOLD = 0.3  # conf_dd_one.yaml:183-187


def match_by_ioa(
    parent_boxes: np.ndarray,
    child_boxes: np.ndarray,
    threshold: float = MATCH_IOA_THRESHOLD,
    max_parent_only: bool = True,
    use_weighted_intersections: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Assign children (words) to parents (blocks) by intersection-over-child-area.

    Returns ``(child_indices, parent_indices)`` — one pair per assignment.
    With ``max_parent_only`` each child gets at most the arg-max parent above
    the threshold (``match.py:141-151``); otherwise every pair above the
    threshold is returned (``match.py:152-162``), optionally with the
    intersection-count weighting (``match.py:154-160``).
    """
    if parent_boxes.shape[0] == 0 or child_boxes.shape[0] == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if max_parent_only:
        shape = (child_boxes.shape[0], parent_boxes.shape[0])
        best = match_rows_by_ioa(
            np.broadcast_to(parent_boxes, (*shape, 4)), np.ones(shape, dtype=bool), child_boxes, threshold
        )
        child_idx = np.flatnonzero(best >= 0)
        return child_idx, best[child_idx]
    mat = B.ioa_matrix(parent_boxes, child_boxes).T  # [child, parent] = inter/area(child)
    if use_weighted_intersections:
        mat = mat * (mat != 0).sum(1, keepdims=True)
    child_idx, parent_idx = (mat > threshold).nonzero()
    return child_idx.astype(np.int64), parent_idx.astype(np.int64)


def match_rows_by_ioa(
    parents: np.ndarray, valid: np.ndarray, children: np.ndarray, threshold: float = MATCH_IOA_THRESHOLD
) -> np.ndarray:
    """:func:`match_by_ioa` with ``max_parent_only`` for many children at
    once, each against its own padded row of candidate parents (``parents``
    ``[N, K, 4]``, ``valid`` ``[N, K]``): the arg-max parent slot per child,
    -1 for none. Row by row the same float expressions, so the same answer
    (a NaN ioa wins, as ``argmax`` picks it)."""
    lo = np.maximum(parents[..., :2], children[:, None, :2])
    hi = np.minimum(parents[..., 2:], children[:, None, 2:])
    inter = np.maximum(hi[..., 0] - lo[..., 0], 0.0) * np.maximum(hi[..., 1] - lo[..., 1], 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        mat = inter * (1.0 / B.area(children))[:, None]
    mat = np.where(valid & ~(mat < threshold), mat, 0.0)
    return np.hstack([np.zeros((len(mat), 1)), mat]).argmax(1) - 1


def match_by_distance(parent_boxes: np.ndarray, child_boxes: np.ndarray) -> np.ndarray:
    """For each parent, the index of the nearest child by center euclidean
    distance (``match.py:203-214``). A child may serve several parents."""
    if parent_boxes.shape[0] == 0 or child_boxes.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    pc = B.centers(parent_boxes)
    cc = B.centers(child_boxes)
    d2 = ((pc[:, None, :] - cc[None, :, :]) ** 2).sum(-1)
    return d2.argmin(axis=1).astype(np.int64)


def nms(
    boxes: np.ndarray,
    scores: np.ndarray,
    threshold: float,
    priority_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Greedy non-maximum suppression; returns surviving indices (ascending).

    Semantics of ``nms.py:64-127``: annotations of the priority category get
    score 1.0 so they are never suppressed; suppression is by IoU above
    ``threshold`` against an already-kept higher-scoring box.
    """
    n = boxes.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n == 1:
        return np.array([0], dtype=np.int64)
    eff = scores.astype(np.float64).copy()
    if priority_mask is not None:
        eff[priority_mask] = 1.0
    # stable descending order (ties keep input order, like torchvision nms)
    order = np.argsort(-eff, kind="stable")
    iou = B.iou_matrix(boxes, boxes)
    keep: list[int] = []
    suppressed = np.zeros(n, dtype=bool)
    for i in order:
        if suppressed[i]:
            continue
        keep.append(int(i))
        suppressed |= iou[i] > threshold
        suppressed[i] = True  # self; already kept
    if priority_mask is not None:
        keep.extend(int(i) for i in priority_mask.nonzero()[0] if i not in set(keep))
    return np.array(sorted(set(keep)), dtype=np.int64)
