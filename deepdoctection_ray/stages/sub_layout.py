"""Sub-image layout detection — the ``SubImageLayoutService`` +
``DetectResultGenerator`` composition (``deepdoctection/pipe/sub_layout.py``)
as a Ray Data stage.

The reference crops every parent annotation of the selected categories,
presents the crop to a second detector, optionally pads first (inverting the
pad on the returned boxes), dummy-fills categories the detector missed
(``DetectResultGenerator.create_detection_result``), and dumps the results as
child annotations of the parent (``serve``, ``sub_layout.py:224-250``). Here
the same two-level hierarchy runs vectorized inside ``map_batches`` over
detector-output payloads:

- parents are selected by category from the payload's blocks;
- the crop is geometric (``kernels.transforms.crop_boxes`` — the
  ``image_ann_to_image`` analog) over the payload's WORD boxes;
- the default child detector is the deterministic text-line generator
  (``kernels.textlines.make_text_lines`` — the same no-weights detector the
  TextLineService uses), pluggable for any callable with the same shape;
- missing expected categories are dummy-filled full-frame with score -1.0,
  exactly the ``DetectResultGenerator`` contract (``sub_layout.py:60-155``:
  a dummy covers the whole sub-image so downstream refinement still has a
  frame to work inside);
- child boxes re-embed into page coordinates (``local_to_global``) and each
  becomes one flat output row carrying its parent block id — the
  relational analog of the parent/CHILD relationship dump.
"""

from __future__ import annotations

import json
from typing import Callable, Sequence

import numpy as np
import pyarrow as pa

from ..kernels.textlines import make_text_lines
from ..kernels.transforms import crop_boxes, local_to_global

DEFAULT_SUB_IMAGE_NAMES = ("table",)
DEFAULT_EXPECTED = ("line",)


def line_detector(
    word_boxes: np.ndarray, width: float, height: float
) -> list[dict]:
    """Default child detector: synthetic text lines from the crop's word
    geometry (deterministic, no weights — the stand-in the detector-output
    path documents for D2/DETR item detectors)."""
    lines = make_text_lines(word_boxes, width, height, make_sub_lines=False)
    # emit in reading order (top-to-bottom, then left-to-right) — creation
    # order depends on word input order, which is not deterministic under a
    # shuffled shard layout; the reading order is
    lines = sorted(lines, key=lambda e: (float(e[0][1]), float(e[0][0])))
    return [
        {
            "category": "line",
            "box": box,
            "score": 1.0,
        }
        for box, _members, _order in lines
    ]


def detect_result_generator(
    detections: list[dict], categories: Sequence[str], width: float, height: float
) -> list[dict]:
    """``DetectResultGenerator.create_detection_result``
    (``sub_layout.py:60-155``): any expected category absent from the
    detector output gains ONE full-frame dummy result with score -1.0 so
    downstream consumers always find every category."""
    present = {d["category"] for d in detections}
    out = list(detections)
    for cat in categories:
        if cat not in present:
            out.append(
                {
                    "category": cat,
                    "box": np.array([0.0, 0.0, width, height]),
                    "score": -1.0,
                    "dummy": True,
                }
            )
    return out


def sub_layouts_for_payload(
    payload: str,
    sub_image_names: Sequence[str] = DEFAULT_SUB_IMAGE_NAMES,
    expected_categories: Sequence[str] = DEFAULT_EXPECTED,
    child_detector: Callable[[np.ndarray, float, float], list[dict]] = line_detector,
    pad: float = 0.0,
) -> list[dict]:
    """Run the two-level detection for one payload.

    Returns one dict per child detection: ``{parent_block, child_idx,
    category, x0, top, x1, bottom, score, dummy}`` with boxes in PAGE
    coordinates. ``pad`` grows the crop frame on all sides before detection
    and is inverted on the way out (the ``PadTransform`` analog — with a
    geometric detector the inverse is exact frame arithmetic)."""
    doc = json.loads(payload)
    blocks = doc.get("blocks") or []
    words = doc.get("words") or []
    word_boxes = (
        np.array([[w["x0"], w["top"], w["x1"], w["bottom"]] for w in words], dtype=np.float64)
        if words
        else np.empty((0, 4))
    )
    out: list[dict] = []
    for i, b in enumerate(blocks):
        if b.get("category") not in sub_image_names:
            continue
        parent_id = int(b.get("block_id", i))
        frame = np.array(
            [b["x0"] - pad, b["top"] - pad, b["x1"] + pad, b["bottom"] + pad],
            dtype=np.float64,
        )
        fw, fh = frame[2] - frame[0], frame[3] - frame[1]
        if word_boxes.shape[0]:
            _keep, local = crop_boxes(word_boxes, frame)
        else:
            local = np.empty((0, 4))
        detections = child_detector(local, fw, fh) if local.shape[0] else []
        detections = detect_result_generator(detections, expected_categories, fw, fh)
        for ci, det in enumerate(detections):
            g = local_to_global(np.asarray(det["box"], dtype=np.float64)[None, :], frame)[0]
            out.append(
                {
                    "parent_block": parent_id,
                    "child_idx": ci,
                    "category": det["category"],
                    "x0": float(g[0]),
                    "top": float(g[1]),
                    "x1": float(g[2]),
                    "bottom": float(g[3]),
                    "score": float(det.get("score", 1.0)),
                    "dummy": bool(det.get("dummy", False)),
                }
            )
    return out


class SubImageLayouter:
    """Actor stage: payload rows → flat child-detection rows. Configuration
    is bound once per actor (``clone()`` ≡ ``__init__`` contract)."""

    def __init__(
        self,
        payload_column: str = "payload",
        id_column: str = "doc_id",
        sub_image_names: Sequence[str] = DEFAULT_SUB_IMAGE_NAMES,
        expected_categories: Sequence[str] = DEFAULT_EXPECTED,
        pad: float = 0.0,
    ) -> None:
        self._payload = payload_column
        self._id = id_column
        self._names = tuple(sub_image_names)
        self._expected = tuple(expected_categories)
        self._pad = pad

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self._id].to_pylist()
        payloads = batch[self._payload].to_pylist()
        cols: dict[str, list] = {
            "parent_block": [], "child_idx": [], "category": [],
            "x0": [], "top": [], "x1": [], "bottom": [], "score": [], "dummy": [],
        }
        o_ids: list = []
        for doc_id, payload in zip(ids, payloads):
            for det in sub_layouts_for_payload(
                payload or "{}", self._names, self._expected, pad=self._pad
            ):
                o_ids.append(doc_id)
                for k in cols:
                    cols[k].append(det[k])
        return pa.table(
            {
                "doc_id": pa.array(o_ids, batch[self._id].type),
                "parent_block": pa.array(cols["parent_block"], pa.int64()),
                "child_idx": pa.array(cols["child_idx"], pa.int64()),
                "category": pa.array(cols["category"], pa.string()),
                "x0": pa.array(cols["x0"], pa.float64()),
                "top": pa.array(cols["top"], pa.float64()),
                "x1": pa.array(cols["x1"], pa.float64()),
                "bottom": pa.array(cols["bottom"], pa.float64()),
                "score": pa.array(cols["score"], pa.float64()),
                "dummy": pa.array(cols["dummy"], pa.bool_()),
            }
        )
