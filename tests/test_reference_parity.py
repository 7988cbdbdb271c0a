"""Differential parity vs the ACTUAL reference implementation.

Skipped automatically when the read-only reference checkout is absent. When
present, the reference's ``OrderGenerator``/``TextLineGenerator`` kernels and
the full ``MatchingService → TextOrderService`` chain run on synthetic pages
(with stubbed optional dependencies) and their output must equal this
engine's kernels / ``extract_layout`` composition exactly.

No reference code is copied — it is imported at verification time only; the
engine never depends on it.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import json
import os
import random
import sys
import types

import numpy as np
import pytest

REFERENCE = "/root/reference"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(os.path.join(REFERENCE, "packages/dd_core/src")),
    reason="reference checkout not available",
)


@pytest.fixture(scope="module")
def ref():
    """Import reference modules with stubbed optional deps."""

    def stub(name, **attrs):
        m = types.ModuleType(name)
        m.__spec__ = importlib.machinery.ModuleSpec(name, loader=None)
        m.__version__ = "99.0"
        for k, v in attrs.items():
            setattr(m, k, v)
        sys.modules.setdefault(name, m)
        return sys.modules[name]

    stub("termcolor", colored=lambda s, *a, **k: s)
    stub("tabulate", tabulate=lambda *a, **k: "")
    stub("lazy_imports", try_import=lambda: contextlib.suppress(Exception))

    class _Tqdm:
        def __init__(self, *a, **k): ...
        def update(self, *a, **k): ...
        def close(self): ...

    stub("tqdm", tqdm=_Tqdm)

    class _Reg:
        def __init__(self):
            self._d = {}

        def register(self, name, func=None, **kw):
            if func is not None:
                self._d[name] = func

                def apply(cls):
                    self._d[name] = cls
                    return cls

                return apply

            def deco(f):
                self._d[name] = f
                return f

            return deco

        def get(self, name):
            return self._d[name]

        def get_all(self):
            return dict(self._d)

    stub("catalogue", create=lambda *a, **k: _Reg(), Registry=_Reg)

    class _Img:
        size = (1, 1)

        def save(self, *a, **k): ...
        def resize(self, *a, **k):
            return self

        def tobytes(self):
            return b""

    class _Draw:
        def __init__(self, *a, **k): ...
        def getfont(self):
            return None

    pil = stub("PIL")
    pim = stub("PIL.Image", fromarray=lambda *a, **k: _Img(), open=lambda *a, **k: _Img())
    pdr = stub("PIL.ImageDraw", ImageDraw=_Draw, Draw=lambda *a, **k: _Draw())
    pft = stub("PIL.ImageFont", load_default=lambda: None)
    pil.Image, pil.ImageDraw, pil.ImageFont = pim, pdr, pft

    sys.path.insert(0, os.path.join(REFERENCE, "packages/dd_core/src"))
    sys.path.insert(0, os.path.join(REFERENCE, "packages/deepdoctection/src"))
    for _ in range(30):
        try:
            import dd_core.datapoint.box  # noqa: F401
            import deepdoctection.pipe.order  # noqa: F401

            break
        except ModuleNotFoundError as e:  # stub any remaining optional import
            stub(str(e).split("'")[1])
    import dd_core
    import deepdoctection

    return types.SimpleNamespace(dd=dd_core, ddt=deepdoctection)


def _random_page(rng):
    blocks, words = [], []
    for i in range(rng.randint(1, 4)):
        x0 = rng.uniform(20, 300)
        y0 = rng.uniform(20, 280)
        w = rng.uniform(120, 260)
        h = rng.uniform(40, 100)
        blocks.append((rng.choice(["text", "title", "list"]), [x0, y0, min(x0 + w, 595), min(y0 + h, 395)]))
    k = 0
    for _, b in blocks:
        y = b[1] + 4
        while y + 12 < b[3] and rng.random() < 0.9:
            x = b[0] + 4
            for _ in range(rng.randint(1, 4)):
                t = f"w{k}"
                k += 1
                ww = 8.0 * len(t)
                if x + ww > b[2] - 2:
                    break
                words.append((t, [x, y, x + ww, y + 12]))
                x += ww + 6
            y += rng.choice([13, 14, 16])
    for _ in range(rng.randint(0, 3)):
        t = f"r{k}"
        k += 1
        x0 = rng.uniform(10, 500)
        y0 = rng.uniform(10, 380)
        words.append((t, [x0, y0, x0 + 8 * len(t), y0 + 11]))
    return blocks, words


def _ref_page_text(ref, blocks, words, W=600.0, H=400.0):
    from dd_core.datapoint.annotation import ContainerAnnotation, ImageAnnotation
    from dd_core.datapoint.box import BoundingBox
    from dd_core.datapoint.image import Image
    from dd_core.utils.object_types import RelationshipKey, get_type
    from deepdoctection.pipe.common import FamilyCompound, IntersectionMatcher, MatchingService
    from deepdoctection.pipe.order import TextOrderService

    img = Image(file_name="t.png", location="/tmp/t.png")
    img.image = np.zeros((int(H), int(W), 3), dtype=np.uint8)
    for cat, b in blocks:
        ann = ImageAnnotation(
            bounding_box=BoundingBox(absolute_coords=True, ulx=b[0], uly=b[1], lrx=b[2], lry=b[3]),
            score=0.9, category_name=get_type(cat), category_id=1,
        )
        img.dump(ann)
        img.image_ann_to_image(ann.annotation_id)
    for text, b in words:
        ann = ImageAnnotation(
            bounding_box=BoundingBox(absolute_coords=True, ulx=b[0], uly=b[1], lrx=b[2], lry=b[3]),
            score=0.9, category_name=get_type("word"), category_id=8,
        )
        img.dump(ann)
        img.image_ann_to_image(ann.annotation_id)
        ann.dump_sub_category(
            get_type("characters"),
            ContainerAnnotation(category_name=get_type("characters"), value=text),
        )
    MatchingService(
        family_compounds=[
            FamilyCompound(
                relationship_key=RelationshipKey.CHILD,
                parent_categories=["text", "title", "list"],
                child_categories=["word"],
            )
        ],
        matcher=IntersectionMatcher(matching_rule="ioa", threshold=0.3, max_parent_only=True),
    ).pass_datapoint(img)
    TextOrderService(
        text_container="word",
        text_block_categories=["text", "title", "list"],
        floating_text_block_categories=["text", "title", "list"],
        include_residual_text_container=True,
    ).pass_datapoint(img)

    out_blocks = []
    cats = [get_type("text"), get_type("title"), get_type("list"), get_type("line")]
    for ann in img.get_annotation(category_names=cats):
        ro = ann.sub_categories.get(get_type("reading_order"))
        if ro is None:
            continue
        kid_ids = ann.get_relationship(get_type("child"))
        ws = []
        for wann in img.get_annotation(annotation_ids=kid_ids, category_names=get_type("word")):
            wro = wann.sub_categories.get(get_type("reading_order"))
            if wro is not None:
                ws.append((wro.category_id, wann.get_sub_category(get_type("characters")).value))
        ws.sort()
        if ws:
            out_blocks.append((ro.category_id, " ".join(t for _, t in ws)))
    out_blocks.sort()
    return "\n".join(t for _, t in out_blocks)


def test_full_chain_parity(ref):
    from deepdoctection_ray.kernels.assemble import assemble_turn
    from deepdoctection_ray.kernels.pdf_layout import extract_layout

    checked = 0
    for trial in range(40):
        rng = random.Random(5000 + trial)
        blocks, words = _random_page(rng)
        try:
            expected = _ref_page_text(ref, blocks, words)
        except BaseException as exc:  # dd ImageError subclasses BaseException
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            continue  # duplicate-content-id generation artifact
        payload = json.dumps(
            {
                "page": {"width": 600.0, "height": 400.0},
                "blocks": [
                    {"category": c, "score": 0.9, "x0": b[0], "top": b[1], "x1": b[2], "bottom": b[3]}
                    for c, b in blocks
                ],
                "words": [
                    {"text": t, "x0": b[0], "top": b[1], "x1": b[2], "bottom": b[3]}
                    for t, b in words
                ],
            }
        )
        text, _ = assemble_turn(extract_layout(payload, nms_threshold=1.1))
        assert text == expected, f"trial {trial}"
        checked += 1
    assert checked >= 35  # nearly all trials must actually compare
