"""The flagship entry point: ``get_analyzer().analyze(path=...)``.

Parity with the reference's ``get_dd_analyzer`` → ``analyzer.analyze``
lifecycle (``analyzer/dd.py:60-121``, ``analyzer/factory.py:1708-1807``,
``doctectionpipe.py:217-388``) re-expressed Ray-Data-first:

- **Config**: a flat default dict + ``config_overwrite=["KEY=value", ...]``
  strings (the ``conf_dd_one.yaml`` + overwrite UX, ``analyzer/dd.py:89-119``)
  — no YAML tree needed for the rebuilt component set;
- **Build**: the component chain composes in the reference's fixed order —
  page split / payload sniffing → extraction (layout + text + matching +
  reading order fused in ``TurnExtractor``) → optional language detection /
  sequence classification / token classification per config flags
  (``USE_LANGUAGE_DETECTION``-style toggles);
- **Entry**: ``analyze(path=...)`` accepts a PDF file, a directory of PDFs,
  or a directory of transcript parquet; PDFs split per page through the
  pure-Python container parser (``kernels/pdf.py``) exactly like
  ``SerializerPdfDoc.load`` feeds ``_entry``;
- **Output**: a LAZY ``ray.data.Dataset`` — consumption triggers execution,
  mirroring the reference's lazy DataFlow iteration
  (``pipe/base.py:341-371``). One row per page/turn with ``extracted_text``,
  ``spans``, ``blocks``, ``payload_kind`` (the ``Page`` projection).
"""

from __future__ import annotations

import os
from typing import Any

import ray.data

DEFAULT_CONFIG: dict[str, Any] = {
    "MAX_LINK_DENSITY": 0.75,  # DEFAULT_MAX_LINK_DENSITY mirror
    "PARAGRAPH_BREAK": 0.035,
    "USE_DESKEW": False,
    "USE_LANGUAGE_DETECTION": False,
    "USE_SEQUENCE_CLASSIFIER": False,
    "USE_TOKEN_CLASSIFIER": False,
    "BATCH_SIZE": 512,
    "CONCURRENCY": 4,  # actor-pool size of the language-id stage
}


def _apply_overwrites(cfg: dict, overwrites: list[str] | None) -> dict:
    """``config_overwrite=["USE_LANGUAGE_DETECTION=True"]`` parsing
    (``analyzer/dd.py:89-119`` semantics: KEY=value strings, typed by the
    default's type)."""
    out = dict(cfg)
    for item in overwrites or []:
        if "=" not in item:
            raise ValueError(f"config overwrite {item!r} is not KEY=value")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in out:
            raise KeyError(f"unknown config key {key!r}; known: {sorted(out)}")
        default = out[key]
        if isinstance(default, bool):
            out[key] = value.strip().lower() in ("1", "true", "yes")
        elif isinstance(default, int):
            out[key] = int(value)
        elif isinstance(default, float):
            out[key] = float(value)
        else:
            out[key] = value.strip()
    return out


class Analyzer:
    """Composed pipeline handle; ``analyze`` is lazy like the reference's
    DataFlow return."""

    def __init__(self, cfg: dict) -> None:
        self.cfg = cfg

    def analyze(self, path: str) -> ray.data.Dataset:
        from .pipelines.extraction import extract_turns, read_transcripts
        from .sources import read_pdf

        conc = (1, int(self.cfg["CONCURRENCY"]))
        kwargs = dict(
            max_link_density=float(self.cfg["MAX_LINK_DENSITY"]),
            paragraph_break=float(self.cfg["PARAGRAPH_BREAK"]),
            deskew=bool(self.cfg["USE_DESKEW"]),
        )
        if os.path.isdir(path) and any(
            f.endswith(".parquet") for f in os.listdir(path)
        ):
            ds = read_transcripts(path)
            out = extract_turns(ds, batch_size=int(self.cfg["BATCH_SIZE"]), **kwargs)
        else:
            # a single PDF or a directory of PDFs: per-page split + word
            # mining feed the same extraction stage as transcript payloads;
            # raw page bytes never leave it (maybe_remove_image analog)
            out = extract_turns(read_pdf(path), batch_size=64, **kwargs)
            out = out.drop_columns(["pdf_bytes"])
        if self.cfg["USE_LANGUAGE_DETECTION"]:
            from .stages.text_stats import LanguageId

            out = out.map_batches(
                LanguageId,
                batch_format="pyarrow",
                concurrency=conc,
                fn_constructor_kwargs=dict(text_column="extracted_text"),
            )
        if self.cfg["USE_SEQUENCE_CLASSIFIER"]:
            from .stages.classify import SequenceClassifier

            out = out.map_batches(SequenceClassifier(), batch_format="pyarrow")
        if self.cfg["USE_TOKEN_CLASSIFIER"]:
            from .stages.classify import TokenClassifier

            out = out.map_batches(TokenClassifier(), batch_format="pyarrow")
        return out


def get_analyzer(config_overwrite: list[str] | None = None) -> Analyzer:
    """``get_dd_analyzer`` analog: defaults + overwrites → composed pipeline."""
    return Analyzer(_apply_overwrites(DEFAULT_CONFIG, config_overwrite))
