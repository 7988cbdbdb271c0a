"""Per-turn extraction dispatcher.

The analog of ``TextExtractionService.get_predictor_input`` +
miner-vs-OCR arbitration (``pipe/text.py:176-209``,
``analyzer/factory.py:1766-1776``): each turn's payload self-identifies as

- ``pdfish`` — a JSON object with a ``words`` list (pdfplumber word dicts);
- ``html``  — markup containing at least one tag;
- ``plain`` — anything else.

and is routed to the matching kernel, which returns the turn's ordered
blocks; pdfish turns go through their kernel as one batch. Errors never
propagate: a poison row yields no blocks plus an ``error`` string (the
``MappingContextManager`` dead-letter pattern, ``mapper/maputils.py:41-130``).
"""

from __future__ import annotations

import re

from .assemble import Block, assemble_turn
from .html_blocks import DEFAULT_MAX_LINK_DENSITY, _BlockCollector, parse_html_blocks
from .layout_doc import extract_layout
from .normalize import tokenize_plain
from .pdf_layout import pdfish_blocks
from .reading_order import PARAGRAPH_BREAK

_TAG_RE = re.compile(r"<[a-zA-Z!/]")
_PDFISH_RE = re.compile(r'^\s*\{')


def classify_payload(text: str) -> str:
    """Cheap payload-kind sniffing; deterministic and order-independent."""
    if not text:
        return "plain"
    if _PDFISH_RE.match(text):
        head = text[:2048]
        if '"blocks"' in head:
            return "layout"
        if '"words"' in head:
            return "pdfish"
    if _TAG_RE.search(text):
        return "html"
    return "plain"


def _dead_letter(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def extract_blocks(
    texts: list[str],
    kinds: list[str],
    max_link_density: float = DEFAULT_MAX_LINK_DENSITY,
    paragraph_break: float = PARAGRAPH_BREAK,
    html_parser: _BlockCollector | None = None,
    deskew: bool = False,
) -> tuple[list[list[Block]], list[str | None]]:
    """Each turn's ordered blocks and dead-letter error (``None`` when it
    extracted), routed by its payload kind."""
    blocks: list[list[Block]] = [[] for _ in texts]
    errors: list[str | None] = [None] * len(texts)
    pdf_rows: list[int] = []
    for row, (text, kind) in enumerate(zip(texts, kinds)):
        try:
            if kind == "pdfish":
                pdf_rows.append(row)
            elif kind == "html":
                blocks[row] = parse_html_blocks(text, max_link_density, parser=html_parser)
            elif kind == "layout":
                blocks[row] = extract_layout(text, paragraph_break=paragraph_break)
            else:
                tokens = tokenize_plain(text)
                if tokens:
                    blocks[row] = [Block(category="text", words=tokens)]
        except Exception as exc:  # dead-letter, never fail the batch
            errors[row] = _dead_letter(exc)
    pdf_blocks, pdf_errors = pdfish_blocks([texts[r] for r in pdf_rows], paragraph_break, deskew)
    for row, turn_blocks, exc in zip(pdf_rows, pdf_blocks, pdf_errors):
        blocks[row] = turn_blocks
        if exc is not None:
            errors[row] = _dead_letter(exc)
    return blocks, errors


def extract_turn(
    text: str,
    kind: str | None = None,
    max_link_density: float = DEFAULT_MAX_LINK_DENSITY,
    paragraph_break: float = PARAGRAPH_BREAK,
    html_parser: _BlockCollector | None = None,
    deskew: bool = False,
) -> dict:
    """Extract one turn → dict with extracted_text / spans / blocks / kind / error.

    The single-threaded pure-python oracle used to derive golden outputs
    (FIXTURES.md F1): the same kernels as the batch stage, then
    ``assemble_turn`` per turn where the stage assembles a whole batch.
    """
    k = kind or classify_payload(text)
    [blocks], [error] = extract_blocks(
        [text], [k], max_link_density, paragraph_break, html_parser, deskew
    )
    extracted, spans = assemble_turn(blocks)
    return {
        "extracted_text": extracted,
        "spans": spans,
        "blocks": {
            "category": [b.category for b in blocks],
            "reading_order": list(range(1, len(blocks) + 1)),
            "n_words": [len(b.words) for b in blocks],
        },
        "payload_kind": k,
        "error": error,
    }
