"""Per-turn extraction dispatcher.

The analog of ``TextExtractionService.get_predictor_input`` +
miner-vs-OCR arbitration (``pipe/text.py:176-209``,
``analyzer/factory.py:1766-1776``): each turn's payload self-identifies as

- ``pdfish`` — a JSON object with a ``words`` list (pdfplumber word dicts);
- ``layout`` — the same with detected ``blocks``;
- ``html``  — markup containing at least one tag;
- ``plain`` — anything else.

and is routed to the matching kernel, which returns the turn's ordered
blocks. ``pdfish`` and ``layout`` turns go through the one page kernel as
one batch, and a page that decodes takes its kind from its keys, not from
the sniff. Errors never propagate: a poison row yields no blocks plus an
``error`` string (the ``MappingContextManager`` dead-letter pattern,
``mapper/maputils.py:41-130``).
"""

from __future__ import annotations

import re
import time

from .assemble import Block, assemble_turn
from .html_blocks import DEFAULT_MAX_LINK_DENSITY, _BlockCollector, parse_html_blocks
from .normalize import tokenize_plain
from .pdf_layout import pdfish_blocks
from .reading_order import PARAGRAPH_BREAK

_TAG_RE = re.compile(r"<[a-zA-Z!/]")
_PDFISH_RE = re.compile(r'^\s*\{')


def classify_payload(text: str) -> str:
    """Cheap payload-kind sniffing; deterministic and order-independent.
    Between ``pdfish`` and ``layout`` it only routes: the page kernel reads
    the kind of a page that decodes from its keys."""
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
    deskew: bool = False,
) -> tuple[list[list[Block]], list[str], list[str | None], dict[str, float]]:
    """Each turn's ordered blocks, payload kind and dead-letter error
    (``None`` when it extracted), routed by its sniffed payload kind, plus
    the seconds each kind group took (``page``, ``html``, ``plain``: one
    timer pair each). The HTML turns of one call share one parser."""
    html_parser = _BlockCollector()
    blocks: list[list[Block]] = [[] for _ in texts]
    kinds = list(kinds)
    errors: list[str | None] = [None] * len(texts)
    groups: dict[str, list[int]] = {"html": [], "plain": [], "page": []}
    for row, kind in enumerate(kinds):
        groups["page" if kind in ("pdfish", "layout") else "html" if kind == "html" else "plain"].append(row)
    t_html = time.perf_counter()
    for row in groups["html"]:
        try:
            blocks[row] = parse_html_blocks(texts[row], max_link_density, parser=html_parser)
        except Exception as exc:  # dead-letter, never fail the batch
            errors[row] = _dead_letter(exc)
    t_plain = time.perf_counter()
    for row in groups["plain"]:
        try:
            tokens = tokenize_plain(texts[row])
            if tokens:
                blocks[row] = [Block(category="text", words=tokens)]
        except Exception as exc:
            errors[row] = _dead_letter(exc)
    t_page = time.perf_counter()
    page_rows = groups["page"]
    page_blocks, page_kinds, page_errors = pdfish_blocks(
        [texts[r] for r in page_rows], paragraph_break, deskew
    )
    for row, turn_blocks, kind, exc in zip(page_rows, page_blocks, page_kinds, page_errors):
        blocks[row] = turn_blocks
        kinds[row] = kind or kinds[row]
        if exc is not None:
            errors[row] = _dead_letter(exc)
    t_end = time.perf_counter()
    seconds = {"page": t_end - t_page, "html": t_plain - t_html, "plain": t_page - t_plain}
    return blocks, kinds, errors, seconds


def extract_turn(
    text: str,
    kind: str | None = None,
    max_link_density: float = DEFAULT_MAX_LINK_DENSITY,
    paragraph_break: float = PARAGRAPH_BREAK,
    deskew: bool = False,
) -> dict:
    """Extract one turn → dict with extracted_text / spans / blocks / kind / error.

    The single-threaded pure-python oracle used to derive golden outputs
    (FIXTURES.md F1): the same kernels as the batch stage, then
    ``assemble_turn`` per turn where the stage assembles a whole batch.
    """
    [blocks], [k], [error], _ = extract_blocks(
        [text], [kind or classify_payload(text)], max_link_density, paragraph_break, deskew
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
