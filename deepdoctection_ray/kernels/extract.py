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

The batch stage works on columns: ``classify_column`` sniffs every row and
``plain_tokens`` tokenizes the plain rows in Arrow compute, so only html and
page rows reach ``extract_blocks``. ``classify_payload``, ``tokenize_plain``,
``extract_blocks`` and ``extract_turn`` are the per-row oracles those column
kernels must equal (``tests/test_extract_kernels.py``).
"""

from __future__ import annotations

import re
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .assemble import Block, assemble_turn
from .grams import segment_sum, split_tokens
from .html_blocks import DEFAULT_MAX_LINK_DENSITY, _BlockCollector, parse_html_blocks
from .normalize import _CONTROL, tokenize_plain
from .pdf_layout import pdfish_blocks
from .reading_order import PARAGRAPH_BREAK

PAYLOAD_KINDS = ("plain", "html", "pdfish", "layout")
SNIFF_HEAD = 2048  # code points of a "{" payload searched for its page keys
_TAG_RE = re.compile(r"<[a-zA-Z!/]")
_PDFISH_RE = re.compile(r'^\s*\{')
# _PDFISH_RE for RE2, whose \s is ASCII only: the class spells out every code
# point Python's \s (str.isspace) matches
_PDFISH_RE2 = (
    r"^[\x{09}-\x{0d}\x{1c}-\x{20}\x{85}\x{a0}\x{1680}\x{2000}-\x{200a}"
    r"\x{2028}\x{2029}\x{202f}\x{205f}\x{3000}]*\{"
)


def classify_payload(text: str) -> str:
    """Cheap payload-kind sniffing; deterministic and order-independent.
    Between ``pdfish`` and ``layout`` it only routes: the page kernel reads
    the kind of a page that decodes from its keys."""
    if not text:
        return "plain"
    if _PDFISH_RE.match(text):
        head = text[:SNIFF_HEAD]
        if '"blocks"' in head:
            return "layout"
        if '"words"' in head:
            return "pdfish"
    if _TAG_RE.search(text):
        return "html"
    return "plain"


def _matches(texts: pa.Array, pattern: str) -> np.ndarray:
    return pc.match_substring_regex(texts, pattern).to_numpy(zero_copy_only=False)


def classify_column(texts: pa.Array) -> pa.Array:
    """``classify_payload`` of every row of a string array (a null text is
    ``""``), in Arrow compute: the leading-brace and tag regexes run over
    the whole column, and only the brace rows' first ``SNIFF_HEAD`` code
    points are searched for the page keys. A page's own tags never make it
    ``html``."""
    texts = pc.fill_null(texts, "")
    codes = np.zeros(len(texts), np.int8)
    brace = np.flatnonzero(_matches(texts, _PDFISH_RE2))
    if brace.size:
        head = pc.utf8_slice_codeunits(texts.take(brace), 0, SNIFF_HEAD)
        pdfish = np.where(_matches(head, '"words"'), 2, 0)
        codes[brace] = np.where(_matches(head, '"blocks"'), 3, pdfish)
    codes[(codes == 0) & _matches(texts, _TAG_RE.pattern)] = 1
    return pa.array(PAYLOAD_KINDS).take(codes)  # codes index PAYLOAD_KINDS


def plain_tokens(texts: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """``tokenize_plain`` of every row of a string array (a null text is
    ``""``): all rows' tokens as one flat array, and each row's token count.

    ``grams.split_tokens`` is ``str.split``; only when some row holds a
    control character are the tokens stripped of it and the tokens left
    empty dropped."""
    tokens, lens, offs = split_tokens(texts)
    if pc.any(pc.match_substring_regex(texts, _CONTROL.pattern)).as_py():
        tokens = pc.replace_substring_regex(tokens, _CONTROL.pattern, "")
        keep = pc.not_equal(tokens, "")
        lens = segment_sum(keep.to_numpy(zero_copy_only=False), offs)
        tokens = tokens.filter(keep)
    return tokens, lens


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
