"""HTML → candidate text blocks with boilerplate stripping.

The transcript analog of the reference's layout-region detection
(``pipe/layout.py:69-164``): where deepdoctection runs an object detector over
page pixels to find text/title/list regions, an HTML payload already carries a
DOM, so regions are block-level elements and the "detector" is a
text-density / link-density heuristic (boilerpipe-style, public domain
technique) that classifies each region as main content or boilerplate:

- subtrees under ``<nav> <header> <footer> <aside>`` and non-content tags
  (``script/style/...``) are dropped wholesale;
- a surviving block is boilerplate when its link density (characters inside
  ``<a>`` / total characters) exceeds ``max_link_density``;
- block categories map onto the reference's ``LayoutLabel`` vocabulary
  (``object_types.py:482-509``): h1..h6 → title, p/div/... → text,
  li → list_item, td/th → cell, caption → caption.

Reading order of surviving blocks is document order (FIXTURES.md F1), the DOM
counterpart of the geometric ``order_blocks``.

Implementation: a single stdlib ``html.parser.HTMLParser`` subclass — no
external parser dependency. ``kernels.extract.extract_blocks`` builds one
parser per call and every HTML turn of that batch reuses it; a parser costs
microseconds to build, so no actor has to keep one warm.
"""

from __future__ import annotations

from html.parser import HTMLParser

from .assemble import Block
from .normalize import tokenize_plain

# block-level elements that open a text block (innermost wins)
BLOCK_TAGS = frozenset(
    {
        "p", "h1", "h2", "h3", "h4", "h5", "h6", "li", "td", "th",
        "blockquote", "pre", "caption", "dt", "dd", "figcaption", "summary",
    }
)
# containers whose direct text also forms blocks when no inner block is open
CONTAINER_TAGS = frozenset({"div", "section", "article", "main", "body", "td"})
# subtrees dropped entirely: non-content
DROP_TAGS = frozenset({"script", "style", "noscript", "template", "svg", "head", "iframe"})
# subtrees dropped entirely: page furniture
BOILERPLATE_TAGS = frozenset({"nav", "header", "footer", "aside"})
# void elements never pushed on the tag stack
VOID_TAGS = frozenset(
    {"br", "hr", "img", "input", "meta", "link", "area", "base", "col", "embed",
     "source", "track", "wbr"}
)

CATEGORY_BY_TAG = {
    "h1": "title", "h2": "title", "h3": "title", "h4": "title", "h5": "title", "h6": "title",
    "li": "list_item", "td": "cell", "th": "cell", "caption": "caption",
}
DEFAULT_MAX_LINK_DENSITY = 0.5


class _BlockCollector(HTMLParser):
    """Streams an HTML document into raw block records."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.reset_doc()

    def reset_doc(self) -> None:
        self.blocks: list[dict] = []
        self._drop_depth = 0
        self._boiler_depth = 0
        self._link_depth = 0
        self._block_stack: list[dict] = []
        self._container_buf: list[dict] = []  # open container text accumulators

    # -- tag events ---------------------------------------------------------
    def handle_starttag(self, tag: str, attrs) -> None:  # noqa: ANN001
        if tag in VOID_TAGS:
            return
        if tag in DROP_TAGS:
            self._drop_depth += 1
            return
        if self._drop_depth:
            return
        if tag in BOILERPLATE_TAGS:
            self._boiler_depth += 1
            return
        if tag == "a":
            self._link_depth += 1
        if tag in BLOCK_TAGS:
            self._flush_container_text()
            self._block_stack.append(self._new_block(tag))
        elif tag in CONTAINER_TAGS:
            self._flush_container_text()
            self._container_buf.append(self._new_block(tag))

    def handle_endtag(self, tag: str) -> None:
        if tag in VOID_TAGS:
            return
        if tag in DROP_TAGS:
            self._drop_depth = max(0, self._drop_depth - 1)
            return
        if self._drop_depth:
            return
        if tag in BOILERPLATE_TAGS:
            self._boiler_depth = max(0, self._boiler_depth - 1)
            return
        if tag == "a":
            self._link_depth = max(0, self._link_depth - 1)
        if tag in BLOCK_TAGS and self._block_stack and self._block_stack[-1]["tag"] == tag:
            self._emit(self._block_stack.pop())
        elif tag in CONTAINER_TAGS and self._container_buf and self._container_buf[-1]["tag"] == tag:
            self._emit(self._container_buf.pop())

    def handle_data(self, data: str) -> None:
        if self._drop_depth or self._boiler_depth or not data:
            return
        target = self._block_stack[-1] if self._block_stack else (
            self._container_buf[-1] if self._container_buf else None
        )
        if target is None:
            return
        target["chunks"].append(data)
        n_chars = len(data.strip())
        if self._link_depth:
            target["link_chars"] += n_chars
        target["total_chars"] += n_chars

    # -- helpers ------------------------------------------------------------
    @staticmethod
    def _new_block(tag: str) -> dict:
        return {"tag": tag, "chunks": [], "link_chars": 0, "total_chars": 0}

    def _flush_container_text(self) -> None:
        """Text sitting directly in a container before a nested block starts
        becomes its own block (so `<div>intro<p>x</p></div>` yields two)."""
        if self._container_buf and self._container_buf[-1]["chunks"]:
            buf = self._container_buf[-1]
            self._emit({**buf, "chunks": list(buf["chunks"])})
            buf["chunks"] = []
            buf["link_chars"] = 0
            buf["total_chars"] = 0

    def _emit(self, raw: dict) -> None:
        if self._boiler_depth:
            return
        if raw["chunks"]:
            self.blocks.append(raw)

    def close_doc(self) -> list[dict]:
        # unterminated blocks/containers still flush (lenient real-world HTML)
        while self._block_stack:
            self._emit(self._block_stack.pop())
        while self._container_buf:
            self._emit(self._container_buf.pop())
        return self.blocks


import re as _re
from html import unescape as _unescape

# one-pass tag tokenizer for the fast path: comments / CDATA / doctype are
# skipped; a tag match captures (closing-slash, name, attr blob)
_TOKEN_RE = _re.compile(
    r"<!--.*?-->|<!\[CDATA\[.*?\]\]>|<![^>]*>|<(/?)([a-zA-Z][a-zA-Z0-9]*)([^>]*)>",
    _re.S,
)


def _scan_fast(html: str, collector: _BlockCollector) -> None:
    """Drive the collector's event handlers with a regex tokenizer.

    ~4x faster than ``html.parser`` (which spends 70% of the stage in its
    pure-python ``goahead``/``parse_starttag`` loop) while reusing the exact
    same state machine, so block semantics are identical for well-formed
    HTML; an equivalence test fuzzes both engines against each other.
    """
    pos = 0
    handle_data = collector.handle_data
    for m in _TOKEN_RE.finditer(html):
        if m.start() > pos:
            text = html[pos : m.start()]
            if "&" in text:
                text = _unescape(text)
            handle_data(text)
        pos = m.end()
        tag = m.group(2)
        if tag is None:
            continue  # comment / doctype / cdata
        tag = tag.lower()
        if m.group(1):
            collector.handle_endtag(tag)
        else:
            collector.handle_starttag(tag, [])
            attrs = m.group(3)
            if attrs and attrs.rstrip().endswith("/") and tag not in VOID_TAGS:
                collector.handle_endtag(tag)  # self-closing non-void
    if pos < len(html):
        text = html[pos:]
        if "&" in text:
            text = _unescape(text)
        handle_data(text)


def parse_html_blocks(
    html: str,
    max_link_density: float = DEFAULT_MAX_LINK_DENSITY,
    parser: _BlockCollector | None = None,
    engine: str = "fast",
) -> list[Block]:
    """Parse HTML into content blocks in document order, boilerplate removed.

    Args:
        html: the payload.
        max_link_density: blocks with a higher share of link text are dropped.
        parser: optional parser instance, reused across the rows of one call.
        engine: ``"fast"`` (regex tokenizer) or ``"stdlib"`` (html.parser);
            both drive the same collector state machine.

    Returns:
        Ordered list of :class:`Block` (category, whitespace tokens).
    """
    p = parser or _BlockCollector()
    p.reset_doc()
    try:
        if engine == "fast":
            _scan_fast(html, p)
        else:
            p.reset()  # HTMLParser internal state
            p.feed(html)
            p.close()
    except Exception:  # lenient: malformed HTML keeps whatever was collected
        pass
    raws = p.close_doc()
    out: list[Block] = []
    for raw in raws:
        tokens = tokenize_plain(" ".join(raw["chunks"]))
        if not tokens:
            continue
        density = raw["link_chars"] / raw["total_chars"] if raw["total_chars"] else 1.0
        if density > max_link_density:
            continue
        out.append(Block(category=CATEGORY_BY_TAG.get(raw["tag"], "text"), words=tokens))
    return out
