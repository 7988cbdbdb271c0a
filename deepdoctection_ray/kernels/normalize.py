"""Plain-text normalization for extracted turns.

The reference assembles block text with a single space between words
(``view.py:459-466``) and a newline between blocks (``view.py:1323-1329``), so
normalization here is token-level: tokens carry no whitespace and control
characters are stripped. ``normalize_plain`` is the whole pipeline for a
``plain`` payload: it must equal DuckDB's
``regexp_replace(regexp_replace(text, '^\\s+|\\s+$', ''), '\\s+', ' ', 'g')``
so the extraction oracle is SQL-expressible.
"""

from __future__ import annotations

import re

_CONTROL = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]")


def clean_token(token: str) -> str:
    """Strip C0/C1 control characters from a token."""
    return _CONTROL.sub("", token) if _CONTROL.search(token) else token


def tokenize_plain(text: str) -> list[str]:
    """Whitespace tokenization with control-char stripping; empty tokens drop.

    Almost no text holds a control character, and without one every
    ``str.split`` token is already clean and non-empty: one search decides.
    The per-row oracle of ``kernels.extract.plain_tokens``, which tokenizes
    the batch stage's plain rows as one Arrow column the same way.
    """
    if not _CONTROL.search(text):
        return text.split()
    return [t for t in (_CONTROL.sub("", t) for t in text.split()) if t]


def normalize_plain(text: str) -> str:
    """Collapse all whitespace runs to single spaces and trim."""
    return " ".join(text.split())


def word_ngrams(text: str, k: int = 3) -> list[str]:
    """Word k-grams with the short-doc fallback shared by EVERY gram-based
    operator (minhash/jaccard shingles, top-k n-grams, repetition signal,
    decontamination) and their DuckDB oracles: fewer than ``k`` tokens →
    the whole text as ONE gram; empty text → one empty gram. There is one
    definition on purpose — the hashed (dedup) and string (stats) gram
    families must stay semantically identical or their oracles diverge."""
    toks = text.split()
    if len(toks) < k:
        return [" ".join(toks)]
    return [" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)]
