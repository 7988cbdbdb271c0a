"""Token and sequence classification stages.

Analogs of ``LMTokenClassifierService`` (``pipe/lm.py:41-285``: word-level
class sub-categories) and ``LMSequenceClassifierService``
(``pipe/lm.py:290-427``: page-level document type) with the HF models swapped
for deterministic rule classifiers — no model weights exist in this
environment, but the stage shape (state in ``__init__``, word-aligned
outputs) is the real contract. Both hold only compiled patterns, so callers
map an INSTANCE (``map_batches(TokenClassifier(), ...)``) and Ray runs it as
tasks: an actor pool after the extraction tasks can hold a 1-CPU session's
only CPU while the tasks it waits on never run. A real model would move
back into an actor pool.

For a genuinely TRAINED sequence classifier with the same actor-pool
contract, see ``stages/nbayes.py`` (distributed-trained multinomial Naive
Bayes over hashed features, SQL-oracled end to end) — the statistical
stand-in for the fine-tuned HF sequence model.
"""

from __future__ import annotations

import re

import pyarrow as pa

TOKEN_CLASSES = ("number", "date", "url", "email", "word")


class TokenClassifier:
    """Word-level token classes aligned with the extraction spans.

    Adds ``token_classes: list<string>`` parallel to the turn's spans —
    the ``WordKey.TOKEN_CLASS`` sub-category analog.
    """

    def __init__(self, text_column: str = "extracted_text", spans_column: str = "spans") -> None:
        self._text_column = text_column
        self._spans_column = spans_column
        self._number = re.compile(r"^[0-9]+([.,][0-9]+)*$")
        self._date = re.compile(r"^\d{4}-\d{2}-\d{2}$|^\d{1,2}/\d{1,2}/\d{2,4}$")
        self._url = re.compile(r"^(https?://|www\.)\S+$", re.I)
        self._email = re.compile(r"^[^@\s]+@[^@\s]+\.[^@\s]+$")

    def classify_token(self, token: str) -> str:
        if self._number.match(token):
            return "number"
        if self._date.match(token):
            return "date"
        if self._url.match(token):
            return "url"
        if self._email.match(token):
            return "email"
        return "word"

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self._text_column].to_pylist()
        spans = batch[self._spans_column].to_pylist()
        flat: list[str] = []
        offsets: list[int] = [0]
        for text, row_spans in zip(texts, spans):
            for s in row_spans or []:
                flat.append(self.classify_token(text[s["start"] : s["end"]]))
            offsets.append(len(flat))
        arr = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), pa.array(flat, pa.string()))
        return batch.append_column("token_classes", arr)


class SequenceClassifier:
    """Turn-level document type from structure — the page classifier analog.

    Deterministic rules over payload kind and block categories:
    ``table_doc`` (any table/cell block), ``article`` (≥2 narrative text
    blocks or a title), ``listing`` (list items dominate), ``chat`` (plain
    payload), ``fragment`` otherwise.
    """

    def __init__(self, blocks_column: str = "blocks", kind_column: str = "payload_kind") -> None:
        self._blocks_column = blocks_column
        self._kind_column = kind_column

    def classify(self, kind: str, categories: list[str]) -> str:
        if any(c in ("table", "cell") for c in categories):
            return "table_doc"
        n_list = sum(c == "list_item" for c in categories)
        n_text = sum(c in ("text", "line") for c in categories)
        if n_list > max(n_text, 0):
            return "listing"
        if "title" in categories or n_text >= 2:
            return "article"
        if kind == "plain":
            return "chat"
        return "fragment"

    def __call__(self, batch: pa.Table) -> pa.Table:
        kinds = batch[self._kind_column].to_pylist()
        blocks = batch[self._blocks_column].to_pylist()
        labels = [
            self.classify(kind, [b["category"] for b in (row or [])])
            for kind, row in zip(kinds, blocks)
        ]
        return batch.append_column("doc_type", pa.array(labels, pa.string()))
