"""XML payload parsing — the ``xml_to_dict`` analog.

The reference transforms XML page payloads with lxml+XSLT
(``dd_core/src/dd_core/mapper/misc.py:218-242``); lxml is absent here, so a
stdlib ``xml.etree`` walk produces the same nested-dict shape. Used as a
stateless ``map_batches`` parse stage for XML transcript payloads.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET


def xml_to_dict(payload: str) -> dict:
    """Parse an XML string into ``{tag, attrib, text, children}`` recursively."""
    return _node_to_dict(ET.fromstring(payload))


def _node_to_dict(node: ET.Element) -> dict:
    return {
        "tag": node.tag,
        "attrib": dict(node.attrib),
        "text": (node.text or "").strip(),
        "children": [_node_to_dict(c) for c in node],
    }
