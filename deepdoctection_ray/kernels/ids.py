"""Deterministic content-hash identifiers.

Mirrors the reference's uuid3 scheme
(``dd_core/src/dd_core/utils/identifier.py:53-77``): record and annotation ids
are content hashes, which makes per-turn output reproducible across runs and
makes retried partitions idempotent (same input row → same row id).
"""

from __future__ import annotations

import hashlib
import uuid


def uuid_from_str(value: str) -> str:
    """uuid3(NAMESPACE_DNS, value) — reference ``identifier.py:66-77``."""
    return str(uuid.uuid3(uuid.NAMESPACE_DNS, value))


def md5_hex(data: bytes | str) -> str:
    """md5 hex digest (reference ``identifier.py:94-113`` hashes files; we hash
    values — used for exact dedup keys and deterministic pseudo-randomness)."""
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    return hashlib.md5(data).hexdigest()


def stable_int(key: str, bits: int = 63) -> int:
    """Deterministic integer derived from a string key (seeding synthetic data,
    salting hot shuffle keys). Independent of PYTHONHASHSEED."""
    return int.from_bytes(hashlib.md5(key.encode("utf-8")).digest()[:8], "big") >> (64 - bits)
