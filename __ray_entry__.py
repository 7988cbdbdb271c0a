"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing here
(nor in the library) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline smoke: extract the synthetic transcript corpus plus
    the sf0.001 documents table through the extraction stage."""
    from deepdoctection_ray.pipelines.extraction import extract_turns, read_transcripts
    from deepdoctection_ray.synth import write_transcripts

    path = write_transcripts("/tmp/ddray_transcripts_entry", n_convs=40, seed=42, hot_factor=10)
    ds = read_transcripts(path)
    out = extract_turns(ds, batch_size=512)
    return out.select_columns(
        ["conv_id", "turn_idx", "role", "tool", "ts", "payload_kind", "extracted_text"]
    )


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2."""
    from deepdoctection_ray.queries import build_queries

    return build_queries()


def oracle_sql() -> dict[str, str]:
    """DuckDB-equivalent SQL for every SQL-expressible query; approximate /
    stateful ops are omitted (driver records a rows-only check)."""
    from deepdoctection_ray.queries import build_oracle_sql

    return build_oracle_sql()
