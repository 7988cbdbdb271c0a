"""Output checks. Each returns the number of failed operations it found."""

from __future__ import annotations

import glob
import os
import random

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

SAMPLE_ROWS = 96
JACCARD_TOL = 1.5e-6  # the pipeline and the SQL oracle round to 6 digits differently

_KEY = ["conv_id", "turn_idx"]


def _keys(table: pa.Table) -> pa.Array:
    return pc.binary_join_element_wise(
        table["conv_id"], pc.cast(table["turn_idx"], pa.string()), "#"
    )


def extract_sample(corpus_path: str, seed: int) -> dict[str, str]:
    """A seeded sample of input turns, ``"conv_id#turn_idx" -> text``."""
    table = pq.read_table(corpus_path, columns=_KEY + ["text"])
    rows = random.Random(seed).sample(range(table.num_rows), min(SAMPLE_ROWS, table.num_rows))
    picked = table.take(rows)
    return dict(zip(_keys(picked).to_pylist(), picked["text"].to_pylist()))


def _spans_rows(spans: dict) -> list[dict]:
    names = list(spans)
    return [dict(zip(names, vals)) for vals in zip(*(spans[n] for n in names))]


def check_extract(out_dir: str, rows_in: int, summary: dict, sample: dict[str, str]) -> int:
    """Failed rows of one ``run_extraction`` output directory.

    Counts rows with a non-null ``error``, every row of a partition that is
    not ordered by ``(conv_id, turn_idx)``, missing or duplicated rows, and
    sampled rows whose ``extracted_text`` or ``spans`` differ from
    single-threaded ``kernels.extract.extract_turn``.
    """
    from deepdoctection_ray.kernels.extract import extract_turn

    failed = abs(int(summary.get("rows_written", 0)) - rows_in)
    parts = []
    for path in sorted(glob.glob(os.path.join(out_dir, "part-*.parquet"))):
        part = pq.read_table(path, columns=_KEY + ["extracted_text", "spans", "error"])
        order = pc.sort_indices(part, [(k, "ascending") for k in _KEY])
        if not order.equals(pa.array(range(part.num_rows), order.type)):
            failed += part.num_rows
        failed += part.num_rows - part["error"].null_count
        parts.append(part)
    out = pa.concat_tables(parts) if parts else None
    n_out = out.num_rows if out is not None else 0
    keys = _keys(out) if out is not None else pa.array([], pa.string())
    failed += abs(rows_in - n_out) + (n_out - pc.count_distinct(keys).as_py())

    found = {}
    if out is not None:
        hit = out.filter(pc.is_in(keys, value_set=pa.array(list(sample), pa.string())))
        for key, text, spans in zip(
            _keys(hit).to_pylist(), hit["extracted_text"].to_pylist(), hit["spans"].to_pylist()
        ):
            found[key] = (text, spans)
    for key, text in sample.items():
        want = extract_turn(text)
        got = found.get(key)
        if got is None or got != (want["extracted_text"], _spans_rows(want["spans"])):
            failed += 1
    return min(failed, rows_in)


def _pairs(path: str) -> dict[tuple[int, int], float]:
    if not os.path.exists(path):
        return {}
    t = pq.read_table(path)
    ja = t["jaccard"].to_pylist() if "jaccard" in t.column_names else [None] * t.num_rows
    return dict(zip(zip(t["id_a"].to_pylist(), t["id_b"].to_pylist()), ja))


def count_rows(path: str) -> int:
    return pq.read_metadata(path).num_rows if os.path.exists(path) else 0


def check_dedup(pairs_path: str, truth_path: str, rows_in: int, verified: bool) -> int:
    """Failed pairs of one ``dedup_minhash`` output against the brute-force
    truth: for the verified output every missing, extra or mis-scored pair;
    for the candidate set (``verify=False``) every true pair it misses."""
    got, truth = _pairs(pairs_path), _pairs(truth_path)
    if verified:
        failed = len(got.keys() ^ truth.keys()) + sum(
            abs(got[p] - truth[p]) > JACCARD_TOL for p in got.keys() & truth.keys()
        )
    else:
        failed = len(truth.keys() - got.keys())
    return min(failed, rows_in)
