"""Per-layer numbers: in-process single-threaded layer timings, the Ray
counters a traced job collects, and the in-memory span recorder.

Every timing here calls a module's public function from the benchmark's own
files; nothing inside the program is changed. A timing is the median of
``REPS`` passes over a seeded sample.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import re
import shutil
import statistics
import tempfile
import time

import pyarrow.parquet as pq

from job import NUM_PARTITIONS

REPS = 3
KERNEL_SAMPLE = 1200  # mixed turns: about 240 pdfish, 360 html, 600 plain
STAGE_ROWS = 2048  # one TurnExtractor batch
DEDUP_SAMPLE = 2000  # documents per MinHasher batch


class Tracer:
    """Spans kept in memory and written out once, at the end of a run.

    A span records its name, start and end (``time.perf_counter`` seconds),
    the span that caused it and any counts given at its boundary. All spans
    of one run share the tracer's ``trace_id``."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            **counts,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def add(self, spans: list[dict]) -> None:
        """Adopt spans recorded in a job process under the open span.
        ``time.perf_counter`` reads CLOCK_MONOTONIC on Linux, one clock for
        every process, so their times line up with this tracer's."""
        for s in spans:
            self.spans.append(
                {**s, "id": len(self.spans), "parent": self._open[-1] if self._open else None}
            )

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"trace_id": self.trace_id, "spans": self.spans}, fh)


def _us_per_item(tracer: Tracer, name: str, fn, items: list) -> float:
    """Median over ``REPS`` passes of the µs per item of ``fn(item)``."""
    passes = []
    with tracer.span(name, items=len(items), reps=REPS):
        for _ in range(REPS):
            t0 = time.perf_counter()
            for item in items:
                fn(item)
            passes.append(time.perf_counter() - t0)
    return statistics.median(passes) / max(len(items), 1) * 1e6


def kernel_layers(tracer: Tracer, mixed_path: str, seed: int) -> dict:
    """Single-threaded µs per row of each extraction kernel, on the rows of
    its own payload kind in a seeded sample of the mixed corpus."""
    from deepdoctection_ray.kernels.assemble import Block, assemble_turn
    from deepdoctection_ray.kernels.extract import classify_payload
    from deepdoctection_ray.kernels.html_blocks import (
        DEFAULT_MAX_LINK_DENSITY,
        _BlockCollector,
        parse_html_blocks,
    )
    from deepdoctection_ray.kernels.normalize import tokenize_plain
    from deepdoctection_ray.kernels.pdf_layout import extract_pdfish
    from deepdoctection_ray.kernels.reading_order import PARAGRAPH_BREAK

    texts = pq.read_table(mixed_path, columns=["text"])["text"].to_pylist()
    sample = random.Random(seed).sample(texts, min(KERNEL_SAMPLE, len(texts)))
    by_kind: dict[str, list[str]] = {"pdfish": [], "html": [], "plain": []}
    for text in sample:
        by_kind[classify_payload(text)].append(text)
    parser = _BlockCollector()  # warm, as TurnExtractor holds one per actor
    kernels = {
        "pdfish": lambda t: extract_pdfish(t, PARAGRAPH_BREAK),
        "html": lambda t: parse_html_blocks(t, DEFAULT_MAX_LINK_DENSITY, parser=parser),
        "plain": lambda t: [Block(category="text", words=w) for w in [tokenize_plain(t)] if w],
    }
    blocks = [kernels[kind](t) for kind, rows in by_kind.items() for t in rows]
    return {
        "kernels.extract.classify_payload.us_per_row": _us_per_item(
            tracer, "kernels.extract.classify_payload", classify_payload, sample
        ),
        "kernels.pdf_layout.extract_pdfish.us_per_row": _us_per_item(
            tracer, "kernels.pdf_layout.extract_pdfish", kernels["pdfish"], by_kind["pdfish"]
        ),
        "kernels.html_blocks.parse_html_blocks.us_per_row": _us_per_item(
            tracer, "kernels.html_blocks.parse_html_blocks", kernels["html"], by_kind["html"]
        ),
        "kernels.normalize.tokenize_plain.us_per_row": _us_per_item(
            tracer, "kernels.normalize.tokenize_plain", tokenize_plain, by_kind["plain"]
        ),
        "kernels.assemble.assemble_turn.us_per_row": _us_per_item(
            tracer, "kernels.assemble.assemble_turn", assemble_turn, blocks
        ),
    }


def stage_layers(tracer: Tracer, corpus_path: str, seed: int, work_dir: str) -> dict:
    """``stages.extract`` and ``pipelines.checkpoint`` per row, on one
    seeded batch of the extraction corpus.

    ``arrow_build_us_per_row`` is ``TurnExtractor`` time minus the time spent
    inside ``extract_turn`` during the same call, measured by wrapping the
    module's ``extract_turn`` for the duration of the measurement."""
    from deepdoctection_ray.pipelines.checkpoint import PART_FMT, write_partition
    from deepdoctection_ray.pipelines.extraction import TRANSCRIPT_COLUMNS
    from deepdoctection_ray.stages import extract as st

    table = pq.read_table(corpus_path, columns=TRANSCRIPT_COLUMNS)
    rows = random.Random(seed).sample(range(table.num_rows), min(STAGE_ROWS, table.num_rows))
    batch = table.take(rows).combine_chunks()
    n = batch.num_rows

    def tag(_):
        st.conv_partition_ids(batch["conv_id"], NUM_PARTITIONS, turn_idx=batch["turn_idx"])

    out = {
        "stages.extract.conv_partition_ids.us_per_row": _us_per_item(
            tracer, "stages.extract.conv_partition_ids", tag, [None]
        )
        / n
    }

    inner = [0.0]
    kernel = st.extract_turn

    def timed_extract_turn(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return kernel(*args, **kwargs)
        finally:
            inner[0] += time.perf_counter() - t0

    extractor = st.TurnExtractor()
    totals, builds = [], []
    st.extract_turn = timed_extract_turn
    try:
        with tracer.span("stages.extract.TurnExtractor", items=n, reps=REPS):
            for _ in range(REPS):
                inner[0] = 0.0
                t0 = time.perf_counter()
                extracted = extractor(batch)
                totals.append(time.perf_counter() - t0)
                builds.append(totals[-1] - inner[0])
    finally:
        st.extract_turn = kernel
    out["stages.extract.TurnExtractor.us_per_row"] = statistics.median(totals) / n * 1e6
    out["stages.extract.arrow_build_us_per_row"] = statistics.median(builds) / n * 1e6

    part_dir = tempfile.mkdtemp(prefix="checkpoint-", dir=work_dir)
    try:
        part_ids = iter(range(REPS))
        out["pipelines.checkpoint.write_partition.us_per_row"] = (
            _us_per_item(
                tracer,
                "pipelines.checkpoint.write_partition",
                lambda _: write_partition(part_dir, next(part_ids), extracted),
                [None],
            )
            / n
        )
        size = os.path.getsize(os.path.join(part_dir, PART_FMT.format(i=0)))
        out["pipelines.checkpoint.bytes_per_row"] = size / n
    finally:
        shutil.rmtree(part_dir, ignore_errors=True)
    return out


def dedup_layers(tracer: Tracer, docs_path: str, seed: int) -> dict:
    """Single-threaded µs per document of the MinHash signature actor and of
    the whole-batch shingle hashing inside it."""
    from deepdoctection_ray.stages.dedup import MinHasher, batch_shingle_hashes

    docs = pq.read_table(docs_path)
    rows = random.Random(seed).sample(range(docs.num_rows), min(DEDUP_SAMPLE, docs.num_rows))
    batch = docs.take(rows).combine_chunks()
    n = batch.num_rows
    hasher = MinHasher(text_column="text", id_column="doc_id", num_hashes=128, bands=64)
    return {
        "stages.dedup.MinHasher.us_per_doc": _us_per_item(
            tracer, "stages.dedup.MinHasher", hasher, [batch]
        )
        / n,
        "stages.dedup.batch_shingle_hashes.us_per_doc": _us_per_item(
            tracer,
            "stages.dedup.batch_shingle_hashes",
            lambda b: batch_shingle_hashes(b["text"], 3),
            [batch],
        )
        / n,
    }


def extraction_counters(job: dict, num_cpus: int) -> dict:
    """Per-layer numbers of one ``run_extraction`` job from the program's own
    counters: the run summary, lineage files and ``_SUCCESS`` marker times."""
    s = job["summary"]
    core = s["sort_core_sec"] + s["extract_core_sec"] + s["write_core_sec"]
    drain = job["last_output_s"] - job["first_output_s"]
    lineage = job["lineage"]
    rows = [x["n_rows"] for x in lineage]
    secs = [x["extract_sec"] for x in lineage]
    kinds = {"pdfish": 0, "html": 0, "plain": 0}
    for x in lineage:
        for kind, count in x["payload_kinds"].items():
            kinds[kind] = kinds.get(kind, 0) + count
    return {
        "pipelines.extraction.drain_s": drain,
        "pipelines.extraction.sort_core_s": s["sort_core_sec"],
        "pipelines.extraction.extract_core_s": s["extract_core_sec"],
        "pipelines.extraction.write_core_s": s["write_core_sec"],
        "pipelines.extraction.pool_busy_frac": core / (max(drain, 1e-9) * num_cpus),
        "pipelines.extraction.busy_core_s": job["busy_core_s"],
        "pipelines.extraction.partition_rows_max_over_p50": max(rows) / statistics.median(rows),
        "pipelines.extraction.partition_s_max_over_p50": max(secs) / max(statistics.median(secs), 1e-3),
        "pipelines.extraction.reconciliation_ratio": (job["first_output_s"] + core / num_cpus)
        / job["wall_s"],
        **{f"kernels.extract.rows.{k}": kinds[k] for k in ("pdfish", "html", "plain")},
    }


# Dataset.stats() operator name → metric label. Join operators are told
# apart by order: the candidate semi-join, then the joins attaching each
# pair side's shingles.
_OPS = (
    ("MapBatches(MinHasher)", "MinHasher"),
    ("MapBatches(tag)", "band_tag"),
    ("Sort", "bucket_exchange"),
    ("MapBatches(emit_arrow)", "emit_pairs"),
    ("MapBatches(run)", "pair_dedup"),
    ("MapBatches(to_shingles)", "to_shingles"),
    ("MapBatches(verify_batch)", "verify_batch"),
)
_JOINS = ("join_semi", "join_side_a", "join_side_b")
OP_LABELS = tuple(label for _, label in _OPS) + _JOINS
_OP_LINE = re.compile(r"^Operator \d+ (?P<name>[^:]+): (?P<rest>.*)$", re.M)
_WALL = re.compile(r"in (?P<s>[\d.]+)s")
_ROWS = re.compile(r"Output num rows per block: .* (?P<n>\d+) total")


def parse_stats(segments: list[str]) -> tuple[dict, int]:
    """``ray_data.op.<label>.wall_s`` from ``Dataset.stats()`` texts, and the
    number of rows the MinHasher emitted (the band rows)."""
    walls = {label: 0.0 for label in OP_LABELS}
    band_rows = 0
    joins = iter(_JOINS)
    for seg in segments:
        seen = set()
        for m in _OP_LINE.finditer(seg):
            name, wall = m.group("name"), _WALL.search(m.group("rest"))
            if name.startswith("Join"):
                label = next(joins, None)
            else:
                label = next((lab for pre, lab in _OPS if name.startswith(pre)), None)
            # a second Sort in one plan repeats the first's stats entry
            # ("[execution cached]"), so each label counts once per plan
            if label is None or wall is None or label in seen:
                continue
            seen.add(label)
            walls[label] += float(wall.group("s"))
            if label == "MinHasher":
                rows = _ROWS.search(seg, m.end())
                band_rows += int(rows.group("n")) if rows else 0
    return {f"ray_data.op.{k}.wall_s": v for k, v in walls.items()}, band_rows


def dedup_counters(full: dict, candidates: dict, n_candidates: int, n_verified: int) -> dict:
    """Per-layer numbers of ``dedup_minhash`` from a full and a
    candidates-only (``verify=False``) job."""
    ops, band_rows = parse_stats(full["stats"])
    return {
        "stages.dedup.candidates_s": candidates["wall_s"],
        "stages.dedup.verify_s": full["wall_s"] - candidates["wall_s"],
        "stages.dedup.band_rows": band_rows,
        "stages.dedup.candidate_pairs": n_candidates,
        "stages.dedup.verified_pairs": n_verified,
        "stages.dedup.candidate_precision": n_verified / max(n_candidates, 1),
        "stages.dedup.truncated_buckets": sum(
            v.get("buckets", 0) for v in full["truncation"].values()
        ),
        **ops,
    }
