"""One job in a fresh process on a fresh 2-CPU Ray session.

``run.py`` starts this file once per job, with the checkout root on
``PYTHONPATH`` so Ray workers can import ``deepdoctection_ray``:

    python3 perfbench/job.py '<spec json>'

The spec names the workload family (``extract`` or ``dedup``), the corpus,
an output directory and the result file. The job's outputs stay on disk for
``run.py`` to check; this process only measures.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from interpreter start

import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import pyarrow.parquet as pq  # noqa: E402

import procs  # noqa: E402

NUM_CPUS = 2
NUM_PARTITIONS = 16
OBJECT_STORE_BYTES = 512 * 1024 * 1024


def _span(name: str, start: float, end: float) -> dict:
    return {"name": name, "start": start, "end": end}


def _extract(spec: dict, out: str) -> dict:
    from deepdoctection_ray.pipelines.checkpoint import read_lineage
    from deepdoctection_ray.pipelines.extraction import run_extraction

    busy0 = procs.busy_cpu_s()
    start = time.time()
    t0 = time.perf_counter()
    summary = run_extraction(spec["input"], out, num_partitions=NUM_PARTITIONS, resume=False)
    t1 = time.perf_counter()
    busy1 = procs.busy_cpu_s()
    markers = sorted(os.stat(p).st_mtime for p in glob.glob(os.path.join(out, "_SUCCESS.*")))
    wall = t1 - t0
    return {
        "spans": [_span("pipelines.extraction.run_extraction", t0, t1)],
        "wall_s": wall,
        "first_output_s": markers[0] - start if markers else wall,
        "last_output_s": markers[-1] - start if markers else wall,
        "busy_core_s": busy1[0] - busy0[0],
        "steal_core_s": busy1[1] - busy0[1],
        "summary": {k: v for k, v in summary.items() if k != "output_dir"},
        "lineage": read_lineage(out),
    }


def _capture_join_side_stats(stats: list) -> None:
    """Keep ``Dataset.stats()`` of every dataset ``dedup_minhash`` hands to
    ``drop_empty_blocks``. That helper rebuilds its input from block refs, so
    the final dataset's stats start after it; capturing here covers the
    MinHasher map, the band exchange and every join."""
    from deepdoctection_ray.functions import joins

    scrub = joins.drop_empty_blocks

    def traced(ds, anchor=None):
        mat = ds.materialize()
        stats.append(mat.stats())
        return scrub(mat, anchor)

    joins.drop_empty_blocks = traced


def _dedup(spec: dict, out: str) -> dict:
    import ray.data

    from deepdoctection_ray.stages.dedup import dedup_minhash, truncation_counts

    os.makedirs(out)
    stats = []
    if spec["trace"]:
        _capture_join_side_stats(stats)
    busy0 = procs.busy_cpu_s()
    t0 = time.perf_counter()
    first = None
    # dedup_minhash materializes its candidate set before returning, so the
    # clock starts before the call
    pairs = dedup_minhash(
        ray.data.read_parquet(spec["input"]), "text", "doc_id",
        threshold=0.5, num_hashes=128, bands=64, verify=spec["verify"],
    )
    returned = time.perf_counter()
    batches = []
    for batch in pairs.iter_batches(batch_format="pyarrow", batch_size=None):
        if first is None:
            first = time.perf_counter() - t0
        batches.append(batch)
    t1 = time.perf_counter()
    wall = t1 - t0
    busy1 = procs.busy_cpu_s()
    if batches:
        import pyarrow as pa

        pq.write_table(pa.concat_tables(batches), os.path.join(out, "pairs.parquet"))
    res = {
        "spans": [
            _span("stages.dedup.dedup_minhash", t0, returned),
            _span("ray.data.Dataset.iter_batches", returned, t1),
        ],
        "wall_s": wall,
        "first_output_s": wall if first is None else first,
        "busy_core_s": busy1[0] - busy0[0],
        "steal_core_s": busy1[1] - busy0[1],
        "truncation": truncation_counts(),
    }
    if spec["trace"]:
        res["stats"] = stats + [pairs.stats()]
    return res


def _warm(batch):
    import deepdoctection_ray.kernels.extract  # noqa: F401

    return batch


def _warm_up() -> None:
    """Untimed: start Ray Data's per-session actors and load the package in
    the prestarted workers, so the timed job does not wait for either."""
    import ray.data

    ray.data.range(NUM_CPUS, override_num_blocks=NUM_CPUS).map_batches(_warm).take_all()


def main() -> None:
    spec = json.loads(sys.argv[1])
    import ray

    if spec["family"] == "extract":
        import deepdoctection_ray.pipelines.extraction  # noqa: F401
    else:
        import deepdoctection_ray.stages.dedup  # noqa: F401

    ray.init(
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=spec["ray_tmp"],
    )
    ready = time.perf_counter()
    _warm_up()
    warm = time.perf_counter()
    shutil.rmtree(spec["out"], ignore_errors=True)
    job = _extract if spec["family"] == "extract" else _dedup
    res = job(spec, spec["out"])
    res["setup_s"] = warm - _T0
    res["spans"] += [_span("setup", _T0, ready), _span("warm_up", ready, warm)]
    tmp = spec["result"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(res, fh)
    os.replace(tmp, spec["result"])
    # run.py kills the session's process group; ray.shutdown() would only
    # add its ~1.4 s to every job
    sys.stdout.flush()
    os._exit(0)


if __name__ == "__main__":
    main()
