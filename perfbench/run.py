"""Benchmark of deepdoctection_ray: seeded batch workloads in a closed loop.

    python3 perfbench/run.py --workload extract_mixed --seed 1 --seconds 56 --trace 0

Run from the checkout root. Each job runs in a fresh process on a fresh
2-CPU Ray session (``job.py``), one job at a time, until the next job would
end after ``--seconds``; then the outputs of every job are checked and the
last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over the run's jobs);
``--trace 1`` runs the traced job set instead and reports per-layer metrics.
See README.md for the workloads, the metrics and what each layer metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, ROOT)

# corpora imports deepdoctection_ray: outside a full checkout this fails and
# the run exits non-zero without a result
import checks  # noqa: E402
import corpora  # noqa: E402
import layers  # noqa: E402
import procs  # noqa: E402
from job import NUM_CPUS  # noqa: E402

FAMILY = {"extract_mixed": "extract", "extract_plain": "extract", "dedup_minhash": "dedup"}
# the workload that measures the other family's layers in a traced run
COMPANION = {"extract": "dedup_minhash", "dedup": "extract_mixed"}
JOB_TIMEOUT_S = 100  # run_extraction on 1 Ray CPU hangs; a hang is a failure
RUN_DEADLINE_S = 170  # a run must end within 180 s
# Ray's socket paths (<temp>/session_<date>_<time>_<pid>/sockets/plasma_store)
# must fit in 107 bytes; a longer temp dir falls back to Ray's default location
MAX_RAY_TMP_LEN = 43
RSS_SAMPLE_S = 0.1


def _log(msg: str) -> None:
    print(msg, flush=True)


def _reap(pgid: int) -> None:
    """Kill whatever the job's process group left behind and wait for it."""
    deadline = time.monotonic() + 10
    while procs.group_members(pgid) and time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            break
        time.sleep(0.1)


def _wait_no_ray() -> None:
    """Confirm no Ray worker or daemon is left before a job starts."""
    deadline = time.monotonic() + 30
    while procs.ray_processes():
        if time.monotonic() > deadline:
            print(f"warning: Ray processes still running: {procs.ray_processes()}", file=sys.stderr)
            return
        time.sleep(0.2)


class Runner:
    """Starts jobs one at a time and keeps their check results."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        ray_tmp = os.path.join(WORK, "ray")
        self.ray_tmp = ray_tmp if len(ray_tmp) <= MAX_RAY_TMP_LEN else None

    def job(self, workload: str, corpus: dict, trace: bool = False, verify: bool = True) -> dict | None:
        """Run one job in a fresh process; check its outputs. Returns the
        job's result with ``ok``, ``failed`` and ``elapsed_s`` added, or None
        when the run has no time left to start it."""
        family = FAMILY[workload]
        timeout = min(JOB_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout < 5:
            return None
        out = os.path.join(WORK, "out")
        result = os.path.join(WORK, "result.json")
        if os.path.exists(result):
            os.remove(result)
        spec = {
            "family": family, "input": corpus["path"], "out": out, "result": result,
            "trace": trace, "verify": verify, "ray_tmp": self.ray_tmp,
        }
        env = dict(os.environ, PYTHONPATH=ROOT, OMP_NUM_THREADS="1")
        _wait_no_ray()
        t0 = time.monotonic()
        peak_rss = 0
        with open(os.path.join(WORK, "job.log"), "w") as log:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "job.py"), json.dumps(spec)],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                start_new_session=True,
            )
            try:
                # sampled here, not in the job process, so the sampler never
                # holds the job's interpreter lock
                while proc.poll() is None and time.monotonic() - t0 < timeout:
                    peak_rss = max(peak_rss, procs.job_rss(proc.pid))
                    time.sleep(RSS_SAMPLE_S)
                code = proc.poll()  # None: timed out
            finally:
                # the job exits without ray.shutdown(); its session's
                # processes are killed here
                _reap(proc.pid)
                proc.wait()
        elapsed = time.monotonic() - t0
        if self.ray_tmp:
            shutil.rmtree(self.ray_tmp, ignore_errors=True)
        rows = corpus["rows"]
        self.attempted += rows
        res = {}
        if code == 0 and os.path.exists(result):
            with open(result) as fh:
                res = json.load(fh)
        if not res:
            why = "timed out" if code is None else f"exited with {code}"
            print(f"job {workload} {why}; see {os.path.join(WORK, 'job.log')}", file=sys.stderr)
            self.failed += rows
            return {"ok": False, "failed": rows, "elapsed_s": elapsed}
        if family == "extract":
            failed = checks.check_extract(out, rows, res["summary"], corpus["sample"])
        else:
            pairs = os.path.join(out, "pairs.parquet")
            failed = checks.check_dedup(pairs, corpus["truth"], rows, verify)
            res["n_pairs"] = checks.count_rows(pairs)
        self.failed += failed
        return {**res, "ok": True, "failed": failed, "elapsed_s": elapsed, "peak_rss_bytes": peak_rss}


def _corpus(workload: str, seed: int) -> dict:
    t0 = time.perf_counter()
    corpus = corpora.ensure(workload, seed, os.path.join(WORK, "corpora"))
    if FAMILY[workload] == "extract":
        corpus["sample"] = checks.extract_sample(corpus["path"], seed)
    corpus["prepare_s"] = time.perf_counter() - t0
    _log(
        f"corpus {workload} seed={seed}: {corpus['rows']} rows, "
        f"{'generated' if corpus['generated'] else 'cached'} in {corpus['prepare_s']:.2f} s"
    )
    return corpus


def timed_run(workload: str, seed: int, seconds: float, runner: Runner) -> dict:
    corpus = _corpus(workload, seed)
    rows = corpus["rows"]
    jobs: list[dict] = []
    start = time.monotonic()
    while True:
        job = runner.job(workload, corpus)
        if job is None:
            break
        jobs.append(job)
        if job["ok"]:
            _log(
                f"job {len(jobs)}: {job['wall_s']:.3f} s wall, {rows / job['wall_s']:.1f} rows/s, "
                f"first output {job['first_output_s']:.3f} s, set-up {job['setup_s']:.3f} s, "
                f"peak RSS {job['peak_rss_bytes'] / 2**20:.0f} MiB, busy {job['busy_core_s']:.1f} core-s, "
                f"steal {job['steal_core_s']:.2f} core-s, {job['failed']} failed"
            )
        typical = statistics.median(j["elapsed_s"] for j in jobs)
        if not job["ok"] or time.monotonic() - start + typical > seconds:
            break
    ok = [j for j in jobs if j["ok"]] or [
        {"wall_s": j["elapsed_s"], "first_output_s": j["elapsed_s"], "setup_s": 0.0, "peak_rss_bytes": 0}
        for j in jobs
    ]
    med = lambda key: statistics.median(j[key] for j in ok)  # noqa: E731
    _log(f"{len(jobs)} jobs of {rows} rows in {time.monotonic() - start:.1f} s")
    return {
        "rows_per_s": {"value": statistics.median(rows / j["wall_s"] for j in ok), "unit": "1/s"},
        "first_partition_s": {"value": med("first_output_s"), "unit": "s"},
        "peak_rss_mb": {"value": med("peak_rss_bytes") / 2**20, "unit": "MiB"},
        "setup_s": {"value": med("setup_s"), "unit": "s"},
    }


def trace_run(workload: str, seed: int, runner: Runner) -> dict:
    """Per-layer metrics. Every layer is measured on every traced run: the
    workload's own jobs give its family's Ray counters, and the companion
    workload at the same seed gives the other family's."""
    tracer = layers.Tracer(f"{workload}-{seed}")
    family = FAMILY[workload]
    by_family = {family: _corpus(workload, seed)}
    other = COMPANION[family]
    by_family[FAMILY[other]] = _corpus(other, seed)
    # kernel timings need pdfish and html rows, which extract_plain lacks
    mixed = by_family["extract"] if workload != "extract_plain" else _corpus("extract_mixed", seed)
    metrics: dict[str, float] = {}

    def run(name: str, wl: str, **kw) -> dict:
        with tracer.span(name, workload=wl, rows=by_family[FAMILY[wl]]["rows"]):
            job = runner.job(wl, by_family[FAMILY[wl]], **kw)
            if job is None or not job["ok"]:
                raise RuntimeError(f"traced run: job {name} did not complete")
            tracer.add(job["spans"])
        return job

    own = by_family[family]["rows"]
    untraced = run("job.untraced", workload)
    traced = run("job.traced", workload, trace=True)
    metrics["tracing.overhead_rows_per_s"] = own / traced["wall_s"] - own / untraced["wall_s"]

    ext = traced if family == "extract" else run("job.companion", other, trace=True)
    metrics.update(layers.extraction_counters(ext, NUM_CPUS))
    core = sum(metrics[f"pipelines.extraction.{s}_core_s"] for s in ("sort", "extract", "write"))
    _log(
        f"reconciliation {workload if family == 'extract' else other}: (first partition "
        f"{ext['first_output_s']:.2f} s + stage core-s {core:.2f} / {NUM_CPUS} CPUs) / wall "
        f"{ext['wall_s']:.2f} s = {metrics['pipelines.extraction.reconciliation_ratio']:.3f}"
    )

    dedup_wl = workload if family == "dedup" else other
    full = traced if family == "dedup" else run("job.companion", dedup_wl, trace=True)
    cand = run("job.candidates", dedup_wl, verify=False)
    metrics.update(layers.dedup_counters(full, cand, cand["n_pairs"], full["n_pairs"]))

    with tracer.span("in_process"):
        metrics.update(layers.kernel_layers(tracer, mixed["path"], seed))
        metrics.update(layers.stage_layers(tracer, by_family["extract"]["path"], seed, WORK))
        metrics.update(layers.dedup_layers(tracer, by_family["dedup"]["path"], seed))

    trace_path = os.path.join(WORK, f"trace-{workload}-{seed}.json")
    tracer.dump(trace_path)
    _log(f"spans written to {trace_path}")
    _log(
        f"tracing overhead: traced {own / traced['wall_s']:.1f} - untraced "
        f"{own / untraced['wall_s']:.1f} = {metrics['tracing.overhead_rows_per_s']:.1f} rows/s"
    )
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(FAMILY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.makedirs(WORK, exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    runner = Runner(deadline)
    if args.trace:
        metrics = trace_run(args.workload, args.seed, runner)
    else:
        metrics = timed_run(args.workload, args.seed, args.seconds, runner)
    _log(f"failed_frac: {runner.failed}/{runner.attempted} = {runner.failed / runner.attempted:.6f}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
