"""The extraction entry points, the classifier stages that follow them in
``q_doc_type`` and ``q_entities``, and the bucket exchange (``hash_join`` at
its default 8 buckets, a 64-bucket ``bucketed_map_groups`` and an
``asof_join``) finish on a 1-CPU Ray session.

An actor pool downstream of CPU tasks can hold the only CPU while the read,
tag, sort and extraction tasks it waits on never get scheduled. The run
happens in a child process with its own ``ray.init(num_cpus=1)`` under a
hard timeout, so a hang fails this test instead of hanging the suite.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

from deepdoctection_ray import fixtures

TIMEOUT_S = 120
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = """
import json, sys
import pyarrow as pa
import ray
from deepdoctection_ray import fixtures, queries
from deepdoctection_ray.functions.bucketed import bucketed_map_groups
from deepdoctection_ray.functions.joins import asof_join, hash_join
from deepdoctection_ray.pipelines.extraction import extract_turns, read_transcripts, run_extraction

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
summary = run_extraction(fixtures.TRANSCRIPTS_DIR, sys.argv[1], num_partitions=8, resume=False)
mapped = extract_turns(read_transcripts(fixtures.TRANSCRIPTS_DIR)).materialize().count()
doc_types = queries.q_doc_type("").count()  # extraction tasks, then the classifier stages
entities = queries.q_entities("").count()
left = ray.data.from_arrow(pa.table({"k": [i % 300 for i in range(1000)], "x": list(range(1000))}))
right = ray.data.from_arrow(pa.table({"k": list(range(0, 600, 2)), "y": list(range(300))}))
joined = hash_join(left, right, "k").count()  # 8 buckets
grouped = bucketed_map_groups(left, ["k"], lambda g: g.group_by("k").aggregate([("x", "sum")]), 64)
marks = ray.data.from_arrow(pa.table({"k": [i % 50 for i in range(0, 1000, 4)],
                                      "x": list(range(0, 1000, 4)), "m": list(range(250))}))
asof = asof_join(left, marks, "k", "x", ["m"]).count()  # 32 buckets
print(json.dumps({"rows_written": summary["rows_written"], "errors": summary["errors"],
                  "mapped": mapped, "doc_types": doc_types, "entities": entities,
                  "joined": joined, "grouped": grouped.count(), "asof": asof}))
"""


def test_extraction_finishes_on_one_cpu(tmp_path):
    fixtures.ensure_fixtures()
    rows = pq.read_table(fixtures.TRANSCRIPTS_DIR, columns=["conv_id"]).num_rows
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [REPO, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(tmp_path / "out")],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # Ray's own processes die with the driver
        proc.communicate()
        pytest.fail(f"extraction did not finish within {TIMEOUT_S} s on a 1-CPU session")
    assert proc.returncode == 0, err[-2000:]
    result = json.loads(out.strip().splitlines()[-1])
    assert result.pop("entities") > 0
    layout_docs = pq.read_table(fixtures.path("layout_docs"), columns=["doc_id"]).num_rows
    assert result == {
        "rows_written": rows, "errors": 0, "mapped": rows, "doc_types": layout_docs, "joined": 500,
        "grouped": 300, "asof": 1000,
    }
