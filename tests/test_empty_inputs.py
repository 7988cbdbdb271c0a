"""Empty-input robustness: EVERY catalog query must run on zero-row tables.

At 100 TB, empty partitions are routine and a zero-row shard (a filtered
slice, a new tenant, a dry run) must not crash a pipeline. Ray 2.49 makes
this genuinely hard: ``groupby().aggregate()`` on a fully-empty input
returns a dataset with NO schema at all, and ``Dataset.join`` raises
``ArrowInvalid`` when either input starts with a 0-row block or is fully
empty — even two bare ``read_parquet`` reads of zero-row files with intact
footer schemas. ``functions.joins.hash_join`` owns the join (its own
split-and-join tasks over typed blocks of both sides), the grouped
helpers' ``anchor=`` keeps aggregate schemas, and O(1) parquet-metadata
guards keep the DataFrame/Table queries' columns — this module pins the
whole catalog against the degenerate corpus and ``hash_join`` against the
edge layouts.
"""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


@pytest.fixture(scope="module")
def empty_sf(tmp_path_factory):
    src = "/root/testdata/sf0.001"
    if not os.path.isdir(src):
        pytest.skip("no testdata")
    dst = tmp_path_factory.mktemp("empty_sf")
    for t in TABLES:
        tab = pq.read_table(os.path.join(src, f"{t}.parquet"))
        pq.write_table(tab.slice(0, 0), os.path.join(str(dst), f"{t}.parquet"))
    return str(dst)


def test_every_query_survives_empty_tables(ray_session, empty_sf):
    import duckdb
    import pandas as pd

    import ray.data as rd
    from deepdoctection_ray.queries import build_oracle_sql, build_queries

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{empty_sf}/{t}.parquet')")
    oracles = build_oracle_sql()
    failures, compared = [], 0
    for name, fn in build_queries().items():
        try:
            r = fn(empty_sf)
            if isinstance(r, rd.Dataset):
                # to_pandas() of an empty Dataset has no columns whatever
                # its schema, so only the crash is checked
                r.count()
                continue
            assert isinstance(r, (pa.Table, pd.DataFrame))
            cols = r.column_names if isinstance(r, pa.Table) else list(r.columns)
            if name in oracles:
                compared += 1
                exp = list(con.sql(oracles[name]).df().columns)
                assert sorted(cols) == sorted(exp), f"columns {cols} vs oracle {exp}"
        except Exception as e:  # noqa: BLE001 - collect everything, fail once
            failures.append(f"{name}: {type(e).__name__}: {e}")
    assert not failures, "queries failed on empty input:\n" + "\n".join(failures)
    assert compared


LEFT = pa.table({"k": pa.array([1, 2, 3, 4], pa.int64()), "x": pa.array(["a", "b", "c", "d"])})
RIGHT = pa.table({"k": pa.array([2, 3, 9], pa.int64()), "y": pa.array([20.0, 30.0, 90.0])})


def _expected_rows(left: pa.Table, right: pa.Table, how: str) -> list:
    ys = dict(zip(right["k"].to_pylist(), right["y"].to_pylist()))
    rows = []
    for k, x in zip(left["k"].to_pylist(), left["x"].to_pylist()):
        hit = k in ys
        if how == "left" or (how == "inner" and hit):
            rows.append((k, x, ys.get(k)))
        elif (how == "semi" and hit) or (how == "anti" and not hit):
            rows.append((k, x))
    return sorted(rows)


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
@pytest.mark.parametrize("shape", ["head-block-filtered", "empty-right", "empty-left"])
def test_hash_join_empty_edges(ray_session, shape, how):
    """Each shape crashed the bare ``Dataset.join``; ``hash_join`` must give
    the relational answer with the documented columns at 1, 2 and 8
    buckets (one bucket joins each block unsplit)."""
    import ray.data

    from deepdoctection_ray.functions.joins import hash_join

    left_t, right_t = LEFT, RIGHT
    if shape == "head-block-filtered":
        # the probe's first block filters to 0 rows; later blocks hold keys
        left = ray.data.from_arrow([LEFT.slice(0, 2), LEFT.slice(2)]).map_batches(
            lambda b: b.filter(pc.greater(b["k"], 2)), batch_format="pyarrow"
        )
        left_t = LEFT.filter(pc.greater(LEFT["k"], 2))
        right = ray.data.from_arrow(RIGHT)
    elif shape == "empty-right":
        left, right_t = ray.data.from_arrow(LEFT), RIGHT.slice(0, 0)
        right = ray.data.from_arrow(right_t)
    else:
        left_t, right = LEFT.slice(0, 0), ray.data.from_arrow(RIGHT)
        left = ray.data.from_arrow(left_t)
    cols = ["k", "x", "y"] if how in ("inner", "left") else ["k", "x"]
    for num_buckets in (1, 2, 8):
        out = hash_join(left, right, "k", {"y": pa.float64()}, how=how, num_buckets=num_buckets)
        assert out.schema().names == cols, num_buckets
        got = sorted(tuple(r[c] for c in cols) for r in out.take_all())
        assert got == _expected_rows(left_t, right_t, how), num_buckets
