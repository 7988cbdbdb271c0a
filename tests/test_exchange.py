"""The one bucket exchange (``functions.joins.exchange``) against pandas.

Every bucketed operator — ``bucketed_map_groups``, ``hash_join``,
``asof_join``, ``range_join``, ``merge_by_key`` and the evaluator — runs on
the same split and per-bucket tasks, so these properties hold for all of
them: every row reaches exactly one ``emit`` call, every key (as pandas
groups it: ``0.0`` and ``-0.0`` one key, every NaN one key, every null one
key) reaches exactly one call, and a two-side bucket merges like
``pandas.merge`` over the whole inputs. The layouts are the edge shapes of
Ray 2.49: 0-row blocks at any position, a fully-empty side, a schema-less
side, one bucket and more buckets than keys.
"""

from __future__ import annotations

import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

SETTINGS = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

# key kind -> (Arrow key fields, value pool per field)
KINDS = {
    "int": ([("k", pa.int64())], [[1, 2, 3, 7, None]]),
    "float": ([("k", pa.float64())], [[0.0, -0.0, 1.5, float("nan"), -2.0]]),
    "composite": (
        [("k", pa.int32()), ("k2", pa.int64())],
        [[0, 1, None], [5, 6, 2**40]],
    ),
}


@st.composite
def sides(draw, kind: str, name: str):
    """One side: blocks of ``(*keys, v)`` rows with 0-row blocks drawn in at
    any position (first, middle, last), or a side with no rows at all."""
    fields, pools = KINDS[kind]
    schema = pa.schema([*fields, (name, pa.int64())])
    blocks = []
    for b in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 6))
        cols = [[draw(st.sampled_from(pool)) for _ in range(n)] for pool in pools]
        vals = [b * 100 + i for i in range(n)]
        blocks.append(pa.Table.from_arrays([*cols, vals], schema=schema))
    for _ in range(draw(st.integers(0, 2))):
        blocks.insert(draw(st.integers(0, len(blocks))), schema.empty_table())
    return blocks or [schema.empty_table()], schema


def _dataset(blocks):
    import ray.data

    return ray.data.from_arrow(blocks)


def _key_of(key) -> tuple:
    """The pandas group of a key tuple: -0.0 is 0.0, every NaN (and every
    null, which pandas reads as NaN) is one key."""
    return tuple("nan" if pd.isna(x) else x + 0 for x in key)


def _frame(ds, columns: list[str]) -> pd.DataFrame:
    # to_pandas() of an empty Dataset has no columns whatever its schema
    return ds.to_pandas() if ds.count() else pd.DataFrame(columns=columns)


def _calls_per_key(out: pd.DataFrame, keys: list[str]) -> dict:
    calls: dict = {}
    for *key, call in out[keys + ["call"]].itertuples(index=False):
        calls.setdefault(_key_of(key), set()).add(call)
    return calls


def _call_tagger():
    """An emit that tags its rows with an id of the call (built in a function
    so Ray pickles it by value: workers cannot import this test module)."""

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column("call", pa.array([uuid.uuid4().hex] * t.num_rows, pa.string()))

    return tag


@SETTINGS
@given(data=st.data(), kind=st.sampled_from(sorted(KINDS)), num_buckets=st.sampled_from([1, 3, 64]))
def test_one_side_exchange_groups_like_pandas(ray_session, data, kind, num_buckets):
    from deepdoctection_ray.functions.bucketed import bucketed_map_groups

    blocks, _ = data.draw(sides(kind, "v"))
    keys = [name for name, _ in KINDS[kind][0]]
    out = _frame(
        bucketed_map_groups(_dataset(blocks), keys, _call_tagger(), num_buckets), keys + ["v", "call"]
    )
    rows = pa.concat_tables(blocks).to_pandas()
    # every row reaches exactly one emit call
    assert sorted(out["v"]) == sorted(rows["v"])
    # every key reaches exactly one call, so the calls split like groupby
    calls = _calls_per_key(out, keys)
    assert all(len(c) == 1 for c in calls.values())
    assert len(calls) == len(rows.groupby(keys, dropna=False).size())


@SETTINGS
@given(data=st.data(), kind=st.sampled_from(sorted(KINDS)), num_buckets=st.sampled_from([1, 4, 64]))
def test_two_side_exchange_merges_like_pandas(ray_session, data, kind, num_buckets):
    from deepdoctection_ray.functions.joins import exchange

    left, _ = data.draw(sides(kind, "a"))
    right, _ = data.draw(sides(kind, "b"))
    keys = [name for name, _ in KINDS[kind][0]]

    def merge(lg: pd.DataFrame, rg: pd.DataFrame) -> pd.DataFrame:
        m = lg.merge(rg, on=keys, how="outer")
        return m.assign(call=uuid.uuid4().hex, n_left=len(lg), n_right=len(rg))

    out = _frame(
        exchange([_dataset(left), _dataset(right)], keys, merge, num_buckets, "pandas"),
        keys + ["a", "b", "call", "n_left", "n_right"],
    )
    lt, rt = pa.concat_tables(left).to_pandas(), pa.concat_tables(right).to_pandas()

    def pairs(df: pd.DataFrame) -> list:
        return sorted(map(tuple, df[["a", "b"]].fillna(-1).astype(np.int64).to_numpy()))

    # the bucket merges add up to the merge of the whole inputs
    assert pairs(out) == pairs(lt.merge(rt, on=keys, how="outer"))
    # every row of both sides reached one call, and every key one call
    per_call = out.drop_duplicates("call")
    assert per_call["n_left"].sum() == len(lt) and per_call["n_right"].sum() == len(rt)
    assert all(len(c) == 1 for c in _calls_per_key(out, keys).values())


def test_exchange_empty_sides(ray_session):
    """A side with no rows is typed in every bucket; a schema-less side runs
    no emit; a fully-empty result keeps the anchor's schema."""
    import ray.data

    from deepdoctection_ray.functions.bucketed import bucketed_map_groups
    from deepdoctection_ray.functions.joins import exchange

    typed = pa.schema([("k", pa.int64()), ("v", pa.string())])
    left = ray.data.from_arrow(pa.table({"k": [1, 2, 3], "v": ["a", "b", "c"]}))
    right = ray.data.from_arrow(typed.empty_table())

    def sides_seen(lg: pa.Table, rg: pa.Table) -> pa.Table:
        assert rg.schema == typed and rg.num_rows == 0
        return lg.append_column("right_cols", pa.array([len(rg.column_names)] * lg.num_rows))

    out = exchange([left, right], ["k"], sides_seen, 8).to_pandas()
    assert sorted(out["k"]) == [1, 2, 3] and set(out["right_cols"]) == {2}

    schemaless = ray.data.from_arrow(pa.table({}))
    assert schemaless.schema() is None

    def never(*_):
        raise AssertionError("emit ran on a schema-less side")

    assert exchange([left, schemaless], ["k"], never, 8).count() == 0
    anchor = pa.schema([("k", pa.int64()), ("n", pa.int64())])
    out = bucketed_map_groups(schemaless, ["k"], never, 8, anchor=anchor)
    assert out.count() == 0 and out.schema().names == ["k", "n"]
    # a typed fully-empty input answers with the anchor, not emit's output
    out = bucketed_map_groups(right, ["k"], lambda g: g, 8, anchor=anchor)
    assert out.count() == 0 and out.schema().names == ["k", "n"]


def test_exchange_drops_pandas_schema_metadata(ray_session):
    """``pa.Table.from_pandas`` adds a ``b'pandas'`` schema key; a schema
    holding it cannot be hashed, which defeats Ray's schema dedup."""
    import ray.data

    from deepdoctection_ray.functions.bucketed import bucketed_map_groups

    ds = ray.data.from_arrow(pa.table({"k": [1, 2, 2, 3], "v": [1, 2, 3, 4]}))
    out = bucketed_map_groups(
        ds, ["k"], lambda g: g.groupby("k", as_index=False)["v"].sum(), 4, batch_format="pandas"
    )
    for t in out.iter_batches(batch_format="pyarrow", batch_size=None):
        assert t.schema.metadata is None
        hash(t.schema)
    assert sorted(out.to_pandas()["v"]) == [1, 4, 5]


@pytest.mark.parametrize("value", [0.0, -0.0])
def test_signed_zero_keys_share_a_bucket(ray_session, value):
    """``0.0`` and ``-0.0`` are one key: they reach one emit call."""
    import ray.data

    from deepdoctection_ray.functions.bucketed import bucketed_map_groups

    ds = ray.data.from_arrow([pa.table({"k": [value], "v": [1]}), pa.table({"k": [-value], "v": [2]})])
    out = bucketed_map_groups(ds, ["k"], _call_tagger(), 64).to_pandas()
    assert sorted(out["v"]) == [1, 2] and out["call"].nunique() == 1
