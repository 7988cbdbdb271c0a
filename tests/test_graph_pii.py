"""Connected components (duplicate clusters) and PII redaction."""

import pyarrow as pa
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ray.data

from deepdoctection_ray.stages.graph import connected_components, dup_clusters
from deepdoctection_ray.stages.pii import redact_pii


def _pairs(rows):
    a = pa.array([r[0] for r in rows], pa.int64())
    b = pa.array([r[1] for r in rows], pa.int64())
    return ray.data.from_arrow(pa.table({"id_a": a, "id_b": b}))


def _labels(ds):
    return {r["doc_id"]: r["cluster_id"] for r in ds.take_all()}


def _union_find(rows):
    """Pure-Python oracle: every endpoint → the minimum id of its component."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in rows:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in list(parent)}


def test_cc_chain_and_islands(ray_session):
    # a 10-node chain (diameter 9 — forces several propagation rounds), a
    # separate pair, and a triangle with a redundant edge
    rows = [(i, i + 1) for i in range(1, 10)]
    rows += [(100, 101)]
    rows += [(200, 201), (201, 202), (200, 202)]
    lab = _labels(connected_components(_pairs(rows)))
    assert {n: lab[n] for n in range(1, 11)} == {n: 1 for n in range(1, 11)}
    assert lab[100] == lab[101] == 100
    assert lab[200] == lab[201] == lab[202] == 200
    assert len(lab) == 15


def test_cc_orientation_independent(ray_session):
    # (hi, lo) pairs must cluster the same as (lo, hi)
    lab = _labels(connected_components(_pairs([(5, 2), (9, 5)])))
    assert lab == {2: 2, 5: 2, 9: 2}


def test_cc_empty(ray_session):
    empty = ray.data.from_arrow(
        pa.table({"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())})
    )
    out = connected_components(empty)
    assert out.count() == 0
    assert set(out.schema().names) == {"doc_id", "cluster_id"}


@st.composite
def _edge_lists(draw):
    """Random edges over a small id space (self-pairs included), disjoint
    cliques, then duplicated and reversed copies, in any order."""
    ids = st.integers(0, draw(st.integers(2, 30)))
    rows = draw(st.lists(st.tuples(ids, ids), max_size=40))
    for k in range(draw(st.integers(0, 3))):
        base, size = 100 + 10 * k, draw(st.integers(2, 5))
        rows += [(base + i, base + j) for i in range(size) for j in range(i + 1, size)]
    if rows:
        for a, b in draw(st.lists(st.sampled_from(rows), max_size=10)):
            rows.append((b, a) if draw(st.booleans()) else (a, b))
    return draw(st.permutations(rows))


@given(rows=_edge_lists())
@example(rows=[(i, i + 1) for i in range(70)])  # a path longer than 64 nodes
@example(rows=[(5, 5), (5, 5), (8, 7), (7, 8), (7, 8), (9, 9), (9, 3)])
@example(rows=[(2, 4), (6, 0), (6, 5), (5, 4)])  # round 1 leaves node 4 with two targets
@settings(max_examples=15, deadline=None)
def test_cc_matches_union_find(ray_session, rows):
    """Every endpoint gets its component's minimum id, exactly as a
    union-find over the same edge list assigns it."""
    assert _labels(connected_components(_pairs(rows))) == _union_find(rows)


def test_cc_self_pair_is_own_cluster(ray_session):
    # a node seen only in a self-pair is its own cluster, not dropped
    lab = _labels(connected_components(_pairs([(5, 5), (7, 8)])))
    assert lab == {5: 5, 7: 7, 8: 7}


def test_cc_star_logarithmic_rounds_on_long_path(ray_session):
    """Adversarial 10k-node path (diameter 9999): the star contraction must
    finish in O(log n) rounds with the default ``max_iters``."""
    import math

    n = 10_000
    rows = [(i, i + 1) for i in range(n - 1)]
    stats: dict = {}
    out = connected_components(_pairs(rows), stats=stats).to_pandas()
    assert stats["rounds"] <= 3 * int(math.log2(n)) + 5
    assert len(out) == n
    assert (out["cluster_id"] == 0).all()


def test_dup_clusters_planted(ray_session):
    base = "the quick brown fox jumps over the lazy dog again and again " * 5
    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": base},
            {"doc_id": 2, "text": base},
            {"doc_id": 3, "text": base + " tail"},
            {"doc_id": 4, "text": "completely different words about ray data pipelines " * 6},
        ]
    )
    lab = _labels(dup_clusters(docs, "text", "doc_id", threshold=0.5))
    assert lab[1] == lab[2] == lab[3] == 1
    assert 4 not in lab  # no collisions -> never enters the graph


def test_redact_pii_planted(ray_session):
    ds = ray.data.from_items(
        [
            {
                "doc_id": 1,
                "text": "mail a@b.io and c.d+x@e-f.org, ssn 123-45-6789, "
                "call 800-555-1234 or 800.555.9999, host 192.168.0.1 ok",
            },
            {"doc_id": 2, "text": "nothing sensitive here"},
        ]
    )
    out = redact_pii(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    r0 = out.iloc[0]
    assert (r0.n_email, r0.n_ssn, r0.n_phone, r0.n_ipv4) == (2, 1, 2, 1)
    assert r0.clean_text == (
        "mail <EMAIL> and <EMAIL>, ssn <SSN>, "
        "call <PHONE> or <PHONE>, host <IPV4> ok"
    )
    r1 = out.iloc[1]
    assert (r1.n_email, r1.n_ssn, r1.n_phone, r1.n_ipv4) == (0, 0, 0, 0)
    assert r1.clean_text == "nothing sensitive here"


def test_pii_ordering_ssn_before_phone(ray_session):
    # an SSN must be consumed by the SSN pattern, not half-eaten by phone
    ds = ray.data.from_items([{"doc_id": 1, "text": "id 987-65-4321 tel 987-654-3210"}])
    row = redact_pii(ds).to_pandas().iloc[0]
    assert row.n_ssn == 1 and row.n_phone == 1
    assert row.clean_text == "id <SSN> tel <PHONE>"
