"""Bigram-LM cross-entropy: hand-computed model, block-layout invariance."""

import math

import pytest

import ray.data

from deepdoctection_ray.stages.lm import ngram_cross_entropy

DOCS = [
    {"doc_id": 1, "text": "a b a b"},
    {"doc_id": 2, "text": "a b c"},
    {"doc_id": 3, "text": "x"},          # <2 tokens: not emitted
    {"doc_id": 4, "text": ""},
]


def _expected():
    # corpus bigrams: d1: (a b),(b a),(a b); d2: (a b),(b c)
    # C: ab=3, ba=1, bc=1 ; C1: a=3, b=2 ; V = distinct tokens {a,b,c,x} = 4
    v = 4
    p_ab = (3 + 1) / (3 + v)
    p_ba = (1 + 1) / (2 + v)
    p_bc = (1 + 1) / (2 + v)
    x1 = -(math.log(p_ab) + math.log(p_ba) + math.log(p_ab)) / 3
    x2 = -(math.log(p_ab) + math.log(p_bc)) / 2
    return {1: (3, round(x1, 6)), 2: (2, round(x2, 6))}


@pytest.mark.parametrize(
    "docs, parallelism",
    [
        pytest.param(DOCS, 1, id="1"),
        pytest.param(DOCS, 3, id="3"),
        # first block holds only "" and "x": it explodes to no bigram at all
        pytest.param(DOCS[::-1], 2, id="reversed-2"),
    ],
)
def test_lm_xent_hand_model(ray_session, docs, parallelism):
    ds = ray.data.from_items(docs, override_num_blocks=parallelism)
    out = ngram_cross_entropy(ds).to_pandas().set_index("doc_id")
    exp = _expected()
    assert set(out.index) == set(exp)
    for d, (nb, x) in exp.items():
        assert out.loc[d, "n_bigrams"] == nb
        assert out.loc[d, "xent"] == pytest.approx(x, abs=1e-6)


def test_lm_xent_repetition_scores_lower(ray_session):
    # a highly templated doc must be more predictable than a one-off doc
    docs = [
        {"doc_id": 1, "text": "spam ham " * 30},
        {"doc_id": 2, "text": "one two three four five six seven eight nine ten"},
    ] + [{"doc_id": 10 + i, "text": "spam ham spam ham"} for i in range(5)]
    out = ngram_cross_entropy(ray.data.from_items(docs)).to_pandas().set_index("doc_id")
    assert out.loc[1, "xent"] < out.loc[2, "xent"]
