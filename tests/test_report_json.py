"""The report writer against ``json.dumps`` on random JSON trees."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqineq.cli import _json_chunks

# Text that a writer could mistake for layout or escape wrongly.
TRICKY_TEXT = ('", "', '"], ["', "], [", ", ", '"', "\\", "[]", "{}", "é", "雪", "\U0001f600", "")

numbers = st.one_of(
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**80) | st.integers(max_value=-(2**63), min_value=-(2**80)),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.7e308, -1.7e308)),
    st.booleans(),
    st.none(),
)
text = st.text() | st.sampled_from(TRICKY_TEXT)
scalars = numbers | text


def _arrays(elements):
    return st.lists(elements, max_size=6) | st.lists(elements, max_size=6).map(tuple)


# Rows and matrices of numbers are what the reports hold in bulk.
rows = _arrays(numbers)
matrices = _arrays(st.lists(numbers, min_size=1, max_size=4) | rows)
trees = st.recursive(
    scalars | rows | matrices,
    lambda children: _arrays(children) | st.dictionaries(text, children, max_size=5),
    max_leaves=40,
)


def _write(node) -> str:
    chunks: list[str] = []
    _json_chunks(node, chunks.append)
    return "".join(chunks)


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "python-encoder"])
@settings(max_examples=150, deadline=None)
@given(tree=trees)
def test_writer_matches_json_dumps(c_encoder, tree):
    with pytest.MonkeyPatch.context() as mp:
        if not c_encoder:
            # As on an interpreter built without the _json accelerator.
            mp.setattr(json.encoder, "c_make_encoder", None)
        assert _write(tree) == json.dumps(tree)


@pytest.mark.parametrize(
    "node",
    [
        [[1, 2], 3],
        [1, [2, 3]],
        [[1], 2, [3]],
        [[1, [2]], [3]],
        [[[1], [2]]],
        [[1], []],
        [[1, 2], ["a, b"]],
        [[0.5, -0.0], {"k": [1]}],
        {"": {}, "a": [[]], "b": [{}]},
    ],
)
def test_writer_matches_json_dumps_on_near_bulk_arrays(node):
    assert _write(node) == json.dumps(node)
