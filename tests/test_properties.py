"""One property: every backend answers every registered pair as the dense oracle does.

Shapes include extent 1, primes, 1 x n, n x 1 and 3-D shapes with extent-1
axes; boxes are full, single-cell, corner or arbitrary.  Each case queries
the whole tensor before its first update, so ``nd-special`` is read while
every pending-value tree is still unallocated; single-cell updates stamp
only leaves, and later queries read partly allocated pending trees.
Answers are compared with ``==``.  A backend that cannot handle a pair must
refuse it with ValueError at construction.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqtrees import BACKEND_IDS, DenseTensor, builtin_pairs, make_backend
from uqtrees.workloads import _box_ops

SHAPES = {
    1: [(1,), (2,), (3,), (7,), (13,)],
    2: [(1, 1), (1, 5), (5, 1), (2, 3), (7, 5), (3, 13)],
    3: [(1, 1, 1), (1, 3, 5), (3, 1, 2), (5, 3, 1), (2, 3, 5)],
}
BACKEND_RANKS = {
    "oracle": (1, 2, 3),
    "seg1d": (1,),
    "nd-special": (1, 2, 3),
    "grid2d-general": (2,),
    "quadtree": (2,),
}


@st.composite
def boxes(draw, dims):
    kind = draw(st.sampled_from(("full", "cell", "corner", "any")))
    spans = []
    for n in dims:
        if kind == "full":
            spans.append((0, n - 1))
        elif kind == "cell":
            c = draw(st.integers(0, n - 1))
            spans.append((c, c))
        elif kind == "corner":
            k = draw(st.integers(0, n - 1))
            spans.append(draw(st.sampled_from(((0, k), (k, n - 1)))))
        else:
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 1))
            spans.append((min(a, b), max(a, b)))
    return tuple(spans)


@st.composite
def cases(draw):
    backend = draw(st.sampled_from(BACKEND_IDS))
    pair = draw(st.sampled_from(builtin_pairs()))
    dims = draw(st.sampled_from([d for rank in BACKEND_RANKS[backend] for d in SHAPES[rank]]))
    values = st.integers(*pair.sample_range)
    size = math.prod(dims)
    data = draw(st.lists(values, min_size=size, max_size=size))
    ops = draw(st.lists(st.tuples(boxes(dims), st.none() | values), max_size=12))
    return backend, pair, dims, data, ops


@given(cases())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_every_backend_and_pair_answers_as_the_oracle(case):
    backend, pair, dims, data, ops = case
    tensor = DenseTensor(dims, data, pair)
    if backend == "nd-special" and not pair.is_special:
        with pytest.raises(ValueError):
            make_backend(backend, tensor)
        return
    structure = make_backend(backend, tensor)
    oracle = tensor.copy()
    update, query = _box_ops(backend, structure)
    full = oracle.full_box()
    assert query(full) == oracle.query(full)
    for box, value in ops:
        if value is None:
            assert query(box) == oracle.query(box), box
        else:
            update(box, value)
            oracle.update(box, value)
    for coords, _ in oracle.all_cells():
        cell = tuple((c, c) for c in coords)
        assert query(cell) == oracle.query(cell), cell
    assert query(full) == oracle.query(full)
