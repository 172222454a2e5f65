"""A nan update value is refused by every tree before it touches anything.

``min``/``max`` answer nan by argument order, so a tree that took a nan
value would answer differently from the dense oracle (``SegTree1D([3, 1,
0], plus-min)`` with ``update(0, 1, nan)`` then ``query(0, 2)`` gave
``inf``, the oracle nan).  Each public ``update`` raises ValueError instead
and leaves the structure, its visit counters included, as it was.
"""

import math

import pytest

from uqtrees import DenseTensor, SegTree1D, get_pair, make_backend
from uqtrees.workloads import _box_ops

NAN = float("nan")

CASES = [
    ("seg1d", "plus-min", (5,)),
    ("nd-special", "plus-plus", (5,)),
    ("nd-special", "max-max", (4, 3)),
    ("nd-special", "plus-plus", (3, 2, 4)),
    ("grid2d-general", "plus-min", (4, 5)),
    ("quadtree", "plus-max", (4, 5)),
]


def test_the_reported_case():
    t = SegTree1D([3, 1, 0], get_pair("plus-min"))
    with pytest.raises(ValueError, match="nan"):
        t.update(0, 1, NAN)
    assert t.query(0, 2) == 0


@pytest.mark.parametrize("backend_id,pair_name,dims", CASES)
def test_nan_update_is_refused_and_changes_nothing(backend_id, pair_name, dims):
    pair = get_pair(pair_name)
    data = list(range(math.prod(dims)))
    structure = make_backend(backend_id, DenseTensor(dims, data, pair))
    update, query = _box_ops(backend_id, structure)
    full = tuple((0, n - 1) for n in dims)
    update(full, 2)
    before = query(full)
    visits = structure.counters.visits_total
    with pytest.raises(ValueError, match="nan"):
        update(full, NAN)
    assert structure.counters.visits_total == visits
    assert query(full) == before
