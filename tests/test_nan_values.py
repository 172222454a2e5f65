"""A nan update value or a bad box is refused by every tree before it
touches anything.

``min``/``max`` answer nan by argument order, so a tree that took a nan
value would answer differently from the dense oracle (``SegTree1D([3, 1,
0], plus-min)`` with ``update(0, 1, nan)`` then ``query(0, 2)`` gave
``inf``, the oracle nan).  Each public ``update`` raises ValueError instead
and leaves the structure, its visit counters included, as it was.  A bad
box gets the oracle's exception and message on every backend: the span rule
is stated once, in :mod:`uqtrees.boxes`.
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


def bad_boxes(dims):
    """Per axis: a reversed span, one below 0, one past the extent and a
    float bound, each with full spans on the other axes."""
    full = tuple((0, n - 1) for n in dims)
    for axis, n in enumerate(dims):
        for span in ((1, 0), (-1, 0), (0, n), (0.0, n - 1)):
            yield full[:axis] + (span,) + full[axis + 1:]


def refusal(update, box, value):
    with pytest.raises((TypeError, ValueError)) as err:
        update(box, value)
    return type(err.value), str(err.value)


@pytest.mark.parametrize("backend_id,pair_name,dims", CASES)
def test_nan_update_is_refused_and_changes_nothing(backend_id, pair_name, dims):
    pair = get_pair(pair_name)
    data = list(range(math.prod(dims)))
    full = tuple((0, n - 1) for n in dims)
    # the backend, then the oracle: (counters, update, query, full-box answer)
    runs = []
    for b in (backend_id, "oracle"):
        structure = make_backend(b, DenseTensor(dims, data, pair))
        update, query = _box_ops(b, structure)
        update(full, 2)
        runs.append((structure.counters, update, query, query(full)))
    (_, update, _, _), (_, oracle_update, _, _) = runs
    visits = [c.visits_total for c, *_ in runs]
    with pytest.raises(ValueError, match="nan"):
        update(full, NAN)
    for box in bad_boxes(dims):
        assert refusal(update, box, 1) == refusal(oracle_update, box, 1), box
    assert [c.visits_total for c, *_ in runs] == visits
    for _, _, query, held in runs:
        assert query(full) == held


def test_seg1d_adapter_refuses_a_box_of_another_rank():
    # the adapter used to answer a 2-D box on its first span
    pair = get_pair("plus-min")
    runs = [_box_ops(b, make_backend(b, DenseTensor((5,), list(range(5)), pair)))
            for b in ("seg1d", "oracle")]
    (update, query), (oracle_update, oracle_query) = runs
    for box in (((0, 1), (0, 1)), ((0, 4), (0, 0), (2, 2)), (), ((0, 1, 2),), ((3,),)):
        want = refusal(oracle_update, box, 1)
        if len(box) != 1:
            assert want[1] == f"box has {len(box)} dimensions, structure has 1"
        else:  # a span that is not a pair
            assert want[0] is ValueError and "values to unpack" in want[1]
        assert refusal(update, box, 1) == want
        assert (refusal(lambda b, _: query(b), box, None)
                == refusal(lambda b, _: oracle_query(b), box, None) == want)
