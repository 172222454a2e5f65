"""Span bounds must be integers, as in the dense oracle."""

import math

import pytest

from uqtrees import DenseTensor, SegTree1D, get_pair, make_backend


def test_seg1d_rejects_non_integer_bounds():
    pair = get_pair("plus-plus")
    t = SegTree1D([1, 2, 3, 4], pair)
    oracle = DenseTensor((4,), [1, 2, 3, 4], pair)
    with pytest.raises(TypeError):
        oracle.query(((0.5, 2),))
    for lo, hi in ((0.5, 2), (0, 2.0), (0, "2")):
        with pytest.raises(TypeError):
            t.query(lo, hi)
        with pytest.raises(TypeError):
            t.update(lo, hi, 1)
    assert t.query(0, 3) == 10


@pytest.mark.parametrize("backend_id,dims", [("nd-special", (4, 4)),
                                             ("nd-special", (4, 4, 4)),
                                             ("grid2d-general", (4, 4))])
def test_box_backends_reject_non_integer_bounds(backend_id, dims):
    pair = get_pair("plus-plus")
    tensor = DenseTensor(dims, list(range(math.prod(dims))), pair)
    structure = make_backend(backend_id, tensor)
    full = tuple((0, n - 1) for n in dims)
    for axis in range(len(dims)):
        for bad in ((0.5, 2), (0, 2.0)):
            box = full[:axis] + (bad,) + full[axis + 1:]
            with pytest.raises(TypeError):
                tensor.query(box)
            with pytest.raises(TypeError):
                structure.query(box)
            with pytest.raises(TypeError):
                structure.update(box, 1)
    assert structure.query(full) == tensor.query(full)
