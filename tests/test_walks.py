"""The tree walks leave no cyclic garbage behind.

A walk written as a self-referencing recursive closure is a reference cycle,
so every call would leave work for the cyclic garbage collector.  With the
collector off, a few hundred seeded updates and queries must leave nothing
for ``gc.collect()`` to find.
"""

import gc
import math
import random

import pytest

from uqtrees import DenseTensor, get_pair, make_backend
from uqtrees.workloads import _box_ops

CASES = [
    ("seg1d", "plus-min", (64,)),
    ("grid2d-general", "plus-min", (16, 16)),
    ("nd-special", "plus-plus", (8, 8, 8)),
]


def _box(rng, dims):
    return tuple(tuple(sorted((rng.randrange(n), rng.randrange(n)))) for n in dims)


@pytest.mark.parametrize("backend_id,pair_name,dims", CASES)
def test_updates_and_queries_make_no_cyclic_garbage(backend_id, pair_name, dims):
    rng = random.Random(3)
    pair = get_pair(pair_name)
    data = [rng.randint(-50, 50) for _ in range(math.prod(dims))]
    structure = make_backend(backend_id, DenseTensor(dims, data, pair))
    update, query = _box_ops(backend_id, structure)
    boxes = [_box(rng, dims) for _ in range(300)]
    values = [rng.randint(-9, 9) for _ in range(300)]
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for k, (box, v) in enumerate(zip(boxes, values)):
            if k % 2:
                update(box, v)
            else:
                query(box)
        found = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert found == 0
