import math
import random
from fractions import Fraction
from itertools import product

import pytest

from uqtrees import OperatorPair, builtin_pairs, get_pair
from uqtrees.seg1d import split

# no inline form covers math.gcd, so its trees run their walks in call form
GCD_GCD = OperatorPair("gcd-gcd", math.gcd, math.gcd, 0, 0,
                       lambda a, v, k: math.gcd(a, v), sample_range=(0, 60))
# every compiled walk: each registered pair on int and Fraction cells, and
# gcd-gcd in call form
KERNEL_CASES = ([(p, "int") for p in builtin_pairs()]
                + [(p, "fraction") for p in builtin_pairs()]
                + [(GCD_GCD, "int")])
KERNEL_IDS = [f"{p.name}-{c}" for p, c in KERNEL_CASES]


def full_box(t):
    """The box covering the whole DenseTensor ``t``."""
    return tuple((0, n - 1) for n in t.dims)


def all_cells(t):
    """Iterate ``(coords, value)`` over the DenseTensor ``t`` in row-major order."""
    return zip(product(*map(range, t.dims)), t.data)


def sample_cell(pair, rng, cells):
    """An int from the pair's sample range, or a Fraction over 1..4."""
    v = rng.randint(*pair.sample_range)
    return Fraction(v, rng.randint(1, 4)) if cells == "fraction" else v


def fold(pair, values):
    """Independent fold: reduce with query_op, no aggregator involved."""
    acc = values[0]
    for v in values[1:]:
        acc = pair.query_op(acc, v)
    return acc


def fold_updated(pair, values, value, hit_indices=None):
    """Independent brute force: update the listed elements, then fold."""
    u = pair.update_op
    if hit_indices is None:
        updated = [u(x, value) for x in values]
    else:
        hits = set(hit_indices)
        updated = [u(x, value) if i in hits else x for i, x in enumerate(values)]
    return fold(pair, updated)


def reinit_span(t, values, qlo):
    """Reset elements ``qlo .. qlo + len(values) - 1`` of the SegTree1D ``t``
    to ``values``, in plain Python over its pair's callables: the partial
    nodes of the span's split push their pending values down, parents
    first; each covered subtree is reset, children first; the partial nodes
    are repaired, children first, as an update repairs them."""
    pair = t.pair
    u, q, agg, e = pair.update_op, pair.query_op, pair.aggregator, pair.update_identity
    lo, hi, left, right = t.shape[:4]
    sz, val, laz = t.sz, t.val, t.laz
    covered, partial = split(t.shape, qlo, qlo + len(values) - 1)
    for i in partial:
        for c in (left[i], right[i]):
            laz[c] = u(laz[c], laz[i])
        laz[i] = e
    for i in covered:
        for j in reversed(range(i, i + 2 * (hi[i] - lo[i]) + 1)):
            l = left[j]
            val[j] = values[lo[j] - qlo] if l < 0 else q(val[l], val[right[j]])
            laz[j] = e
    for i in reversed(partial):
        l, r = left[i], right[i]
        val[i] = q(agg(val[l], laz[l], sz[l]), agg(val[r], laz[r], sz[r]))


def stamped(pair, laz, covered, value):
    """A copy of the pending values ``laz`` with ``value`` stamped onto the
    nodes ``covered``, as an update leaves them: the stamp read through
    ``laz``."""
    out = list(laz)
    for i in covered:
        out[i] = pair.update_op(out[i], value)
    return out


def stack_split(shape, lo, hi):
    """``split`` as a stack walk over every node that meets the span: the
    maximal nodes inside it, left to right, and the others, in pre-order."""
    slo, shi, left, right = shape[:4]
    covered, partial = [], []
    stack = [0]
    while stack:
        i = stack.pop()
        if lo <= slo[i] and shi[i] <= hi:
            covered.append(i)
        else:
            partial.append(i)
            r = right[i]
            if slo[r] <= hi:
                stack.append(r)
            l = left[i]
            if shi[l] >= lo:
                stack.append(l)
    return covered, partial


def per_tree_query(g, box):
    """``Grid2D.query`` as one compiled column ``query`` walk per covered row
    node, folded left to right: ``(answer, visits)``, counting nothing."""
    (xlo, xhi), (ylo, yhi) = box
    out = g.pair.query_identity
    covered, partial = stack_split(g.shape, xlo, xhi)
    visits = 1 + 2 * len(partial)
    for i in covered:
        x, n = g.inner[i]._k.query(g.inner[i], ylo, yhi)
        out = g.pair.query_op(out, x)
        visits += n
    return out, visits


def edge_spans(k):
    """Adversarial spans over an axis of extent ``k``: the whole axis, the
    middle slot, both end slots and the span one short of both edges."""
    inner = min(1, k - 1)
    return [(0, k - 1), (k // 2, k // 2), (0, 0), (k - 1, k - 1),
            (inner, max(k - 2, inner))]


def sample_values(pair, rng, n):
    lo, hi = pair.sample_range
    return [rng.randint(lo, hi) for _ in range(n)]


@pytest.fixture(params=[p.name for p in builtin_pairs()])
def pair(request):
    return get_pair(request.param)


@pytest.fixture(params=["plus-plus", "times-times", "min-min", "max-max"])
def special_pair(request):
    return get_pair(request.param)


@pytest.fixture
def rng():
    return random.Random(0)
