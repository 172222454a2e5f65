"""Matrix products driven through a 2D update/query backend.

For operators ``(update_op, query_op)`` whose update has an exact inverse,
the product ``C[i][j] = query_fold_k(update_op(A[i][k], B[k][j]))`` falls out
of any 2D update/query structure seeded with ``A``: for each output column
``j``, update matrix column ``k`` with ``B[k][j]`` for every ``k``, read
``C[i][j]`` as the query of row ``i``, then undo every column update with
the inverse.  One product costs exactly ``2 * N**2`` updates and ``N**2``
queries, and leaves the backend query-observably where it started.

:func:`multi_product_via_backend` reuses one backend for many products by
re-seeding cells in place: each cell is updated with ``inverse(current) *
new``, which works because single-cell queries on every backend here return
the exact stored element.

Both need update values whose inverse undoes them exactly, so an infinite or
nan entry of ``B`` (or a non-finite cell that a re-seed would invert) is
rejected with ``ValueError``: ``inf + -inf`` would leave nan behind.
Infinities in ``A`` are fine; they are only ever updated by finite values.
A nan in ``A`` is rejected before any update: ``min``/``max`` answer nan by
argument order, so no backend could match :func:`schoolbook`.

Supported domains (:data:`PRODUCT_PAIRS`):

* ``plus-min``  -- min-plus ("tropical") product, exact over integers,
* ``plus-max``  -- max-plus product, exact over integers,
* ``times-plus`` -- the standard product, run over
  :class:`~uqtrees.algebra.ZeroTrackedSum` values with exact rational
  mantissas so that multiplying by zero stays invertible.

Valid backends are the dense oracle and :class:`~uqtrees.grid2d.Grid2D`.
The fold-commuting d-dimensional tree is *not* one: none of the product
pairs are fold-commuting, and its constructor rejects them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from .algebra import (INF, NEG_INF, OperatorPair, PLUS_MAX, PLUS_MIN,
                      TIMES_PLUS, ZeroTrackedSum)
from .dense import DenseTensor, format_value
from .seg1d import node_shape
from .workloads import PRODUCT_BACKENDS, make_backend

Matrix = List[list]


def _identity(x):
    return x


@dataclass(frozen=True)
class ProductPair:
    """A product domain: the operator pair plus value lifting/lowering.

    ``lift`` turns a plain matrix entry into the element/update-value
    representation the backend works in; ``lower`` turns a query result back
    into a plain number.
    """

    name: str
    pair: OperatorPair
    lift: Callable = _identity
    lower: Callable = _identity


MIN_PLUS_PRODUCT = ProductPair("min-plus", PLUS_MIN)
MAX_PLUS_PRODUCT = ProductPair("max-plus", PLUS_MAX)
STANDARD_PRODUCT = ProductPair(
    "standard", TIMES_PLUS,
    lift=ZeroTrackedSum.from_scalar,
    lower=lambda v: v.effective() if isinstance(v, ZeroTrackedSum) else v,
)

PRODUCT_PAIRS = {
    PLUS_MIN.name: MIN_PLUS_PRODUCT,
    PLUS_MAX.name: MAX_PLUS_PRODUCT,
    TIMES_PLUS.name: STANDARD_PRODUCT,
}


def _check_square(*mats: Sequence[Sequence]) -> int:
    n = len(mats[0])
    for mat in mats:
        if len(mat) != n or any(len(row) != n for row in mat):
            raise ValueError("matrices must be square and same-sized")
    return n


def _not_finite(x, nan_only: bool = False) -> bool:
    # exact comparisons: an int beyond float range is finite, and float()
    # would overflow on it
    if isinstance(x, ZeroTrackedSum):
        return any(_not_finite(m, nan_only) for m in x.terms.values())
    return x != x or not nan_only and (x == INF or x == NEG_INF)


def _check_operands(a: Matrix, b: Matrix) -> int:
    """Refuse a nan entry of ``a`` and a non-finite one of ``b``; return the size."""
    n = _check_square(a, b)
    for i in range(n):
        for j in range(n):
            if _not_finite(a[i][j], nan_only=True):
                raise ValueError(f"A[{i}][{j}] is nan; the reduction cannot answer it exactly")
            if _not_finite(b[i][j]):
                raise ValueError(f"B[{i}][{j}] = {format_value(b[i][j])} is not finite; "
                                 "its update cannot be undone exactly")
    return n


def schoolbook(a: Matrix, b: Matrix, domain: ProductPair) -> Matrix:
    """Direct O(N^3) product; the oracle the reduction is checked against."""
    n = _check_square(a, b)
    u = domain.pair.update_op
    q = domain.pair.query_op
    out = []
    for i in range(n):
        row = []
        ai = a[i]
        for j in range(n):
            acc = u(ai[0], b[0][j])
            for k in range(1, n):
                acc = q(acc, u(ai[k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def seed_backend(backend_id: str, a: Matrix, domain: ProductPair):
    """Build a 2D backend holding ``a`` (lifted) under the domain's pair."""
    if backend_id not in PRODUCT_BACKENDS:
        raise ValueError(f"backend {backend_id!r} cannot run matrix products")
    n = _check_square(a)
    flat = [domain.lift(v) for row in a for v in row]
    return make_backend(backend_id, DenseTensor((n, n), flat, domain.pair))


def product_via_backend(a: Matrix, b: Matrix, domain: ProductPair, backend) -> Matrix:
    """One product through ``backend``, which must currently hold ``a``.

    Restores the backend's query-observable state before returning.
    """
    n = _check_operands(a, b)
    if backend.dims != (n, n):
        raise ValueError(f"backend shape {backend.dims} != matrix shape {(n, n)}")
    if domain.pair.inverse is None:
        raise ValueError(f"pair {domain.pair.name!r} has no inverse")
    update = backend.update
    query = backend.query
    inv = domain.pair.invert
    lift = domain.lift
    lower = domain.lower
    full = (0, n - 1)
    out = [[None] * n for _ in range(n)]
    for j in range(n):
        col_values = [lift(b[i][j]) for i in range(n)]
        for i in range(n):
            update((full, (i, i)), col_values[i])
        for i in range(n):
            out[i][j] = lower(query(((i, i), full)))
        for i in range(n):
            update((full, (i, i)), inv(col_values[i]))
    return out


def predicted_visits(backend_id: str, n: int) -> tuple:
    """One N x N product's ``(update, query)`` visits: ``(2N^3, N^3)`` on the
    oracle, ``(4N(2N-1)(N + D), 2N(N + D))`` on ``grid2d-general``, ``D`` the
    leaf depths of ``node_shape(N)`` summed, so ``N + D`` is its sizes' sum."""
    if backend_id == "oracle":
        return 2 * n ** 3, n ** 3
    d = sum(node_shape(n).size)
    return 4 * n * (2 * n - 1) * d, 2 * n * d


def multi_product_via_backend(pairs_of_matrices: Sequence[tuple], domain: ProductPair,
                              backend) -> List[Matrix]:
    """Products ``A_k * B_k`` for every pair, reusing one backend.

    The backend may hold anything square of the right size; before each
    product every cell is re-seeded in place via ``inverse(cell) * A_k[i][j]``.
    Every pair's entries are checked before the first update.
    """
    sizes = [_check_operands(a, b) for a, b in pairs_of_matrices]
    out = []
    u = domain.pair.update_op
    inv = domain.pair.invert
    lift = domain.lift
    update = backend.update
    query = backend.query
    for (a, b), n in zip(pairs_of_matrices, sizes):
        if backend.dims != (n, n):
            raise ValueError(f"backend shape {backend.dims} != matrix shape {(n, n)}")
        for i in range(n):
            for j in range(n):
                cell = ((i, i), (j, j))
                held = query(cell)
                if _not_finite(held):
                    raise ValueError(f"backend cell ({i}, {j}) holds a non-finite value; "
                                     "it cannot be inverted to re-seed the cell")
                update(cell, u(inv(held), lift(a[i][j])))
        out.append(product_via_backend(a, b, domain, backend))
    return out
