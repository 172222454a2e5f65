import math
import random
from fractions import Fraction

import pytest

from uqtrees import (MAX_PLUS_PRODUCT, MIN_PLUS_PRODUCT, STANDARD_PRODUCT,
                     MIN_MIN, DenseTensor, NDTree, ProductPair,
                     ZeroTrackedSum, get_pair, multi_product_via_backend,
                     product_via_backend, schoolbook, seed_backend)
from uqtrees.matmul import PRODUCT_PAIRS
from uqtrees.seg1d import node_shape, split

BACKENDS = ("oracle", "grid2d-general")


def rand_matrix(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


class TestSchoolbook:
    def test_min_plus_example(self):
        a = [[0, 1], [2, 3]]
        b = [[1, 0], [0, 1]]
        assert schoolbook(a, b, MIN_PLUS_PRODUCT) == [[1, 0], [3, 2]]

    def test_standard_identity(self):
        rng = random.Random(2)
        a = rand_matrix(rng, 4)
        eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        assert schoolbook(a, eye, STANDARD_PRODUCT) == a

    def test_min_plus_zero_matrix_gives_row_minima(self):
        rng = random.Random(3)
        a = rand_matrix(rng, 5)
        zeros = [[0] * 5 for _ in range(5)]
        got = schoolbook(a, zeros, MIN_PLUS_PRODUCT)
        for i in range(5):
            assert got[i] == [min(a[i])] * 5

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            schoolbook([[1]], [[1, 2], [3, 4]], MIN_PLUS_PRODUCT)


def pairwise_schoolbook(a, b, domain):
    """The reference: one ``q(acc, u(a_ik, b_kj))`` call pair per term, k rising."""
    n = len(a)
    u, q = domain.pair.update_op, domain.pair.query_op
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = u(a[i][0], b[0][j])
            for k in range(1, n):
                acc = q(acc, u(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


class TestSchoolbookFold:
    """``schoolbook`` folds each cell in one C-level call; its matrices are
    the pairwise loop's, compared by repr so that nan matches nan and
    ``-0.0`` differs from ``0.0``."""

    INTS = list(range(-9, 10))
    # (A's values, B's values) per case
    CASES = {
        "ints": (INTS, INTS),
        "fractions": ([Fraction(p, q) for p in range(-4, 5) for q in (1, 2, 3)],
                      [Fraction(p, q) for p in range(-4, 5) for q in (1, 3, 4)]),
        "non-finite-a": (INTS + [math.inf, -math.inf, math.nan], INTS),
        "signed-zeros": ([0.0, -0.0, 0, 1, -1], [0.0, -0.0, 0]),
    }

    @staticmethod
    def assert_same(a, b, domain):
        got = schoolbook(a, b, domain)
        assert repr(got) == repr(pairwise_schoolbook(a, b, domain))
        return got

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("name", sorted(PRODUCT_PAIRS))
    def test_every_domain_matches_the_pairwise_loop(self, name, case):
        domain = PRODUCT_PAIRS[name]
        a_values, b_values = self.CASES[case]
        rng = random.Random(f"{name} {case}")
        for n in list(range(1, 10)) + [33]:
            a = [[rng.choice(a_values) for _ in range(n)] for _ in range(n)]
            b = [[rng.choice(b_values) for _ in range(n)] for _ in range(n)]
            self.assert_same(a, b, domain)

    @pytest.mark.parametrize("domain", [MIN_PLUS_PRODUCT, MAX_PLUS_PRODUCT], ids=lambda d: d.name)
    def test_ties_keep_the_first_extreme(self, domain):
        # B is all -0.0, so the terms of row i are A's row i; they tie at
        # zero, and the first one's sign is the answer
        a = [[-0.0, 0.0, -0.0], [0.0, -0.0, -0.0], [0.0, 0.0, -0.0]]
        b = [[-0.0] * 3 for _ in range(3)]
        got = self.assert_same(a, b, domain)
        assert repr(got) == repr([[-0.0] * 3, [0.0] * 3, [0.0] * 3])

    @pytest.mark.parametrize("domain", [MIN_PLUS_PRODUCT, MAX_PLUS_PRODUCT], ids=lambda d: d.name)
    def test_nan_term_is_kept_only_in_first_place(self, domain):
        # min/max replace the running extreme only when a term compares
        # beyond it, which nan never does: a first nan is the answer, a later
        # one is skipped
        nan = math.nan
        a = [[nan, 5, -5], [5, nan, -5], [-5, 5, nan]]
        b = [[0] * 3 for _ in range(3)]
        got = self.assert_same(a, b, domain)
        best = -5 if domain is MIN_PLUS_PRODUCT else 5
        assert repr(got) == repr([[nan] * 3, [best] * 3, [best] * 3])

    def test_times_plus_cell_of_negative_zero_products_stays_negative(self):
        # sum() would start from 0 and answer 0.0
        a = [[0.0, -0.0, 0.0], [1, 2, 3], [0, 0, 0]]
        b = [[-1, 1, 2], [2, -3, 1], [-4, 5, 0]]
        got = self.assert_same(a, b, STANDARD_PRODUCT)
        assert repr(got[0][0]) == "-0.0"


class TestSingleProduct:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_min_plus_example(self, backend):
        a = [[0, 1], [2, 3]]
        b = [[1, 0], [0, 1]]
        be = seed_backend(backend, a, MIN_PLUS_PRODUCT)
        assert product_via_backend(a, b, MIN_PLUS_PRODUCT, be) == [[1, 0], [3, 2]]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("domain", [MIN_PLUS_PRODUCT, MAX_PLUS_PRODUCT])
    def test_matches_schoolbook(self, backend, domain):
        rng = random.Random(7)
        for n in (1, 2, 3, 5, 8):
            a, b = rand_matrix(rng, n), rand_matrix(rng, n)
            be = seed_backend(backend, a, domain)
            assert product_via_backend(a, b, domain, be) == schoolbook(a, b, domain)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_standard_with_zero_entries(self, backend):
        rng = random.Random(11)
        a = [[rng.choice([0, rng.randint(-5, 5)]) for _ in range(5)] for _ in range(5)]
        b = [[rng.choice([0, rng.randint(-5, 5)]) for _ in range(5)] for _ in range(5)]
        be = seed_backend(backend, a, STANDARD_PRODUCT)
        first = product_via_backend(a, b, STANDARD_PRODUCT, be)
        assert first == schoolbook(a, b, STANDARD_PRODUCT)
        assert product_via_backend(a, b, STANDARD_PRODUCT, be) == first

    def test_standard_zero_heavy_midsize(self):
        # a third of all entries zero: exercises depth bumps and their undo
        rng = random.Random(41)
        n = 12
        pick = lambda: 0 if rng.random() < 0.33 else rng.randint(-6, 6)
        a = [[pick() for _ in range(n)] for _ in range(n)]
        b = [[pick() for _ in range(n)] for _ in range(n)]
        be = seed_backend("grid2d-general", a, STANDARD_PRODUCT)
        assert product_via_backend(a, b, STANDARD_PRODUCT, be) == \
            schoolbook(a, b, STANDARD_PRODUCT)

    def test_operation_census(self):
        rng = random.Random(13)
        for n in (1, 3, 6):
            a, b = rand_matrix(rng, n), rand_matrix(rng, n)
            be = seed_backend("grid2d-general", a, MIN_PLUS_PRODUCT)
            product_via_backend(a, b, MIN_PLUS_PRODUCT, be)
            assert be.counters.update_ops == 2 * n * n
            assert be.counters.query_ops == n * n

    def test_state_restored_exactly(self):
        rng = random.Random(17)
        n = 5
        a, b = rand_matrix(rng, n), rand_matrix(rng, n)
        be = seed_backend("grid2d-general", a, MIN_PLUS_PRODUCT)
        before = [[be.query(((i, i), (j, j))) for j in range(n)] for i in range(n)]
        product_via_backend(a, b, MIN_PLUS_PRODUCT, be)
        after = [[be.query(((i, i), (j, j))) for j in range(n)] for i in range(n)]
        assert before == after

    def test_float_domain_close_to_schoolbook(self):
        rng = random.Random(19)
        n = 8
        a = [[rng.uniform(-1e3, 1e3) for _ in range(n)] for _ in range(n)]
        b = [[rng.uniform(-1e3, 1e3) for _ in range(n)] for _ in range(n)]
        be = seed_backend("grid2d-general", a, STANDARD_PRODUCT)
        got = product_via_backend(a, b, STANDARD_PRODUCT, be)
        want = schoolbook(a, b, STANDARD_PRODUCT)
        for i in range(n):
            for j in range(n):
                scale = max(1.0, abs(want[i][j]))
                assert abs(got[i][j] - want[i][j]) / scale <= 1e-9

    def test_pair_without_inverse_rejected(self):
        bad = ProductPair("bad", MIN_MIN)
        a = [[1, 2], [3, 4]]
        be = seed_backend("oracle", a, bad)
        with pytest.raises(ValueError, match="inverse"):
            product_via_backend(a, a, bad, be)

    def test_shape_mismatch_rejected(self):
        a = [[1, 2], [3, 4]]
        be = seed_backend("oracle", a, MIN_PLUS_PRODUCT)
        with pytest.raises(ValueError):
            product_via_backend([[1]], [[1]], MIN_PLUS_PRODUCT, be)

    def test_nd_special_is_not_a_product_backend(self):
        a = [[1, 2], [3, 4]]
        with pytest.raises(ValueError):
            seed_backend("nd-special", a, MIN_PLUS_PRODUCT)
        # and its constructor refuses the pair outright
        pair = get_pair("plus-min")
        with pytest.raises(ValueError, match="counterexample"):
            NDTree(DenseTensor((2, 2), [1, 2, 3, 4], pair), pair)


class TestMultiProduct:
    def test_k1_equals_single_product(self):
        rng = random.Random(23)
        a, b = rand_matrix(rng, 4), rand_matrix(rng, 4)
        be = seed_backend("grid2d-general", rand_matrix(rng, 4), MIN_PLUS_PRODUCT)
        got = multi_product_via_backend([(a, b)], MIN_PLUS_PRODUCT, be)
        assert got == [schoolbook(a, b, MIN_PLUS_PRODUCT)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_k3_matches_schoolbook(self, backend):
        rng = random.Random(29)
        mats = [(rand_matrix(rng, 4), rand_matrix(rng, 4)) for _ in range(3)]
        be = seed_backend(backend, rand_matrix(rng, 4), MIN_PLUS_PRODUCT)
        got = multi_product_via_backend(mats, MIN_PLUS_PRODUCT, be)
        assert got == [schoolbook(a, b, MIN_PLUS_PRODUCT) for a, b in mats]

    def test_standard_with_zero_cells_reseeds(self):
        rng = random.Random(31)
        mats = []
        for _ in range(3):
            a = [[rng.choice([0, rng.randint(-4, 4)]) for _ in range(3)] for _ in range(3)]
            b = [[rng.choice([0, rng.randint(-4, 4)]) for _ in range(3)] for _ in range(3)]
            mats.append((a, b))
        be = seed_backend("grid2d-general", [[0] * 3] * 3, STANDARD_PRODUCT)
        got = multi_product_via_backend(mats, STANDARD_PRODUCT, be)
        assert got == [schoolbook(a, b, STANDARD_PRODUCT) for a, b in mats]

    def test_identical_inputs_identical_outputs(self):
        rng = random.Random(37)
        a, b = rand_matrix(rng, 3), rand_matrix(rng, 3)
        be = seed_backend("oracle", rand_matrix(rng, 3), MIN_PLUS_PRODUCT)
        got = multi_product_via_backend([(a, b), (a, b)], MIN_PLUS_PRODUCT, be)
        assert got[0] == got[1]


INF = float("inf")
NAN = float("nan")


class TestNonFiniteInputs:
    """An update that its inverse cannot undo (inf + -inf is nan) is refused."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bad", [INF, -INF, float("nan")], ids=["inf", "-inf", "nan"])
    def test_non_finite_b_is_rejected_before_any_update(self, backend, bad):
        a = [[0, 1], [1, 2]]
        be = seed_backend(backend, a, MIN_PLUS_PRODUCT)
        with pytest.raises(ValueError, match=r"B\[1\]\[0\]"):
            product_via_backend(a, [[3, 0], [bad, 2]], MIN_PLUS_PRODUCT, be)
        assert [[be.query(((i, i), (j, j))) for j in range(2)] for i in range(2)] == a

    def test_standard_product_rejects_infinite_b(self):
        a = [[1, 2], [3, 4]]
        be = seed_backend("grid2d-general", a, STANDARD_PRODUCT)
        with pytest.raises(ValueError, match=r"B\[0\]\[1\]"):
            product_via_backend(a, [[1, INF], [0, 1]], STANDARD_PRODUCT, be)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_infinities_in_a_are_exact(self, backend):
        a = [[INF, 0], [1, -INF]]
        b = [[0, 5], [2, 1]]
        for domain in (MIN_PLUS_PRODUCT, MAX_PLUS_PRODUCT):
            be = seed_backend(backend, a, domain)
            assert product_via_backend(a, b, domain, be) == schoolbook(a, b, domain)

    @pytest.mark.parametrize("domain", [MIN_PLUS_PRODUCT, MAX_PLUS_PRODUCT, STANDARD_PRODUCT],
                             ids=lambda d: d.name)
    def test_oracle_column_runs_keep_products_exact(self, domain):
        # the oracle updates each matrix column as one strided run, and
        # re-seeds each cell as a one-cell one; times-plus stays finite
        rng = random.Random(41)
        infinite = domain is not STANDARD_PRODUCT

        def mat(n, infinite=False):
            return [[rng.choice((INF, -INF)) if infinite and rng.random() < 0.25
                     else rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]

        for n in range(1, 10):
            a, b = mat(n, infinite), mat(n)
            be = seed_backend("oracle", a, domain)
            assert product_via_backend(a, b, domain, be) == schoolbook(a, b, domain)
            # a re-seed inverts the held cell, so only the last A holds infinities
            mats = [(mat(n), mat(n)), (mat(n, infinite), mat(n))]
            be = seed_backend("oracle", mat(n), domain)
            assert multi_product_via_backend(mats, domain, be) == \
                [schoolbook(a, b, domain) for a, b in mats]

    def test_integers_beyond_float_range_pass(self):
        big = 10 ** 400
        a = [[0, 1], [1, 2]]
        b = [[big, 0], [-big, 2]]
        be = seed_backend("grid2d-general", a, MIN_PLUS_PRODUCT)
        assert product_via_backend(a, b, MIN_PLUS_PRODUCT, be) == \
            schoolbook(a, b, MIN_PLUS_PRODUCT)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reseed_rejects_a_non_finite_cell(self, backend):
        # the first product leaves A's infinity in the backend; re-seeding
        # for the second would have to invert it
        a = [[0, 1], [INF, 2]]
        b = [[1, 0], [0, 1]]
        be = seed_backend(backend, [[0, 0], [0, 0]], MIN_PLUS_PRODUCT)
        with pytest.raises(ValueError, match=r"cell \(1, 0\)"):
            multi_product_via_backend([(a, b), (b, b)], MIN_PLUS_PRODUCT, be)

    def test_reseed_rejects_a_non_finite_zero_tracked_cell(self):
        # a nan mantissa is not equal to itself only as a plain number; a
        # product refuses a nan in A, so the cell is seeded directly
        b = [[1, 0], [0, 1]]
        be = seed_backend("grid2d-general", [[1, float("nan")], [2, 3]], STANDARD_PRODUCT)
        with pytest.raises(ValueError, match=r"cell \(0, 1\)"):
            multi_product_via_backend([(b, b)], STANDARD_PRODUCT, be)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nan_in_a_is_rejected_before_any_update(self, backend):
        # min and max answer nan by argument order: grid2d-general gave
        # inf inf / 1 1 here, schoolbook nan nan / 1 1
        a = [[NAN, 1], [1, 2]]
        b = [[0, 0], [0, 0]]
        for domain in (MIN_PLUS_PRODUCT, MAX_PLUS_PRODUCT, STANDARD_PRODUCT):
            be = seed_backend(backend, a, domain)
            before = be.counters.visits_total
            with pytest.raises(ValueError, match=r"A\[0\]\[0\] is nan"):
                product_via_backend(a, b, domain, be)
            assert be.counters.visits_total == before

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_multi_product_checks_every_a_before_any_update(self, backend):
        ok = [[0, 1], [1, 2]]
        be = seed_backend(backend, ok, MIN_PLUS_PRODUCT)
        before = be.counters.visits_total
        with pytest.raises(ValueError, match=r"A\[1\]\[1\] is nan"):
            multi_product_via_backend([(ok, ok), ([[0, 1], [1, NAN]], ok)],
                                      MIN_PLUS_PRODUCT, be)
        assert be.counters.visits_total == before

    def test_nan_zero_tracked_mantissa_in_a_is_rejected(self):
        a = [[ZeroTrackedSum({0: 1, 1: NAN}), 1], [1, 2]]
        be = seed_backend("grid2d-general", [[1, 1], [1, 1]], STANDARD_PRODUCT)
        with pytest.raises(ValueError, match=r"A\[0\]\[0\] is nan"):
            product_via_backend(a, [[1, 0], [0, 1]], STANDARD_PRODUCT, be)


class TestZeroTrackedPlumbing:
    def test_lift_lower_round_trip(self):
        assert STANDARD_PRODUCT.lower(STANDARD_PRODUCT.lift(7)) == 7
        assert STANDARD_PRODUCT.lower(STANDARD_PRODUCT.lift(0)) == 0

    def test_inv_of_zero_update_is_total(self):
        z = STANDARD_PRODUCT.lift(0)
        inv = STANDARD_PRODUCT.pair.invert(z)
        assert isinstance(inv, ZeroTrackedSum)
        assert (z * inv) == 1


def leaf_depth_sum(n):
    """``D(N)``: the partial nodes of every one-slot span, summed, which is
    the sum of the leaf depths of ``node_shape(n)``."""
    return sum(len(split(node_shape(n), i, i)[1]) for i in range(n))


class TestReductionCost:
    """One product costs a closed form in N: Theta(N^3 log N) update visits
    against Theta(N^2 log N) query visits on ``grid2d-general``, the
    trade-off that the (+, min) lower bound predicts; the oracle pays N per
    row or column operation."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_visit_totals_of_one_product(self, backend):
        rng = random.Random(9)
        for n in range(1, 34):
            a, b = rand_matrix(rng, n), rand_matrix(rng, n)
            be = seed_backend(backend, a, MIN_PLUS_PRODUCT)
            c = be.counters
            init = c.visits_total
            product_via_backend(a, b, MIN_PLUS_PRODUCT, be)
            assert (c.update_ops, c.query_ops) == (2 * n * n, n * n)
            if backend == "oracle":
                want = (2 * n ** 3, n ** 3)
            else:
                d = n + leaf_depth_sum(n)
                want = (4 * n * (2 * n - 1) * d, 2 * n * d)
            assert (c.update_visits, c.query_visits) == want, n
            assert c.visits_total == init + sum(want)
