import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqtrees import (DenseTensor, NDTree, OperatorPair, SegTree1D,
                     ZeroTrackedSum, builtin_pairs, check_special, get_pair)
from uqtrees.seg1d import node_shape
from conftest import fold, fold_updated, sample_values

SPECIAL = {"plus-plus", "times-times", "min-min", "max-max"}
WITH_INVERSE = {"plus-min", "plus-max", "plus-plus", "times-plus", "times-times"}


class TestRegistry:
    def test_names(self):
        names = {p.name for p in builtin_pairs()}
        assert names >= {"plus-min", "plus-plus", "times-times", "min-min",
                         "max-max", "plus-max", "times-plus"}

    def test_special_flags(self):
        for p in builtin_pairs():
            assert p.is_special == (p.name in SPECIAL), p.name

    def test_special_is_derived_from_the_operators(self):
        # one operator object with one identity; nothing is declared
        agg = lambda a, v, k: math.gcd(a, v)
        assert OperatorPair("gcd-gcd", math.gcd, math.gcd, 0, 0, agg).is_special
        assert not OperatorPair("gcd-ids", math.gcd, math.gcd, 0, 1, agg).is_special
        assert not OperatorPair("gcd-lambda", math.gcd, lambda a, b: math.gcd(a, b),
                                0, 0, agg).is_special

    def test_inverses_present(self):
        for p in builtin_pairs():
            assert (p.inverse is not None) == (p.name in WITH_INVERSE), p.name

    def test_identities(self):
        assert get_pair("plus-plus").query_identity == 0
        assert get_pair("plus-min").query_identity == math.inf
        assert get_pair("plus-max").query_identity == -math.inf
        assert get_pair("times-times").update_identity == 1
        assert get_pair("plus-min").is_special is False

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_pair("nope")

    def test_identity_laws_sampled(self, pair, rng):
        for a in sample_values(pair, rng, 50):
            assert pair.update_op(a, pair.update_identity) == a
            assert pair.query_op(a, pair.query_identity) == a

    def test_ops_commutative_associative_sampled(self, pair, rng):
        for _ in range(200):
            a, b, c = sample_values(pair, rng, 3)
            for op in (pair.update_op, pair.query_op):
                assert op(a, b) == op(b, a)
                assert op(op(a, b), c) == op(a, op(b, c))


class TestFoldAfterUpdate:
    """``aggregator(fold, value, count)``: the fold after every element absorbed ``value``."""

    def test_plus_min_example(self):
        assert get_pair("plus-min").aggregator(7, 2, 3) == 9

    def test_plus_plus_example(self):
        assert get_pair("plus-plus").aggregator(7, 2, 3) == 13

    def test_identity_value(self, pair):
        assert pair.aggregator(42, pair.update_identity, 5) == 42

    def test_count_must_be_positive(self, pair):
        # the trees only ever aggregate over one cell or more: no tree is
        # built over nothing, and every node covers at least one cell
        with pytest.raises(ValueError):
            SegTree1D([], pair)
        for n in (1, 2, 7, 16):
            assert min(node_shape(n).size) == 1

    def test_defining_law_vs_brute_force(self, pair, rng):
        # the aggregator must agree with "update every element, then fold"
        for _ in range(300):
            k = rng.randint(1, 12)
            seq = sample_values(pair, rng, k)
            v = sample_values(pair, rng, 1)[0]
            assert pair.aggregator(fold(pair, seq), v, k) == fold_updated(pair, seq, v)

    def test_interchange_law(self, pair, rng):
        # stacking two values equals one combined value, in either order
        agg, u = pair.aggregator, pair.update_op
        for _ in range(300):
            a, x, y = sample_values(pair, rng, 3)
            k = rng.randint(1, 1000)
            assert agg(a, u(x, y), k) == agg(agg(a, x, k), y, k)
            assert agg(a, u(x, y), k) == agg(agg(a, y, k), x, k)

    def test_merge_law(self, pair, rng):
        # two folds updated with the same value merge into one bigger fold
        agg, q = pair.aggregator, pair.query_op
        for _ in range(300):
            a, b, v = sample_values(pair, rng, 3)
            p, k = rng.randint(1, 1000), rng.randint(1, 1000)
            assert q(agg(a, v, p), agg(b, v, k)) == agg(q(a, b), v, p + k)


class TestRepeat:
    """With one operator, ``aggregator(e, v, j)`` is ``v`` repeated ``j`` times."""

    def test_examples(self):
        for name, v, j, want in (("plus-plus", 3, 4, 12), ("min-min", 5, 7, 5),
                                 ("times-times", 2, 10, 1024)):
            pair = get_pair(name)
            assert pair.aggregator(pair.update_identity, v, j) == want

    def test_against_brute_force(self, special_pair, rng):
        pair = special_pair
        for _ in range(200):
            v = sample_values(pair, rng, 1)[0]
            j = rng.randint(1, 20)
            assert pair.aggregator(pair.update_identity, v, j) == fold(pair, [v] * j)

    def test_additivity(self, special_pair, rng):
        agg, u, e = special_pair.aggregator, special_pair.update_op, special_pair.update_identity
        for _ in range(200):
            v = sample_values(special_pair, rng, 1)[0]
            j, l = rng.randint(1, 20), rng.randint(1, 20)
            assert agg(e, v, j + l) == u(agg(e, v, j), agg(e, v, l))

    def test_absorbing_a_repeat(self, special_pair, rng):
        agg, u, e = special_pair.aggregator, special_pair.update_op, special_pair.update_identity
        for _ in range(200):
            a, v = sample_values(special_pair, rng, 2)
            k = rng.randint(1, 20)
            assert agg(a, v, k) == u(a, agg(e, v, k))


def fold_after_partial_update(pair, fold, value, hits, count):
    """The fold-commuting law: the new fold of ``count`` elements after
    ``hits`` of them absorbed ``value``, whichever ones they were."""
    assert pair.is_special and 0 <= hits <= count
    return fold if hits == 0 else pair.aggregator(fold, value, hits)


class TestFoldAfterPartialUpdate:
    def test_zero_hits_is_identity(self, special_pair):
        assert fold_after_partial_update(special_pair, 17, 3, 0, 4) == 17

    def test_plus_plus_example(self):
        # [1,2,3,4] folds to 10; updating two elements by +3 gives 16
        seq = [1, 2, 3, 4]
        pair = get_pair("plus-plus")
        assert fold_updated(pair, seq, 3, hit_indices=[1, 3]) == 16
        assert fold_after_partial_update(pair, fold(pair, seq), 3, 2, 4) == 16

    def test_min_min_example(self):
        # an explicit 8-element sequence with minimum 5; three hits by 1
        seq = [9, 5, 8, 7, 12, 6, 11, 10]
        pair = get_pair("min-min")
        assert fold(pair, seq) == 5
        assert fold_updated(pair, seq, 1, hit_indices=[0, 4, 6]) == 1
        assert fold_after_partial_update(pair, 5, 1, 3, 8) == 1

    def test_against_brute_force(self, special_pair, rng):
        pair = special_pair
        for _ in range(500):
            k = rng.randint(1, 10)
            seq = sample_values(pair, rng, k)
            v = sample_values(pair, rng, 1)[0]
            hits = [i for i in range(k) if rng.random() < 0.5]
            want = fold_updated(pair, seq, v, hit_indices=hits)
            got = fold_after_partial_update(pair, fold(pair, seq), v, len(hits), k)
            assert got == want


class TestInvert:
    def test_examples(self):
        assert get_pair("plus-min").invert(5) == -5
        assert get_pair("plus-min").invert(0) == 0  # identity is self-inverse
        assert get_pair("times-times").invert(1) == 1

    def test_missing_inverse(self):
        with pytest.raises(ValueError):
            get_pair("min-min").invert(3)

    def test_inverse_law_sampled(self, rng):
        for name in WITH_INVERSE:
            pair = get_pair(name)
            for _ in range(100):
                x = sample_values(pair, rng, 1)[0]
                if name.startswith("times"):
                    x = ZeroTrackedSum.from_scalar(x)
                    got = pair.update_op(x, pair.invert(x))
                    assert got == pair.update_identity
                else:
                    assert pair.update_op(x, pair.invert(x)) == pair.update_identity

    def test_zero_factor_round_trip(self):
        # multiplying by zero bumps the depth; its inverse brings it back
        pair = get_pair("times-plus")
        cell = ZeroTrackedSum.from_scalar(5)
        zero_update = ZeroTrackedSum.from_scalar(0)
        bumped = pair.update_op(cell, zero_update)
        assert bumped.terms == {1: 5}
        assert bumped.effective() == 0
        restored = pair.update_op(bumped, pair.invert(zero_update))
        assert restored == cell


class TestCheckSpecial:
    def test_gates(self):
        for name in ("plus-plus", "times-times", "min-min", "max-max"):
            ok, witness = check_special(get_pair(name))
            assert ok and witness is None, name

    def test_plus_min_witness(self):
        ok, witness = check_special(get_pair("plus-min"))
        assert not ok
        assert witness == (0, 0, 1)
        a, b, v = witness
        assert min(a + v, b) != min(a, b) + v

    def test_times_plus_witness(self):
        ok, witness = check_special(get_pair("times-plus"))
        assert not ok
        a, b, v = witness
        assert (a * v) + b != (a + b) * v

    def test_witness_is_a_real_counterexample(self, pair):
        ok, witness = check_special(pair, samples=1000, seed=3)
        if not ok:
            a, b, v = witness
            assert pair.query_op(pair.update_op(a, v), b) != \
                pair.update_op(pair.query_op(a, b), v)


class TestUpdateFoldPair:
    """The pending-value trees of ``nd-special`` fold with the pair itself."""

    def test_builtin_specials_are_their_own(self, special_pair):
        assert special_pair.update_op is special_pair.query_op
        assert special_pair.update_identity == special_pair.query_identity
        t = NDTree(DenseTensor((2, 3), [1] * 6, special_pair), special_pair)
        # pending-value trees are allocated by the update that first stamps them
        t.update(((0, 1), (0, 2)), special_pair.sample_range[1])
        assert {lazy.pair for lazy in t.row_lazy if lazy is not None} == {special_pair}


class TestZeroTrackedSum:
    def test_no_explicit_zero_entries(self):
        assert ZeroTrackedSum({0: 0, 1: 2}).terms == {1: 2}
        assert (ZeroTrackedSum({0: 3}) + ZeroTrackedSum({0: -3})).terms == {}

    def test_fresh_nonzero_scalar_sits_at_depth_zero(self):
        z = ZeroTrackedSum.from_scalar(7)
        assert z.terms == {0: 7}
        assert z.effective() == 7

    def test_zero_scalar_carries_one_zero_factor(self):
        z = ZeroTrackedSum.from_scalar(0)
        assert z.terms == {1: 1}
        assert z.effective() == 0

    def test_reciprocal(self):
        z = ZeroTrackedSum.from_scalar(4)
        assert (z * z.reciprocal()) == 1
        assert z.reciprocal().terms == {0: Fraction(1, 4)}
        with pytest.raises(ValueError):
            (ZeroTrackedSum({0: 1, 1: 1})).reciprocal()

    def test_scalar_interop(self):
        z = ZeroTrackedSum.from_scalar(3)
        assert 0 + z == z
        assert 1 * z == z
        assert (2 * z).effective() == 6
        assert (z + 4).effective() == 7
        assert z == 3 and not (z == 4)

    def test_pow(self):
        z = ZeroTrackedSum.from_scalar(2)
        assert (z ** 10).effective() == 1024
        mixed = ZeroTrackedSum({0: 1, 1: 1})
        assert (mixed ** 2).terms == {0: 1, 1: 2, 2: 1}

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(-5, 5)), max_size=4),
           st.lists(st.tuples(st.integers(0, 3), st.integers(-5, 5)), max_size=4),
           st.lists(st.tuples(st.integers(0, 3), st.integers(-5, 5)), max_size=4))
    @settings(max_examples=200, derandomize=True)
    def test_ring_laws(self, t1, t2, t3):
        a, b, c = (ZeroTrackedSum(dict(t)) for t in (t1, t2, t3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    def test_hash_agrees_with_scalar_equality(self):
        for z, x in ((ZeroTrackedSum({0: 5}), 5), (ZeroTrackedSum({}), 0),
                     (ZeroTrackedSum({0: Fraction(1, 2)}), 0.5)):
            assert z == x and hash(z) == hash(x)
            assert len({z, x}) == 1
        assert {ZeroTrackedSum({0: 5}): "a"}[5] == "a"
        # one zero factor is not plain zero
        assert ZeroTrackedSum({1: 1}) != 0

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(-3, 3)), max_size=3),
           st.lists(st.tuples(st.integers(0, 2), st.integers(-3, 3)), max_size=3))
    @settings(max_examples=200, derandomize=True)
    def test_equal_values_hash_equal(self, t1, t2):
        a, b = ZeroTrackedSum(dict(t1)), ZeroTrackedSum(dict(t2))
        if a == b:
            assert hash(a) == hash(b)
        x = a.effective()
        if a == x:
            assert hash(a) == hash(x)
