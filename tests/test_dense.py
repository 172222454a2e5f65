import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqtrees import (DenseTensor, builtin_pairs, format_tensor, get_pair,
                     parse_tensor)
from uqtrees.dense import parse_value
from conftest import GCD_GCD, all_cells, fold


def spans(rng, dims):
    out = []
    for n in dims:
        a, b = rng.randrange(n), rng.randrange(n)
        out.append((min(a, b), max(a, b)))
    return tuple(out)


class TestUpdate:
    def test_1d_example(self):
        t = DenseTensor((3,), [3, 1, 4], get_pair("plus-min"))
        t.update(((1, 2),), 2)
        assert t.data == [3, 3, 6]

    def test_identity_update_is_noop(self, pair):
        t = DenseTensor((2, 3), [1, 2, 3, 4, 5, 6], pair)
        before = list(t.data)
        t.update(((0, 1), (0, 2)), pair.update_identity)
        assert t.data == before

    def test_2d_example(self):
        t = DenseTensor((2, 2), [1, 2, 3, 4], get_pair("plus-plus"))
        t.update(((0, 0), (0, 1)), 5)
        assert t.data == [6, 7, 3, 4]

    def test_out_of_bounds(self):
        t = DenseTensor((4,), [0] * 4, get_pair("plus-plus"))
        with pytest.raises(ValueError):
            t.update(((0, 4),), 1)
        with pytest.raises(ValueError):
            t.update(((2, 1),), 1)
        with pytest.raises(ValueError):
            t.update(((0, 1), (0, 1)), 1)


class TestQuery:
    def test_examples(self):
        tmn = DenseTensor((3,), [3, 1, 4], get_pair("plus-min"))
        assert tmn.query(((0, 2),)) == 1
        tpp = DenseTensor((2, 2), [1, 2, 3, 4], get_pair("plus-plus"))
        assert tpp.query(((0, 1), (0, 1))) == 10
        assert tpp.query(((1, 1), (0, 0))) == 3  # single cell

    def test_fold_matches_reduce(self, pair, rng):
        dims = (4, 3, 5)
        data = [rng.randint(*pair.sample_range) for _ in range(60)]
        t = DenseTensor(dims, data, pair)
        for _ in range(60):
            box = spans(rng, dims)
            cells = [v for c, v in all_cells(t)
                     if all(lo <= x <= hi for x, (lo, hi) in zip(c, box))]
            assert t.query(box) == fold(pair, cells)

    def test_disjoint_update_leaves_query_alone(self, pair, rng):
        dims = (6, 6)
        data = [rng.randint(*pair.sample_range) for _ in range(36)]
        t = DenseTensor(dims, data, pair)
        for _ in range(80):
            b1, b2 = spans(rng, dims), spans(rng, dims)
            disjoint = any(h1 < l2 or h2 < l1
                           for (l1, h1), (l2, h2) in zip(b1, b2))
            if disjoint:
                before = t.query(b2)
                t.update(b1, rng.randint(*pair.sample_range))
                assert t.query(b2) == before

    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
    @settings(max_examples=100, derandomize=True)
    def test_query_splits_on_any_partition(self, a, b, c):
        lo, mid, hi = sorted((a, b, c))
        if mid == hi:
            return
        pair = get_pair("plus-min")
        rng = random.Random(5)
        t = DenseTensor((8,), [rng.randint(-9, 9) for _ in range(8)], pair)
        whole = t.query(((lo, hi),))
        split = pair.query_op(t.query(((lo, mid),)), t.query(((mid + 1, hi),)))
        assert whole == split

    def test_counters_count_cells(self):
        t = DenseTensor((4, 4), list(range(16)), get_pair("plus-plus"))
        t.update(((0, 1), (0, 3)), 1)
        assert t.counters.visits_last_op == 8
        t.query(((0, 3), (0, 0)))
        assert t.counters.visits_last_op == 4
        assert t.counters.update_ops == 1 and t.counters.query_ops == 1


class TestRuns:
    """The oracle walks a box as a few ``(start, stop, step)`` slices."""

    # every shape with extents 1-4 and d <= 3, and a few deeper ones with a
    # one-slot axis between others
    SHAPES = ([dims for d in (1, 2, 3) for dims in product(range(1, 5), repeat=d)]
              + [(2, 3, 1, 4), (3, 1, 2, 2), (2, 2, 2, 1, 3), (1, 3, 2, 2, 2)])

    def test_runs_list_each_cell_once_in_row_major_order(self):
        boxes = 0
        for dims in self.SHAPES:
            t = DenseTensor(dims, [0] * math.prod(dims), get_pair("plus-plus"))
            cells = [c for c, _ in all_cells(t)]
            axis_spans = [list(combinations_with_replacement(range(n), 2)) for n in dims]
            for box in product(*axis_spans):
                want = [i for i, c in enumerate(cells)
                        if all(lo <= x <= hi for x, (lo, hi) in zip(c, box))]
                got = [i for a, e, st in t._runs(box) for i in range(a, e, st)]
                assert got == want, (dims, box)
                boxes += 1
        assert boxes == 8978

    def test_a_column_and_full_rows_are_one_run_each(self):
        t = DenseTensor((5, 7), [0] * 35, get_pair("plus-min"))
        assert t._runs(((0, 4), (3, 3))) == [(3, 32, 7)]
        assert t._runs(((1, 3), (0, 6))) == [(7, 28, 1)]
        assert t._runs(((1, 3), (2, 4))) == [(9, 12, 1), (16, 19, 1), (23, 26, 1)]
        # a strided run climbs over a fully covered axis too
        t = DenseTensor((2, 3, 4), [0] * 24, get_pair("plus-min"))
        assert t._runs(((0, 1), (0, 2), (1, 1))) == [(1, 22, 4)]

    # on 3x4x5: two fully covered trailing axes, a width-1 last axis, a row
    RUN_BOXES = {"merged": ((1, 2), (0, 3), (0, 4)),
                 "strided": ((0, 2), (0, 3), (2, 2)),
                 "row": ((1, 1), (2, 2), (1, 3))}

    @pytest.mark.parametrize("kind", sorted(RUN_BOXES))
    @pytest.mark.parametrize("name", [p.name for p in builtin_pairs()] + ["gcd-gcd"])
    def test_update_over_a_run_is_the_per_cell_update(self, name, kind):
        pair = GCD_GCD if name == "gcd-gcd" else get_pair(name)
        box = self.RUN_BOXES[kind]
        inf, nan = math.inf, math.nan
        if pair is GCD_GCD:
            # math.gcd takes integers only
            cells, values = [0, 1, -4, 6, 9, 12], [0, 4, -6]
        else:
            cells = [0, 1, -4, 2.5, -0.1, inf, -inf, nan, Fraction(1, 3)]
            values = [0, 3, -0.5, 1e300, inf, -inf]
        rng = random.Random(kind)
        t = DenseTensor((3, 4, 5), [rng.choice(cells) for _ in range(60)], pair)
        inside = {i for i, (c, _) in enumerate(all_cells(t))
                  if all(lo <= x <= hi for x, (lo, hi) in zip(c, box))}
        for v in values:
            want = [pair.update_op(x, v) if i in inside else x
                    for i, x in enumerate(t.data)]
            t.update(box, v)
            # compared by repr: nan matches nan there, and -0.0 differs from 0.0
            assert list(map(repr, t.data)) == list(map(repr, want))


class TestTextFormat:
    def test_round_trip(self):
        pair = get_pair("plus-plus")
        t = DenseTensor((2, 3), [1, -2, 3, 4, 5, 6], pair)
        text = format_tensor(t)
        assert text.splitlines()[0] == "2 2 3"
        back = parse_tensor(text, pair)
        assert back.dims == t.dims and back.data == t.data

    def test_values_round_trip(self):
        pair = get_pair("times-plus")
        t = DenseTensor((4,), [Fraction(1, 3), 2.5, math.inf, -7], pair)
        back = parse_tensor(format_tensor(t), pair)
        assert back.data == t.data

    def test_decimal_tokens_are_exact(self):
        assert parse_value("0.1") == Fraction(1, 10)
        assert parse_value("-2.50") == Fraction(-5, 2)
        assert parse_value("1e400") == 10 ** 400
        assert parse_value("1E-3") == Fraction(1, 1000)
        for tok in ("0.1", "1e400", "2.0"):
            assert type(parse_value(tok)) is Fraction
        assert parse_value("7") == 7 and type(parse_value("7")) is int
        assert parse_value("1/3") == Fraction(1, 3)

    def test_non_finite_tokens_stay_floats(self):
        assert parse_value("inf") == math.inf
        assert parse_value("-inf") == -math.inf
        nan = parse_value("nan")
        assert type(nan) is float and nan != nan

    def test_inexact_tokens_rejected(self):
        # a huge exponent would take minutes to build exactly, float() would
        # read a 5000-digit integer as inf without a word, and 1/0 used to
        # escape as ZeroDivisionError
        for tok in ("1e1001", "1e-5000", "abc", "1e", "1" * 5000, "1/0"):
            with pytest.raises(ValueError):
                parse_value(tok)

    def test_decimals_round_trip_exactly(self):
        pair = get_pair("plus-min")
        back = parse_tensor("1 3\n0.1 0.2 1e400\n", pair)
        assert back.data == [Fraction(1, 10), Fraction(1, 5), 10 ** 400]
        assert parse_tensor(format_tensor(back), pair).data == back.data

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            parse_tensor("2 2 2\n1 2 3", get_pair("plus-plus"))
        with pytest.raises(ValueError):
            parse_tensor("", get_pair("plus-plus"))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DenseTensor((2, 2), [1, 2, 3], get_pair("plus-plus"))


class TestExtents:
    """Extents are integers >= 1, checked before the values are counted."""

    def test_float_extent_rejected(self):
        # was accepted, and answered queries
        with pytest.raises(ValueError, match=r"bad extent 2\.0 "):
            DenseTensor((2.0, 2), [1, 2, 3, 4], get_pair("plus-min"))

    def test_negative_extent_named_before_the_value_count(self):
        # was "expected -3 values for extents [-3], got 0"
        with pytest.raises(ValueError, match="bad extent -3 "):
            parse_tensor("1 -3", get_pair("plus-min"))
