from collections import Counter
from itertools import product
from math import comb

import pytest

from pflyub.ext_mult import ext_series_enum, zset_rectangle, zset_thickened
from pflyub.origin_localcoh import h0_Q
from pflyub.polyring import QPoly


q = QPoly.q


class TestZPair:
    def test_head_must_be_constant(self):
        # every label (x, p) is a partition x of full length m, with
        # 0 <= p < m and x_1 = ... = x_{p+1}
        for m in range(1, 6):
            for a in range(1, m + 1):
                for e in range(4):
                    for x, p in zset_rectangle(m, a, e) | zset_thickened(m, a, e):
                        assert len(x) == m and 0 <= p < m
                        assert list(x) == sorted(x, reverse=True) and min(x) >= 0
                        assert len(set(x[: p + 1])) == 1


class TestSeries:
    def test_a1_single_top_term(self):
        for m in range(1, 6):
            assert ext_series_enum(m, 1, 1) == q(comb(2 * m, 2))

    def test_m2_a2(self):
        assert ext_series_enum(2, 2, 3) == q(1)

    def test_m3_a2(self):
        assert ext_series_enum(3, 2, 3) == q(6) + q(10)
        # local duality: reversed in C(6, 2) = 15, it is the origin local cohomology of Q_1
        assert ext_series_enum(3, 2, 3).reverse(15) == h0_Q(3, 1) == q(5) + q(9)

    def test_b_independence(self):
        assert ext_series_enum(4, 2, 3) == ext_series_enum(4, 2, 300)

    def test_argument_gates(self):
        # one check of a for the series and both Z-sets, each message pinned
        for f, args, message in (
            (ext_series_enum, (3, 0, 5), "require 1 <= a <= m, got a=0, m=3"),
            (ext_series_enum, (3, 4, 99), "require 1 <= a <= m, got a=4, m=3"),
            (ext_series_enum, (3, 2, 2), "require b >= 2a-1 = 3, got b=2"),
            (zset_rectangle, (3, 0, 1), "require 1 <= a <= m, got a=0, m=3"),
            (zset_thickened, (3, 4, 1), "require 1 <= a <= m, got a=4, m=3"),
            (zset_rectangle, (3, 2, -1), "require e >= 0, got e=-1"),
            (zset_thickened, (3, 2, -1), "require e >= 0, got e=-1"),
        ):
            with pytest.raises(ValueError) as caught:
                f(*args)
            assert str(caught.value) == message

    def test_coefficients_count_box_partitions_by_size(self):
        # partitions with at most m - a parts, each at most a - 1, by brute force:
        # an enumeration of the box independent of the oracle the series regrades
        for m in range(1, 10):
            for a in range(1, m + 1):
                boxed = (x for x in product(range(a), repeat=m - a) if list(x) == sorted(x, reverse=True))
                base = comb(2 * m, 2) - comb(2 * a - 2, 2) - 4 * (a - 1)
                expected = QPoly(Counter(base - 4 * size for size in map(sum, boxed)))
                assert ext_series_enum(m, a, 2 * a - 1) == expected, (m, a)


class TestZSets:
    def test_rectangle_e0_zero_profile_only(self):
        got = zset_rectangle(3, 2, 0)
        assert got == {((0, 0, 0), 1)}

    def test_rectangle_members(self):
        got = zset_rectangle(2, 1, 1)
        assert got == {((0, 0), 0), ((1, 0), 0), ((1, 1), 0)}

    def test_thickened_m2_a1_e1(self):
        got = zset_thickened(2, 1, 1)
        assert got == {((0, 0), 1), ((1, 1), 0)}

    def test_thickened_always_has_sentinel(self):
        for m in range(1, 6):
            for a in range(1, m + 1):
                for e in range(4):
                    assert ((0,) * m, m - 1) in zset_thickened(m, a, e)

    def test_thickened_nonsentinel_parts_positive(self):
        for x, p in zset_thickened(4, 2, 3):
            if p == 3:
                continue
            assert len(x) == 4 and x[-1] >= 1
