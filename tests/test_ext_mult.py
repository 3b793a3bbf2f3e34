from collections import Counter
from itertools import product
from math import comb

import pytest

from pflyub.ext_mult import ext_series_closed, ext_series_enum, zset_rectangle, zset_thickened
from pflyub.polyring import QPoly


def q(e):
    return QPoly.q(e)


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
        assert ext_series_closed(2, 2, 3) == q(1)

    def test_m3_a2(self):
        assert ext_series_enum(3, 2, 3) == q(6) + q(10)

    def test_b_independence(self):
        assert ext_series_closed(4, 2, 3) == ext_series_closed(4, 2, 300)
        assert ext_series_enum(4, 2, 3) == ext_series_enum(4, 2, 300)

    def test_argument_gates(self):
        with pytest.raises(ValueError):
            ext_series_enum(3, 0, 5)
        with pytest.raises(ValueError):
            ext_series_enum(3, 4, 99)
        with pytest.raises(ValueError):
            ext_series_closed(3, 2, 2)  # b < 2a-1

    @pytest.mark.parametrize("m", range(1, 8))
    def test_enum_equals_closed(self, m):
        for a in range(1, m + 1):
            for b in (2 * a - 1, 2 * a, 2 * a + 3):
                assert ext_series_enum(m, a, b) == ext_series_closed(m, a, b)

    def test_coefficients_count_box_partitions_by_size(self):
        m, a = 5, 3
        series = ext_series_enum(m, a, 2 * a)
        # partitions with at most m - a parts, each at most a - 1, by brute force
        boxed = (x for x in product(range(a), repeat=m - a) if list(x) == sorted(x, reverse=True))
        sizes = Counter(map(sum, boxed))
        base = comb(2 * m, 2) - comb(2 * a - 2, 2) - 4 * (a - 1)
        for size, count in sizes.items():
            assert series.terms().get(base - 4 * size, 0) == count


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

    def test_disjointness(self):
        # labels of the rank filtration at level k are disjoint from level k-1
        for m in range(1, 6):
            for k in range(1, m):
                a = m - k
                for e in range(5):
                    assert not (zset_rectangle(m, a, e) & zset_thickened(m, a + 1, e))

    def test_inclusion(self):
        for m in range(1, 6):
            for k in range(1, m):
                a = m - k
                for e in range(5):
                    thick = zset_thickened(m, a, e) - {((0,) * m, m - 1)}
                    assert thick <= zset_rectangle(m, a, e + 1)
                    # the sharp form: the same cap already suffices
                    assert thick <= zset_rectangle(m, a, e)
