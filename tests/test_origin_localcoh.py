from math import comb

import pytest

from pflyub.origin_localcoh import h0_D_even, h0_D_odd, h0_pf_pole, h0_Q
from pflyub.polyring import QPoly


def q(e):
    return QPoly.q(e)


class TestPfPoleFamily:
    def test_k0_is_top_degree(self):
        for m in range(1, 8):
            assert h0_pf_pole(m, 0) == q(comb(2 * m, 2))

    def test_m2_k1(self):
        assert h0_pf_pole(2, 1) == q(1)

    def test_no_constant_term(self):
        for m in range(1, 9):
            for k in range(m):
                assert min(h0_pf_pole(m, k).terms()) >= 1

    def test_top_degree_vanishes_for_proper_poles(self):
        for m in range(2, 9):
            d = comb(2 * m, 2)
            for k in range(1, m):
                assert h0_pf_pole(m, k).terms().get(d, 0) == 0

    def test_range(self):
        with pytest.raises(ValueError, match=r"^require 0 <= k <= m-1, got k=3, m=3$"):
            h0_pf_pole(3, 3)


class TestQFamily:
    def test_p0_is_one(self):
        for m in range(1, 8):
            assert h0_Q(m, 0) == QPoly({0: 1})

    def test_examples(self):
        assert h0_Q(3, 1) == q(5) + q(9)
        assert h0_Q(2, 1) == q(5)

    def test_range(self):
        with pytest.raises(ValueError, match=r"^require 0 <= p <= m-1, got p=3, m=3$"):
            h0_Q(3, 3)


class TestDEvenFamily:
    def test_boundaries(self):
        for m in range(1, 8):
            assert h0_D_even(m, 0) == QPoly({0: 1})
            assert h0_D_even(m, m) == q(comb(2 * m, 2))

    def test_m2_s1(self):
        assert h0_D_even(2, 1) == q(1) + q(5)

    def test_range(self):
        with pytest.raises(ValueError, match=r"^require 0 <= s <= m, got s=3, m=2$"):
            h0_D_even(2, 3)


class TestDOddFamily:
    def test_boundaries(self):
        for m in range(1, 8):
            assert h0_D_odd(m, 0) == QPoly({0: 1})
            assert h0_D_odd(m, m) == q(comb(2 * m + 1, 2))

    def test_m2_p1(self):
        assert h0_D_odd(2, 1) == q(3) + q(7)

    def test_range(self):
        with pytest.raises(ValueError, match=r"^require 0 <= p <= m, got p=-1, m=2$"):
            h0_D_odd(2, -1)


class TestGlobalBounds:
    def test_nonnegative_and_within_ambient_degree(self):
        for m in range(1, 9):
            even_d = comb(2 * m, 2)
            odd_d = comb(2 * m + 1, 2)
            families = [
                (even_d, [h0_pf_pole(m, k) for k in range(m)]),
                (even_d, [h0_Q(m, p) for p in range(m)]),
                (even_d, [h0_D_even(m, s) for s in range(m + 1)]),
                (odd_d, [h0_D_odd(m, p) for p in range(m + 1)]),
            ]
            for ambient, polys in families:
                for poly in polys:
                    exps = sorted(poly.terms())
                    assert 0 <= exps[0] and exps[-1] <= ambient
                    assert all(c > 0 for c in poly.terms().values())
