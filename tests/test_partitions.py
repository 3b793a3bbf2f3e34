import tracemalloc
from math import comb
from operator import add

import pytest

from pflyub.partitions import (
    _doubled,
    _gauss,
    _weakly_decreasing,
    gaussian_binomial,
    gaussian_binomial_oracle,
)
from pflyub.polyring import QPoly


def box(c, d):
    """The partitions in a c x d box, as weakly decreasing c-tuples."""
    return list(_weakly_decreasing(c, 0, d))


class TestEnumerateBox:
    def test_1x1(self):
        assert box(1, 1) == [(1,), (0,)]

    def test_2x2(self):
        assert box(2, 2) == [(2, 2), (2, 1), (2, 0), (1, 1), (1, 0), (0, 0)]

    def test_zero_rows(self):
        assert box(0, 5) == [()]

    def test_descending_lex_from_full_rectangle(self):
        assert box(3, 2)[0] == (2, 2, 2)

    @pytest.mark.parametrize("c,d", [(c, d) for c in range(5) for d in range(5)])
    def test_count_and_constraint(self, c, d):
        parts = box(c, d)
        assert all(len(p) == c and all(0 <= x <= d for x in p) for p in parts)
        assert len(set(parts)) == comb(c + d, d)
        assert all(x > y for x, y in zip(parts, parts[1:]))

    def test_negative_lower_bound(self):
        assert list(_weakly_decreasing(2, -1, 1)) == [(1, 1), (1, 0), (1, -1), (0, 0), (0, -1), (-1, -1)]


def test_double_columns():
    assert _doubled((2, 1)) == (2, 2, 1, 1)
    assert _doubled(()) == ()
    assert _doubled((3,) * 4) == (3,) * 8


class TestGaussianBinomial:
    def test_conventions(self):
        for a in range(8):
            assert gaussian_binomial(a, a) == QPoly.const(1)
            assert gaussian_binomial(a, 0) == QPoly.const(1)

    def test_small_values(self):
        q = QPoly.q
        assert gaussian_binomial(2, 1) == QPoly.const(1) + q(1)
        # partitions in a 2x2 box, by size: 1, 1, 2, 1, 1
        assert gaussian_binomial(4, 2) == QPoly.const(1) + q(1) + 2 * q(2) + q(3) + q(4)

    def test_equals_the_checked_constructor(self):
        # the result wraps the kernel's coefficients without the QPoly checks
        for a in range(21):
            for b in range(a + 1):
                for power in (1, 4):
                    g = gaussian_binomial(a, b, power)
                    expected = QPoly({power * e: c for e, c in enumerate(_gauss(a, b))})
                    assert g == expected and hash(g) == hash(expected), (a, b, power)
                    assert g.to_json() == expected.to_json()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gaussian_binomial(1, 2)
        with pytest.raises(ValueError):
            gaussian_binomial(-1, 0)
        with pytest.raises(ValueError):
            gaussian_binomial(3, -1)

    def test_oracle_small(self):
        assert gaussian_binomial_oracle(2, 1) == QPoly.const(1) + QPoly.q(1)
        for a in range(6):
            assert gaussian_binomial_oracle(a, 0) == QPoly.const(1)

    def test_oracle_shares_no_code_with_the_binomial(self, monkeypatch):
        import pflyub.partitions as pt

        def broken(a, b):
            raise AssertionError("the oracle must not call _gauss")

        monkeypatch.setattr(pt, "_gauss", broken)
        with pytest.raises(AssertionError):
            pt.gaussian_binomial(10, 4)
        g = pt.gaussian_binomial_oracle(10, 4)
        assert sum(g.terms().values()) == comb(10, 4)
        assert g.reverse(24) == g
        assert max(g.terms()) == 24


def pascal_rows(a, b):
    """binom(a, b)_q by Pascal rows, the earlier kernel, kept as the reference:
    row j holds binom(j + r, j) for r = 0..a-b, and
    binom(j + r, j) = binom(j + r - 1, j - 1) + q^j * binom(j + r - 1, j)."""
    row = [(1,)] * (a - b + 1)
    for j in range(1, b + 1):
        new = [(1,)]
        for r in range(1, a - b + 1):
            coeffs = list(row[r]) + [0] * r  # degree (j-1)r, padded to jr
            coeffs[j:] = map(add, coeffs[j:], new[r - 1])
            new.append(tuple(coeffs))
        row = new
    return row[-1]


class TestGaussKernel:
    def test_matches_pascal_rows_for_every_a_up_to_40(self):
        for a in range(41):
            for b in range(a + 1):
                assert _gauss(a, b) == pascal_rows(a, b), (a, b)

    @pytest.mark.parametrize("a,b", [(200, 2), (400, 2), (60, 30), (80, 40), (100, 50)])
    def test_matches_pascal_rows_at_larger_sizes(self, a, b):
        assert _gauss(a, b) == pascal_rows(a, b)

    @pytest.mark.parametrize("a,b", [(10001, 1), (200, 100)])
    def test_degree_palindrome_and_value_at_one(self, a, b):
        coeffs = _gauss(a, b)
        assert len(coeffs) == b * (a - b) + 1
        assert coeffs[0] == coeffs[-1] == 1
        assert coeffs == coeffs[::-1]
        assert sum(coeffs) == comb(a, b)

    def test_cache_is_bounded(self):
        maxsize = _gauss.cache_info().maxsize
        assert maxsize is not None
        for a in range(1, maxsize + 2):
            _gauss(a, 1)
        assert _gauss.cache_info().currsize <= maxsize

    def test_memory_is_linear_in_the_degree(self):
        tracemalloc.start()
        try:
            coeffs = _gauss.__wrapped__(10001, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coeffs == (1,) * 10001
        assert peak < 10 * 2**20
