from math import comb

import pytest
from hypothesis import given, strategies as st

from pflyub.partitions import (
    Partition,
    conjugate,
    dominates,
    double_columns,
    enumerate_box,
    gaussian_binomial,
    gaussian_binomial_oracle,
)
from pflyub.polyring import ONE, QPoly


def profiles(iterable):
    return sorted(p.profile for p in iterable)


class TestPartition:
    def test_trailing_zeros_len_but_not_identity(self):
        a = Partition((2, 1))
        b = Partition((2, 1, 0, 0))
        assert a == b
        assert hash(a) == hash(b)
        assert len(a) == 2 and len(b) == 4

    def test_explicit_ambient_length(self):
        p = Partition((3, 1), length=5)
        assert p.parts == (3, 1, 0, 0, 0)
        with pytest.raises(ValueError):
            Partition((3, 1), length=1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((1, -1))

    def test_size(self):
        assert Partition((4, 3, 1, 0)).size() == 8
        assert Partition(()).size() == 0


class TestEnumerateBox:
    def test_1x1(self):
        assert profiles(enumerate_box(1, 1)) == [(), (1,)]

    def test_2x2(self):
        assert profiles(enumerate_box(2, 2)) == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]

    def test_zero_rows(self):
        assert profiles(enumerate_box(0, 5)) == [()]

    def test_descending_lex_from_full_rectangle(self):
        first = next(iter(enumerate_box(3, 2)))
        assert first.parts == (2, 2, 2)

    @pytest.mark.parametrize("c,d", [(c, d) for c in range(5) for d in range(5)])
    def test_count_and_constraint(self, c, d):
        seen = set()
        for p in enumerate_box(c, d):
            assert len(p) == c
            assert all(part <= d for part in p.parts)
            seen.add(p.profile)
        assert len(seen) == comb(c + d, d)
        parts = [p.parts for p in enumerate_box(c, d)]
        assert all(x > y for x, y in zip(parts, parts[1:]))

    @pytest.mark.parametrize("c,d", [(-1, 2), (2, -1)])
    def test_bad_box_raises_at_the_call(self, c, d):
        with pytest.raises(ValueError, match="nonnegative"):
            enumerate_box(c, d)


class TestDominates:
    def test_examples(self):
        assert dominates((2, 1), (1, 1))
        assert not dominates((2, 0), (1, 1))
        assert dominates((3, 2), (3, 2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates((2, 1), (1, 1, 0))


def test_double_columns():
    assert double_columns(Partition((2, 1))).parts == (2, 2, 1, 1)
    assert double_columns(Partition(())).parts == ()
    rect = Partition((3,) * 4)
    assert double_columns(rect).parts == (3,) * 8


class TestConjugate:
    def test_example(self):
        assert conjugate(Partition((3, 1))).parts == (2, 1, 1)

    def test_rectangle(self):
        assert conjugate(Partition((4, 4, 4))).parts == (3, 3, 3, 3)

    @given(st.lists(st.integers(0, 6), max_size=6).map(lambda v: Partition(sorted(v, reverse=True))))
    def test_involution(self, p):
        assert conjugate(conjugate(p)) == p


class TestGaussianBinomial:
    def test_conventions(self):
        for a in range(8):
            assert gaussian_binomial(a, a) == ONE
            assert gaussian_binomial(a, 0) == ONE

    def test_small_values(self):
        q = QPoly.q
        assert gaussian_binomial(2, 1) == ONE + q(1)
        # partitions in a 2x2 box, by size: 1, 1, 2, 1, 1
        assert gaussian_binomial(4, 2) == ONE + q(1) + 2 * q(2) + q(3) + q(4)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gaussian_binomial(1, 2)
        with pytest.raises(ValueError):
            gaussian_binomial(-1, 0)
        with pytest.raises(ValueError):
            gaussian_binomial(3, -1)

    def test_oracle_small(self):
        assert gaussian_binomial_oracle(2, 1) == ONE + QPoly.q(1)
        for a in range(6):
            assert gaussian_binomial_oracle(a, 0) == ONE
        assert gaussian_binomial_oracle(5, 2) == gaussian_binomial(5, 2)

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


@pytest.mark.parametrize("a", range(15))
def test_binomial_identities(a):
    for b in range(a + 1):
        g = gaussian_binomial(a, b)
        # independent enumeration oracle
        assert g == gaussian_binomial_oracle(a, b)
        # symmetry
        assert g == gaussian_binomial(a, a - b)
        # palindromicity: q^(b(a-b)) g(1/q) = g
        assert g.reverse(b * (a - b)) == g
        # degree and positivity
        exps = sorted(g.terms())
        assert exps and exps[0] == 0 and exps[-1] == b * (a - b)
        assert all(c > 0 for c in g.terms().values())
        # Pascal recurrence
        if a > b > 0:
            assert g == gaussian_binomial(a - 1, b - 1) + QPoly.q(b) * gaussian_binomial(a - 1, b)
