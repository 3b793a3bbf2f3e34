from itertools import combinations_with_replacement, product

import pytest

from pflyub.errors import VerificationError
from pflyub.weights_bott import bott, dual, enumerate_B, in_B, verify_pushforward


class TestBott:
    def test_dominant_input_degree_zero(self):
        assert bott((0, 0, 0)) == (0, (0, 0, 0))
        assert bott((5, 2, -1)) == (0, (5, 2, -1))

    def test_repeated_entry_vanishes(self):
        # gamma + rho = (1, 0, 0)
        assert bott((-1, -1, 0)) == (None, None)

    def test_two_transpositions(self):
        assert bott((-3, -3, 0)) == (2, (-2, -2, -2))

    def test_output_always_dominant_and_degree_bounded(self):
        n = 4
        for gamma in product(range(-3, 3), repeat=n):
            degree, weight = bott(gamma)
            if degree is None:
                continue
            assert all(weight[i] >= weight[i + 1] for i in range(n - 1))
            assert 0 <= degree <= n * (n - 1) // 2


class TestDual:
    def test_examples(self):
        assert dual((2, 2, 2)) == (-2, -2, -2)
        assert dual((3, 1)) == (-1, -3)

    def test_involution(self):
        w = (4, 0, -1, -5)
        assert dual(dual(w)) == w


class TestEnumerateB:
    def test_predicate_matches_enumeration(self):
        # the window is every weight in_B accepts in the box, ascending, each once;
        # bounds below 2s-1 leave the even window empty
        for n in range(2, 8):
            for bound in range(7):
                box = sorted(combinations_with_replacement(range(bound, -bound - 1, -1), n))
                for s in range(n // 2 + 1):
                    assert list(enumerate_B(s, n, bound)) == [w for w in box if in_B(w, s, n)]

    def test_bad_s(self):
        zero = (0,) * 4
        with pytest.raises(ValueError):
            in_B(zero, 3, 4)
        with pytest.raises(ValueError):
            in_B(zero, -1, 4)

    @pytest.mark.parametrize("s,n,bound", [(5, 4, 3), (3, 5, 10), (-1, 4, 3)])
    def test_enumeration_rejects_bad_s(self, s, n, bound):
        with pytest.raises(ValueError, match=r"require 0 <= s <= floor\(n/2\)"):
            enumerate_B(s, n, bound)


class TestVerifyPushforward:
    def test_m1_p0_survivors(self):
        assert verify_pushforward(1, 0, 6) == 2
        # lambda = (t, t) for t = 1..6; only t >= 3 survives, in degree 2
        domain = enumerate_B(1, 2, 6)
        assert domain == tuple((t, t) for t in range(1, 7))
        assert [bott(dual(lam) + (0,))[0] for lam in domain] == [None, None, 2, 2, 2, 2]

    def test_m1_p0_images_patterned(self):
        # survivor (t, t) maps to the weight dual to (t-1, t-1, 2)
        for t in range(3, 7):
            degree, weight = bott(dual((t, t)) + (0,))
            assert degree == 2
            assert dual(weight) == (t - 1, t - 1, 2)
            assert in_B(dual(weight), 1, 3)

    def test_m1_p1_dense_orbit_degree_zero(self):
        assert verify_pushforward(1, 1, 6) == 0
        assert {bott(dual(lam) + (0,))[0] for lam in enumerate_B(0, 2, 6)} == {0}

    def test_suite_windows(self):
        # the windows that verify's bott_pushforward visits, m <= 4 and p = 0..m
        even = [len(enumerate_B(m - p, 2 * m, 2 * m + 6)) for m in range(1, 5) for p in range(m + 1)]
        odd = [len(enumerate_B(m - p, 2 * m + 1, 2 * m + 4)) for m in range(1, 5) for p in range(m + 1)]
        assert even == [8, 9, 36, 129, 66, 120, 925, 1425, 455, 330, 4565, 14592, 13413, 3060]
        assert sum(even) == 39_133
        assert odd == [5, 7, 15, 77, 45, 35, 420, 819, 286, 70, 1596, 6885, 7480, 1820]

    def test_p_equals_m_all_zero_weight(self):
        assert bott((0, 0, 0, 0, 0)) == (0, (0, 0, 0, 0, 0))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_pushforward(2, 3, 10)
        with pytest.raises(ValueError):
            verify_pushforward(3, 0, 4)

    def test_failure_names_the_weight(self, monkeypatch):
        import pflyub.weights_bott as wb

        real_bott = wb.bott

        def corrupted(gamma):
            degree, weight = real_bott(gamma)
            if not degree:
                return degree, weight
            return degree + 1, weight

        monkeypatch.setattr(wb, "bott", corrupted)
        with pytest.raises(VerificationError, match="degree"):
            wb.verify_pushforward(1, 0, 6)

    def test_image_outside_B_is_named(self, monkeypatch):
        import pflyub.weights_bott as wb

        real_bott = wb.bott

        def corrupted(gamma):
            # raise the last entry's negation, i.e. the image's first entry, by one
            degree, weight = real_bott(gamma)
            if not degree:
                return degree, weight
            return degree, weight[:-1] + (weight[-1] - 1,)

        monkeypatch.setattr(wb, "bott", corrupted)
        with pytest.raises(
            VerificationError,
            match=r"image \(3, 2, 2\) of \(3, 3\) is not in B\(1, 3\)",
        ):
            wb.verify_pushforward(1, 0, 6)

    def test_shared_image_is_named(self, monkeypatch):
        import pflyub.weights_bott as wb

        real_bott = wb.bott
        first = []

        def corrupted(gamma):
            # every non-vanishing case lands on the first one's weight
            degree, weight = real_bott(gamma)
            if degree is None:
                return degree, weight
            first.append(weight)
            return degree, first[0]

        monkeypatch.setattr(wb, "bott", corrupted)
        with pytest.raises(
            VerificationError,
            match=r"\(4, 4\) and \(3, 3\) share the image \(2, 2, 2\)",
        ):
            wb.verify_pushforward(1, 0, 6)

    def test_missing_preimage_is_named(self, monkeypatch):
        import pflyub.weights_bott as wb

        real_bott = wb.bott
        seen = []

        def corrupted(gamma):
            # the first non-vanishing case vanishes instead
            degree, weight = real_bott(gamma)
            if degree is not None and not seen:
                seen.append(gamma)
                return None, None
            return degree, weight

        monkeypatch.setattr(wb, "bott", corrupted)
        with pytest.raises(
            VerificationError,
            match=r"window weight \(2, 2, 2\) has no preimage",
        ):
            wb.verify_pushforward(1, 0, 6)


def test_bott_matches_brute_force():
    # gamma + rho with rho = (4, 3, 2, 1, 0): vanishing on a repeat, else the
    # inversion count and the sorted sequence minus rho
    for gamma in product(range(-3, 4), repeat=5):
        v = [g + 4 - i for i, g in enumerate(gamma)]
        if len(set(v)) < 5:
            assert bott(gamma) == (None, None)
            continue
        inversions = sum(1 for i in range(5) for j in range(i + 1, 5) if v[i] < v[j])
        weight = tuple(x - 4 + i for i, x in enumerate(sorted(v, reverse=True)))
        assert bott(gamma) == (inversions, weight)
