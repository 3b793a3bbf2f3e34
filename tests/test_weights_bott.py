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

    def test_bott_commutes_with_dual(self):
        # dual(gamma) + rho = (n-1, ..., n-1) - reversed(gamma + rho): the same
        # inversions, and the dual weight; verify_pushforward runs on (0, lambda),
        # the dual of the paper's (dual(lambda), 0), and rests on this
        for n in range(1, 6):
            for gamma in product(range(-3, 4), repeat=n):
                degree, weight = bott(gamma)
                expected = (None, None) if degree is None else (degree, dual(weight))
                assert bott(dual(gamma)) == expected


class TestEnumerateB:
    def test_predicate_matches_enumeration(self):
        # the window is every weight in_B accepts in the box, ascending, each once;
        # bounds below 2s-1 leave the even window empty
        for n in range(2, 8):
            for bound in range(7):
                box = sorted(combinations_with_replacement(range(bound, -bound - 1, -1), n))
                for s in range(n // 2 + 1):
                    assert list(enumerate_B(s, n, bound)) == [w for w in box if in_B(w, s)]

    def test_bad_s(self):
        zero = (0,) * 4
        with pytest.raises(ValueError, match=r"^require 0 <= s <= floor\(n/2\), got s=3, n=4$"):
            in_B(zero, 3)
        with pytest.raises(ValueError, match=r"^require 0 <= s <= floor\(n/2\), got s=-1, n=4$"):
            in_B(zero, -1)

    @pytest.mark.parametrize("s,n,bound", [(5, 4, 3), (3, 5, 10), (-1, 4, 3)])
    def test_enumeration_rejects_bad_s(self, s, n, bound):
        with pytest.raises(ValueError, match=r"require 0 <= s <= floor\(n/2\)"):
            enumerate_B(s, n, bound)


class TestVerifyPushforward:
    def test_bott_on_each_source_is_the_lemma_map(self):
        # verify_pushforward's lemma, on a window wider than the suite's: lambda in
        # B(s, 2m) vanishes when lambda_{2s} is 2s-1 or 2s, and otherwise lands in
        # degree 2s at (lambda_1-1, ..., lambda_{2s}-1, 2s, lambda_{2s+1}, ...)
        for m in range(1, 5):
            for p in range(m + 1):
                s = m - p
                for lam in enumerate_B(s, 2 * m, 2 * m + 4):
                    if s and lam[2 * s - 1] in (2 * s - 1, 2 * s):
                        expected = (None, None)
                    else:
                        expected = (2 * s, tuple(x - 1 for x in lam[: 2 * s]) + (2 * s,) + lam[2 * s :])
                    assert bott((0,) + lam) == expected, (m, p, lam)

    def test_suite_windows(self, monkeypatch):
        # the windows that verify's bott_pushforward enumerates, m <= 4 and p = 0..m:
        # the sources of B(m-p, 2m) at 2m+2, then the coverage of B(m-p, 2m+1) at 2m+1,
        # the windows that verify_pushforward's lemma proves sufficient and sharp
        import pflyub.weights_bott as wb
        from pflyub.verify import _bott_checks

        calls = []
        real = wb.enumerate_B

        def recorded(s, n, bound):
            window = real(s, n, bound)
            calls.append(((s, n, bound), len(window)))
            return window

        monkeypatch.setattr(wb, "enumerate_B", recorded)
        assert sum(1 for _ in _bott_checks(4)) == 14
        pairs = [(m, p) for m in range(1, 5) for p in range(m + 1)]
        assert [args for args, _ in calls[0::2]] == [(m - p, 2 * m, 2 * m + 2) for m, p in pairs]
        assert [args for args, _ in calls[1::2]] == [(m - p, 2 * m + 1, 2 * m + 1) for m, p in pairs]
        even = [size for _, size in calls[0::2]]
        assert even == [4, 5, 10, 53, 28, 20, 267, 517, 165, 35, 931, 4200, 4459, 1001]
        assert sum(even) == 11_695
        assert [size for _, size in calls[1::2]] == [2, 4, 3, 32, 21, 4, 120, 330, 120, 5, 320, 2205, 2912, 715]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match=r"^require 0 <= p <= m, got p=3, m=2$"):
            verify_pushforward(2, 3)

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
            wb.verify_pushforward(1, 0)

    def test_image_outside_B_is_named(self, monkeypatch):
        import pflyub.weights_bott as wb

        real_bott = wb.bott

        def corrupted(gamma):
            # raise the image's first entry by one
            degree, weight = real_bott(gamma)
            if not degree:
                return degree, weight
            return degree, (weight[0] + 1,) + weight[1:]

        monkeypatch.setattr(wb, "bott", corrupted)
        with pytest.raises(
            VerificationError,
            match=r"image \(3, 2, 2\) of \(3, 3\) is not in B\(1, 3\)",
        ):
            wb.verify_pushforward(1, 0)

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
            wb.verify_pushforward(1, 0)

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
            wb.verify_pushforward(1, 0)

    def test_window_with_no_survivor_fails(self, monkeypatch):
        import pflyub.weights_bott as wb

        # every case vanishes: the injectivity and coverage checks would have nothing to read
        monkeypatch.setattr(wb, "bott", lambda gamma: (None, None))
        with pytest.raises(VerificationError, match=r"^pushforward\(m=1, p=0\): no weight of the window survives$"):
            wb.verify_pushforward(1, 0)


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
