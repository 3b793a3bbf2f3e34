import re
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
        with pytest.raises(ValueError, match=rf"^require 0 <= s <= floor\(n/2\), got s={s}, n={n}$"):
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
        # the sources of B(m-p, 2m) at 2m+1, then the coverage of B(m-p, 2m+1) at 2m,
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
        assert [args for args, _ in calls[0::2]] == [(m - p, 2 * m, 2 * m + 1) for m, p in pairs]
        assert [args for args, _ in calls[1::2]] == [(m - p, 2 * m + 1, 2 * m) for m, p in pairs]
        even = [size for _, size in calls[0::2]]
        assert even == [3, 4, 6, 39, 21, 10, 175, 375, 120, 15, 545, 2842, 3198, 715]
        assert sum(even) == 8_068
        assert [size for _, size in calls[1::2]] == [1, 3, 1, 21, 15, 1, 66, 225, 84, 1, 150, 1365, 2002, 495]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match=r"^require 0 <= p <= m, got p=3, m=2$"):
            verify_pushforward(2, 3)

    def test_failure_names_the_weight(self, monkeypatch):
        import pflyub.weights_bott as wb

        real_bott = wb.bott

        def late(gamma):
            # every nonzero degree one too high
            degree, weight = real_bott(gamma)
            return (degree + 1 if degree else degree), weight

        def answering(gamma):
            # a vanishing source lands in degree 0 at itself
            degree, weight = real_bott(gamma)
            return (0, tuple(gamma)) if degree is None else (degree, weight)

        for corrupted, message in (
            (late, "Bott sends (3, 3) to (3, (2, 2, 2)), the lemma to (2, (2, 2, 2))"),
            (answering, "Bott sends (1, 1) to (0, (0, 1, 1)), the lemma to (None, None)"),
        ):
            monkeypatch.setattr(wb, "bott", corrupted)
            with pytest.raises(VerificationError, match=f"^{re.escape('pushforward(m=1, p=0): ' + message)}$"):
                wb.verify_pushforward(1, 0)

    @staticmethod
    def _sources(monkeypatch, window):
        """verify_pushforward reads ``window`` as its sources, and the real coverage window."""
        import pflyub.weights_bott as wb

        real = wb.enumerate_B
        monkeypatch.setattr(wb, "enumerate_B", lambda s, n, bound: real(s, n, bound) if n % 2 else window)

    def test_image_outside_B_is_named(self, monkeypatch):
        # (4, 3) is outside B(1, 2), and Bott agrees with the lemma on it
        self._sources(monkeypatch, ((4, 3),))
        with pytest.raises(
            VerificationError, match=r"^pushforward\(m=1, p=0\): image \(3, 2, 2\) of \(4, 3\) is not in B\(1, 3\)$"
        ):
            verify_pushforward(1, 0)

    def test_missing_preimage_is_named(self, monkeypatch):
        self._sources(monkeypatch, tuple(lam for lam in enumerate_B(0, 2, 3) if lam != (0, 0)))
        with pytest.raises(
            VerificationError, match=r"^pushforward\(m=1, p=1\): window weight \(0, 0, 0\) has no preimage$"
        ):
            verify_pushforward(1, 1)

    def test_window_with_no_survivor_fails(self, monkeypatch):
        # both sources vanish: the coverage check would have nothing to read
        self._sources(monkeypatch, ((1, 1), (2, 2)))
        with pytest.raises(VerificationError, match=r"^pushforward\(m=1, p=0\): no weight of the window survives$"):
            verify_pushforward(1, 0)


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
