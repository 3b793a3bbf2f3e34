import pytest

from pflyub.errors import VerificationError
from pflyub.weights_bott import (
    BottResult,
    DominantWeight,
    bott,
    dual,
    enumerate_B,
    in_B,
    verify_pushforward,
)


def entries(weights):
    return sorted(w.entries for w in weights)


class TestDominantWeight:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            DominantWeight((1, 2))

    def test_sequence_protocol(self):
        w = DominantWeight((3, 1, 0, -2))
        assert len(w) == 4 and w[1] == 1 and list(w) == [3, 1, 0, -2]


class TestBott:
    def test_dominant_input_degree_zero(self):
        r = bott((0, 0, 0))
        assert r == BottResult.cohomology(0, DominantWeight((0, 0, 0)))
        r = bott((5, 2, -1))
        assert r.degree == 0 and r.weight == DominantWeight((5, 2, -1))

    def test_repeated_entry_vanishes(self):
        # gamma + rho = (1, 0, 0)
        assert bott((-1, -1, 0)).is_zero

    def test_two_transpositions(self):
        r = bott((-3, -3, 0))
        assert r.degree == 2
        assert r.weight == DominantWeight((-2, -2, -2))

    def test_output_always_dominant_and_degree_bounded(self):
        from itertools import product

        n = 4
        for gamma in product(range(-3, 3), repeat=n):
            r = bott(gamma)
            if r.is_zero:
                continue
            e = r.weight.entries
            assert all(e[i] >= e[i + 1] for i in range(n - 1))
            assert 0 <= r.degree <= n * (n - 1) // 2


class TestDual:
    def test_examples(self):
        assert dual(DominantWeight((2, 2, 2))) == DominantWeight((-2, -2, -2))
        assert dual(DominantWeight((3, 1))) == DominantWeight((-1, -3))

    def test_involution(self):
        w = DominantWeight((4, 0, -1, -5))
        assert dual(dual(w)) == w


class TestEnumerateB:
    def test_even_rank_one(self):
        assert entries(enumerate_B(1, 2, 3)) == [(1, 1), (2, 2), (3, 3)]

    def test_even_s_zero(self):
        got = enumerate_B(0, 4, 2)
        assert all(max(w.entries) <= 0 for w in got)
        assert all(w.entries[0] == w.entries[1] and w.entries[2] == w.entries[3] for w in got)
        assert len(got) == 6  # pairs (v1 >= v2) drawn from {0, -1, -2}

    def test_odd_example(self):
        got = enumerate_B(1, 3, 3)
        assert DominantWeight((2, 2, 2)) in got
        assert entries(got) == [(2, 2, 2), (3, 3, 2)]

    def test_odd_fixed_entry(self):
        for w in enumerate_B(2, 5, 6):
            assert w.entries[4] == 4

    def test_predicate_matches_enumeration(self):
        for s, n, bound in [(0, 4, 3), (1, 4, 3), (2, 4, 4), (0, 5, 3), (1, 5, 4), (2, 5, 5)]:
            got = enumerate_B(s, n, bound)
            for w in got:
                assert in_B(w, s, n)
            assert in_B(DominantWeight((0,) * n), s, n) == (DominantWeight((0,) * n) in got)

    def test_bad_s(self):
        with pytest.raises(ValueError):
            enumerate_B(3, 4, 2)
        with pytest.raises(ValueError):
            enumerate_B(-1, 4, 2)


class TestVerifyPushforward:
    def test_m1_p0_survivors(self):
        report = verify_pushforward(1, 0, 6)
        # lambda = (t, t) for t = 1..6; only t >= 3 survives, in degree 2
        assert report["checked"] == 6
        assert report["zero"] == 2
        assert report["nonzero"] == 4
        assert report["pass"] is True

    def test_m1_p0_images_patterned(self):
        # survivor (t, t) maps to the weight dual to (t-1, t-1, 2)
        from pflyub.weights_bott import bott, dual

        for t in range(3, 7):
            lam = DominantWeight((t, t))
            r = bott(dual(lam).entries + (0,))
            assert r.degree == 2
            assert dual(r.weight) == DominantWeight((t - 1, t - 1, 2))
            assert in_B(dual(r.weight), 1, 3)

    def test_m1_p1_dense_orbit_degree_zero(self):
        report = verify_pushforward(1, 1, 6)
        assert report["zero"] == 0
        assert report["pass"] is True

    def test_p_equals_m_all_zero_weight(self):
        r = bott((0, 0, 0, 0, 0))
        assert r.degree == 0

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_full_range(self, m):
        for p in range(m + 1):
            report = verify_pushforward(m, p, 2 * m + 6)
            assert report["pass"] is True
            assert report["checked"] == report["zero"] + report["nonzero"]

    def test_report_schema(self):
        report = verify_pushforward(2, 1, 10)
        assert set(report) == {"m", "p", "bound", "checked", "zero", "nonzero", "pass"}

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_pushforward(2, 3, 10)
        with pytest.raises(ValueError):
            verify_pushforward(3, 0, 4)

    def test_failure_names_the_weight(self, monkeypatch):
        import pflyub.weights_bott as wb

        real_bott = wb._bott

        def corrupted(gamma):
            degree, weight = real_bott(gamma)
            if not degree:
                return degree, weight
            return degree + 1, weight

        monkeypatch.setattr(wb, "_bott", corrupted)
        with pytest.raises(VerificationError, match="degree"):
            wb.verify_pushforward(1, 0, 6)

    def test_image_outside_B_is_named(self, monkeypatch):
        import pflyub.weights_bott as wb

        real_bott = wb._bott

        def corrupted(gamma):
            # raise the last entry's negation, i.e. the image's first entry, by one
            degree, weight = real_bott(gamma)
            if not degree:
                return degree, weight
            return degree, weight[:-1] + (weight[-1] - 1,)

        monkeypatch.setattr(wb, "_bott", corrupted)
        with pytest.raises(
            VerificationError,
            match=r"image DominantWeight\(\(3, 2, 2\)\) of DominantWeight\(\(3, 3\)\) is not in B\(1, 3\)",
        ):
            wb.verify_pushforward(1, 0, 6)

    def test_shared_image_is_named(self, monkeypatch):
        import pflyub.weights_bott as wb

        real_bott = wb._bott
        first = []

        def corrupted(gamma):
            # every non-vanishing case lands on the first one's weight
            degree, weight = real_bott(gamma)
            if degree is None:
                return degree, weight
            first.append(weight)
            return degree, first[0]

        monkeypatch.setattr(wb, "_bott", corrupted)
        with pytest.raises(
            VerificationError,
            match=r"DominantWeight\(\(4, 4\)\) and DominantWeight\(\(3, 3\)\) "
            r"share the image DominantWeight\(\(2, 2, 2\)\)",
        ):
            wb.verify_pushforward(1, 0, 6)

    def test_missing_preimage_is_named(self, monkeypatch):
        import pflyub.weights_bott as wb

        real_bott = wb._bott
        seen = []

        def corrupted(gamma):
            # the first non-vanishing case vanishes instead
            degree, weight = real_bott(gamma)
            if degree is not None and not seen:
                seen.append(gamma)
                return None, None
            return degree, weight

        monkeypatch.setattr(wb, "_bott", corrupted)
        with pytest.raises(
            VerificationError,
            match=r"window weight DominantWeight\(\(2, 2, 2\)\) has no preimage",
        ):
            wb.verify_pushforward(1, 0, 6)


def test_tuple_bott_matches_public_bott_and_brute_force():
    from itertools import product

    from pflyub.weights_bott import _bott

    for gamma in product(range(-3, 4), repeat=5):
        v = [g + 4 - i for i, g in enumerate(gamma)]
        public = bott(gamma)
        if len(set(v)) < 5:
            assert _bott(gamma) == (None, None) and public.is_zero
            continue
        inversions = sum(1 for i in range(5) for j in range(i + 1, 5) if v[i] < v[j])
        weight = tuple(x - 4 + i for i, x in enumerate(sorted(v, reverse=True)))
        assert _bott(gamma) == (inversions, weight)
        assert (public.degree, public.weight) == (inversions, DominantWeight(weight))
