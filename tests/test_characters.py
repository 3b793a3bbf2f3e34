from operator import ge

import pytest

from pflyub.characters import in_D, in_N, in_pole, verify_limitpfaff
from pflyub.errors import VerificationError
from pflyub.partitions import _doubled, _weakly_decreasing
from pflyub.weights_bott import dual, in_B


def window(m, lo, hi):
    """The paired weights nu^(2) of length 2m with nu in [lo, hi]."""
    return [_doubled(nu) for nu in _weakly_decreasing(m, lo, hi)]


class TestModuleN:
    def test_boundary_weight(self):
        m, k, e = 3, 1, 2
        nu = (-2 * k,) * (m - k) + (-e - 2 * k,) * k
        assert in_N(_doubled(nu), k, e)
        assert not in_N(_doubled(tuple(v - 1 for v in nu)), k, e)

    def test_parity_and_range_validation(self):
        with pytest.raises(ValueError, match=r"^N_\{k,e\} requires an even ambient size$"):
            in_N((0,) * 5, 0, 1)
        with pytest.raises(ValueError, match=r"^require 0 <= k <= m-1, got k=3, m=3$"):
            in_N((0,) * 6, 3, 1)
        with pytest.raises(ValueError, match=r"^require e >= 1, got e=0$"):
            in_N((0,) * 6, 0, 0)

    def test_block_ends_match_componentwise_bound(self):
        # the bound read entry by entry, on every weakly decreasing weight in a
        # window, paired or not
        for m in range(1, 4):
            for mu in _weakly_decreasing(2 * m, -8, 2):
                half = mu[0::2]
                for k in range(m):
                    for e in range(1, 10):
                        threshold = (-2 * k,) * (m - k) + (-e - 2 * k,) * k
                        assert in_N(mu, k, e) == (half == mu[1::2] and all(map(ge, half, threshold))), (mu, k, e)


class TestPfPole:
    def test_k0_is_polynomial_ring_character(self):
        m = 3
        for mu in window(m, -4, 4):
            assert in_pole(mu, 0) == (min(mu) >= 0)

    def test_condition_via_dual(self):
        mu = _doubled((1, 0, -2))
        assert in_pole(mu, 1)
        assert dual(mu)[2] <= 2
        # the k+1-th pair value from the bottom drops below -2k: not a member
        assert not in_pole(_doubled((1, -3, -3)), 1)

    def test_nested_in_k(self):
        m = 3
        weights = window(m, -5, 5)
        sets = [
            {mu for mu in weights if in_pole(mu, k)} for k in range(m)
        ]
        assert sets[0] < sets[1] < sets[2]

    def test_odd_parity_rejected(self):
        with pytest.raises(ValueError, match=r"^pole-order modules require an even ambient size$"):
            in_pole((0,) * 5, 0)


class TestSimpleD:
    def test_top_simple_is_polynomial_ring(self):
        m = 2
        for mu in window(m, -3, 3):
            assert in_D(mu, m) == (min(mu) >= 0)

    def test_membership_is_B_set_of_dual(self):
        for mu in window(3, -4, 4):
            assert in_D(mu, 1) == in_B(dual(mu), 2)

    def test_range(self):
        # named in s and m, not in the B-set's s and n that it calls
        with pytest.raises(ValueError, match=r"^require 0 <= s <= m, got s=3, m=2$"):
            in_D((0,) * 4, 3)


class TestVerifyLimitPfaff:
    def test_clamping_keeps_every_answer_and_the_e_step(self):
        # verify_limitpfaff's lemma, on a window wider than the suite's: clamping nu to
        # [-2m, 0] keeps in_pole and in_D, and N_(k,e) holds exactly for the pole weights
        # from e = max(1, -nu_m - 2k) on, read on the two sides of that step; on the
        # suite's window the step is at most E_k, and some pole weight steps at E_k
        for m in range(1, 5):
            for mu in window(m, -2 * m - 1, 1):
                clamped = tuple(min(max(x, -2 * m), 0) for x in mu)
                for k in range(m):
                    pole = in_pole(mu, k)
                    assert (pole, in_D(mu, m - k)) == (in_pole(clamped, k), in_D(clamped, m - k)), (mu, k)
                    step = max(1, -mu[-1] - 2 * k)
                    assert in_N(mu, k, step) == pole and not (step > 1 and in_N(mu, k, step - 1)), (mu, k)
            for k in range(m):
                steps = {max(1, -mu[-1] - 2 * k) for mu in window(m, -2 * m, 0) if in_pole(mu, k)}
                assert max(steps) == (2 * (m - k) if k else 1), (m, k)

    def test_m2_k1(self, monkeypatch):
        import pflyub.characters as ch

        # no N_(k,e) reaches a pole-order weight: the witness bound E_1 = 2(m-1) is named
        monkeypatch.setattr(ch, "in_N", lambda mu, k, e: False)
        with pytest.raises(VerificationError, match=r"reached by N_\(k,e\), e <= 2$"):
            ch.verify_limitpfaff(2, 1)

    def test_window_with_no_e_step_fails(self, monkeypatch):
        import pflyub.characters as ch

        # in_N ignores e, each N_(k,e) the whole pole-order character: every other
        # check passes, but no weight steps in e, so N_(k,e) <= N_(k,e+1) goes unread
        monkeypatch.setattr(ch, "in_N", lambda mu, k, e: ch.in_pole(mu, k))
        with pytest.raises(VerificationError, match=r"^limit\(m=2, k=1\): no weight of the window needs e > 1$"):
            ch.verify_limitpfaff(2, 1)

    def test_window_that_misses_the_pole_character_fails(self, monkeypatch):
        import pflyub.characters as ch

        # no weight in any of the three characters: every other check passes, but
        # the window never meets the pole-order character, so the union goes unread
        for name in ("in_N", "in_pole", "in_D"):
            monkeypatch.setattr(ch, name, lambda *args: False)
        with pytest.raises(
            VerificationError, match=r"^limit\(m=1, k=0\): the window does not straddle the pole-order character$"
        ):
            ch.verify_limitpfaff(1, 0)

    def test_bad_range(self):
        # in_pole's own check repeats these words for m >= 0; at m < 0 the window's enumeration would refuse first
        for m, k in ((2, 2), (-1, 0)):
            with pytest.raises(ValueError, match=rf"^require 0 <= k <= m-1, got k={k}, m={m}$"):
                verify_limitpfaff(m, k)

    def test_corrupted_membership_is_caught(self, monkeypatch):
        import pflyub.characters as ch

        real = ch.in_pole

        def corrupted(mu, k):
            if mu == (0, 0, -2, -2):
                return not real(mu, k)
            return real(mu, k)

        monkeypatch.setattr(ch, "in_pole", corrupted)
        with pytest.raises(VerificationError, match=r"-2"):
            ch.verify_limitpfaff(2, 1)

    def test_corrupted_simple_is_caught(self, monkeypatch):
        import pflyub.characters as ch

        real = ch.in_D

        def corrupted(mu, s):
            if mu == (0, 0, -2, -2):
                return not real(mu, s)
            return real(mu, s)

        monkeypatch.setattr(ch, "in_D", corrupted)
        quotient = r"\(0, 0, -2, -2\) is in the pole-order quotient <Pf\^-2>/<Pf\^0> but not in D_1"
        with pytest.raises(VerificationError, match=quotient):
            ch.verify_limitpfaff(2, 1)
