import pytest

from pflyub.characters import in_D, in_N, in_pole, paired_window, verify_limitpfaff
from pflyub.errors import VerificationError
from pflyub.weights_bott import dual, in_B


def doubled(values):
    return tuple(x for v in values for x in (v, v))


class TestModuleN:
    def test_boundary_weight(self):
        m, k, e = 3, 1, 2
        nu = (-2 * k,) * (m - k) + (-e - 2 * k,) * k
        assert in_N(doubled(nu), k, e, 2 * m)
        assert not in_N(doubled(tuple(v - 1 for v in nu)), k, e, 2 * m)

    def test_parity_and_range_validation(self):
        with pytest.raises(ValueError):
            in_N((0,) * 5, 0, 1, 5)
        with pytest.raises(ValueError):
            in_N((0,) * 6, 3, 1, 6)
        with pytest.raises(ValueError):
            in_N((0,) * 6, 0, 0, 6)
        for _ in range(2):  # a refused weight length is refused again, not remembered
            with pytest.raises(ValueError, match="weight has length 4, ambient requires 6"):
                in_N((0,) * 4, 0, 1, 6)


class TestPfPole:
    def test_k0_is_polynomial_ring_character(self):
        m = 3
        for mu in paired_window(m, 4):
            assert in_pole(mu, 0, 2 * m) == (min(mu) >= 0)

    def test_condition_via_dual(self):
        mu = doubled((1, 0, -2))
        assert in_pole(mu, 1, 6)
        assert dual(mu)[2] <= 2
        # the k+1-th pair value from the bottom drops below -2k: not a member
        assert not in_pole(doubled((1, -3, -3)), 1, 6)

    def test_nested_in_k(self):
        m = 3
        window = paired_window(m, 5)
        sets = [
            {mu for mu in window if in_pole(mu, k, 2 * m)} for k in range(m)
        ]
        assert sets[0] < sets[1] < sets[2]

    def test_consecutive_differences_are_simple_characters(self):
        m = 3
        window = paired_window(m, 5)
        sets = [
            {mu for mu in window if in_pole(mu, k, 2 * m)} for k in range(m)
        ]
        for s in range(1, m):
            diff = sets[s] - sets[s - 1]
            simple = {mu for mu in window if in_D(mu, m - s, 2 * m)}
            assert diff == simple

    def test_odd_parity_rejected(self):
        with pytest.raises(ValueError):
            in_pole((0,) * 5, 0, 5)


class TestSimpleD:
    def test_top_simple_is_polynomial_ring(self):
        m = 2
        for mu in paired_window(m, 3):
            assert in_D(mu, m, 2 * m) == (min(mu) >= 0)

    def test_membership_is_B_set_of_dual(self):
        for mu in paired_window(3, 4):
            assert in_D(mu, 1, 6) == in_B(dual(mu), 2, 6)


class TestVerifyLimitPfaff:
    def test_k0_is_trivial_case(self):
        assert verify_limitpfaff(2, 0, 4) is None

    def test_m2_k1(self, monkeypatch):
        import pflyub.characters as ch

        assert verify_limitpfaff(2, 1, 6) is None
        # no N_(k,e) reaches a pole-order weight: the witness bound 2 * bound + 4m is named
        monkeypatch.setattr(ch, "in_N", lambda mu, k, e, n: False)
        with pytest.raises(VerificationError, match=r"reached by N_\(k,e\), e <= 20$"):
            ch.verify_limitpfaff(2, 1, 6)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_full_range(self, m):
        for k in range(m):
            assert verify_limitpfaff(m, k, 6) is None

    def test_window_is_built_once_per_m_and_bound(self):
        window = paired_window(3, 6)
        assert isinstance(window, tuple) and len(window) == 455
        assert paired_window(3, 6) is window
        built = paired_window.cache_info().misses
        for k in range(3):
            assert verify_limitpfaff(3, k, 6) is None
        assert paired_window.cache_info().misses == built

    def test_bad_range(self):
        with pytest.raises(ValueError):
            verify_limitpfaff(2, 2, 4)

    def test_corrupted_membership_is_caught(self, monkeypatch):
        import pflyub.characters as ch

        real = ch.in_pole

        def corrupted(mu, k, n):
            if mu == (0, 0, -2, -2):
                return not real(mu, k, n)
            return real(mu, k, n)

        monkeypatch.setattr(ch, "in_pole", corrupted)
        with pytest.raises(VerificationError, match=r"-2"):
            ch.verify_limitpfaff(2, 1, 4)

    def test_corrupted_simple_is_caught(self, monkeypatch):
        import pflyub.characters as ch

        real = ch.in_D

        def corrupted(mu, s, n):
            if mu == (1, 1, -2, -2):
                return not real(mu, s, n)
            return real(mu, s, n)

        monkeypatch.setattr(ch, "in_D", corrupted)
        with pytest.raises(VerificationError, match=r"\(1, 1, -2, -2\) is in the pole-order quotient .* but not in D_1"):
            ch.verify_limitpfaff(2, 1, 4)
