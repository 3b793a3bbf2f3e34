import pytest

from pflyub.characters import (
    IdealI,
    ModuleN,
    PfPole,
    SimpleD,
    paired_window,
    verify_limitpfaff,
)
from pflyub.errors import VerificationError
from pflyub.partitions import Partition, double_columns
from pflyub.weights_bott import DominantWeight, dual, in_B


def doubled(values):
    return DominantWeight([x for v in values for x in (v, v)])


class TestIdealI:
    def test_generator_is_member(self):
        z = Partition((1, 0, 0))
        mu = DominantWeight(double_columns(z).parts)
        assert IdealI(z, 6).contains(mu)

    def test_membership_is_dominance(self):
        spec = IdealI(Partition((2, 1)), 4)
        assert spec.contains(doubled((2, 1)))
        assert spec.contains(doubled((3, 1)))
        assert spec.contains(doubled((2, 2)))
        assert not spec.contains(doubled((2, 0)))
        assert not spec.contains(doubled((1, 1)))

    def test_monotone_in_x(self):
        # x >= z and x' >= x implies membership of x' as well
        spec = IdealI(Partition((1, 1, 0)), 6)
        members = [x for x in [(1, 1, 0), (2, 1, 0), (2, 2, 2), (5, 1, 1)]]
        for x in members:
            assert spec.contains(doubled(x))
            assert spec.contains(doubled(tuple(v + 1 for v in x)))

    def test_unpaired_and_negative_are_not_members(self):
        spec = IdealI(Partition((0, 0)), 4)
        assert not spec.contains(DominantWeight((2, 1, 1, 0)))
        assert not spec.contains(doubled((1, -1)))

    def test_odd_ambient_pads_with_zero(self):
        spec = IdealI(Partition((1,)), 3)
        assert spec.contains(DominantWeight((2, 2, 0)))
        assert not spec.contains(DominantWeight((2, 2, 1)))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            IdealI(Partition((1,)), 4).contains(DominantWeight((1, 1)))


class TestModuleN:
    def test_boundary_weight(self):
        m, k, e = 3, 1, 2
        nu = (-2 * k,) * (m - k) + (-e - 2 * k,) * k
        spec = ModuleN(k, e, 2 * m)
        assert spec.contains(doubled(nu))
        assert not spec.contains(doubled(tuple(v - 1 for v in nu)))

    def test_parity_and_range_validation(self):
        with pytest.raises(ValueError):
            ModuleN(0, 1, 5)
        with pytest.raises(ValueError):
            ModuleN(3, 1, 6)
        with pytest.raises(ValueError):
            ModuleN(0, 0, 6)


class TestPfPole:
    def test_k0_is_polynomial_ring_character(self):
        m = 3
        spec = PfPole(0, 2 * m)
        for mu in paired_window(m, 4):
            assert spec.contains(mu) == (min(mu.entries) >= 0)

    def test_condition_via_dual(self):
        spec = PfPole(1, 6)
        mu = doubled((1, 0, -2))
        assert spec.contains(mu)
        assert dual(mu).entries[2] <= 2
        # the k+1-th pair value from the bottom drops below -2k: not a member
        assert not spec.contains(doubled((1, -3, -3)))

    def test_nested_in_k(self):
        m = 3
        window = paired_window(m, 5)
        sets = [
            {mu for mu in window if PfPole(k, 2 * m).contains(mu)} for k in range(m)
        ]
        assert sets[0] < sets[1] < sets[2]

    def test_consecutive_differences_are_simple_characters(self):
        m = 3
        window = paired_window(m, 5)
        sets = [
            {mu for mu in window if PfPole(k, 2 * m).contains(mu)} for k in range(m)
        ]
        for s in range(1, m):
            diff = sets[s] - sets[s - 1]
            simple = {mu for mu in window if SimpleD(m - s, 2 * m).contains(mu)}
            assert diff == simple

    def test_odd_parity_rejected(self):
        with pytest.raises(ValueError):
            PfPole(0, 5)


class TestSimpleD:
    def test_top_simple_is_polynomial_ring(self):
        m = 2
        spec = SimpleD(m, 2 * m)
        for mu in paired_window(m, 3):
            assert spec.contains(mu) == (min(mu.entries) >= 0)

    def test_membership_is_B_set_of_dual(self):
        spec = SimpleD(1, 6)
        for mu in paired_window(3, 4):
            assert spec.contains(mu) == in_B(dual(mu), 2, 6)


class TestVerifyLimitPfaff:
    def test_k0_is_trivial_case(self):
        assert verify_limitpfaff(2, 0, 4)["pass"] is True

    def test_m2_k1(self):
        report = verify_limitpfaff(2, 1, 6)
        assert report["pass"] is True
        assert report["e_max"] == 2 * 6 + 8

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_full_range(self, m):
        for k in range(m):
            assert verify_limitpfaff(m, k, 6)["pass"] is True

    def test_report_schema(self):
        report = verify_limitpfaff(2, 1, 4)
        assert {"m", "k", "bound", "checked", "pass"} <= set(report)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            verify_limitpfaff(2, 2, 4)

    def test_corrupted_membership_is_caught(self, monkeypatch):
        import pflyub.characters as ch

        real = ch.PfPole.contains

        def corrupted(self, mu):
            if mu.entries == (0, 0, -2, -2):
                return not real(self, mu)
            return real(self, mu)

        monkeypatch.setattr(ch.PfPole, "contains", corrupted)
        with pytest.raises(VerificationError, match=r"-2"):
            ch.verify_limitpfaff(2, 1, 4)
