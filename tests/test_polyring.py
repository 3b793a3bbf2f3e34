import json

import pytest
from hypothesis import given, strategies as st

from pflyub.polyring import ONE, Q, W, ZERO, BiLaurentPoly


def poly(d):
    return BiLaurentPoly(d)


def test_add_cancellation():
    assert (ONE + Q) + (ONE - Q) == BiLaurentPoly.const(2)


def test_add_identity():
    p = poly({(2, -1): 3, (0, 0): -5})
    assert p + ZERO == p
    assert ZERO + p == p


def test_add_disjoint_support():
    a = poly({(3, 7): 1})
    b = poly({(7, 7): 1})
    assert a + b == poly({(3, 7): 1, (7, 7): 1})


def test_mul_difference_of_squares():
    assert (ONE + Q) * (ONE - Q) == ONE - Q ** 2


def test_mul_laurent_inverse_monomial():
    assert BiLaurentPoly.q(-1) * Q == ONE


def test_mul_square():
    p = ONE + BiLaurentPoly.q(4)
    assert p * p == poly({(0, 0): 1, (4, 0): 2, (8, 0): 1})


def test_reverse():
    assert (Q ** 2 + Q ** 5).reverse(5) == ONE + Q ** 3
    assert ONE.reverse(7) == Q ** 7
    assert ONE.reverse(-3) == BiLaurentPoly.q(-3)


def test_reverse_rejects_w():
    with pytest.raises(ValueError):
        (Q * W).reverse(2)


def test_coeff():
    p = W ** 5 + Q ** 5 * W ** 9
    assert p.coeff(5, 9) == 1
    assert p.coeff(1, 1) == 0
    assert (3 * Q ** 2).coeff(2, 0) == 3


def test_zero_coefficients_never_stored():
    p = poly({(1, 0): 0, (2, 0): 5})
    assert p.terms() == {(2, 0): 5}
    assert (p - p).terms() == {}
    assert not (p - p)


def test_display_order_and_str():
    p = poly({(1, 0): -1, (0, 0): 2, (0, 2): 3, (-1, 0): 1})
    assert p.support() == [(-1, 0), (0, 0), (0, 2), (1, 0)]
    assert str(p) == "q^-1 + 2 + 3*w^2 - q"
    assert str(ZERO) == "0"


def test_serialization_roundtrip():
    p = poly({(-2, 3): 7, (0, 0): -1, (5, -5): 2})
    obj = p.to_obj()
    assert obj == sorted(obj, key=lambda t: (t["eq"], t["ew"]))
    assert poly({(t["eq"], t["ew"]): t["c"] for t in json.loads(json.dumps(obj))}) == p


def test_non_integer_rejected():
    with pytest.raises(TypeError):
        BiLaurentPoly({(0, 0): 1.5})


def test_rsub_non_integer_is_not_implemented():
    with pytest.raises(TypeError, match="'float' and 'BiLaurentPoly'"):
        1.5 - Q
    assert 3 - Q == BiLaurentPoly.const(3) - Q


def test_constants_hash_like_their_ints():
    for c in (-2, -1, 0, 1, 7):
        assert BiLaurentPoly.const(c) == c
        assert hash(BiLaurentPoly.const(c)) == hash(c)
    assert len({ONE, 1}) == 1
    assert len({ZERO, 0}) == 1
    assert hash(Q) == hash(BiLaurentPoly.q(1))


small_polys = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.integers(-9, 9),
    max_size=5,
).map(BiLaurentPoly)


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == ZERO


q_only_polys = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.just(0)),
    st.integers(-9, 9),
    max_size=5,
).map(BiLaurentPoly)


@given(q_only_polys, st.integers(-6, 6))
def test_reverse_involution(p, d):
    assert p.reverse(d).reverse(d) == p


@given(q_only_polys, q_only_polys, st.integers(-5, 5), st.integers(-5, 5))
def test_reverse_multiplicative(p, r, d1, d2):
    assert (p * r).reverse(d1 + d2) == p.reverse(d1) * r.reverse(d2)
