"""Exact sparse Laurent polynomials over the integers in one variable q.

Values are immutable and kept in canonical form (no zero coefficients are
stored), so ``==`` is exact structural equality.  Exponents may be negative.
Coefficients are Python integers, hence exact at any size.
"""

from __future__ import annotations

from collections.abc import Mapping


class QPoly:
    """An integer Laurent polynomial in q, stored as {e: coeff}."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        data = {}
        if terms:
            for e, c in terms.items():
                if not (isinstance(e, int) and isinstance(c, int)) or bool in (type(e), type(c)):
                    raise TypeError(f"exponents and coefficients must be integers, not bool, got {e!r}: {c!r}")
                if c != 0:
                    data[e] = c
        self._terms = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def q(cls, e: int = 1) -> QPoly:
        """The monomial q**e (e may be negative)."""
        return cls({e: 1})

    # -- inspection --------------------------------------------------------

    def terms(self) -> dict[int, int]:
        """A copy of the term map {e: coeff}."""
        return dict(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: QPoly | int) -> QPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self._terms)
        for e, c in other._terms.items():
            s = data.get(e, 0) + c
            if s:
                data[e] = s
            else:
                data.pop(e, None)
        return _raw(data)

    __radd__ = __add__

    def __neg__(self) -> QPoly:
        return _raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: QPoly | int) -> QPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> QPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: QPoly | int) -> QPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data: dict[int, int] = {}
        for a, ac in self._terms.items():
            for b, bc in other._terms.items():
                e = a + b
                s = data.get(e, 0) + ac * bc
                if s:
                    data[e] = s
                else:
                    data.pop(e, None)
        return _raw(data)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = QPoly({0: 1})
        for _ in range(n):
            result = result * self
        return result

    def reverse(self, d: int) -> QPoly:
        """Return q**d * p(1/q), i.e. send each exponent e to d - e."""
        return _raw({d - e: c for e, c in self._terms.items()})

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        """The JSON term list [{"eq": e, "ew": 0, "c": coeff}] sorted by e, with
        the bytes of ``json.dumps``, formatted directly; ``ew`` is the CLI's
        term format, shared with ``genfun``."""
        pairs = [x for term in sorted(self._terms.items()) for x in term]
        return "[" + ", ".join(['{"eq": %d, "ew": 0, "c": %d}'] * len(self._terms)) % tuple(pairs) + "]"

    # -- equality & display --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        return f"QPoly({self._terms!r})"


# The benchmark's tracer (perfbench/spans.py) and its self-test wrap the
# operators under this older name, so the alias stays while they use it.
BiLaurentPoly = QPoly


def _coerce(value: QPoly | int) -> QPoly:
    if isinstance(value, QPoly):
        return value
    if isinstance(value, int):
        return QPoly({0: value})
    return NotImplemented


def _raw(data: dict[int, int]) -> QPoly:
    # internal fast path: data already canonical (no zeros, int keys/values)
    p = QPoly.__new__(QPoly)
    p._terms = data
    return p


ZERO = QPoly()
