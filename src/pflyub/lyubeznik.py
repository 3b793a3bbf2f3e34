"""Lyubeznik numbers of Pfaffian rings: generating functions and tables.

The generating function L_k(q, w) = sum lambda_{i,j} q^i w^j collects the
Lyubeznik numbers of the local ring at the cone point of the rank <= 2k locus
of n x n skew-symmetric matrices.  Two independent routes compute it:

* ``L_closed`` evaluates the closed formulas directly (with the even
  hypersurface case k = m-1 dispatched to (q*w)^(C(n,2)-1));
* ``L_composed`` composes the Grothendieck-group class of the local cohomology
  (reversed so that w tracks j = C(n,2) - inner degree) with the origin
  local cohomology of each basis module.

Both routes produce L_k as a sum of rank-one terms a_s(q) * b_s(w), one per
basis module that occurs, and are computed as their lists of factor pairs
(a_s, b_s) of q-only polynomials, the q of b_s standing for w.
``build_table`` compares the two lists, expands only the closed one (both,
if the lists differ), and refuses to emit unless the expansions agree
exactly; it then checks the structural invariants: entries positive,
0 <= i <= j <= dim, the corner entry lambda_{dim,dim} = 1 where
dim = k(2n-2k-1), and the Euler characteristic
sum (-1)^(i-j) lambda_{i,j} = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from . import characters, ext_mult, kgroup, origin_localcoh, partitions, weights_bott
from .errors import PathMismatchError, TableInvariantError, VerificationError
from .kgroup import (
    localcoh_class_even_D,
    localcoh_class_even_Q,
    localcoh_class_odd_D_reversed,
    q_to_d,
    reverse_class,
)
from .origin_localcoh import h0_D_even, h0_D_odd, h0_pf_pole, h0_Q
from .partitions import gaussian_binomial
from .polyring import ZERO, BiLaurentPoly


@dataclass
class LyubeznikTable:
    """The nonzero Lyubeznik numbers lambda_{i,j} of one Pfaffian ring."""

    n: int
    k: int
    dim: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def validate(self) -> None:
        for (i, j), lam in self.entries.items():
            if lam <= 0:
                raise TableInvariantError(self.n, self.k, f"entry {lam} not positive", (i, j))
            if not 0 <= i <= j <= self.dim:
                raise TableInvariantError(
                    self.n, self.k, f"index outside 0 <= i <= j <= {self.dim}", (i, j)
                )
        corner = self.entries.get((self.dim, self.dim))
        if corner != 1:
            raise TableInvariantError(
                self.n, self.k, f"corner entry is {corner}, expected 1", (self.dim, self.dim)
            )
        # H^i_m H^(N-j)_I(S) => H^(i+N-j)_m(S), which is E in degree N alone, so the sum is 1
        euler = sum(-lam if (i + j) % 2 else lam for (i, j), lam in self.entries.items())
        if euler != 1:
            raise TableInvariantError(self.n, self.k, f"Euler characteristic is {euler}, expected 1")

    def _rows(self):
        """((i, j), lambda) for every entry, sorted by (i, j)."""
        keys = sorted(self.entries)  # sorting the keys alone is much faster than the items
        return zip(keys, map(self.entries.__getitem__, keys))

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "dim": self.dim,
            "entries": [{"i": i, "j": j, "lambda": lam} for (i, j), lam in self._rows()],
        }

    def to_json(self) -> str:
        """The same bytes as ``json.dumps(self.to_obj())``, formatted directly."""
        rows = ", ".join([f'{{"i": {i}, "j": {j}, "lambda": {lam}}}' for (i, j), lam in self._rows()])
        return f'{{"n": {self.n}, "k": {self.k}, "dim": {self.dim}, "entries": [{rows}]}}'

    def to_csv(self) -> str:
        lines = ["i,j,lambda"]
        lines += [f"{i},{j},{lam}" for (i, j), lam in self._rows()]
        return "\n".join(lines) + "\n"

    def to_latex(self) -> str:
        """A tabular with one row per occupied i, one column per occupied j
        (labels range over [0, dim]; empty rows/columns are omitted)."""
        rows = sorted({i for (i, _) in self.entries})
        cols = sorted({j for (_, j) in self.entries})
        lines = [r"\begin{tabular}{r|" + "c" * len(cols) + "}"]
        lines.append(
            " & ".join([r"$i \backslash j$"] + [f"${j}$" for j in cols]) + r" \\ \hline"
        )
        for i in rows:
            cells = [str(self.entries.get((i, j), 0)) for j in cols]
            lines.append(" & ".join([f"${i}$"] + [f"${c}$" for c in cells]) + r" \\")
        lines.append(r"\end{tabular}")
        return "\n".join(lines) + "\n"


def _check_nk(n: int, k: int) -> int:
    if n < 2:
        raise ValueError(f"require n >= 2, got n={n}")
    m = n // 2
    if not 0 <= k <= m - 1:
        raise ValueError(f"require 0 <= k <= floor(n/2)-1, got k={k}, n={n}")
    return m


def L_closed(n: int, k: int) -> BiLaurentPoly:
    """The generating function of Lyubeznik numbers, by the closed formulas."""
    return BiLaurentPoly(_expand(_closed_factors(n, k)))


def L_composed(n: int, k: int) -> BiLaurentPoly:
    """The generating function composed from the Grothendieck-group class of
    the local cohomology and the origin local cohomology of each summand."""
    return BiLaurentPoly(_expand(_composed_factors(n, k)))


def _closed_factors(n: int, k: int) -> list[tuple[BiLaurentPoly, BiLaurentPoly]]:
    """The closed formulas, with the even hypersurface case k = m-1
    dispatched to (q*w)^(C(n,2)-1)."""
    m = _check_nk(n, k)
    q = BiLaurentPoly.q
    if n % 2 == 0 and k == m - 1:
        corner = q(comb(n, 2) - 1)
        return [(corner, corner)]
    factors = []
    for s in range(k + 1):
        if n % 2 == 0:
            qpart = q(s * (2 * s + 3)) * gaussian_binomial(m - 1, s, power=4)
            wexp = k * (2 * k + 3) - 4 * s * (k - m + 1)
            wpart = q(wexp) * gaussian_binomial(m - s - 2, k - s, power=4)
        else:
            qpart = q(s * (2 * s + 1)) * gaussian_binomial(m, s, power=4)
            wexp = k * (2 * k + 3) - 2 * s * (2 * k - 2 * m + 1)
            wpart = q(wexp) * gaussian_binomial(m - s - 1, k - s, power=4)
        factors.append((qpart, wpart))
    return factors


def _composed_factors(n: int, k: int) -> list[tuple[BiLaurentPoly, BiLaurentPoly]]:
    """The origin local cohomology h(p) of each basis module p, paired with
    the module's coefficient in the class of the local cohomology, graded by
    w^j with j = C(n,2) - cohomological degree."""
    m = _check_nk(n, k)
    if n % 2 == 0:
        cls = reverse_class(localcoh_class_even_Q(m, k), comb(n, 2))
        h = lambda p: h0_Q(m, p)
    else:
        cls = localcoh_class_odd_D_reversed(m, k)
        h = lambda p: h0_D_odd(m, p)
    return [(h(p), coeff) for p, coeff in enumerate(cls.coeffs) if coeff]


def _expand(factors: list[tuple[BiLaurentPoly, BiLaurentPoly]]) -> dict[tuple[int, int], int]:
    """sum_s a_s(q) * b_s(w) as {(i, j): coefficient of q^i w^j}, zeros dropped."""
    entries: dict[tuple[int, int], int] = {}
    get = entries.get
    for a, b in factors:
        column = [(j, y) for (j, _), y in b.terms().items()]
        for (i, _), x in a.terms().items():
            for j, y in column:
                key = i, j
                entries[key] = get(key, 0) + x * y
    for key in [key for key, c in entries.items() if not c]:
        del entries[key]
    return entries


def build_table(n: int, k: int) -> LyubeznikTable:
    """Build the Lyubeznik table, insisting the two routes agree exactly.

    Equal factor lists have equal expansions; only when the lists differ are
    both expanded and compared, so a mismatch names its first differing term."""
    closed = _closed_factors(n, k)
    composed = _composed_factors(n, k)
    entries = _expand(closed)
    if closed != composed:
        other = _expand(composed)
        if entries != other:
            differ = (e for e in entries.keys() | other.keys() if entries.get(e, 0) != other.get(e, 0))
            key = min(differ)
            raise PathMismatchError(n, k, key, entries.get(key, 0), other.get(key, 0))
    dim = k * (2 * n - 2 * k - 1)
    table = LyubeznikTable(n=n, k=k, dim=dim, entries=entries)
    table.validate()
    return table


def valid_k_range(n: int) -> range:
    """The k for which the rank <= 2k locus is a proper subvariety with a
    well-defined table: 0 <= k <= floor(n/2) - 1."""
    return range(n // 2)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite(name: str, checks) -> dict:
    """Run one suite, a generator that yields once after each check passes;
    stop at the suite's first failure but never propagate."""
    checked = 0
    try:
        for _ in checks:
            checked += 1
    except Exception as exc:  # any failure, expected or not, is this suite's alone
        error = f"{type(exc).__name__}: {exc}"
        return {"name": name, "pass": False, "checked": checked, "error": error}
    return {"name": name, "pass": True, "checked": checked, "error": None}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise VerificationError(message)


def _two_path_checks(n_max: int):
    for n in range(2, n_max + 1):
        for k in valid_k_range(n):
            build_table(n, k)
            yield


def _gaussian_checks(a_max: int):
    for a in range(a_max + 1):
        for b in range(a + 1):
            g = gaussian_binomial(a, b)
            _require(
                g == partitions.gaussian_binomial_oracle(a, b),
                f"binomial({a},{b}) disagrees with the box enumeration",
            )
            _require(
                g == gaussian_binomial(a, a - b),
                f"binomial symmetry fails at ({a},{b})",
            )
            _require(
                g.reverse(b * (a - b)) == g,
                f"binomial inversion fails at ({a},{b})",
            )
            if a > b > 0:
                pascal = gaussian_binomial(a - 1, b - 1) + BiLaurentPoly.q(b) * gaussian_binomial(a - 1, b)
                _require(g == pascal, f"Pascal identity fails at ({a},{b})")
            yield


def _kgroup_checks(m_max: int, m_max_swap: int):
    for m in range(2, m_max + 1):
        for k in range(m - 1):
            _require(
                q_to_d(localcoh_class_even_Q(m, k)) == localcoh_class_even_D(m, k),
                f"Q-to-D decomposition fails at (m={m}, k={k})",
            )
            yield
    for m in range(2, m_max_swap + 1):
        d = comb(2 * m, 2)
        for k in range(m - 1):
            reversed_cls = reverse_class(localcoh_class_even_Q(m, k), d)
            expected = []
            for p in range(m + 1):
                if p <= k:
                    shift = k * (2 * k + 3) - 4 * p * (k - m + 1)
                    expected.append(BiLaurentPoly.q(shift) * gaussian_binomial(m - p - 2, k - p, power=4))
                else:
                    expected.append(ZERO)
            _require(
                reversed_cls == kgroup.KClass("Q", 2 * m, tuple(expected)),
                f"grading reversal closed form fails at (m={m}, k={k})",
            )
            yield


def _origin_checks(m_max: int):
    for m in range(1, m_max + 1):
        for p in range(m):
            _require(
                BiLaurentPoly.q(1) * h0_Q(m, p) == h0_pf_pole(m, m - p - 1),
                f"pole/indecomposable splice fails at (m={m}, p={p})",
            )
            yield
        for s in range(1, m):
            spliced = h0_pf_pole(m, m - s) + BiLaurentPoly.q(-1) * h0_pf_pole(m, m - s - 1)
            _require(
                h0_D_even(m, s) == spliced,
                f"simple-module splice fails at (m={m}, s={s})",
            )
            yield


def _ext_checks(m_max: int):
    for m in range(1, m_max + 1):
        for a in range(1, m + 1):
            for b in (2 * a - 1, 2 * a, 2 * a + 3):
                _require(
                    ext_mult.ext_series_enum(m, a, b) == ext_mult.ext_series_closed(m, a, b),
                    f"Ext series mismatch at (m={m}, a={a}, b={b})",
                )
                yield
    for m in range(1, 6):
        for a in range(m - 1, 0, -1):
            for e in range(5):
                rect = ext_mult.zset_rectangle(m, a, e)
                _require(
                    not (rect & ext_mult.zset_thickened(m, a + 1, e)),
                    f"Z-sets not disjoint at (m={m}, a={a}, e={e})",
                )
                thick = ext_mult.zset_thickened(m, a, e)
                sentinel = ext_mult.ZPair(partitions.Partition((), length=m), m - 1)
                _require(
                    (thick - {sentinel}) <= ext_mult.zset_rectangle(m, a, e + 1),
                    f"Z-set inclusion fails at (m={m}, a={a}, e={e})",
                )
                yield


def _bott_checks(m_max: int):
    for m in range(1, m_max + 1):
        for p in range(m + 1):
            weights_bott.verify_pushforward(m, p, 2 * m + 6)
            yield


def _character_checks(m_max: int, bound: int):
    for m in range(1, m_max + 1):
        for k in range(m):
            characters.verify_limitpfaff(m, k, bound)
            yield


def verify_all(n_max: int) -> dict:
    """Run every verification suite; the tables cover 2 <= n <= n_max, the
    module property suites run at their standard ranges.  Returns a structured
    report; a suite stops at its first failure, the others still run."""
    if n_max < 2:
        raise ValueError(f"require n_max >= 2, got {n_max}")
    suites = [
        _suite("two_path_tables", _two_path_checks(n_max)),
        _suite("gaussian_binomials", _gaussian_checks(14)),
        _suite("kgroup_identities", _kgroup_checks(10, 8)),
        _suite("origin_splices", _origin_checks(10)),
        _suite("ext_series", _ext_checks(7)),
        _suite("bott_pushforward", _bott_checks(4)),
        _suite("character_limits", _character_checks(3, 6)),
    ]
    return {"n_max": n_max, "pass": all(s["pass"] for s in suites), "suites": suites}
