"""Output checks for the benchmark, sharing no code with ``pflyub``.

Every invariant here comes from the theory or from the documented output
formats, never from the package's own formulas:

* a Lyubeznik table of the rank <= 2k locus of n x n skew-symmetric matrices
  has dim = k(2n-2k-1); its entries sit at 0 <= i <= j <= dim, are positive,
  the corner entry lambda_{dim,dim} is 1, and the Euler characteristic
  sum (-1)^(i-j) lambda_{i,j} is 1 (the Grothendieck spectral sequence
  H^i_m H^(N-j)_I(S) => H^(i+N-j)_m(S) is E only in total degree N);
* the n = 6, k = 1 table is lambda_{0,5} = lambda_{5,9} = lambda_{9,9} = 1;
* the Gaussian binomial binom(a, b) evaluated at q = 1 is C(a, b), it is
  palindromic of degree b(a-b) with no internal zero coefficients, so after
  q -> q^power its support is every multiple of power up to power*b(a-b);
* ``verify`` must pass every suite with at least a recorded number of checks;
* every output must match the sha256 digest recorded for it.

Each check raises ``CheckError`` naming what failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re


class CheckError(Exception):
    """An output failed one of the benchmark's checks."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# -- tables -----------------------------------------------------------------


def table_dim(n: int, k: int) -> int:
    return k * (2 * n - 2 * k - 1)


def check_entries(entries: dict[tuple[int, int], int], n: int, k: int) -> int:
    """Check the structural invariants of one table; return its entry count."""
    dim = table_dim(n, k)
    euler = 0
    for (i, j), lam in entries.items():
        require(isinstance(lam, int) and lam > 0, f"table({n},{k}): entry {lam!r} at ({i},{j}) not positive")
        require(0 <= i <= j <= dim, f"table({n},{k}): ({i},{j}) outside 0 <= i <= j <= {dim}")
        euler += lam if (i - j) % 2 == 0 else -lam
    require(entries.get((dim, dim)) == 1, f"table({n},{k}): corner entry is {entries.get((dim, dim))}, expected 1")
    require(euler == 1, f"table({n},{k}): Euler characteristic is {euler}, expected 1")
    if (n, k) == (6, 1):
        require(entries == {(0, 5): 1, (5, 9): 1, (9, 9): 1}, f"table(6,1) is {entries}, expected the published table")
    return len(entries)


def parse_table_json(text: str, n: int, k: int) -> dict[tuple[int, int], int]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"table({n},{k}): JSON does not parse: {exc}") from None
    require(isinstance(obj, dict), f"table({n},{k}): JSON is not an object")
    require(set(obj) == {"n", "k", "dim", "entries"}, f"table({n},{k}): JSON keys are {sorted(obj)}")
    require(
        (obj["n"], obj["k"], obj["dim"]) == (n, k, table_dim(n, k)),
        f"table({n},{k}): header n={obj['n']} k={obj['k']} dim={obj['dim']}",
    )
    entries: dict[tuple[int, int], int] = {}
    previous = None
    for item in obj["entries"]:
        key = (item["i"], item["j"])
        require(previous is None or key > previous, f"table({n},{k}): entries not sorted at {key}")
        previous = key
        entries[key] = item["lambda"]
    return entries


def parse_table_csv(text: str, n: int, k: int) -> dict[tuple[int, int], int]:
    lines = text.split("\n")
    require(lines[0] == "i,j,lambda" and lines[-1] == "", f"table({n},{k}): malformed CSV framing")
    entries: dict[tuple[int, int], int] = {}
    previous = None
    for line in lines[1:-1]:
        i, j, lam = (int(field) for field in line.split(","))
        require(previous is None or (i, j) > previous, f"table({n},{k}): CSV rows not sorted at {(i, j)}")
        previous = (i, j)
        entries[(i, j)] = lam
    return entries


_CELL = re.compile(r"^\$(-?\d+)\$$")


def _cells(line: str, n: int, k: int) -> list[str]:
    require(line.endswith(r" \\"), f"table({n},{k}): LaTeX row {line[:40]!r} lacks a row break")
    return line[: -len(r" \\")].split(" & ")


def _int_cell(cell: str, n: int, k: int) -> int:
    match = _CELL.match(cell)
    require(match is not None, f"table({n},{k}): LaTeX cell {cell!r} is not $<int>$")
    return int(match.group(1))


def parse_table_latex(text: str, n: int, k: int) -> dict[tuple[int, int], int]:
    lines = text.split("\n")
    require(len(lines) >= 4 and lines[-1] == "" and lines[-2] == r"\end{tabular}", f"table({n},{k}): malformed LaTeX framing")
    header = lines[1]
    require(header.endswith(r" \\ \hline"), f"table({n},{k}): LaTeX header lacks \\hline")
    head = header[: -len(r" \\ \hline")].split(" & ")
    require(head[0] == r"$i \backslash j$", f"table({n},{k}): LaTeX corner label is {head[0]!r}")
    cols = [_int_cell(c, n, k) for c in head[1:]]
    require(lines[0] == r"\begin{tabular}{r|" + "c" * len(cols) + "}", f"table({n},{k}): LaTeX column spec mismatch")
    require(cols == sorted(set(cols)), f"table({n},{k}): LaTeX columns not strictly increasing")
    entries: dict[tuple[int, int], int] = {}
    rows = []
    for line in lines[2:-2]:
        cells = [_int_cell(c, n, k) for c in _cells(line, n, k)]
        require(len(cells) == len(cols) + 1, f"table({n},{k}): LaTeX row has {len(cells)} cells")
        i = cells[0]
        rows.append(i)
        require(any(cells[1:]), f"table({n},{k}): LaTeX row {i} is empty")
        for j, lam in zip(cols, cells[1:]):
            if lam:
                entries[(i, j)] = lam
    require(rows == sorted(set(rows)), f"table({n},{k}): LaTeX rows not strictly increasing")
    require({j for (_, j) in entries} == set(cols), f"table({n},{k}): LaTeX has an empty column")
    return entries


TABLE_PARSERS = {"json": parse_table_json, "csv": parse_table_csv, "latex": parse_table_latex}


def check_table(text: str, fmt: str, n: int, k: int) -> dict[tuple[int, int], int]:
    """Parse one emitted table, check its invariants and return its entries."""
    entries = TABLE_PARSERS[fmt](text, n, k)
    check_entries(entries, n, k)
    return entries


# -- Gaussian binomials -------------------------------------------------------


def check_gaussian(text: str, a: int, b: int, power: int) -> int:
    """Check one ``pflyub gaussian`` result; return its number of terms."""
    where = f"gaussian({a},{b})^q{power}"
    try:
        terms = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"{where}: JSON does not parse: {exc}") from None
    coeffs: dict[int, int] = {}
    previous = None
    for term in terms:
        require(set(term) == {"eq", "ew", "c"}, f"{where}: term keys are {sorted(term)}")
        require(term["ew"] == 0, f"{where}: term involves w: {term}")
        eq, c = term["eq"], term["c"]
        require(previous is None or eq > previous, f"{where}: terms not sorted at q^{eq}")
        previous = eq
        coeffs[eq] = c
    top = power * b * (a - b)
    require(sorted(coeffs) == list(range(0, top + 1, power)), f"{where}: support is not every multiple of {power} up to {top}")
    require(all(c > 0 for c in coeffs.values()), f"{where}: a coefficient is not positive")
    require(sum(coeffs.values()) == math.comb(a, b), f"{where}: coefficient sum {sum(coeffs.values())} != C({a},{b})")
    for eq, c in coeffs.items():
        require(coeffs[top - eq] == c, f"{where}: not palindromic at q^{eq}")
    return len(coeffs)


# -- verify -------------------------------------------------------------------

# Per-suite check counts of ``pflyub verify`` when this benchmark was defined.
# A later version may check more but never less; the two-path suite covers
# every valid (n, k) with n <= n_max, that is sum_{n=2}^{n_max} floor(n/2).
VERIFY_MIN_CHECKED = {
    "gaussian_binomials": 120,
    "kgroup_identities": 73,
    "origin_splices": 100,
    "ext_series": 134,
    "bott_pushforward": 14,
    "character_limits": 6,
}


def verify_min_checked(n_max: int) -> dict[str, int]:
    return {"two_path_tables": sum(n // 2 for n in range(2, n_max + 1)), **VERIFY_MIN_CHECKED}


def check_verify(text: str, n_max: int) -> int:
    """Check one ``pflyub verify`` report; return the total number of checks."""
    lines = text.rstrip("\n").split("\n")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise CheckError(f"verify: report does not parse: {exc}") from None
    require(report.get("n_max") == n_max, f"verify: report n_max is {report.get('n_max')}")
    require(report.get("pass") is True, "verify: report does not pass")
    suites = {s["name"]: s for s in report["suites"]}
    require(len(suites) == len(report["suites"]), "verify: duplicate suite names")
    for name, minimum in verify_min_checked(n_max).items():
        suite = suites.get(name)
        require(suite is not None, f"verify: suite {name} missing")
        require(suite["pass"] is True and suite["error"] is None, f"verify: suite {name} failed: {suite['error']}")
        require(suite["checked"] >= minimum, f"verify: suite {name} ran {suite['checked']} checks, fewer than {minimum}")
    expected_lines = [f"{s['name']}: PASS ({s['checked']} checks)" for s in report["suites"]]
    require(lines[:-1] == expected_lines, "verify: summary lines disagree with the report")
    return sum(s["checked"] for s in report["suites"])


# -- digests ------------------------------------------------------------------


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_digest(key: str, data: bytes, recorded: dict[str, str]) -> None:
    require(key in recorded, f"{key}: no digest recorded")
    require(digest(data) == recorded[key], f"{key}: output differs from the recorded digest")
