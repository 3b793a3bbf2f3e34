"""Mutation run: each mutant is one text replacement in ``src/pflyub`` that the
tier-1 tests must detect.

    python3 mutants/run.py

Each run copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory.  The first run, the baseline, runs ``tests/test_acceptance.py``
plus every mutant's test file on the unmutated copy: a failure there would
read as every mutant killed, so the script prints pytest's output, with the
failing values, and exits 1.  Then, for each mutant, it applies the
replacement in a fresh copy (the replacement must match exactly once), runs
``tests/test_acceptance.py`` plus the mutant's test file with
``pytest -x --assert=plain`` and prints ``killed`` or ``survived``.  A
mutant's run that lasts longer than ``TIME_LIMIT`` times the baseline's wall
time is stopped and printed as ``killed (timeout)``: a mutant that makes a
test loop forever is detected, not waited for.  Every
run, the baseline too, passes ``--hypothesis-seed=0`` in a copy with no
example database, so Hypothesis draws the same examples each time and the
verdict no longer depends on the draw.  The mutants run concurrently, at most
one per CPU this process may use, since most of each run is pytest's start-up
and collection; the results print in ``MUTANTS`` order.  It exits 1 on a
survivor or a replacement that does not match exactly once.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a mutant's run may take this many times the baseline's wall time; the baseline
# runs every mutant's test file, so an unhung mutant's run takes less
TIME_LIMIT = 10

# (module in src/pflyub, text, replacement, test file); each breaks one check
# that tier-1 makes once, in the session verify report or in one test
MUTANTS = [
    # the composed route regraded one degree too far: every entry moves one column right, past the corner
    ("lyubeznik.py", "coeff.reverse(comb(n, 2))", "coeff.reverse(comb(n, 2) + 1)", "test_lyubeznik.py"),
    # the table dimension off by one: the corner entry moves
    ("lyubeznik.py", "dim = comb(n, 2) - comb(n - 2 * k, 2)", "dim = comb(n, 2) - comb(n - 2 * k, 2) + 1", "test_lyubeznik.py"),
    # genfun terms lose the space after "c":
    ("lyubeznik.py", '"ew": %d, "c": %%d}', '"ew": %d, "c":%%d}', "test_lyubeznik.py"),
    # a binomial argument of the even D-class
    ("kgroup.py", "gaussian_binomial(m - s - 1, k - s, power=4)", "gaussian_binomial(m - s, k - s, power=4)", "test_kgroup.py"),
    # the even D-class one degree late: the Q-to-D identity fails
    ("kgroup.py", "shift = comb(2 * (m - k), 2)", "shift = comb(2 * (m - k), 2) + 1", "test_kgroup.py"),
    # the Euler sum drops an odd row's sign, sum (-1)^j for (-1)^(i+j): only the Euler check fails
    ("lyubeznik.py", "euler += -signed if i % 2 else signed", "euler += signed", "test_lyubeznik.py"),
    # the parity mask reads a row's first column for all of them: only a row of mixed parities tells
    ("lyubeznik.py", "cache(lambda js: [j & 1 for j in js])", "cache(lambda js: [js[0] & 1] * len(js))", "test_lyubeznik.py"),
    # the class's exponent step 1, not 2, at odd n: the odd class is no longer the shifted even D-class
    ("kgroup.py", "(4 - 2 * (n % 2))", "(4 - 3 * (n % 2))", "test_kgroup.py"),
    # the class's exponent step 0 at odd n: every table passes validate; only the tie to the even D-class fails
    ("kgroup.py", "(4 - 2 * (n % 2))", "(4 - 4 * (n % 2))", "test_kgroup.py"),
    # the odd class's binomials in q^2: every table passes validate; only the tie to the even D-class fails
    ("kgroup.py", "gaussian_binomial(r - p - 1, k - p, power=4)", "gaussian_binomial(r - p - 1, k - p, power=4 - 2 * (n % 2))", "test_kgroup.py"),
    # the class's binomials in q^2 for both parities: every table passes validate; of the suites only kgroup_identities fails
    ("kgroup.py", "gaussian_binomial(r - p - 1, k - p, power=4)", "gaussian_binomial(r - p - 1, k - p, power=2)", "test_kgroup.py"),
    # the class's binomials in q^2 for n > 21 only: verify at n_max 13 misses it; the closed-formula reference and n_max 56 fail
    ("kgroup.py", "gaussian_binomial(r - p - 1, k - p, power=4)", "gaussian_binomial(r - p - 1, k - p, power=4 - 2 * (n > 21))", "test_lyubeznik.py"),
    # the odd-tie checks stop one m early: the suite makes 66 checks, not 73
    ("verify.py", "if m > m_max_odd:", "if m >= m_max_odd:", "test_kgroup.py"),
    # the Gaussian suite compares the product formula with itself, not with the box: a corrupt binomial passes
    ("verify.py", "g == gaussian_binomial_oracle(a, b)", "g == gaussian_binomial(a, b)", "test_lyubeznik.py"),
    # the binomial oracle enumerates a box one column short
    ("partitions.py", "_weakly_decreasing(a - b, 0, b)", "_weakly_decreasing(a - b, 0, b - 1)", "test_partitions.py"),
    # a shift of the pole-order origin local cohomology
    ("origin_localcoh.py", "- 4 * (m - k - 1) * k", "- 4 * (m - k) * k", "test_origin_localcoh.py"),
    # the lowest exponent of the odd simple D-class: no longer the even one shifted by the pushforward degree
    ("origin_localcoh.py", "QPoly.q(p * (2 * p + 1))", "QPoly.q(p * (2 * p + 3))", "test_origin_localcoh.py"),
    # the lowest exponent of h0_Q: the Ext series no longer reverses onto it
    ("origin_localcoh.py", "p * (2 * p + 3)", "p * (2 * p + 1)", "test_ext_mult.py"),
    # rectangle labels one level too high: they meet the next level's
    ("ext_mult.py", ", a - 1) for v in range(e + 1)", ", a) for v in range(e + 1)", "test_ext_mult.py"),
    # thickened labels one cap too high: they leave the rectangle at cap e, only the sharp inclusion fails
    ("ext_mult.py", "for v in range(1, e + 1)", "for v in range(1, e + 2)", "test_ext_mult.py"),
    # the Ext series regrades the oracle of an (m-a) x a box, one column too wide
    ("ext_mult.py", "gaussian_binomial_oracle(m - 1, a - 1)", "gaussian_binomial_oracle(m, a)", "test_ext_mult.py"),
    # the fractional-twist character's bound made strict at the end of the first block
    ("characters.py", "half[-1 - k] >= -2 * k", "half[-1 - k] > -2 * k", "test_characters.py"),
    # the fractional-twist character's bound made strict at the end of the second block
    ("characters.py", "half[-1] >= -e - 2 * k", "half[-1] > -e - 2 * k", "test_characters.py"),
    # the pole-order character's bound made strict
    ("characters.py", "mu[-1 - 2 * k] >= -2 * k", "mu[-1 - 2 * k] > -2 * k", "test_characters.py"),
    # the Gaussian product step multiplies by 1 - q^(c+i-1), not 1 - q^(c+i)
    ("partitions.py", "shift = [0] * (c + i)", "shift = [0] * (c + i - 1)", "test_partitions.py"),
    # the division by 1 - q^i skips the last residue class
    ("partitions.py", "for r in range(i):", "for r in range(i - 1):", "test_partitions.py"),
    # the even window's heads start at 2s: weights with u_s = 2s-1 are lost
    ("weights_bott.py", "_weakly_decreasing(s, 2 * s - 1, bound)", "_weakly_decreasing(s, 2 * s, bound)", "test_weights_bott.py"),
    # the even join test removed: u_s = 2s-1 meets t_1 = 2s, not weakly decreasing
    ("weights_bott.py", "(low if h[-1:] == (2 * s - 1,) else tails)", "tails", "test_weights_bott.py"),
    # the even tails stop at 2s-1: weights with t_1 = 2s are lost
    ("weights_bott.py", "[_doubled(t) for t in _weakly_decreasing(m - s, -bound, 2 * s)]", "[_doubled(t) for t in _weakly_decreasing(m - s, -bound, 2 * s - 1)]", "test_weights_bott.py"),
    # the even heads left in descending order: the window is out of order
    ("weights_bott.py", "_weakly_decreasing(s, 2 * s - 1, bound)][::-1]", "_weakly_decreasing(s, 2 * s - 1, bound)]", "test_weights_bott.py"),
    # Bott's algorithm on (lambda, 0), the 0 on the wrong side: (1, 1, 0) is dominant and lands in degree 0, not 2
    ("weights_bott.py", "bott((0,) + lam)", "bott(lam + (0,))", "test_weights_bott.py"),
    # the pushforward's source window shrunk to 2m: at m = 1, p = 0 no weight survives
    ("weights_bott.py", "bound = 2 * m + 2", "bound = 2 * m", "test_weights_bott.py"),
    # the coverage window one past the sharp bound: (4, 4, 2) would need the source (5, 5)
    ("weights_bott.py", "enumerate_B(m - p, 2 * m + 1, bound - 1)", "enumerate_B(m - p, 2 * m + 1, bound)", "test_weights_bott.py"),
    # each row without holes keeps its own js: rows with equal columns no longer share one
    ("lyubeznik.py", "canonical(tuple(js))", "tuple(js)", "test_lyubeznik.py"),
    # the shape cache closes over itself again: the output is the same, but each build leaves a reference cycle
    ("lyubeznik.py", "canonical(tuple(js)))", "canonical(tuple(js)) if shape else js)", "test_lyubeznik.py"),
    # validate lets a zero entry through
    ("lyubeznik.py", "if min(lams) <= 0:", "if min(lams) < 0:", "test_lyubeznik.py"),
    # validate checks i against the last column only: an entry below the diagonal passes
    ("lyubeznik.py", "0 <= i <= js[0] and js[-1] <= dim", "0 <= i <= js[-1] <= dim", "test_lyubeznik.py"),
    # the table size limit made exclusive: table (56, 27) is refused
    ("lyubeznik.py", "if not 2 <= n <= _N_MAX:", "if not 2 <= n < _N_MAX:", "test_lyubeznik.py"),
    # the stride the least exponent gap, not their gcd: gaps 2 and 3 lose a column
    ("lyubeznik.py", "step = gcd(*[f - e for e, f in zip(exps, exps[1:])])", "step = min([f - e for e, f in zip(exps, exps[1:])], default=0)", "test_lyubeznik.py"),
    # the lowest exponent of the even simple D-class: the two-term splice fails
    ("origin_localcoh.py", "QPoly.q(s * (2 * s - 1))", "QPoly.q(s * (2 * s + 1))", "test_origin_localcoh.py"),
    # the pole-order quotient no longer removes the next pole order: the limits fail
    ("characters.py", "quotient = pole and not (k and in_pole(mu, k - 1))", "quotient = pole", "test_characters.py"),
    # the limits' window starts at -2m+1: at m = 2, k = 1 no weight steps in e, and the suite fails
    ("characters.py", "_weakly_decreasing(m, -2 * m, 0)", "_weakly_decreasing(m, -2 * m + 1, 0)", "test_characters.py"),
    # the limits' window ends at -1: at k = 0 no weight is a pole weight, so the window misses that side
    ("characters.py", "_weakly_decreasing(m, -2 * m, 0)", "_weakly_decreasing(m, -2 * m, -1)", "test_characters.py"),
    # the witness bound cut to e <= 2(m-k)-1: nu_m = -2m, nu_(m-k) = -2k needs e = 2(m-k)
    ("characters.py", "e_max = 2 * (m - k) if k else 1", "e_max = 2 * (m - k) - 1 if k else 1", "test_characters.py"),
    # no witness at k = 0: the pole weights (nu_m >= 0) are reached by no N_(0,e)
    ("characters.py", "e_max = 2 * (m - k) if k else 1", "e_max = 2 * (m - k) if k else 0", "test_characters.py"),
    # stdout not flushed: a small buffered output to a closed reader fails at the exit flush, which exits 120
    ("cli.py", "stream.flush()", "pass", "test_package.py"),
    # the program entry no longer freezes: shutdown's full collection rescans the start-up heap again
    ("cli.py", "        gc.freeze()", "        pass", "test_package.py"),
    # an in-process main(argv) freezes too: the caller's collector changes under it
    ("cli.py", "    if argv is None:  # this", "    gc.freeze()\n    if argv is None:  # this", "test_package.py"),
    # the annotation's Mapping from typing again: every table command loads typing, re and enum
    ("polyring.py", "from collections.abc import Mapping", "from typing import Mapping", "test_package.py"),
    # the annotation's Sequence from typing again: bott loads typing, re and enum
    ("weights_bott.py", "from collections.abc import Sequence", "from typing import Sequence", "test_package.py"),
    # a sum keeps the term that cancels: q - q has a zero coefficient, and equals no zero polynomial
    ("polyring.py", "            else:\n                data.pop(e, None)", "            else:\n                data[e] = s", "test_polyring.py"),
    # a repeated option keeps its first value, not its last
    ("cli.py", "given[option] = value if eq else next(words, None)", "given.setdefault(option, value if eq else next(words, None))", "test_lyubeznik.py"),
    # the Bott suite's shift q^(2s+2), not q^(2s): the odd origin factor of D_s is checked against the wrong one
    ("verify.py", "QPoly.q(2 * (m - p)) * h0_D_even", "QPoly.q(2 * (m - p) + 2) * h0_D_even", "test_weights_bott.py"),
    # the CSV cell template separates j from lambda by ";"
    ("lyubeznik.py", '"\\0,%d,%%d\\n"', '"\\0,%d;%%d\\n"', "test_lyubeznik.py"),
    # JSON table entries joined by "," with no space
    ("lyubeznik.py", '"lambda": %%d}\', ", ")', '"lambda": %%d}\', ",")', "test_lyubeznik.py"),
    # genfun terms joined by "," with no space
    ("lyubeznik.py", '"c": %%d}\', ", ")', '"c": %%d}\', ",")', "test_lyubeznik.py"),
    # the LaTeX zero cell left empty
    ("lyubeznik.py", '["$0$"] * len(cols)', '["$$"] * len(cols)', "test_lyubeznik.py"),
    # the LaTeX entry cell out of math mode
    ("lyubeznik.py", 'row[column[j]] = "$%d$"', 'row[column[j]] = "%d"', "test_lyubeznik.py"),
    # each input guard's raise deleted: the refusal that a later check would make names something else, or none comes
    # a negative power answered: p ** -1 squares without end, and the run is stopped at its time limit
    ("polyring.py", 'raise ValueError("only nonnegative', 'ValueError("only nonnegative', "test_polyring.py"),
    # gaussian --power -1 answers with negative exponents
    ("partitions.py", 'raise ValueError("substitution power', 'ValueError("substitution power', "test_lyubeznik.py"),
    # a float argument fails later with a TypeError
    ("partitions.py", 'raise ValueError("arguments must be integers")', 'ValueError("arguments must be integers")', "test_partitions.py"),
    # the oracle answers zero for a negative b
    ("partitions.py", 'raise ValueError(f"gaussian_binomial_oracle', 'ValueError(f"gaussian_binomial_oracle', "test_partitions.py"),
    # each h0 family's index range: gaussian_binomial refuses instead, naming its own arguments
    ("origin_localcoh.py", 'raise ValueError(f"require 0 <= k <= m-1', 'ValueError(f"require 0 <= k <= m-1', "test_origin_localcoh.py"),
    ("origin_localcoh.py", 'raise ValueError(f"require 0 <= p <= m-1', 'ValueError(f"require 0 <= p <= m-1', "test_origin_localcoh.py"),
    ("origin_localcoh.py", 'raise ValueError(f"require 0 <= s <= m,', 'ValueError(f"require 0 <= s <= m,', "test_origin_localcoh.py"),
    ("origin_localcoh.py", 'raise ValueError(f"require 0 <= p <= m,', 'ValueError(f"require 0 <= p <= m,', "test_origin_localcoh.py"),
    # an option with no value at the end reads as left out: "--k is required"
    ("cli.py", 'raise ValueError(f"{command}: --{option} expects', 'ValueError(f"{command}: --{option} expects', "test_lyubeznik.py"),
    # in_D's s range: in_B refuses instead, naming its own s and n
    ("characters.py", 'raise ValueError(f"require 0 <= s <= m,', 'ValueError(f"require 0 <= s <= m,', "test_characters.py"),
    # verify_limitpfaff's k range (in_pole repeats it; the next line tells the two apart): m < 0 fails in the window's
    # enumeration, "r must be non-negative"
    ("characters.py", 'raise ValueError(f"require 0 <= k <= m-1, got k={k}, m={m}")\n    e_max', 'ValueError(f"require 0 <= k <= m-1, got k={k}, m={m}")\n    e_max', "test_characters.py"),
    # verify_pushforward's p range: enumerate_B refuses instead, naming its own s and n
    ("weights_bott.py", 'raise ValueError(f"require 0 <= p <= m,', 'ValueError(f"require 0 <= p <= m,', "test_weights_bott.py"),
]


def pytest(
    tests: list[str], mutant: tuple[str, str, str] | None = None, timeout: float | None = None
) -> subprocess.CompletedProcess | str:
    """``pytest -x`` over the acceptance file and ``tests`` in a temporary copy,
    with ``mutant`` (module, text, replacement) applied, or the replacement's
    match count if it does not match exactly once; ``subprocess.TimeoutExpired``
    once the run outlasts ``timeout`` seconds."""
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        if mutant:
            module, old, new = mutant
            path = Path(tmp, "src", "pflyub", module)
            text = path.read_text()
            if text.count(old) != 1:
                return f"matches {text.count(old)} times"
            path.write_text(text.replace(old, new))
        # a mutant's run needs only its exit code, so it skips assertion rewriting:
        # with no bytecode written, pytest rewrites the modules of the hypothesis
        # plugin anew at each launch; the fixed seed makes every run draw the same examples
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
            + ["tests/test_acceptance.py"]
            + [f"tests/{name}" for name in tests]
            + (["--assert=plain"] if mutant else []),
            cwd=tmp,
            env={**os.environ, "PYTHONPATH": str(Path(tmp, "src"))},
            capture_output=True,
            text=True,
            timeout=timeout,
        )


def run(module: str, old: str, new: str, tests: str, timeout: float) -> str:
    try:
        result = pytest([tests], (module, old, new), timeout)
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    if isinstance(result, str):
        return result
    return {0: "survived", 1: "killed"}.get(result.returncode, f"pytest exit {result.returncode}")


def main() -> int:
    start = time.monotonic()
    baseline = pytest(sorted({tests for *_, tests in MUTANTS}))
    timeout = TIME_LIMIT * (time.monotonic() - start)
    if baseline.returncode:
        print(baseline.stdout + baseline.stderr, end="")
        print(f"baseline failed (pytest exit {baseline.returncode}): the unmutated tests must pass", flush=True)
        return 1
    print(f"baseline passed: the unmutated tests pass; each mutant's run is stopped after {timeout:.0f} s", flush=True)
    failed = False
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        for (module, old, new, tests), outcome in zip(MUTANTS, pool.map(lambda mutant: run(*mutant, timeout), MUTANTS)):
            print(f"{outcome}: {module}: {old!r} -> {new!r}", flush=True)
            failed |= not outcome.startswith("killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
