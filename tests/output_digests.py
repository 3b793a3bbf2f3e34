"""Pin the bytes of every command's stdout in ``tests/outputs.sha256``.

    python3 tests/output_digests.py --check   # recompute every line; exit 1 if one moved
    python3 tests/output_digests.py --write   # rewrite the file from the current program

The file has one line per format and n, 2 <= n <= 56: the sha256 of the
stdout of ``pflyub lyubeznik --format json|csv|latex`` or ``pflyub genfun``
for every k at that n, in ascending k, run in-process through ``cli.main``.
Four lines follow, each the sha256 of the stdout of one family of commands,
run the same way: ``gaussian`` for every B <= A <= 20 at power 1 and 4,
``localcoh`` for every family and index with 1 <= m <= 8, ``bott`` for every
``--gamma`` in [-2, 2]^4, and the suite lines of ``verify --n-max 13``
without the final JSON report, which holds wall-clock seconds.
``--check`` names the first line whose output moved.  Rewrite
the file only in a change that means to alter those outputs, and say which
and why.  Only the standard library is needed.
"""

import contextlib
import hashlib
import io
import sys
from functools import lru_cache
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pflyub.cli  # noqa: E402
import pflyub.lyubeznik  # noqa: E402

PINNED = ROOT / "tests" / "outputs.sha256"
N_MAX = 56
COMMANDS = {
    "json": ["lyubeznik", "--format", "json"],
    "genfun": ["genfun"],
    "csv": ["lyubeznik", "--format", "csv"],
    "latex": ["lyubeznik", "--format", "latex"],
}
FAMILIES = {
    "gaussian a<=20": [
        ["gaussian", "--a", str(a), "--b", str(b), "--power", str(power)]
        for a in range(21)
        for b in range(a + 1)
        for power in (1, 4)
    ],
    "localcoh m<=8": [
        ["localcoh", "--parity", parity, "--m", str(m), "--object", obj, "--index", str(index)]
        for m in range(1, 9)
        for parity, obj, extra in (("even", "Q", 0), ("even", "D", 1), ("even", "pfpole", 0), ("odd", "D", 1))
        for index in range(m + extra)
    ],
    "bott [-2,2]^4": [["bott", "--gamma=" + ",".join(map(str, gamma))] for gamma in product(range(-2, 3), repeat=4)],
}
VERIFY = ["verify", "--n-max", "13"]


def _stdout(argv: list[str]) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = pflyub.cli.main(argv)
    if code != 0:
        raise SystemExit(f"pflyub {' '.join(argv)} exited {code}")
    return buffer.getvalue().encode()


def digest_lines(n_max: int = N_MAX) -> list[str]:
    """The table lines of the pinned file for 2 <= n <= n_max, then every
    family line, in file order."""
    lines = []
    real = pflyub.lyubeznik.build_table
    # the four commands of one (n, k) run back to back, so each table is built once
    pflyub.lyubeznik.build_table = lru_cache(maxsize=1)(real)
    try:
        for n in range(2, n_max + 1):
            digests = {name: hashlib.sha256() for name in COMMANDS}
            for k in range(n // 2):
                for name, command in COMMANDS.items():
                    digests[name].update(_stdout(command + ["--n", str(n), "--k", str(k)]))
            lines += [f"{digest.hexdigest()}  {name} n={n}" for name, digest in digests.items()]
    finally:
        pflyub.lyubeznik.build_table = real
    for name, commands in FAMILIES.items():
        digest = hashlib.sha256()
        for argv in commands:
            digest.update(_stdout(argv))
        lines.append(f"{digest.hexdigest()}  {name}")
    summary = _stdout(VERIFY).splitlines(keepends=True)[:-1]
    return lines + [f"{hashlib.sha256(b''.join(summary)).hexdigest()}  {' '.join(VERIFY)}"]


def first_moved(lines: list[str], pinned: list[str]) -> str | None:
    """The first line of ``pinned`` that ``lines`` does not reproduce, or None."""
    for line, pin in zip(lines, pinned):
        if line != pin:
            return pin
    return None if len(lines) == len(pinned) else f"{len(pinned)} lines pinned, {len(lines)} computed"


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        PINNED.write_text("\n".join(digest_lines()) + "\n")
        print(f"wrote {PINNED.name}")
        return 0
    if argv == ["--check"]:
        moved = first_moved(digest_lines(), PINNED.read_text().splitlines())
        if moved:
            print(f"moved: {moved}")
            return 1
        print(f"{PINNED.name}: every command's output matches")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
