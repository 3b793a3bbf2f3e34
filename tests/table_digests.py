"""Pin the bytes of every admitted table's output in ``tests/tables.sha256``.

    python3 tests/table_digests.py --check   # recompute every line; exit 1 if one moved
    python3 tests/table_digests.py --write   # rewrite the file from the current program

The file has one line per format and n, 2 <= n <= 56: the sha256 of the
stdout of ``pflyub lyubeznik --format json|csv|latex`` or ``pflyub genfun``
for every k at that n, in ascending k, run in-process through ``cli.main``.
``--check`` names the format and the first n whose output moved.  Rewrite
the file only in a change that means to alter those outputs, and say which
and why.  Only the standard library is needed.
"""

import contextlib
import hashlib
import io
import sys
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pflyub.cli  # noqa: E402
import pflyub.lyubeznik  # noqa: E402

PINNED = ROOT / "tests" / "tables.sha256"
N_MAX = 56
COMMANDS = {
    "json": ["lyubeznik", "--format", "json"],
    "genfun": ["genfun"],
    "csv": ["lyubeznik", "--format", "csv"],
    "latex": ["lyubeznik", "--format", "latex"],
}


def _stdout(argv: list[str]) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = pflyub.cli.main(argv)
    if code != 0:
        raise SystemExit(f"pflyub {' '.join(argv)} exited {code}")
    return buffer.getvalue().encode()


def digest_lines(n_max: int = N_MAX) -> list[str]:
    """The lines of the pinned file for 2 <= n <= n_max, in file order."""
    real = pflyub.lyubeznik.build_table
    # the four commands of one (n, k) run back to back, so each table is built once
    pflyub.lyubeznik.build_table = lru_cache(maxsize=1)(real)
    try:
        lines = []
        for n in range(2, n_max + 1):
            digests = {name: hashlib.sha256() for name in COMMANDS}
            for k in range(n // 2):
                for name, command in COMMANDS.items():
                    digests[name].update(_stdout(command + ["--n", str(n), "--k", str(k)]))
            lines += [f"{digest.hexdigest()}  {name} n={n}" for name, digest in digests.items()]
        return lines
    finally:
        pflyub.lyubeznik.build_table = real


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
        print(f"{PINNED.name}: every admitted table's output matches")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
