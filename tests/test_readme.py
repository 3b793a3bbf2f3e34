"""Every ``$ pflyub`` example in README.md, run through ``cli.main``.

An example is a ``$ pflyub ...`` line in a ``console`` block with the lines
under it, up to the next ``$ `` line or the end of the block.  The command
exits 0 unless its line ends in ``# exit N``; the lines shown are its stdout
when it exits 0 and its stderr otherwise, byte for byte, and the other stream
is empty.  A last shown line ``...`` stands for the rest of the output.  A
mismatch names the README line that differs.
"""

import re
import shlex
from itertools import zip_longest
from pathlib import Path
from typing import NamedTuple

import pytest

from pflyub import cli

README = Path(__file__).resolve().parent.parent / "README.md"
COMMAND = re.compile(r"\$ pflyub(?P<args>.*?)(?:\s+# exit (?P<code>\d+))?")


class Example(NamedTuple):
    line: int  # the README line number of the command
    argv: list[str]
    code: int
    shown: list[str]


def read_examples() -> list[Example]:
    examples, current, console = [], None, False
    for number, line in enumerate(README.read_text().splitlines(), 1):
        if line.startswith("```"):
            console, current = line == "```console", None
        elif console and line.startswith("$ "):
            match = COMMAND.fullmatch(line)
            assert match, f"README.md:{number}: a console command that is not pflyub: {line!r}"
            current = Example(number, shlex.split(match["args"]), int(match["code"] or 0), [])
            examples.append(current)
        elif console:
            assert current, f"README.md:{number}: output before any command: {line!r}"
            current.shown.append(line)
    return examples


EXAMPLES = read_examples()


@pytest.mark.parametrize("example", EXAMPLES, ids=[" ".join(["pflyub", *example.argv]) for example in EXAMPLES])
def test_readme_example(example, capsys):
    code = cli.main(example.argv)
    out, err = capsys.readouterr()
    where = f"README.md:{example.line}"
    assert code == example.code, f"{where} shows exit {example.code}, got {code}: {out=} {err=}"
    printed, other = (out, err) if code == 0 else (err, out)
    assert other == "", f"{where}: the other stream holds {other!r}"
    shown, printed = example.shown + [""], printed.split("\n")
    if example.shown[-1:] == ["..."]:
        shown = example.shown[:-1]
        printed = printed[: len(shown)]
    for number, (want, got) in enumerate(zip_longest(shown, printed), example.line + 1):
        assert want == got, f"README.md:{number} shows {want!r}, the command prints {got!r}"


def test_the_usage_block_is_the_help_text():
    (usage,) = [example for example in EXAMPLES if example.argv == ["--help"]]
    assert "\n".join(usage.shown) + "\n" == cli.__doc__
