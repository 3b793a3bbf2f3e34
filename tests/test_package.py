"""The lazy package namespace, which modules each CLI command loads, and that
README's commands and the benchmark reach every public function and class."""

import ast
import gc
import itertools
import json
import os
import subprocess
import sys

import pytest

import pflyub
from pflyub.cli import main
from test_readme import EXAMPLES

SRC = os.path.dirname(os.path.dirname(os.path.abspath(pflyub.__file__)))
VERIFY_ONLY = {"pflyub.verify", "pflyub.weights_bott", "pflyub.characters", "pflyub.ext_mult", "dataclasses"}
# the argument parser and JSON encoder of the standard library, what argparse
# loads, and typing with the re and enum it loads
STDLIB_SKIPPED = {"argparse", "gettext", "locale", "json", "typing", "re", "enum"}

# Runs ``python -m pflyub.cli`` with this script's arguments, then prints the
# modules of VERIFY_ONLY and STDLIB_SKIPPED that were loaded to stderr.  Run it
# under ``-S``: a ``.pth`` file that ``site`` reads may import any of them.
GUARD = f"""
import runpy, sys
sys.argv[0] = "pflyub"
try:
    runpy.run_module("pflyub.cli", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    assert stop.code == 0, stop.code
print("loaded:", sorted(set(sys.modules).intersection({sorted(VERIFY_ONLY | STDLIB_SKIPPED)!r})), file=sys.stderr)
"""


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize(
    "argv",
    [
        ["lyubeznik", "--n", "6", "--k", "1"],
        ["genfun", "--n", "6", "--k", "1"],
        ["gaussian", "--a", "4", "--b", "2", "--power", "4"],
        ["localcoh", "--parity", "odd", "--m", "2", "--object", "D", "--index", "1"],
    ],
)
def test_table_commands_skip_the_verification_modules(argv):
    proc = run_python("-S", "-c", GUARD, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(("[", "{"))
    assert proc.stderr.strip() == "loaded: []"


def test_bott_loads_weights_bott_alone():
    # of the modules the guard lists, bott loads weights_bott alone; it also needs partitions and polyring
    proc = run_python("-S", "-c", GUARD, "bott", "--gamma=-3,-3,0")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "degree 2, weight -2,-2,-2\n"
    assert proc.stderr.strip() == "loaded: ['pflyub.weights_bott']"


def test_verify_runs_without_dataclasses():
    proc = run_python("-c", GUARD, "verify", "--n-max", "2")
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stderr.strip().removeprefix("loaded: "))
    assert "pflyub.characters" in loaded
    assert "dataclasses" not in loaded


# Runs ``python -m pflyub.cli gaussian --a 4 --b 2`` in a fresh interpreter,
# then prints its exit code and the collector's freeze count to stderr.
FREEZE = """
import gc, runpy, sys
assert gc.get_freeze_count() == 0
sys.argv = ["pflyub", "gaussian", "--a", "4", "--b", "2"]
try:
    runpy.run_module("pflyub.cli", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    print(stop.code, gc.get_freeze_count(), file=sys.stderr)
"""


def test_the_program_entry_freezes_the_start_up_heap():
    proc = run_python("-c", FREEZE)
    code, frozen = proc.stderr.split()
    assert code == "0" and int(frozen) > 0, proc.stderr


def test_main_called_with_a_list_freezes_nothing(capsys):
    frozen = gc.get_freeze_count()
    assert main(["gaussian", "--a", "4", "--b", "2"]) == 0
    assert gc.get_freeze_count() == frozen


# small outputs, under the buffer size: a buffered stdout holds them until the command flushes
SMALL_OUTPUTS = [["gaussian", "--a", "4", "--b", "2"], ["bott", "--gamma=-1,-1,0"]]
# stdout buffered (the default) and unbuffered
BUFFERING = [{}, {"PYTHONUNBUFFERED": "1"}]


def cli_env(unbuffered):
    base = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    return dict(base, PYTHONPATH=SRC, **unbuffered)


def test_closed_stdout_exits_141_with_nothing_on_stderr():
    # 0.7-2.2 MB each: a table in each format, and one polynomial; the output fills the pipe long
    # before the reader leaves; an unbuffered stdout writes it in one call, which the pipe takes
    # only part of
    table = ["lyubeznik", "--n", "52", "--k", "20", "--format"]
    cases = [
        (table + ["json"], b'{"n": 52, '),
        (table + ["csv"], b"i,j,lambda"),
        (table + ["latex"], b"\\begin{tab"),
        (["gaussian", "--a", "200", "--b", "100", "--power", "4"], b'[{"eq": 0,'),
    ]
    for unbuffered, (args, head) in itertools.product(BUFFERING, cases):
        argv = [sys.executable, "-m", "pflyub.cli", *args]
        with subprocess.Popen(argv, env=cli_env(unbuffered), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(10) == head, (args, unbuffered)
            proc.stdout.close()
            assert proc.stderr.read() == b"", (args, unbuffered)
            assert proc.wait(timeout=120) == 141, (args, unbuffered)
    # the small outputs, with the reader gone before the command starts
    for unbuffered, args in itertools.product(BUFFERING, SMALL_OUTPUTS):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "wb") as stdout:
            argv = [sys.executable, "-m", "pflyub.cli", *args]
            proc = subprocess.run(argv, env=cli_env(unbuffered), stdout=stdout, stderr=subprocess.PIPE, timeout=120)
        assert (proc.returncode, proc.stderr) == (141, b""), (args, unbuffered)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_exits_3_in_one_line():
    for unbuffered, args in itertools.product(BUFFERING, SMALL_OUTPUTS):
        with open("/dev/full", "wb") as stdout:
            argv = [sys.executable, "-m", "pflyub.cli", *args]
            proc = subprocess.run(argv, env=cli_env(unbuffered), stdout=stdout, stderr=subprocess.PIPE, timeout=120)
        assert proc.returncode == 3, (args, unbuffered, proc.stderr)
        assert proc.stderr == b"internal error: OSError: [Errno 28] No space left on device\n", (args, unbuffered)


def test_bare_import_loads_no_submodule():
    proc = run_python("-c", "import sys, pflyub; print(sorted(m for m in sys.modules if m.startswith('pflyub.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_public_name_resolves_to_its_home_module():
    for name in pflyub.__all__:
        value = getattr(pflyub, name)
        assert value.__module__.startswith("pflyub.")
        assert value is getattr(sys.modules[value.__module__], name)


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from pflyub import *", namespace)
    assert set(pflyub.__all__) <= set(namespace)
    assert set(pflyub.__all__) <= set(dir(pflyub))
    assert "__version__" in dir(pflyub)


# Runs the README commands, given as a JSON list of [argv, exit code], and the
# benchmark's library path (`build_table`, then `to_obj`, `to_csv` and
# `to_latex`) under sys.setprofile, and prints the public functions, and the
# methods of the public classes outside `errors`, whose code never ran; a method
# is named once, by its code, so an alias adds no name.
REACH = """
import contextlib, importlib, inspect, io, json, pkgutil, sys
import pflyub
from pflyub.cli import main

COMMANDS = json.loads(sys.argv[1])
entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv, code in COMMANDS:
        assert main(argv) == code, argv
    for n in range(2, 9):
        for k in range(n // 2):
            table = pflyub.build_table(n, k)
            json.dumps(table.to_obj()), table.to_csv(), table.to_latex()
sys.setprofile(None)


unreached = []
methods = {}  # code -> "module.Class.method"
for info in pkgutil.iter_modules(pflyub.__path__):
    module = importlib.import_module("pflyub." + info.name)
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value) and inspect.unwrap(value).__code__ not in entered:
            unreached.append(info.name + "." + name)
        elif inspect.isclass(value) and info.name != "errors":
            for member in vars(value).values():
                member = getattr(member, "fget", None) or getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    methods[member.__code__] = info.name + "." + member.__qualname__
unreached += [name for code, name in methods.items() if code not in entered]
print(json.dumps(sorted(unreached)))
"""

# The methods no command or benchmark path enters, each kept for a reason.
UNREACHED_METHODS = [
    "lyubeznik.LyubeznikTable.__repr__",  # the text pytest shows for a failure
    "polyring.QPoly.__neg__",  # read by name in perfbench/spans.py
    "polyring.QPoly.__pow__",  # read by name in perfbench/spans.py
    "polyring.QPoly.__repr__",  # the text pytest shows for a failure
    "polyring.QPoly.__rsub__",  # read by name in perfbench/spans.py
    "polyring.QPoly.__sub__",  # read by name in perfbench/spans.py
]


def test_every_public_function_and_class_is_reached_by_a_command_or_the_benchmark():
    proc = run_python("-c", REACH, json.dumps([[example.argv, example.code] for example in EXAMPLES]))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == UNREACHED_METHODS


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"module 'pflyub' has no attribute 'no_such_name'"):
        pflyub.no_such_name
