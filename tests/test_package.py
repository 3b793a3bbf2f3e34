"""The lazy package namespace, and which modules each CLI command loads."""

import os
import subprocess
import sys

import pytest

import pflyub

SRC = os.path.dirname(os.path.dirname(os.path.abspath(pflyub.__file__)))
VERIFY_ONLY = {"pflyub.verify", "pflyub.weights_bott", "pflyub.characters", "pflyub.ext_mult", "dataclasses"}

# Runs ``python -m pflyub.cli`` with this script's arguments, then prints the
# modules of VERIFY_ONLY that were loaded to stderr.
GUARD = f"""
import runpy, sys
sys.argv[0] = "pflyub"
try:
    runpy.run_module("pflyub.cli", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    assert stop.code == 0, stop.code
print("loaded:", sorted(set(sys.modules).intersection({sorted(VERIFY_ONLY)!r})), file=sys.stderr)
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
    ],
)
def test_table_commands_skip_the_verification_modules(argv):
    proc = run_python("-c", GUARD, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(("[", "{"))
    assert proc.stderr.strip() == "loaded: []"


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


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"module 'pflyub' has no attribute 'no_such_name'"):
        pflyub.no_such_name
