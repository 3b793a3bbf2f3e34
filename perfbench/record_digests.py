"""Record the sha256 digest of every output the benchmark checks.

Usage (from the root of a checkout): python3 perfbench/record_digests.py

Writes perfbench/digests.json from the CLI output of the current program:
every table with n <= 32 in each format, every k at n = 52 and 53 as JSON,
and each Gaussian operation of the benchmark, after checking each output
with the checks that need no digest.  Re-record only in a change
that means to alter those outputs, and say so.
"""

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, "src")

import pflyub.cli  # noqa: E402

import checks  # noqa: E402
from run import HERE, WORKLOADS, cli_args, digest_key  # noqa: E402


def cli_stdout(argv: list[str]) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = pflyub.cli.main(argv)
    if code != 0:
        raise SystemExit(f"pflyub {' '.join(argv)} exited {code}")
    return buffer.getvalue().encode()


def main() -> int:
    ops = [("table", n, k, fmt) for n in range(2, 33) for k in range(n // 2) for fmt in ("json", "csv", "latex")]
    ops += [("table", n, k, "json") for n in (52, 53) for k in range(n // 2)]
    for workload in WORKLOADS.values():
        ops += [op for op in workload.ops + workload.tiny_ops if op[0] == "gaussian"]
    digests = {}
    for op in ops:
        stdout = cli_stdout(cli_args(op))
        # record only outputs that pass the checks that do not need a digest
        if op[0] == "table":
            checks.check_table(stdout.decode(), op[3], op[1], op[2])
        else:
            checks.check_gaussian(stdout.decode(), op[1], op[2], 4)
        digests[digest_key(op)] = checks.digest(stdout)
    with open(os.path.join(HERE, "digests.json"), "w") as f:
        json.dump(digests, f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
