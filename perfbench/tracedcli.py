"""Run the pflyub CLI with spans around every layer call.

Usage: python perfbench/tracedcli.py SPANS_FILE <pflyub arguments>...

Behaves as ``python -m pflyub.cli <pflyub arguments>`` and, on the way out,
writes the spans recorded during the command to SPANS_FILE.
"""

import json
import sys
import types

import spans


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    import pflyub.cli

    if argv[:1] == ["lyubeznik"]:
        # the CLI serialises a table with json.dumps; time that call where the CLI makes it
        pflyub.cli.json = types.SimpleNamespace(dumps=tracer.wrap(json.dumps, "json.dumps"))

    try:
        return pflyub.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.write(path)


if __name__ == "__main__":
    sys.exit(main())
