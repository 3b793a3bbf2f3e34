"""Library worker for the ``tables_sweep`` workload.

Usage: python perfbench/libworker.py [SPANS_DIR]

Reads one pass per line from stdin, as a JSON list ``[[n, k], ...]`` of
tables, and answers each with one line on stdout before reading the next, so
the caller can run other operations between passes while this process stays
warm.  One process runs every pass, through the public API: ``build_table``,
then ``json.dumps(to_obj())``, ``to_csv()`` and ``to_latex()``.  Only those
calls are timed; the outputs of each table are checked right after it.  The
answer to a pass is ``{"ops": [[seconds, status, error], ...],
"items": entries, "bytes": output bytes}`` with status ``ok``, ``failed``
(raised) or ``wrong`` (failed a check).  With SPANS_DIR, spans are recorded
and each pass writes them to SPANS_DIR/pass-<i>.spans.
"""

import json
import os
import sys
import time
import traceback

import checks
import run
import spans

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def check_table(n, k, outputs, digests, memo) -> int:
    """Check the three formats of one table against their recorded digests
    and, once per process, by parsing them; return the entry count."""
    for fmt, text in outputs.items():
        checks.check_digest(run.digest_key(("table", n, k, fmt)), text.encode(), digests)
    if (n, k) not in memo:
        found = [checks.check_table(text, fmt, n, k) for fmt, text in outputs.items()]
        checks.require(all(f == found[0] for f in found), f"table({n},{k}): JSON, CSV and LaTeX disagree")
        memo[(n, k)] = len(found[0])
    return memo[(n, k)]


def main() -> int:
    spans_dir = sys.argv[1] if len(sys.argv) > 1 else None
    with open(DIGESTS) as f:
        digests = json.load(f)
    dumps = json.dumps
    tracer = None
    if spans_dir:
        tracer = spans.Tracer()
        spans.install(tracer)
        dumps = tracer.wrap(json.dumps, "json.dumps")
    import pflyub

    clock = time.perf_counter
    memo = {}
    for index, line in enumerate(iter(sys.stdin.readline, "")):
        tables = json.loads(line)
        ops = []
        items = out_bytes = 0
        for n, k in tables:
            start = clock()
            try:
                table = pflyub.build_table(n, k)
                outputs = {"json": dumps(table.to_obj()) + "\n", "csv": table.to_csv(), "latex": table.to_latex()}
            except Exception:
                ops.append([clock() - start, "failed", traceback.format_exc(limit=-1).strip()])
                continue
            seconds = clock() - start
            try:
                entries = check_table(n, k, outputs, digests, memo)
            except (checks.CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
                ops.append([seconds, "wrong", f"table({n},{k}): {type(exc).__name__}: {exc}"])
                continue
            ops.append([seconds, "ok", None])
            items += entries
            out_bytes += sum(len(text.encode()) for text in outputs.values())
        if tracer is not None:
            tracer.write(os.path.join(spans_dir, f"pass-{index}.spans"))
            tracer.reset()
        print(json.dumps({"ops": ops, "items": items, "bytes": out_bytes}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
