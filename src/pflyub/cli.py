"""Command-line interface of pflyub.

usage: pflyub COMMAND --option VALUE ...

    lyubeznik --n N --k K [--format json|csv|latex]   table to stdout
    genfun    --n N --k K                             L_k(q, w) as JSON terms
    localcoh  --parity even|odd --m M --object Q|D|pfpole --index P
    gaussian  --a A --b B [--power P]
    bott      --gamma g1,g2,...,gn
    verify    [--n-max N]

An option takes its value as the next word (--gamma -3,-3,0) or after "="
(--gamma=-3,-3,0); the last of repeated options wins, and option names must
match exactly.  -h or --help prints this text.

Exit codes: 0 success, 1 verification failure, 2 argument error, 3 internal
error, 141 stdout closed before the output was written (as by ``| head``).
An argument error or an internal error (an unexpected exception) is one line
on stderr; a closed stdout prints nothing.
"""

from __future__ import annotations

import gc
import os
import sys

from .errors import VerificationError

# command -> {option: (int, a tuple of its choices, or str; its default, None if required)}
_OPTIONS = {
    "lyubeznik": {"n": (int, None), "k": (int, None), "format": (("json", "csv", "latex"), "json")},
    "genfun": {"n": (int, None), "k": (int, None)},
    "localcoh": {
        "parity": (("even", "odd"), None),
        "m": (int, None),
        "object": (("Q", "D", "pfpole"), None),
        "index": (int, None),
    },
    "gaussian": {"a": (int, None), "b": (int, None), "power": (int, 1)},
    "bott": {"gamma": (str, None)},
    "verify": {"n-max": (int, 13)},
}
_HELP = ("-h", "--help")


def _parse(argv: list[str]) -> tuple[str, dict] | None:
    """(command, {option: value}) as ``_OPTIONS`` reads ``argv``, or None for a
    -h/--help in the place of a command or an option; any other malformed
    word raises ValueError."""
    command = argv[0] if argv else None
    if command in _HELP:
        return None
    if command not in _OPTIONS:
        raise ValueError(f"expected a command ({', '.join(_OPTIONS)}), got {command!r}")
    spec, given, words = _OPTIONS[command], {}, iter(argv[1:])
    for word in words:
        if word in _HELP:
            return None
        option, eq, value = word[2:].partition("=")
        if word[:2] != "--" or option not in spec:
            raise ValueError(f"{command}: unrecognized argument {word!r}")
        given[option] = value if eq else next(words, None)
        if given[option] is None:
            raise ValueError(f"{command}: --{option} expects a value")
    opts = {}
    for option, (kind, default) in spec.items():
        value = opts[option] = given.get(option, default)
        if value is None:
            raise ValueError(f"{command}: --{option} is required")
        if kind is int and option in given:
            try:
                opts[option] = int(value)
            except ValueError:
                raise ValueError(f"{command}: --{option}: invalid int value {value!r}") from None
        elif isinstance(kind, tuple) and value not in kind:
            raise ValueError(f"{command}: --{option}: invalid choice {value!r} (choose from {', '.join(kind)})")
    return command, opts


def main(argv: list[str] | None = None) -> int:
    # shutdown ends with a full collection over every tracked object, so the program entry freezes
    # the start-up heap first: no collection rescans it, and refcounting still frees it; main(argv)
    # called in-process with a list leaves the caller's collector as it was
    if argv is None:  # this process's own command line
        gc.freeze()
        argv = sys.argv[1:]
    try:
        parsed = _parse(argv)
        code, text = (0, __doc__) if parsed is None else _dispatch(*parsed)
        _write(text)
        return code
    except (ValueError, OverflowError) as exc:  # OverflowError: a size past sys.maxsize
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader left; 128 + SIGPIPE, as a shell reports it
        return 141
    except Exception as exc:  # a bug: neither a bad argument nor a failed check
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _write(text: str) -> None:
    """Write all of ``text`` to stdout's binary layer, if it has one, and flush
    it, until it takes the last byte or raises (BrokenPipeError once the reader
    has left, OSError on a full disk): an unbuffered stdout may take part of a
    write that its text layer drops, and a buffered one holds a small output
    until it is flushed."""
    sys.stdout.flush()
    stream, data = getattr(sys.stdout, "buffer", None), memoryview(text.encode())
    if stream is None:  # a text-only stdout, such as a StringIO
        stream, data = sys.stdout, text
    try:
        while data:
            data = data[stream.write(data) :]
        stream.flush()
    except OSError:
        # point fd 1 at /dev/null, so that the exit flush of stdout cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise


# Each command imports the modules it runs inside its branch, so start-up
# loads only those (``verify`` loads every module).
def _dispatch(command: str, opts: dict) -> tuple[int, str]:
    """(exit code, stdout text) of ``command``; ``main`` writes the text."""
    if command in ("lyubeznik", "genfun"):
        from .lyubeznik import build_table

        table = build_table(opts["n"], opts["k"])
        emit = {
            "json": lambda: table.to_json() + "\n",
            "csv": table.to_csv,
            "latex": table.to_latex,
            "genfun": lambda: table.to_genfun_json() + "\n",
        }
        return 0, emit[opts.get("format", "genfun")]()

    if command == "localcoh":
        from .origin_localcoh import h0_D_even, h0_D_odd, h0_pf_pole, h0_Q

        key = (opts["parity"], opts["object"])
        table = {
            ("even", "Q"): h0_Q,
            ("even", "D"): h0_D_even,
            ("even", "pfpole"): h0_pf_pole,
            ("odd", "D"): h0_D_odd,
        }
        if key not in table:
            raise ValueError(f"no {opts['object']} family on the {opts['parity']} side")
        return 0, table[key](opts["m"], opts["index"]).to_json() + "\n"

    if command == "gaussian":
        from .partitions import gaussian_binomial

        return 0, gaussian_binomial(opts["a"], opts["b"], opts["power"]).to_json() + "\n"

    if command == "bott":
        from .weights_bott import bott

        try:
            gamma = [int(part) for part in opts["gamma"].split(",")]
        except ValueError:
            raise ValueError(f"bott: --gamma: invalid int list {opts['gamma']!r}") from None
        degree, weight = bott(gamma)
        return 0, "zero\n" if degree is None else f"degree {degree}, weight {','.join(map(str, weight))}\n"

    # verify, the one command left
    import json

    from .verify import verify_all

    report = verify_all(opts["n-max"])
    lines = []
    for suite in report["suites"]:
        status = "PASS" if suite["pass"] else "FAIL"
        line = f"{suite['name']}: {status} ({suite['checked']} checks)"
        if suite["error"]:
            line += f" -- {suite['error']}"
        lines.append(line + "\n")
    return (0 if report["pass"] else 1), "".join(lines) + json.dumps(report) + "\n"


if __name__ == "__main__":
    sys.exit(main())
