"""Command-line interface.

Subcommands:

    lyubeznik --n N --k K [--format json|csv|latex]   table to stdout
    genfun    --n N --k K                             L_k(q, w) as JSON terms
    localcoh  --parity even|odd --m M --object Q|D|pfpole --index P
    gaussian  --a A --b B [--power 4]
    bott      --gamma g1,g2,...,gn
    verify    [--n-max N]

Exit codes: 0 success, 1 verification failure, 2 argument error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import VerificationError
from .lyubeznik import build_table, verify_all
from .origin_localcoh import h0_D_even, h0_D_odd, h0_pf_pole, h0_Q
from .partitions import gaussian_binomial
from .polyring import BiLaurentPoly
from .weights_bott import bott


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pflyub",
        description="Lyubeznik numbers of Pfaffian rings and the combinatorics behind them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("lyubeznik", help="emit the table of Lyubeznik numbers")
    p_table.add_argument("--n", type=int, required=True, help="matrix size n >= 2")
    p_table.add_argument("--k", type=int, required=True, help="rank parameter, 0 <= k < n/2")
    p_table.add_argument("--format", choices=("json", "csv", "latex"), default="json")

    p_gen = sub.add_parser("genfun", help="emit the generating function L_k(q, w)")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--k", type=int, required=True)

    p_loc = sub.add_parser("localcoh", help="origin local cohomology of one module")
    p_loc.add_argument("--parity", choices=("even", "odd"), required=True)
    p_loc.add_argument("--m", type=int, required=True)
    p_loc.add_argument("--object", choices=("Q", "D", "pfpole"), required=True)
    p_loc.add_argument("--index", type=int, required=True)

    p_gauss = sub.add_parser("gaussian", help="Gaussian binomial coefficient")
    p_gauss.add_argument("--a", type=int, required=True)
    p_gauss.add_argument("--b", type=int, required=True)
    p_gauss.add_argument("--power", type=int, default=1, help="substitute q -> q^power")

    p_bott = sub.add_parser("bott", help="run Bott's algorithm on a weight")
    p_bott.add_argument("--gamma", required=True, help="comma-separated integers")

    p_verify = sub.add_parser("verify", help="run the full verification suite")
    p_verify.add_argument("--n-max", type=int, default=13)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, KeyError, OverflowError) as exc:  # OverflowError: a size past sys.maxsize
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "lyubeznik":
        table = build_table(args.n, args.k)
        if args.format == "json":
            print(table.to_json())
        elif args.format == "csv":
            sys.stdout.write(table.to_csv())
        else:
            sys.stdout.write(table.to_latex())
        return 0

    if args.command == "genfun":
        print(json.dumps(BiLaurentPoly(build_table(args.n, args.k).entries).to_obj()))
        return 0

    if args.command == "localcoh":
        key = (args.parity, args.object)
        table = {
            ("even", "Q"): h0_Q,
            ("even", "D"): h0_D_even,
            ("even", "pfpole"): h0_pf_pole,
            ("odd", "D"): h0_D_odd,
        }
        if key not in table:
            raise ValueError(f"no {args.object} family on the {args.parity} side")
        print(json.dumps(table[key](args.m, args.index).to_obj()))
        return 0

    if args.command == "gaussian":
        print(json.dumps(gaussian_binomial(args.a, args.b, args.power).to_obj()))
        return 0

    if args.command == "bott":
        gamma = [int(part) for part in args.gamma.split(",")]
        result = bott(gamma)
        if result.is_zero:
            print("zero")
        else:
            entries = ",".join(str(e) for e in result.weight.entries)
            print(f"degree {result.degree}, weight {entries}")
        return 0

    if args.command == "verify":
        report = verify_all(args.n_max)
        for suite in report["suites"]:
            status = "PASS" if suite["pass"] else "FAIL"
            line = f"{suite['name']}: {status} ({suite['checked']} checks)"
            if suite["error"]:
                line += f" -- {suite['error']}"
            print(line)
        print(json.dumps(report))
        return 0 if report["pass"] else 1

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
