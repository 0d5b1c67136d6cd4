"""Command-line interface.

Exit codes: 0 on success (all triples contradicted / command completed),
1 on usage or input errors, 2 when a verification check fails.
"""

from __future__ import annotations

import argparse
import re
import sys
import time

from ._version import __version__
from .candidates import (
    DEFAULT_PRIMES,
    DEFAULT_T_MAX,
    CandidateFile,
    VerificationError,
    builtin_candidates,
    filter_report_chunks,
    load_candidates,
    table1,
)
from .exact import format_rational, parse_int, parse_rational
from .riemann_roch import rr_chi_hk, zero_chi
from .topology import BettiTable, betti_from_pair, euler_characteristic, salamon_defect


class CLIError(Exception):
    """Usage or input problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; 2 is reserved for failed
    # verification checks here, so route usage problems through CLIError.
    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        # let values like -8/5 and -1,0 pass as arguments, not option strings
        self._negative_number_matcher = re.compile(r"^-[0-9]")

    def error(self, message: str) -> None:  # type: ignore[override]
        raise CLIError(message)


def _integer(text: str) -> int:
    """argparse type: one integer under the grammar of exact.parse_int
    (optional sign, ASCII digits, spaces and tabs around them)."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects an integer, got {text!r}"
        ) from None


def _integers(text: str) -> tuple[int, ...]:
    """argparse type: comma-separated integers as in _integer; "" is the
    empty list, but an empty item inside a list is an error."""
    try:
        return tuple(parse_int(item) for item in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated integers, got {text!r}"
        ) from None


def _candidates(args: argparse.Namespace) -> CandidateFile:
    if args.candidates is None:
        return builtin_candidates()
    return load_candidates(args.candidates)


def _warn_invalid(cf: CandidateFile) -> None:
    for row in cf.flagged:
        print(
            f"warning: skipping row {row.line} ({row.b2},{row.b3}): {row.error}",
            file=sys.stderr,
        )


def _cmd_table1(args: argparse.Namespace) -> int:
    cf = _candidates(args)
    _warn_invalid(cf)
    sys.stdout.write(table1(cf, args.format))
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    cf = _candidates(args)
    chunks = filter_report_chunks(cf)  # renders the rows; --out is opened after
    with open(args.out, "wb") as out:
        out.writelines(chunks)
    print(f"wrote filter report for {len(cf.b2s) + len(cf.flagged)} rows to {args.out}")
    return 0


def _cmd_prove(args: argparse.Namespace) -> int:
    from .pipeline import prove, report_chunks  # only prove imports the sweep

    cf = _candidates(args)
    _warn_invalid(cf)
    started = time.perf_counter()
    certs = prove(cf, primes=args.primes, t_max=args.t_max)
    elapsed = time.perf_counter() - started
    chunks = report_chunks(certs, args.format, input_digest=cf.digest)
    with open(args.out, "wb") as out:  # only once every check has passed
        out.writelines(chunks)
    counts = certs.branch_counts()
    print(
        f"contradicted {len(certs)} (candidate, prime, t) triples in "
        f"{elapsed:.3f}s: "
        + ", ".join(f"{name}={count}" for name, count in counts.items())
    )
    print(f"wrote {args.format} report to {args.out}")
    return 0


def _cmd_rr(args: argparse.Namespace) -> int:
    lam = parse_rational(getattr(args, "lambda"))
    chi = rr_chi_hk(args.c4, lam)
    d, sqrt, roots = zero_chi(args.c4)
    print(f"chi = {format_rational(chi)}")
    print(f"delta = {format_rational(d)}")
    print(f"delta_sqrt = {format_rational(sqrt) if sqrt is not None else 'none'}")
    print(
        "lambda_roots = "
        + (", ".join(format_rational(r) for r in sorted(roots)) if roots else "none")
    )
    return 0


def _cmd_transport(args: argparse.Namespace) -> int:
    from .quotient import (
        FixedLocusProfile,
        lefschetz_euler_fixed,
        orbifold_salamon_defect,
        transport_betti,
    )

    if len(args.betti) != 2:
        raise CLIError(f"--betti expects 'b2,b3', got {len(args.betti)} integers")
    b2, b3 = args.betti
    profile = FixedLocusProfile(p=args.p, m=args.m, k=args.k, t=args.t)
    bY = betti_from_pair(b2, b3)
    bW = BettiTable(transport_betti(bY, profile))
    print("bY =", ",".join(str(b) for b in bY))
    print("bW =", ",".join(str(b) for b in bW))
    print(f"salamon_defect_bW = {salamon_defect(bW)}")
    print(f"orbifold_salamon_defect = {orbifold_salamon_defect(bW, profile)}")
    print(f"euler_bY = {euler_characteristic(bY)}")
    print(f"euler_bW = {euler_characteristic(bW)}")
    print(f"chi_top_fixed_locus = {lefschetz_euler_fixed(profile)}")
    return 0


_CANDIDATES_HELP = "candidate file (built-in fixture when omitted)"


def build_parser() -> _Parser:
    parser = _Parser(
        prog="hk4verify",
        description=(
            "Exact-arithmetic verification of the contradiction pipeline for "
            "numerically trivial automorphisms of hyperkahler 4-folds."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser(
        "table1", help="render the accepted (c2sq, c4, b2, b3) rows"
    )
    p_table.add_argument("--candidates", help=_CANDIDATES_HELP)
    p_table.add_argument(
        "--format", choices=("md", "csv", "json"), default="md"
    )
    p_table.set_defaults(func=_cmd_table1)

    p_filter = sub.add_parser(
        "filter", help="write the full per-candidate filter report (JSON)"
    )
    p_filter.add_argument("--candidates", help=_CANDIDATES_HELP)
    p_filter.add_argument("--out", required=True, help="output path")
    p_filter.set_defaults(func=_cmd_filter)

    p_prove = sub.add_parser(
        "prove", help="replay the contradiction for every (candidate, p, t)"
    )
    p_prove.add_argument("--candidates", help=_CANDIDATES_HELP)
    p_prove.add_argument(
        "--primes",
        type=_integers,
        default=DEFAULT_PRIMES,
        help="comma-separated primes to sweep (default: 2,3,5,7,11,13)",
    )
    p_prove.add_argument(
        "--t-max", type=_integer, default=DEFAULT_T_MAX,
        help="largest torus count to sweep (default: 20)",
    )
    p_prove.add_argument("--out", required=True, help="report output path")
    p_prove.add_argument(
        "--format", choices=("json", "csv", "md"), default="json"
    )
    p_prove.set_defaults(func=_cmd_prove)

    p_rr = sub.add_parser(
        "rr", help="evaluate chi at a characteristic value, with discriminant"
    )
    p_rr.add_argument("--c4", type=_integer, required=True)
    p_rr.add_argument("--lambda", required=True, help="rational p/q")
    p_rr.set_defaults(func=_cmd_rr)

    p_tr = sub.add_parser(
        "transport", help="transport a Betti table through a quotient resolution"
    )
    p_tr.add_argument("--p", type=_integer, required=True, help="prime order")
    p_tr.add_argument("--m", type=_integer, default=0, help="isolated fixed points")
    p_tr.add_argument("--k", type=_integer, default=0, help="fixed K3 components")
    p_tr.add_argument("--t", type=_integer, default=0, help="fixed torus components")
    p_tr.add_argument(
        "--betti", type=_integers, required=True, help="pair b2,b3"
    )
    p_tr.set_defaults(func=_cmd_transport)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except (CLIError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
