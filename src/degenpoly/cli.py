"""Command-line front end: family tables and the identity verification suite.

The library returns values, reports and the family catalog; every output
format (JSON, CSV and the ``list-families`` table) is written here.
Output is deterministic byte-for-byte across runs: fixed JSON field order,
graded-lex polynomial term order, CSV with a header row.  Wall-clock
timings are therefore omitted unless ``--timings`` is given.

JSON is byte-identical to ``json.dumps(payload, indent=2)`` with each
``BiPoly`` value replaced by its ``to_records()``.  A polynomial's records
are written by ``_poly_text`` straight from its integer terms, building no
per-term dict.  A verification report goes through the generic writer
``_json_text``; a compute table writes its header through ``_json_text``
and each row with one f-string, and each text is joined once.  The parser
is built once per process, on the first ``run``, and reused by every later
request.

Exit codes: 0 success / all identities pass, 1 any verification failure,
2 usage error.  An unknown argument, a flag outside its type or size bound,
or one the request cannot honour prints the subcommand's usage line; ``run``
reports a request the library refuses, or an unwritable ``--output``, as
``error: ...``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable

from .bipoly import BiPoly
from .families import (
    CATALOG,
    FamilyId,
    FamilySpec,
    Param,
    build_egf,
    central_factorial_power,
    triangle_row,
)
from .identities import ALIASES, IdentityId, VerificationReport, verify, verify_all


#: Largest accepted --max-n and |--order|, well above the ranges of the profiles and the tests.
SIZE_LIMIT = 64

#: Longest rational literal, and largest exponent in one: Fraction("1e999999999") has no bound.
LITERAL_LIMIT = 64


def _rational(text: str) -> Fraction:
    exponent = text.lower().partition("e")[2]
    try:
        if len(text) > LITERAL_LIMIT or (exponent and abs(int(exponent)) > LITERAL_LIMIT):
            raise argparse.ArgumentTypeError(f"rational literal above the limit {LITERAL_LIMIT}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational literal: {text!r}") from exc


def _symbolic_or_rational(text: str) -> str | Fraction:
    if text == "symbolic":
        return "symbolic"
    return _rational(text)


def _bounded(parse: Callable[[str], int | Fraction], low: int) -> Callable[[str], int | Fraction]:
    """An argparse type: ``parse``, then reject a value outside ``low..SIZE_LIMIT``."""

    def bounded(text: str) -> int | Fraction:
        value = parse(text)
        if value > SIZE_LIMIT:
            raise argparse.ArgumentTypeError(f"{value} is above the limit {SIZE_LIMIT}")
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below the limit {low}")
        return value

    bounded.__name__ = parse.__name__  # argparse names the type in "invalid int value: ..."
    return bounded


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by later ones.

    Parsing and ``parser.error`` leave the parser unchanged, so one parser
    serves every request of the process.  ``--max-n`` and ``--order`` are
    bounded by their types, and each subcommand stores its own parser as
    ``args.subparser`` for later usage errors, unrecognized arguments too.
    """
    parser = argparse.ArgumentParser(
        prog="degenpoly",
        description="Exact tables and identity verification for degenerate "
        "special-polynomial families over Q[l, x].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="tabulate one family")
    comp.set_defaults(subparser=comp)
    comp.add_argument(
        "--family",
        required=True,
        choices=[f.value for f in FamilyId],
        help="family name (see list-families)",
    )
    comp.add_argument(
        "--max-n", type=_bounded(int, 0), required=True, help="largest index, inclusive"
    )
    comp.add_argument(
        "--order",
        type=_bounded(_rational, -SIZE_LIMIT),
        help="order parameter (rational; default 1); a negative fraction as --order=-1/2",
    )
    comp.add_argument(
        "--lambda",
        dest="lam",
        type=_symbolic_or_rational,
        help="'symbolic' (default) or a rational literal; a negative fraction as --lambda=-1/3",
    )
    comp.add_argument(
        "--x",
        dest="x_arg",
        type=_symbolic_or_rational,
        help="'symbolic' (default) or a rational literal; a negative fraction as --x=-5/3",
    )
    comp.add_argument("--format", choices=["json", "csv"], default="json")
    comp.add_argument("--output", "-o", default=None, help="output path (default: stdout)")

    ver = sub.add_parser(
        "verify",
        help="verify identities",
        epilog="identity names: "
        + ", ".join([i.value for i in IdentityId] + sorted(ALIASES) + ["all"]),
    )
    ver.set_defaults(subparser=ver)
    ver.add_argument("--identity", required=True, help="identity name or 'all'")
    ver.add_argument("--max-n", type=_bounded(int, 0), help="largest index, inclusive")
    ver.add_argument(
        "--order", type=_bounded(int, -SIZE_LIMIT), help="largest order (r or k), inclusive"
    )
    ver.add_argument("--profile", choices=["quick", "full"], default="full")
    ver.add_argument("--format", choices=["json", "csv"], default="json")
    ver.add_argument("--timings", action="store_true", help="include wall-clock times")
    ver.add_argument("--output", "-o", default=None, help="output path (default: stdout)")

    listing = sub.add_parser("list-families", help="print the family catalog")
    listing.set_defaults(subparser=listing)
    return parser


# -- compute -----------------------------------------------------------------


def _compute_rows(args: argparse.Namespace) -> tuple[str, list[tuple]]:
    """The table's kind and its rows ``(n, value)``, or ``(n, row)`` in a triangle."""
    family = FamilyId(args.family)
    info = CATALOG[family]
    max_n = args.max_n
    argument = Param.symbolic() if args.x_arg == "symbolic" else Param.numeric(args.x_arg)
    lam_mode = Param.symbolic() if args.lam == "symbolic" else Param.numeric(args.lam)

    if info.kind == "polynomial":
        return "polynomial", [(n, central_factorial_power(n)) for n in range(max_n + 1)]

    if info.kind == "triangle":
        return "triangle", [(n, triangle_row(family, n, lam_mode)) for n in range(max_n + 1)]

    series = build_egf(FamilySpec(family, args.order, argument, lam_mode), max_n)
    return "sequence", [(n, series.value(n)) for n in range(max_n + 1)]


def _render_compute(args: argparse.Namespace, kind: str, rows: list[tuple]) -> str:
    if args.format == "json":
        header = {
            "family": args.family,
            "kind": kind,
            "order": str(args.order),
            "lambda": "symbolic" if args.lam == "symbolic" else str(args.lam),
            "x": "symbolic" if args.x_arg == "symbolic" else str(args.x_arg),
            "max_n": args.max_n,
        }
        # The header without its closing "\n}", then the "values" list, one
        # f-string per entry dict; rows start at n = 0, which has entry 0.
        item, field = "\n    ", "\n      "
        pieces = [_json_text(header)[:-2], ',\n  "values": [']
        if kind == "triangle":
            pieces += [
                f'{"," if n or k else ""}{item}{{{field}"n": {n},{field}"k": {k},'
                f'{field}"value": {_poly_text(value, field)}{item}}}'
                for n, row in rows
                for k, value in enumerate(row)
            ]
        else:
            pieces += [
                f'{"," if n else ""}{item}{{{field}"n": {n},'
                f'{field}"value": {_poly_text(value, field)}{item}}}'
                for n, value in rows
            ]
        pieces.append("\n  ]\n}\n")
        return "".join(pieces)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if kind == "triangle":
        max_n = args.max_n
        writer.writerow(["n"] + [f"k={k}" for k in range(max_n + 1)])
        for n, row in rows:
            writer.writerow([n] + [value.render() for value in row] + [""] * (max_n - n))
    else:
        writer.writerow(["n", "value"])
        for n, value in rows:
            writer.writerow([n, value.render()])
    return buffer.getvalue()


# -- JSON -------------------------------------------------------------------------


def _json_text(obj: object) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for the values the CLI emits.

    Those are dicts with str keys, lists, str, int, bool, None, finite
    floats and ``BiPoly``; a polynomial (a verification residual) is written
    by ``_poly_text``, as its ``to_records()`` would be.  A non-finite float
    raises ``ValueError`` and any other type ``TypeError``.  It writes
    verification reports and the compute header; compute rows skip its
    per-value recursion (``_render_compute``).
    On a 25-row order-3 ``deg-bernoulli2`` table (2838 terms, Python 3.11)
    this took 4 ms, and ``to_records()`` plus the stdlib encoder, pure
    Python given an indent through 3.12, took 25 ms.  From Python 3.13 the
    stdlib's C encoder takes the indent, but it still needs the per-term
    dicts.
    """
    chunks: list[str] = []
    _write_json(obj, "\n", chunks.append)
    return "".join(chunks)


def _write_json(o: object, newline: str, append: Callable[[str], None]) -> None:
    # A module-level function, not a closure over ``chunks``: a recursive
    # closure is a reference cycle that would keep every chunk alive until
    # the next garbage collection.
    if isinstance(o, str):
        append(encode_basestring_ascii(o))
    elif isinstance(o, dict):
        if not o:
            append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in o.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value, inner, append)
            sep = "," + inner
        append(newline + "}")
    elif isinstance(o, list):
        if not o:
            append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in o:
            append(sep)
            _write_json(item, inner, append)
            sep = "," + inner
        append(newline + "]")
    elif o is None or o is True or o is False:
        append("null" if o is None else "true" if o else "false")
    elif isinstance(o, int):
        append(int.__repr__(o))
    elif isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError(f"out of range float value: {o!r}")
        append(float.__repr__(o))
    elif isinstance(o, BiPoly):
        append(_poly_text(o, newline))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _poly_text(poly: BiPoly, newline: str) -> str:
    """What ``_write_json`` writes for ``poly.to_records()`` at indent ``newline``."""
    terms = poly._reduced_terms()
    if not terms:
        return "[]"
    item = newline + "  "
    field = item + "  "
    body = ("," + item).join(
        [
            f'{{{field}"dl": {dl},{field}"dx": {dx},{field}"c": "{p}/{q}"{item}}}'
            if q != 1
            else f'{{{field}"dl": {dl},{field}"dx": {dx},{field}"c": "{p}"{item}}}'
            for dl, dx, p, q in terms
        ]
    )
    return f"[{item}{body}{newline}]"


# -- verify -------------------------------------------------------------------


def _report_json(report: VerificationReport, timings: bool) -> dict[str, object]:
    """One report as the JSON object ``verify`` writes; the wall time only with ``timings``."""
    out: dict[str, object] = {
        "identity": report.identity.value,
        "ranges": {"max_n": report.max_n, "max_order": report.max_order, "trunc": report.trunc},
        "profile": report.profile,
        "cases": [
            {
                "indices": dict(case.indices),
                "status": "pass" if case.passed else "fail",
                "residual": case.residual,
            }
            for case in report.cases
        ],
    }
    if timings:
        out["wall_time_ms"] = round(report.wall_time_ms, 3)
    return out


def _render_reports(
    reports: list[VerificationReport], fmt: str, profile: str | None, timings: bool
) -> str:
    if fmt == "json":
        if profile is None:
            payload: object = _report_json(reports[0], timings)
        else:
            payload = {
                "profile": profile,
                "all_pass": all(r.all_pass for r in reports),
                "reports": [_report_json(r, timings) for r in reports],
            }
        return _json_text(payload) + "\n"

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["identity", "indices", "status", "residual"])
    for report in reports:
        for case in report.cases:
            indices = ";".join(f"{key}={value}" for key, value in case.indices.items())
            writer.writerow(
                [
                    report.identity.value,
                    indices,
                    "pass" if case.passed else "fail",
                    case.residual.render(),
                ]
            )
    return buffer.getvalue()


# -- entry points ---------------------------------------------------------------


def run(argv: list[str] | None = None) -> int:
    try:
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:
            args.subparser.error(f"unrecognized arguments: {' '.join(unknown)}")
        return _dispatch(args)
    except SystemExit as exc:  # parse errors and args.subparser.error
        return int(exc.code or 0)
    # Refused by the library, by str() (ints above 4300 digits) or by writing --output.
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list-families":
        lines = [f"{'name':<26} {'kind':<11} {'order':<15} {'arg':<4} {'recipe'}"]
        for fid in FamilyId:
            info = CATALOG[fid]
            lines.append(
                f"{fid.value:<26} {info.kind:<11} {info.order_domain:<15} "
                f"{'x' if info.takes_argument else '-':<4} {info.recipe}"
            )
        _emit(None, "\n".join(lines) + "\n")
        return 0

    if args.command == "compute":
        info = CATALOG[FamilyId(args.family)]
        for flag, value, honoured in (
            ("--order", args.order, info.kind == "sequence" and info.order_domain != "none"),
            ("--x", args.x_arg, info.takes_argument),
            ("--lambda", args.lam, info.degenerate),
        ):
            if value is not None and not honoured:
                args.subparser.error(f"{flag} does not apply to {args.family}")
        if args.order is None:
            args.order = Fraction(1)
        if args.lam is None:
            args.lam = "symbolic"
        if args.x_arg is None:
            args.x_arg = "symbolic"
        kind, rows = _compute_rows(args)
        _emit(args.output, _render_compute(args, kind, rows))
        return 0

    # verify
    if args.timings and args.format == "csv":
        args.subparser.error("--timings does not apply to --format csv")
    suite = args.identity == "all"
    if suite:
        for flag in ("max_n", "order"):
            if getattr(args, flag) is not None:
                args.subparser.error(f"--{flag.replace('_', '-')} applies to a single identity")
        reports = verify_all(args.profile)
    else:
        reports = [verify(args.identity, args.max_n, args.order, profile=args.profile)]
    text = _render_reports(reports, args.format, args.profile if suite else None, args.timings)
    _emit(args.output, text)
    return 0 if all(r.all_pass for r in reports) else 1


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
