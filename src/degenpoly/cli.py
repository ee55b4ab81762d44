"""Command-line front end: family tables and the identity verification suite.

The library returns values, reports and the family catalog; every output
format (JSON, CSV and the ``list-families`` table) is written here.
Output is deterministic byte-for-byte across runs: fixed JSON field order,
graded-lex polynomial term order, CSV with a header row.  Wall-clock
timings are therefore omitted unless ``--timings`` is given.

CSV is byte-identical to ``csv.writer(..., lineterminator="\n")`` over the
same rows, with each row written as its fields joined by ``,``, so the CLI
imports no ``csv``.  That is exact because no field needs quoting: no
rendered polynomial, index or name holds ``,``, ``"``, ``\r`` or ``\n``, and
no row is a single empty field.

JSON is byte-identical to ``json.dumps(payload, indent=2)`` with each
``BiPoly`` value replaced by its ``to_records()``.  Every JSON text is a
fixed layout: the compute header and rows, a verification report and the
suite envelope are each written by f-strings, with every scalar encoded by
``_scalar`` and every polynomial by a ``_poly_writer`` straight from its
integer terms, building no per-term or per-case dict, and each text is
joined once.  ``_render_compute`` and ``_render_reports`` each create one
writer per response.  It owns a head table, from which it takes a term
record's text up to its coefficient, formatted on the key's first use, and
its indentation's separators.  A triangle table comes from one
``triangle_rows`` read, and each row's ``"n"`` lead is written once.
Strings are escaped by ``_json.encode_basestring_ascii``, the C function
that ``json.dumps`` uses, so the CLI imports no ``json``.  CSV cells come
from ``BiPoly.render`` with one monomial table per response.  The parser is
built once per process, on the first ``run``, and reused by every later
request.

Every request runs in a fresh process, and most are ``compute`` tables, so
this module does not import ``identities``: the verify branch imports
``verify`` and ``verify_all`` when it runs, and the ``verify`` help's list
of identity names is built only when that help is printed.  A ``compute``
or ``list-families`` request never compiles the verification suite.

Exit codes: 0 success / all identities pass, 1 any verification failure,
2 usage error or refused request.  A usage error prints the subcommand's
usage line: an unknown argument, a flag outside its type or size bound, a
compute flag the family ignores (``--order``, ``--x``, ``--lambda``),
``--timings`` with csv, or ``--max-n``/``--order`` with ``all``.  ``run``
reports a request the library refuses, such as ``--order`` for an identity
without one, or an unwritable ``--output``, as ``error: ...``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from _json import encode_basestring_ascii
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Callable

from .bipoly import BiPoly, _pair
from .families import (
    CATALOG,
    FamilyId,
    FamilySpec,
    Param,
    build_egf,
    central_factorial_power,
    triangle_rows,
)

if TYPE_CHECKING:
    from .identities import VerificationReport


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


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose epilog may be a callable, replaced by its
    text the first time help is printed."""

    def format_help(self) -> str:
        if callable(self.epilog):
            self.epilog = self.epilog()
        return super().format_help()


def _identity_names() -> str:
    from .identities import ALIASES, IdentityId

    return "identity names: " + ", ".join(
        [i.value for i in IdentityId] + sorted(ALIASES) + ["all"]
    )


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
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

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

    ver = sub.add_parser("verify", help="verify identities", epilog=_identity_names)
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
        return "triangle", list(enumerate(triangle_rows(family, max_n, lam_mode)))

    series = build_egf(FamilySpec(family, args.order, argument, lam_mode), max_n)
    return "sequence", [(n, series.value(n)) for n in range(max_n + 1)]


def _render_compute(args: argparse.Namespace, kind: str, rows: list[tuple]) -> str:
    if args.format == "json":
        lam = "symbolic" if args.lam == "symbolic" else str(args.lam)
        x = "symbolic" if args.x_arg == "symbolic" else str(args.x_arg)
        item, field = "\n    ", "\n      "
        write = _poly_writer(field)
        if kind == "triangle":
            entries = []
            for n, row in rows:
                lead = f'{item}{{{field}"n": {n},{field}"k": '
                entries += [
                    f'{lead}{k},{field}"value": {write(value)}{item}}}'
                    for k, value in enumerate(row)
                ]
        else:
            entries = [
                f'{item}{{{field}"n": {n},{field}"value": {write(value)}{item}}}'
                for n, value in rows
            ]
        # Rows start at n = 0, which has entry 0, so "values" is never empty.  The
        # header leads the first entry and the brackets close the last, so the
        # response is copied once, by the join.
        entries[0] = (
            f'{{\n  "family": {_scalar(args.family)},\n  "kind": {_scalar(kind)},'
            f'\n  "order": {_scalar(str(args.order))},\n  "lambda": {_scalar(lam)},'
            f'\n  "x": {_scalar(x)},\n  "max_n": {_scalar(args.max_n)},\n  "values": ['
            + entries[0]
        )
        entries[-1] += "\n  ]\n}\n"
        return ",".join(entries)

    monos: dict[int, str] = {}
    if kind == "triangle":
        max_n = args.max_n
        lines = ["n," + ",".join([f"k={k}" for k in range(max_n + 1)])]
        lines += [
            f"{n}," + ",".join([value.render(monos) for value in row]) + "," * (max_n - n)
            for n, row in rows
        ]
    else:
        lines = ["n,value"] + [f"{n},{value.render(monos)}" for n, value in rows]
    return "\n".join(lines) + "\n"


# -- JSON layouts ----------------------------------------------------------------


def _scalar(value: str | int | bool | None | float) -> str:
    """``json.dumps(value)`` for a str, int, bool, None or finite float.

    A string is escaped by ``_json.encode_basestring_ascii``, the C function
    that ``json.dumps`` uses, imported directly so the CLI loads no ``json``.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:  # before int: a bool is an int
        return "null" if value is None else "true" if value else "false"
    return float.__repr__(value) if isinstance(value, float) else int.__repr__(value)


def _poly_writer(newline: str) -> Callable[[BiPoly], str]:
    """A function that writes ``json.dumps(poly.to_records(), indent=2)`` for
    one polynomial, with its lines indented by ``newline``.

    The writer owns a head table that maps a term key to its record's text
    before the coefficient, ``{<field>"dl": dl,<field>"dx": dx,<field>"c": "``,
    filled on the key's first use, and the separators, derived once from
    ``newline``.  That text depends on ``newline``, so a writer serves only
    polynomials written at one indentation: each response writes all of its
    polynomials at one, and creates one writer for them.
    """
    item = newline + "  "
    field = item + "  "
    tail = f'"{item}}}'
    sep, opening, closing = "," + item, "[" + item, newline + "]"
    heads: dict[int, str] = {}

    def write(poly: BiPoly) -> str:
        terms, den = poly._terms, poly._den
        if not terms:
            return "[]"
        records = []
        for key in sorted(terms):
            head = heads.get(key)
            if head is None:
                dl, dx = _pair(key)
                head = heads[key] = f'{{{field}"dl": {dl},{field}"dx": {dx},{field}"c": "'
            v = terms[key]
            g = gcd(v, den)
            q = den // g
            records.append(f"{head}{v // g}/{q}{tail}" if q != 1 else f"{head}{v // g}{tail}")
        return opening + sep.join(records) + closing

    return write


# -- verify -------------------------------------------------------------------


# A report's case fields, residuals among them, sit this far inside its own lines.
_CASE_INDENT = " " * 6


def _report_text(
    report: VerificationReport, timings: bool, newline: str, write: Callable[[BiPoly], str]
) -> str:
    """One report as the JSON object ``verify`` writes, its lines indented by ``newline``.

    Residuals go through ``write``, a ``_poly_writer`` at
    ``newline + _CASE_INDENT``, the indentation of a case's fields.  The wall
    time is written only with ``timings``.  ``verify`` returns at least one
    case, each with at least one index, so neither list is empty.
    """
    field, item = newline + "  ", newline + "    "
    key = newline + _CASE_INDENT
    entry = key + "  "
    cases = [
        f'{item}{{{key}"indices": {{{entry}'
        + ("," + entry).join([f"{_scalar(k)}: {_scalar(v)}" for k, v in case.indices.items()])
        + f'{key}}},{key}"status": {_scalar("pass" if case.passed else "fail")},'
        f'{key}"residual": {write(case.residual)}{item}}}'
        for case in report.cases
    ]
    tail = f',{field}"wall_time_ms": {_scalar(round(report.wall_time_ms, 3))}' if timings else ""
    return (
        f'{{{field}"identity": {_scalar(report.identity.value)},'
        f'{field}"ranges": {{{item}"max_n": {_scalar(report.max_n)},'
        f'{item}"max_order": {_scalar(report.max_order)},{item}"trunc": {_scalar(report.trunc)}'
        f'{field}}},{field}"profile": {_scalar(report.profile)},{field}"cases": ['
        + ",".join(cases)
        + f"{field}]{tail}{newline}}}"
    )


def _render_reports(
    reports: list[VerificationReport], fmt: str, profile: str | None, timings: bool
) -> str:
    if fmt == "json":
        newline = "\n" if profile is None else "\n    "
        write = _poly_writer(newline + _CASE_INDENT)
        if profile is None:
            return _report_text(reports[0], timings, newline, write) + "\n"
        return (
            f'{{\n  "profile": {_scalar(profile)},'
            f'\n  "all_pass": {_scalar(all(r.all_pass for r in reports))},\n  "reports": [\n    '
            + ",\n    ".join([_report_text(r, timings, newline, write) for r in reports])
            + "\n  ]\n}\n"
        )

    monos: dict[int, str] = {}
    lines = ["identity,indices,status,residual"] + [
        f"{report.identity.value},"
        + ";".join([f"{key}={value}" for key, value in case.indices.items()])
        + f",{'pass' if case.passed else 'fail'},{case.residual.render(monos)}"
        for report in reports
        for case in report.cases
    ]
    return "\n".join(lines) + "\n"


# -- entry points ---------------------------------------------------------------


def run(argv: list[str] | None = None) -> int:
    try:
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:
            args.subparser.error(f"unrecognized arguments: {' '.join(unknown)}")
        return _dispatch(args)
    except SystemExit as exc:  # parse errors and args.subparser.error
        return int(exc.code or 0)
    # A request the library refuses (ValueError), a broken series precondition
    # (SeriesError, an ArithmeticError), str() of an int above 4300 digits
    # (ValueError) or writing --output (OSError).
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
    from .identities import verify, verify_all  # here: the first verify request compiles it

    if suite:
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
