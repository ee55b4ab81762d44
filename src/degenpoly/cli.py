"""Command-line front end: family tables and the identity verification suite.

Output is deterministic byte-for-byte across runs: fixed JSON field order,
graded-lex polynomial term order, CSV with a header row.  Wall-clock
timings are therefore omitted unless ``--timings`` is given.

JSON is written by ``_json_text``, byte-identical to
``json.dumps(payload, indent=2)`` at less than half its cost.  The parser
is built once per process, on the first ``run``, and reused by every later
request.

Exit codes: 0 success / all identities pass, 1 any verification failure,
2 usage error.
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
    list_families,
    triangular_numbers,
)
from .identities import (
    ALIASES,
    IdentityId,
    UnknownIdentity,
    VerificationReport,
    coerce_identity,
    default_ranges,
    verify,
    verify_all,
)


#: Largest accepted --max-n, --trunc and verify --order, well above the ranges of the profiles and the tests.
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by later ones.

    Parsing and ``parser.error`` leave the parser unchanged, so one parser
    serves every request of the process.
    """
    parser = argparse.ArgumentParser(
        prog="degenpoly",
        description="Exact tables and identity verification for degenerate "
        "special-polynomial families over Q[l, x].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="tabulate one family")
    comp.add_argument(
        "--family",
        required=True,
        choices=[f.value for f in FamilyId],
        help="family name (see list-families)",
    )
    comp.add_argument("--max-n", type=int, required=True, help="largest index, inclusive")
    comp.add_argument(
        "--order", type=_rational, default=None, help="order parameter (rational; default 1)"
    )
    comp.add_argument(
        "--lambda",
        dest="lam",
        type=_symbolic_or_rational,
        default=None,
        help="'symbolic' (default) or a rational literal",
    )
    comp.add_argument(
        "--x",
        dest="x_arg",
        type=_symbolic_or_rational,
        default=None,
        help="'symbolic' (default) or a rational literal",
    )
    comp.add_argument("--format", choices=["json", "csv"], default="json")
    comp.add_argument("--output", "-o", default=None, help="output path (default: stdout)")

    ver = sub.add_parser(
        "verify",
        help="verify identities",
        epilog="identity names: "
        + ", ".join([i.value for i in IdentityId] + sorted(ALIASES) + ["all"]),
    )
    ver.add_argument("--identity", required=True, help="identity name or 'all'")
    ver.add_argument("--max-n", type=int, default=None, help="largest index, inclusive")
    ver.add_argument("--order", type=int, default=None, help="largest order (r or k), inclusive")
    ver.add_argument("--trunc", type=int, default=None, help="truncation order (>= max-n)")
    ver.add_argument("--profile", choices=["quick", "full"], default="full")
    ver.add_argument("--format", choices=["json", "csv"], default="json")
    ver.add_argument("--timings", action="store_true", help="include wall-clock times")
    ver.add_argument("--output", "-o", default=None, help="output path (default: stdout)")

    sub.add_parser("list-families", help="print the family catalog")
    return parser


# -- compute -----------------------------------------------------------------


def _compute_rows(args: argparse.Namespace) -> tuple[str, list[dict[str, object]]]:
    family = FamilyId(args.family)
    info = CATALOG[family]
    max_n = args.max_n
    argument = Param.symbolic() if args.x_arg == "symbolic" else Param.numeric(args.x_arg)
    lam_mode = Param.symbolic() if args.lam == "symbolic" else Param.numeric(args.lam)

    if info.kind == "polynomial":
        rows = [{"n": n, "value": central_factorial_power(n)} for n in range(max_n + 1)]
        return "polynomial", rows

    if info.kind == "triangle":
        rows = []
        for n in range(max_n + 1):
            for k in range(n + 1):
                rows.append(
                    {"n": n, "k": k, "value": triangular_numbers(family, n, k, lam_mode)}
                )
        return "triangle", rows

    series = build_egf(FamilySpec(family, args.order, argument, lam_mode), max_n)
    rows = [{"n": n, "value": series.value(n)} for n in range(max_n + 1)]
    return "sequence", rows


def _render_compute(args: argparse.Namespace, kind: str, rows: list[dict[str, object]]) -> str:
    if args.format == "json":
        payload = {
            "family": args.family,
            "kind": kind,
            "order": str(args.order),
            "lambda": "symbolic" if args.lam == "symbolic" else str(args.lam),
            "x": "symbolic" if args.x_arg == "symbolic" else str(args.x_arg),
            "max_n": args.max_n,
            "values": [{**row, "value": row["value"].to_records()} for row in rows],
        }
        return _json_text(payload) + "\n"

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if kind == "triangle":
        max_n = args.max_n
        writer.writerow(["n"] + [f"k={k}" for k in range(max_n + 1)])
        grid: dict[int, dict[int, BiPoly]] = {}
        for row in rows:
            grid.setdefault(row["n"], {})[row["k"]] = row["value"]
        for n in range(max_n + 1):
            cells = [str(n)] + [
                grid[n][k].render() if k <= n else "" for k in range(max_n + 1)
            ]
            writer.writerow(cells)
    else:
        writer.writerow(["n", "value"])
        for row in rows:
            writer.writerow([row["n"], row["value"].render()])
    return buffer.getvalue()


# -- JSON -------------------------------------------------------------------------


def _json_text(obj: object) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for the values the CLI emits.

    Those are dicts with str keys, lists, str, int, bool, None and finite
    floats; a non-finite float raises ``ValueError`` and any other type
    ``TypeError``.  Given an indent, the stdlib encoder of Python 3.12 and
    earlier runs in pure Python and costs more than twice this walk.
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
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


# -- verify -------------------------------------------------------------------


def _render_reports(
    reports: list[VerificationReport], fmt: str, profile: str | None, timings: bool
) -> str:
    if fmt == "json":
        if profile is None:
            payload: object = reports[0].to_json_dict(include_timing=timings)
        else:
            payload = {
                "profile": profile,
                "all_pass": all(r.all_pass for r in reports),
                "reports": [r.to_json_dict(include_timing=timings) for r in reports],
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(parser, args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:  # only _emit does I/O: an --output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "list-families":
        lines = [f"{'name':<26} {'kind':<11} {'order':<15} {'arg':<4} {'recipe'}"]
        for row in list_families():
            lines.append(
                f"{row['name']:<26} {row['kind']:<11} {row['order']:<15} "
                f"{row['argument']:<4} {row['recipe']}"
            )
        _emit(None, "\n".join(lines) + "\n")
        return 0

    if args.command == "compute":
        _check_sizes(parser, args.max_n)
        info = CATALOG[FamilyId(args.family)]
        for flag, value, honoured in (
            ("--order", args.order, info.kind == "sequence" and info.order_domain != "none"),
            ("--x", args.x_arg, info.takes_argument),
            ("--lambda", args.lam, info.degenerate),
        ):
            if value is not None and not honoured:
                parser.error(f"{flag} does not apply to {args.family}")
        if args.order is None:
            args.order = Fraction(1)
        if args.lam is None:
            args.lam = "symbolic"
        if args.x_arg is None:
            args.x_arg = "symbolic"
        try:
            kind, rows = _compute_rows(args)
            text = _render_compute(args, kind, rows)  # str() refuses ints above 4300 digits
        except (ValueError, ArithmeticError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _emit(args.output, text)
        return 0

    # verify
    if args.identity == "all":
        for flag in ("max_n", "order", "trunc"):
            if getattr(args, flag) is not None:
                parser.error(f"--{flag.replace('_', '-')} applies to a single identity")
        reports = verify_all(args.profile)
        text = _render_reports(reports, args.format, args.profile, args.timings)
        _emit(args.output, text)
        return 0 if all(r.all_pass for r in reports) else 1

    try:
        identity = coerce_identity(args.identity)
    except UnknownIdentity as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # An identity without an order parameter has no order in its ranges.
    d_max_n, d_order, d_trunc = default_ranges(identity, args.profile)
    if args.order is not None and d_order is None:
        parser.error(f"--order does not apply to identity {identity.value}")
    max_n = args.max_n if args.max_n is not None else d_max_n
    order = args.order if args.order is not None else d_order
    trunc = args.trunc if args.trunc is not None else max(d_trunc, max_n)
    _check_sizes(parser, max_n, trunc, order)
    from_profile = (
        args.max_n is None or args.trunc is None or (args.order is None and d_order is not None)
    )
    try:
        report = verify(
            identity, max_n, order, trunc, profile=args.profile if from_profile else None
        )
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(args.output, _render_reports([report], args.format, None, args.timings))
    return 0 if report.all_pass else 1


def _check_sizes(
    parser: argparse.ArgumentParser, max_n: int, trunc: int | None = None, order: int | None = None
) -> None:
    """Reject a size range before any work starts."""
    if max_n < 0:
        parser.error("--max-n must be nonnegative")
    if trunc is not None and trunc < max_n:
        parser.error(f"--trunc {trunc} is below --max-n {max_n}")
    for flag, value in (("--max-n", max_n), ("--trunc", trunc), ("--order", order)):
        if value is not None and value > SIZE_LIMIT:
            parser.error(f"{flag} {value} is above the limit {SIZE_LIMIT}")


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
