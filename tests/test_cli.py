"""CLI behavior: output formats, determinism, exit codes."""

import csv
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenpoly import cli, families, identities
from degenpoly.bipoly import BiPoly
from degenpoly.identities import ALIASES, Case, IdentityId, VerificationReport, verify
from test_bipoly import big_bipolys


def run_capture(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- compute ----------------------------------------------------------------------


def test_compute_triangle_csv(capsys):
    code, out, _ = run_capture(
        capsys,
        ["compute", "--family", "deg-stirling2", "--max-n", "6",
         "--lambda", "symbolic", "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k=0,k=1,k=2,k=3,k=4,k=5,k=6"
    # S2_l(2,1) = 1 - l sits in row n=2, column k=1.
    assert lines[3].split(",")[2] == "1 - l"


def test_compute_sequence_json(capsys):
    code, out, _ = run_capture(
        capsys,
        ["compute", "--family", "deg-exp", "--max-n", "3", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "deg-exp"
    assert payload["kind"] == "sequence"
    assert (payload["order"], payload["lambda"], payload["x"]) == ("1", "symbolic", "symbolic")
    # value at n=2 is x^2 - l*x
    assert payload["values"][2]["value"] == [
        {"dl": 0, "dx": 2, "c": "1"},
        {"dl": 1, "dx": 1, "c": "-1"},
    ]


def test_compute_polynomial_family(capsys):
    code, out, _ = run_capture(
        capsys,
        ["compute", "--family", "central-factorial-power", "--max-n", "3",
         "--format", "csv"],
    )
    assert code == 0
    assert "-1/4*x + x^3" in out


def test_compute_numeric_lambda_and_x(capsys):
    code, out, _ = run_capture(
        capsys,
        ["compute", "--family", "deg-bernoulli2", "--max-n", "2",
         "--lambda", "1/3", "--x", "0", "--format", "csv"],
    )
    assert code == 0
    # b^(1)_1(0) at l = 1/3 is (1 - 1/3)/2 = 1/3.
    assert out.splitlines()[2] == "1,1/3"


def test_compute_is_byte_deterministic(capsys):
    argv = ["compute", "--family", "deg-stirling1", "--max-n", "5", "--format", "json"]
    _, first, _ = run_capture(capsys, argv)
    _, second, _ = run_capture(capsys, argv)
    assert first == second


def test_compute_output_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run_capture(
        capsys,
        ["compute", "--family", "stirling2", "--max-n", "4", "-o", str(target)],
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["family"] == "stirling2"


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_capture(
        capsys, ["verify", "--identity", "eq2", "--max-n", "2", "-o", str(target)]
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "out.json" in err
    assert not target.exists()


# -- verify -----------------------------------------------------------------------


def test_verify_single_identity_json(capsys):
    code, out, _ = run_capture(
        capsys,
        ["verify", "--identity", "thm3", "--max-n", "5", "--order", "2"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["identity"] == "thm3"
    assert all(case["status"] == "pass" for case in payload["cases"])


def test_single_identity_reports_the_profile_that_chose_its_ranges(capsys):
    _, out, _ = run_capture(
        capsys, ["verify", "--identity", "thm3", "--max-n", "2", "--profile", "quick"]
    )
    assert json.loads(out)["profile"] == "quick"
    _, out, _ = run_capture(capsys, ["verify", "--identity", "thm3", "--max-n", "2"])
    assert json.loads(out)["profile"] == "full"
    _, out, _ = run_capture(
        capsys, ["verify", "--identity", "thm3", "--max-n", "2", "--order", "1"]
    )
    assert json.loads(out)["profile"] is None
    # eq23 has no order, so --max-n alone gives every range it has.
    _, out, _ = run_capture(capsys, ["verify", "--identity", "eq23", "--max-n", "2"])
    assert json.loads(out)["profile"] is None


def test_verify_minimal_range(capsys):
    code, out, _ = run_capture(
        capsys, ["verify", "--identity", "thm1", "--max-n", "0"]
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["cases"]) == 1
    assert payload["cases"][0]["indices"] == {"n": 0}


def test_verify_all_quick(capsys):
    code, out, _ = run_capture(
        capsys, ["verify", "--identity", "all", "--profile", "quick"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert len(payload["reports"]) == 15


@pytest.mark.parametrize("identity", [i.value for i in IdentityId])
def test_single_identity_cli_matches_the_library(capsys, identity):
    # verify() fills the omitted order from the profile, as the CLI does.
    code, out, _ = run_capture(capsys, ["verify", "--identity", identity, "--max-n", "3"])
    report = verify(identity, 3)
    assert code == 0
    expected = {
        "identity": report.identity.value,
        "ranges": {"max_n": report.max_n, "max_order": report.max_order, "trunc": report.trunc},
        "profile": report.profile,
        "cases": [
            {
                "indices": dict(case.indices),
                "status": "pass" if case.passed else "fail",
                "residual": case.residual.to_records(),
            }
            for case in report.cases
        ],
    }
    assert out == json.dumps(expected, indent=2) + "\n"


def test_verify_csv_format(capsys):
    code, out, _ = run_capture(
        capsys,
        ["verify", "--identity", "eq23", "--max-n", "2", "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "identity,indices,status,residual"
    assert lines[1] == "eq23,n=0,pass,0"


def test_verify_is_byte_deterministic(capsys):
    argv = ["verify", "--identity", "eq5-reconstruction", "--max-n", "5"]
    _, first, _ = run_capture(capsys, argv)
    _, second, _ = run_capture(capsys, argv)
    assert first == second
    assert "wall_time_ms" not in first


def test_verify_timings_flag(capsys):
    code, out, _ = run_capture(
        capsys,
        ["verify", "--identity", "eq23", "--max-n", "2", "--timings"],
    )
    assert code == 0
    assert "wall_time_ms" in json.loads(out)


def test_verify_failure_exit_code(capsys, monkeypatch):
    failing = VerificationReport(
        identity=IdentityId.EQ23,
        max_n=0,
        max_order=None,
        trunc=16,
        profile=None,
        cases=(Case({"n": 0}, BiPoly.x() ** 2 - BiPoly.lam()),),
        wall_time_ms=0.0,
    )
    monkeypatch.setattr(identities, "verify", lambda *a, **k: failing)
    code, out, _ = run_capture(
        capsys, ["verify", "--identity", "eq23", "--max-n", "0"]
    )
    assert code == 1
    case = json.loads(out)["cases"][0]
    assert case["status"] == "fail"
    assert case["residual"] == [
        {"dl": 1, "dx": 0, "c": "-1"},
        {"dl": 0, "dx": 2, "c": "1"},
    ]


def test_report_json_shape(capsys):
    argv = ["verify", "--identity", "eq23", "--max-n", "2"]
    _, out, _ = run_capture(capsys, argv)
    payload = json.loads(out)
    assert list(payload) == ["identity", "ranges", "profile", "cases"]
    assert payload["identity"] == "eq23"
    assert payload["ranges"] == {"max_n": 2, "max_order": None, "trunc": 16}
    assert all(case["status"] == "pass" and case["residual"] == [] for case in payload["cases"])
    _, timed, _ = run_capture(capsys, argv + ["--timings"])
    assert list(json.loads(timed)) == list(payload) + ["wall_time_ms"]


# -- usage errors --------------------------------------------------------------------


def test_unknown_family_is_usage_error(capsys):
    code, _, _ = run_capture(
        capsys, ["compute", "--family", "no-such-family", "--max-n", "2"]
    )
    assert code == 2


def test_unknown_identity_is_usage_error(capsys):
    code, _, err = run_capture(capsys, ["verify", "--identity", "thm9"])
    assert code == 2
    assert "unknown identity" in err


def test_bad_rational_is_usage_error(capsys):
    code, _, _ = run_capture(
        capsys,
        ["compute", "--family", "deg-exp", "--max-n", "2", "--lambda", "pi"],
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "deg-stirling2", "--lambda=1e5000"],
        ["--family", "deg-exp", "--x=1e5000"],
        ["--family", "deg-stirling2", "--lambda=1e999999999"],
        ["--family", "deg-exp", "--x=" + "7" * (cli.LITERAL_LIMIT + 1)],
    ],
    ids=["lambda-exponent", "x-exponent", "lambda-huge-exponent", "x-length"],
)
def test_oversized_rational_is_usage_error(capsys, argv):
    families.clear_caches()
    code, out, err = run_capture(capsys, ["compute", "--max-n", "3"] + argv)
    assert code == 2 and out == ""
    assert f"rational literal above the limit {cli.LITERAL_LIMIT}" in err
    assert families._triangle_table.cache_info().misses == 0  # rejected before any work
    assert families._egf.cache_info().misses == 0


def test_rational_literals_within_the_limit():
    assert cli._rational("-37/42") == Fraction(-37, 42)
    assert cli._rational("2.5E-3") == Fraction(1, 400)
    assert cli._rational("1e64") == 10**64
    digits = "1" * cli.LITERAL_LIMIT
    assert cli._rational(digits) == int(digits)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_value_too_long_to_print_is_usage_error(capsys, fmt):
    # Accepted literal, but x^n has a denominator of about 7800 digits at n = 64.
    tiny = "9." + "9" * 58 + "e-64"
    code, out, err = run_capture(
        capsys,
        ["compute", "--family", "deg-exp", "--max-n", "64", f"--x={tiny}", "--format", fmt],
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_unsupported_order_is_usage_error(capsys):
    code, _, err = run_capture(
        capsys,
        ["compute", "--family", "type2-deg-bernoulli2", "--max-n", "2",
         "--order", "1/2"],
    )
    assert code == 2
    assert "integer order" in err


@pytest.mark.parametrize(
    "family, order", [("deg-exp", "1"), ("stirling2", "2"), ("central-factorial-power", "1")]
)
def test_order_without_order_parameter_is_usage_error(capsys, family, order):
    code, _, err = run_capture(
        capsys, ["compute", "--family", family, "--max-n", "3", "--order", order]
    )
    assert code == 2
    assert "--order does not apply" in err


@pytest.mark.parametrize("family", ["deg-log", "deg-stirling1", "central-factorial-power"])
def test_x_without_argument_is_usage_error(capsys, family):
    code, _, err = run_capture(
        capsys, ["compute", "--family", family, "--max-n", "3", "--x", "1/2"]
    )
    assert code == 2
    assert "--x does not apply" in err


@pytest.mark.parametrize("family", ["euler", "stirling1", "central-factorial-power"])
def test_lambda_on_classical_family_is_usage_error(capsys, family):
    code, _, err = run_capture(
        capsys, ["compute", "--family", family, "--max-n", "3", "--lambda", "symbolic"]
    )
    assert code == 2
    assert "--lambda does not apply" in err


@pytest.mark.parametrize("family", ["deg-exp", "deg-stirling2", "central-factorial-power"])
def test_trunc_on_table_family_is_usage_error(capsys, family):
    # compute always builds at --max-n, so it has no --trunc flag.
    code, _, err = run_capture(
        capsys, ["compute", "--family", family, "--max-n", "3", "--trunc", "5"]
    )
    assert code == 2
    assert "unrecognized arguments: --trunc" in err


def test_order_on_identity_without_order_is_usage_error(capsys):
    code, out, err = run_capture(
        capsys, ["verify", "--identity", "eq2", "--max-n", "2", "--order", "9"]
    )
    assert code == 2 and out == ""
    assert "has no order parameter" in err


@pytest.mark.parametrize("identity", ["eq23", "all"])
def test_timings_with_csv_is_usage_error(capsys, identity):
    # CSV has no column for the times, so --timings would be dropped.
    code, out, err = run_capture(
        capsys,
        ["verify", "--identity", identity, "--profile", "quick", "--timings", "--format", "csv"],
    )
    assert code == 2 and out == ""
    assert "--timings does not apply to --format csv" in err


def test_order_below_first_order_is_usage_error(capsys):
    code, out, err = run_capture(
        capsys, ["verify", "--identity", "thm2", "--max-n", "1", "--order", "0"]
    )
    assert code == 2 and out == ""
    assert "starts at order 1" in err


def test_max_n_above_size_limit_is_usage_error(capsys):
    families.clear_caches()
    code, _, err = run_capture(
        capsys, ["compute", "--family", "deg-stirling2", "--max-n", str(cli.SIZE_LIMIT + 1)]
    )
    assert code == 2
    assert "argument --max-n: 65 is above the limit 64" in err
    assert families._triangle_table.cache_info().misses == 0  # rejected before any work
    code, _, err = run_capture(
        capsys, ["verify", "--identity", "eq23", "--max-n", str(cli.SIZE_LIMIT + 1)]
    )
    assert code == 2
    assert "argument --max-n: 65 is above the limit" in err
    # The limit itself is accepted.
    code, out, _ = run_capture(
        capsys,
        ["compute", "--family", "falling-factorial", "--max-n", "64", "--x", "1"],
    )
    assert code == 0
    assert len(json.loads(out)["values"]) == 65


def test_trunc_above_size_limit_is_usage_error(capsys):
    # Neither subcommand has a --trunc flag, so any value is refused, not bounded.
    for argv in (["compute", "--family", "deg-exp", "--max-n", "2", "--trunc", "65"],
                 ["verify", "--identity", "eq23", "--max-n", "2", "--trunc", "65"]):
        code, out, err = run_capture(capsys, argv)
        assert code == 2 and out == ""
        assert "unrecognized arguments: --trunc 65" in err


def test_order_above_size_limit_is_usage_error(capsys):
    families.clear_caches()
    code, out, err = run_capture(
        capsys,
        ["verify", "--identity", "thm2", "--max-n", "0", "--order", str(cli.SIZE_LIMIT + 1)],
    )
    assert code == 2 and out == ""
    assert "argument --order: 65 is above the limit 64" in err
    assert families._triangle_table.cache_info().misses == 0  # rejected before any work
    assert families._egf.cache_info().misses == 0
    # The limit itself is accepted.
    code, out, _ = run_capture(
        capsys, ["verify", "--identity", "thm4", "--max-n", "0", "--order", "64"]
    )
    assert code == 0
    assert json.loads(out)["ranges"]["max_order"] == 64


@pytest.mark.parametrize("order", ["65", "-65"])
def test_compute_order_above_size_limit_is_usage_error(capsys, order):
    # f0 ** order on type2-deg-bernoulli2 (f0 = 2) has no bound of its own.
    families.clear_caches()
    code, out, err = run_capture(
        capsys,
        ["compute", "--family", "type2-deg-bernoulli2", "--max-n", "2", f"--order={order}"],
    )
    assert code == 2 and out == ""
    assert f"argument --order: {order} is" in err and "the limit" in err
    assert families._egf.cache_info().misses == 0  # rejected before any work


def test_range_flags_rejected_with_all(capsys):
    code, _, _ = run_capture(
        capsys, ["verify", "--identity", "all", "--max-n", "4"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--family", "euler", "--max-n", "3", "--order", "2"],
        ["compute", "--family", "deg-exp", "--max-n", "-1"],
        ["compute", "--family", "deg-exp", "--max-n", "65"],
        ["verify", "--identity", "eq23", "--timings", "--format", "csv"],
        ["verify", "--identity", "all", "--max-n", "3"],
        ["verify", "--identity", "thm2", "--order", "65"],
        ["compute", "--family", "deg-exp", "--max-n", "3", "--trunc", "5"],
        ["verify", "--identity", "eq23", "--trunc", "4"],
        ["verify", "--identity", "eq23", "--bogus"],
        ["list-families", "--bogus"],
    ],
    ids=["order-not-honoured", "max-n-negative", "max-n-above", "timings-csv",
         "range-with-all", "order-above", "compute-trunc", "verify-trunc",
         "verify-unknown-flag", "list-families-unknown-flag"],
)
def test_usage_error_shows_the_subcommand_usage(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert code == 2 and out == ""
    assert err.splitlines()[0].startswith(f"usage: degenpoly {argv[0]}")


def as_records(tree):
    """``tree`` with each ``BiPoly`` replaced by its ``to_records()``."""
    if isinstance(tree, BiPoly):
        return tree.to_records()
    if isinstance(tree, dict):
        return {key: as_records(value) for key, value in tree.items()}
    if isinstance(tree, list):
        return [as_records(item) for item in tree]
    return tree


def test_negative_fraction_with_equals_form(capsys):
    # argparse takes "-1/2" after a space for a flag, so the value is attached with "=".
    code, out, _ = run_capture(
        capsys,
        ["compute", "--family", "bernoulli-order-r", "--max-n", "3", "--order=-1/2",
         "--format", "json"],
    )
    series = families.build_egf(
        families.FamilySpec(families.FamilyId.BERNOULLI_ORDER_R, Fraction(-1, 2)), 3
    )
    payload = {
        "family": "bernoulli-order-r",
        "kind": "sequence",
        "order": "-1/2",
        "lambda": "symbolic",
        "x": "symbolic",
        "max_n": 3,
        "values": [{"n": n, "value": series.value(n)} for n in range(4)],
    }
    assert code == 0
    assert out == json.dumps(as_records(payload), indent=2) + "\n"


# -- JSON layouts and parser reuse ------------------------------------------------------


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=10**299, max_value=10**300 - 1),
    st.integers(min_value=-(10**300 - 1), max_value=-(10**299)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(),  # every code point but surrogates: non-ASCII and control characters
)


@settings(max_examples=300)
@given(json_scalars)
@example("k\u00e9\x00\"\\\n")
@example("\x7f")  # DEL: ASCII but not printable, written as \u007f
@example("\U0001d11e")  # outside the BMP: written as the surrogate pair \ud834\udd1e
@example(" ")
@example("")
@example(-0.0)
@example(1e-300)
def test_scalar_equals_stdlib(value):
    assert cli._scalar(value) == json.dumps(value)


POLY = BiPoly.x() * 3 - BiPoly.lam() * BiPoly.x() * Fraction(5, 6) + Fraction(-7, 4)


@settings(max_examples=300)
@given(big_bipolys)
@example(BiPoly.zero())
@example(BiPoly.const(Fraction(-2, 3)))
@example(POLY)
def test_poly_text_equals_stdlib_records(poly):
    assert cli._poly_text(poly, "\n", {}) == json.dumps(poly.to_records(), indent=2)


@settings(max_examples=100)
@given(st.lists(big_bipolys, max_size=8))
def test_poly_text_shares_one_head_table(polys):
    # One table serves a whole response: a key's text, made on its first use,
    # must fit every later polynomial that holds the key, in either order.
    polys = polys + [POLY, BiPoly.const(Fraction(-2, 3))]
    for order in (polys, polys[::-1]):
        heads = {}
        for poly in order:
            assert cli._poly_text(poly, "\n", heads) == json.dumps(poly.to_records(), indent=2)


def report_payload(report, timings):
    """One report as the object ``json.dumps`` would write for ``verify``."""
    out = {
        "identity": report.identity.value,
        "ranges": {"max_n": report.max_n, "max_order": report.max_order, "trunc": report.trunc},
        "profile": report.profile,
        "cases": [
            {
                "indices": dict(case.indices),
                "status": "pass" if case.passed else "fail",
                "residual": case.residual.to_records(),
            }
            for case in report.cases
        ],
    }
    if timings:
        out["wall_time_ms"] = round(report.wall_time_ms, 3)
    return out


@pytest.mark.parametrize(
    "argv",
    [
        ["--identity", "all", "--profile", "quick"],
        ["--identity", "all", "--profile", "quick", "--timings"],
        ["--identity", "eq23", "--max-n", "2"],
        ["--identity", "thm3", "--max-n", "2", "--order", "2", "--timings"],
        ["--identity", "compositional-inverse", "--max-n", "2"],
        ["--identity", "eq18-equivalence", "--max-n", "2", "--profile", "quick"],
    ],
    ids=["quick-suite", "quick-suite-timed", "eq23-no-profile", "thm3-order-timed",
         "str-indices", "fraction-indices"],
)
def test_report_json_equals_stdlib_indent_2(capsys, monkeypatch, argv):
    # The CLI writes the very reports the library returned to it, wall times too.
    # verify_all calls verify, so patching verify alone records every report once.
    returned = []

    def kept(*args, **kwargs):
        report = verify(*args, **kwargs)
        returned.append(report)
        return report

    monkeypatch.setattr(identities, "verify", kept)
    code, out, _ = run_capture(capsys, ["verify"] + argv)
    assert code == 0
    timings = "--timings" in argv
    if argv[1] == "all":
        payload = {
            "profile": "quick",
            "all_pass": True,
            "reports": [report_payload(report, timings) for report in returned],
        }
        assert len(returned) == len(IdentityId)
    else:
        (report,) = returned
        payload = report_payload(report, timings)
    assert out == json.dumps(payload, indent=2) + "\n"


def failing_report(identity, residuals):
    return VerificationReport(
        identity=identity,
        max_n=len(residuals) - 1,
        max_order=None,
        trunc=16,
        profile=None,
        cases=tuple(Case({"n": n}, r) for n, r in enumerate(residuals)),
        wall_time_ms=0.0,
    )


# Nonzero residuals that share term keys, with different coefficients at them.
SHARED_KEY_RESIDUALS = [
    POLY,
    POLY * Fraction(-3, 5) + BiPoly.x() ** 2,
    BiPoly.zero(),
    BiPoly.x() ** 2 - BiPoly.lam() * BiPoly.x() * 4 + 1,
]


@pytest.mark.parametrize("suite", [False, True], ids=["single", "suite"])
def test_failing_report_json_equals_stdlib_indent_2(capsys, monkeypatch, suite):
    first = failing_report(IdentityId.EQ23, SHARED_KEY_RESIDUALS)
    second = failing_report(IdentityId.EQ25, SHARED_KEY_RESIDUALS[::-1])
    if suite:
        monkeypatch.setattr(identities, "verify_all", lambda profile: [first, second])
        argv = ["verify", "--identity", "all", "--profile", "quick"]
        payload = {
            "profile": "quick",
            "all_pass": False,
            "reports": [report_payload(first, False), report_payload(second, False)],
        }
    else:
        monkeypatch.setattr(identities, "verify", lambda *a, **k: first)
        argv = ["verify", "--identity", "eq23", "--max-n", "3"]
        payload = report_payload(first, False)
    assert run_capture(capsys, argv) == (1, json.dumps(payload, indent=2) + "\n", "")


@pytest.mark.parametrize(
    "argv, header",
    [
        (["--family", "deg-bernoulli2", "--max-n", "3", "--order", "1/2"],
         ["deg-bernoulli2", "sequence", "1/2", "symbolic", "symbolic", 3]),
        (["--family", "type2-deg-bernoulli2", "--max-n", "3", "--order", "2",
          "--lambda=-37/42", "--x=5/3"],
         ["type2-deg-bernoulli2", "sequence", "2", "-37/42", "5/3", 3]),
        (["--family", "deg-stirling2", "--max-n", "3"],
         ["deg-stirling2", "triangle", "1", "symbolic", "symbolic", 3]),
        (["--family", "deg-stirling1", "--max-n", "0", "--lambda=1/3"],
         ["deg-stirling1", "triangle", "1", "1/3", "symbolic", 0]),
        (["--family", "central-factorial-power", "--max-n", "2"],
         ["central-factorial-power", "polynomial", "1", "symbolic", "symbolic", 2]),
    ],
    ids=["sequence-symbolic", "sequence-numeric", "triangle-symbolic", "triangle-numeric",
         "polynomial"],
)
def test_compute_header_equals_stdlib_indent_2(capsys, argv, header):
    code, out, _ = run_capture(capsys, ["compute"] + argv)
    assert code == 0
    payload = json.loads(out)
    keys = ["family", "kind", "order", "lambda", "x", "max_n"]
    assert list(payload) == keys + ["values"]
    expected = dict(zip(keys, header), values=payload["values"])
    assert out == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv, header, spec",
    [
        (["--family", "deg-bernoulli2", "--max-n", "24", "--order", "1/2"],
         ["deg-bernoulli2", "sequence", "1/2", "symbolic", "symbolic", 24],
         families.FamilySpec(families.FamilyId.DEG_BERNOULLI2, Fraction(1, 2))),
        (["--family", "deg-stirling1", "--max-n", "16", "--lambda=-44/39"],
         ["deg-stirling1", "triangle", "1", "-44/39", "symbolic", 16],
         families.Param.numeric(Fraction(-44, 39))),
        (["--family", "deg-euler", "--max-n", "16", "--lambda=-27/82", "--x=-68/47"],
         ["deg-euler", "sequence", "1", "-27/82", "-68/47", 16],
         families.FamilySpec(families.FamilyId.DEG_EULER, 1,
                             families.Param.numeric(Fraction(-68, 47)),
                             families.Param.numeric(Fraction(-27, 82)))),
    ],
    ids=["sequence-symbolic", "triangle-numeric", "sequence-numeric"],
)
def test_compute_json_equals_stdlib_from_library_values(capsys, argv, header, spec):
    # The values come from the library, not from the CLI's parsed output, so a
    # wrong term text fails here.
    payload = dict(zip(["family", "kind", "order", "lambda", "x", "max_n"], header))
    family, max_n = families.FamilyId(payload["family"]), payload["max_n"]
    if payload["kind"] == "triangle":
        payload["values"] = [
            {"n": n, "k": k, "value": value.to_records()}
            for n in range(max_n + 1)
            for k, value in enumerate(families.triangle_row(family, n, spec))
        ]
    else:
        series = families.build_egf(spec, max_n)
        payload["values"] = [
            {"n": n, "value": series.value(n).to_records()} for n in range(max_n + 1)
        ]
    code, out, _ = run_capture(capsys, ["compute", *argv, "--format", "json"])
    assert code == 0
    assert out == json.dumps(payload, indent=2) + "\n"


# -- CSV layouts --------------------------------------------------------------------


def stdlib_csv(rows):
    """The text ``csv.writer(..., lineterminator="\\n")`` writes for ``rows``."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


SYMBOLIC = families.Param.symbolic()
LAMBDA = families.Param.numeric(Fraction(-37, 42))


@pytest.mark.parametrize(
    "argv, spec",
    [
        (["--family", "deg-bernoulli2", "--order", "1/2"],
         families.FamilySpec(families.FamilyId.DEG_BERNOULLI2, Fraction(1, 2))),
        (["--family", "type2-deg-bernoulli2", "--order", "2", "--lambda=-37/42", "--x=5/3"],
         families.FamilySpec(families.FamilyId.TYPE2_DEG_BERNOULLI2, Fraction(2),
                             families.Param.numeric(Fraction(5, 3)), LAMBDA)),
    ],
    ids=["sequence-symbolic", "sequence-numeric"],
)
def test_sequence_csv_equals_stdlib_writer(capsys, argv, spec):
    series = families.build_egf(spec, 6)
    rows = [["n", "value"]] + [[n, series.value(n).render()] for n in range(7)]
    argv = ["compute", *argv, "--max-n", "6", "--format", "csv"]
    assert run_capture(capsys, argv) == (0, stdlib_csv(rows), "")


@pytest.mark.parametrize("lam, mode", [("symbolic", SYMBOLIC), ("-37/42", LAMBDA)])
@pytest.mark.parametrize("max_n", [0, 6])
def test_triangle_csv_equals_stdlib_writer(capsys, lam, mode, max_n):
    family = families.FamilyId.DEG_STIRLING1
    rows = [["n"] + [f"k={k}" for k in range(max_n + 1)]] + [
        [n] + [v.render() for v in families.triangle_row(family, n, mode)] + [""] * (max_n - n)
        for n in range(max_n + 1)
    ]
    argv = ["compute", "--family", family.value, "--max-n", str(max_n), f"--lambda={lam}",
            "--format", "csv"]
    assert run_capture(capsys, argv) == (0, stdlib_csv(rows), "")


def test_polynomial_csv_equals_stdlib_writer(capsys):
    rows = [["n", "value"]] + [[n, families.central_factorial_power(n).render()]
                               for n in range(7)]
    argv = ["compute", "--family", "central-factorial-power", "--max-n", "6", "--format", "csv"]
    assert run_capture(capsys, argv) == (0, stdlib_csv(rows), "")


def suite_rows(reports):
    return [["identity", "indices", "status", "residual"]] + [
        [report.identity.value, ";".join(f"{k}={v}" for k, v in case.indices.items()),
         "pass" if case.passed else "fail", case.residual.render()]
        for report in reports
        for case in report.cases
    ]


def test_suite_csv_equals_stdlib_writer(capsys):
    expected = stdlib_csv(suite_rows(identities.verify_all("quick")))
    argv = ["verify", "--identity", "all", "--profile", "quick", "--format", "csv"]
    assert run_capture(capsys, argv) == (0, expected, "")


def test_failing_report_csv_equals_stdlib_writer(capsys, monkeypatch):
    failing = VerificationReport(
        identity=IdentityId.EQ18_EQUIV,
        max_n=0,
        max_order=None,
        trunc=16,
        profile=None,
        cases=(Case({"alpha": "1/2", "n": 0}, POLY), Case({"alpha": "2", "n": 0}, BiPoly.zero())),
        wall_time_ms=0.0,
    )
    monkeypatch.setattr(identities, "verify", lambda *a, **k: failing)
    argv = ["verify", "--identity", "eq18-equivalence", "--max-n", "0", "--format", "csv"]
    assert run_capture(capsys, argv) == (1, stdlib_csv(suite_rows([failing])), "")


def test_parser_is_built_once_and_reused(capsys):
    requests = [
        ["compute", "--family", "deg-exp", "--max-n", "2", "--lambda", "pi"],
        ["compute", "--family", "deg-stirling2", "--max-n", "4", "--lambda=-37/42"],
        ["verify", "--identity", "eq23", "--max-n", "2"],
    ]
    cli.build_parser.cache_clear()
    shared = [run_capture(capsys, argv) for argv in requests]
    assert cli.build_parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [2, 0, 0]
    fresh = []
    for argv in requests:
        cli.build_parser.cache_clear()
        fresh.append(run_capture(capsys, argv))
    assert shared == fresh


# A fresh interpreter: the modules that importing the CLI adds, then whether
# csv is loaded after one CSV request.
COLD_START = """\
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import degenpoly.cli
added = sorted(set(sys.modules) - before)
with contextlib.redirect_stdout(io.StringIO()):
    code = degenpoly.cli.run(["compute", "--family", "deg-stirling2", "--max-n", "3", "--format", "csv"])
csv = "csv" in sys.modules
import json
print(json.dumps({"added": added, "code": code, "csv": csv}))
"""


def test_cli_import_loads_no_json_dataclasses_inspect_or_csv():
    # Every request runs in a fresh process, so what importing the CLI loads is
    # start-up time paid per request; csv is loaded not even by a CSV request, and
    # strings are escaped by the C module _json, not through the json package.
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, src],
        capture_output=True, text=True, check=True, timeout=120,
    )
    result = json.loads(done.stdout)
    assert "degenpoly.cli" in result["added"]
    assert not {"dataclasses", "inspect", "csv"} & set(result["added"])
    assert [name for name in result["added"] if name.split(".")[0] == "json"] == []
    assert result["code"] == 0
    assert not result["csv"]


# A fresh interpreter: after each request in turn, its exit code and whether
# the verification suite is loaded.
COMPUTE_PATH = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import degenpoly.cli
requests = [
    ["compute", "--family", "deg-bernoulli", "--max-n", "4", "--lambda=-37/42"],
    ["compute", "--family", "deg-stirling2", "--max-n", "3", "--format", "csv"],
    ["list-families"],
    ["verify", "--identity", "eq23", "--max-n", "2"],
]
loaded = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in requests:
        code = degenpoly.cli.run(argv)
        loaded.append([code, "degenpoly.identities" in sys.modules])
print(json.dumps(loaded))
"""


def test_compute_requests_leave_the_verification_suite_unloaded():
    # A table never verifies, so it does not pay for compiling identities;
    # the first verify request loads it.
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", COMPUTE_PATH, src],
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert json.loads(done.stdout) == [[0, False], [0, False], [0, False], [0, True]]


# A fresh interpreter: whether importing the package loads the suite, then
# the public names a star import binds and those that resolve as attributes.
PACKAGE_NAMES = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import degenpoly
eager = "degenpoly.identities" in sys.modules
namespace = {}
exec("from degenpoly import *", namespace)
resolved = [name for name in degenpoly.__all__ if getattr(degenpoly, name, None) is not None]
same = degenpoly.verify is sys.modules["degenpoly.identities"].verify
print(json.dumps({"eager": eager, "all": degenpoly.__all__, "bound": sorted(namespace),
                  "resolved": resolved, "same": same}))
"""


def test_every_public_name_resolves_and_star_import_binds_it():
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", PACKAGE_NAMES, src],
        capture_output=True, text=True, check=True, timeout=120,
    )
    result = json.loads(done.stdout)
    assert not result["eager"]
    assert {"Case", "IdentityId", "VerificationReport", "verify", "verify_all"} < set(result["all"])
    assert set(result["all"]) <= set(result["bound"])
    assert result["resolved"] == result["all"]
    assert result["same"]


def test_verify_help_ends_with_the_identity_names(capsys):
    names = [i.value for i in IdentityId] + sorted(ALIASES) + ["all"]
    expected = "identity names: " + ", ".join(names)
    helps = [run_capture(capsys, ["verify", "-h"]) for _ in range(2)]  # the epilog is built once
    for code, out, _ in helps:
        assert code == 0
        # Help is wrapped to the terminal, at spaces and after hyphens.
        assert "".join(out.split()).endswith("".join(expected.split()))
    assert helps[0] == helps[1]


# -- list-families ----------------------------------------------------------------------


LIST_FAMILIES_TEXT = """\
name                       kind        order           arg  recipe
bernoulli-order-r          sequence    rational        x    (t/(e^t - 1))^r * e^(x*t)
euler                      sequence    none            x    2/(e^t + 1) * e^(x*t)
type2-bernoulli            sequence    none            x    t/(e^t - e^(-t)) * e^(x*t)
type2-euler                sequence    none            x    2/(e^t + e^(-t)) * e^(x*t)
stirling1                  triangle    nonneg-integer  -    (1/k!) * log(1+t)^k
stirling2                  triangle    nonneg-integer  -    (1/k!) * (e^t - 1)^k
central-factorial          triangle    nonneg-integer  -    (1/k!) * (e^(t/2) - e^(-t/2))^k
daehee                     sequence    none            x    (log(1+t)/t) * (1+t)^x
falling-factorial          sequence    none            x    (1+t)^x  [value n is (x)_n]
deg-falling-factorial      sequence    none            x    e_l^x(t)  [value n is (x)_{n,l}]
deg-exp                    sequence    none            x    e_l^x(t) = (1 + l*t)^(x/l)
deg-log                    sequence    none            -    log_l(1+t) = ((1+t)^l - 1)/l
deg-bernoulli              sequence    none            x    t/(e_l(t) - 1) * e_l^x(t)
deg-euler                  sequence    none            x    2/(e_l(t) + 1) * e_l^x(t)
deg-central-factorial      triangle    nonneg-integer  -    (1/k!) * (e_l^(1/2)(t) - e_l^(-1/2)(t))^k
deg-daehee                 sequence    none            x    (log_l(1+t)/t) * (1+t)^x
deg-bernoulli2             sequence    rational        x    (t/log_l(1+t))^a * (1+t)^x
type2-deg-bernoulli2       sequence    integer         x    (((1+t) - (1+t)^(-1))/log_l(1+t))^a * (1+t)^x
type2-deg-bernoulli        sequence    integer         x    (t/(e_l(t) - e_l^(-1)(t)))^a * e_l^x(t)
deg-stirling1              triangle    nonneg-integer  -    (1/k!) * log_l(1+t)^k
deg-stirling2              triangle    nonneg-integer  -    (1/k!) * (e_l(t) - 1)^k
central-factorial-power    polynomial  none            -    x^[n] = x*(x + n/2 - 1)*(x + n/2 - 2)*...*(x - n/2 + 1)
"""


def test_list_families_output(capsys):
    code, out, _ = run_capture(capsys, ["list-families"])
    assert code == 0
    assert out == LIST_FAMILIES_TEXT
    _, second, _ = run_capture(capsys, ["list-families"])
    assert out == second


def test_catalog_covers_every_family(capsys):
    _, out, _ = run_capture(capsys, ["list-families"])
    rows = out.splitlines()[1:]
    assert len(rows) == len(families.FamilyId)
    names = {row.split()[0] for row in rows}
    assert names == {fid.value for fid in families.FamilyId}
    assert "deg-stirling2" in names and "type2-deg-bernoulli2" in names


# -- console entry point ----------------------------------------------------------


@pytest.mark.parametrize(
    "argv, code",
    [
        (["compute", "--family", "deg-exp", "--max-n", "2"], 0),
        (["compute", "--family", "deg-exp", "--max-n", "-1"], 2),
    ],
    ids=["success", "usage-error"],
)
def test_main_exits_with_the_run_code(capsys, monkeypatch, argv, code):
    monkeypatch.setattr(sys, "argv", ["degenpoly"] + argv)
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == code
    assert bool(capsys.readouterr().out) == (code == 0)
