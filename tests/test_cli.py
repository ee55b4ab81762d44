"""CLI behavior: output formats, determinism, exit codes."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenpoly import cli, families
from degenpoly.bipoly import BiPoly
from degenpoly.identities import Case, IdentityId, VerificationReport, verify
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
    monkeypatch.setattr(cli, "verify", lambda *a, **k: failing)
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
    assert out == cli._json_text(payload) + "\n"


# -- JSON writer and parser reuse ------------------------------------------------------


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=10**299, max_value=10**300 - 1),
    st.integers(min_value=-(10**300 - 1), max_value=-(10**299)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(),  # every code point but surrogates: non-ASCII and control characters
)


def json_containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    )


json_trees = st.recursive(json_scalars, json_containers, max_leaves=24)


@settings(max_examples=300)
@given(json_trees)
@example({"": [], "k\u00e9\x00": {}, "v": [[], {}, [{}], True, False, None, -0.0, 1e-300]})
def test_json_text_equals_stdlib_indent_2(tree):
    assert cli._json_text(tree) == json.dumps(tree, indent=2)


def as_records(tree):
    """``tree`` with each ``BiPoly`` replaced by its ``to_records()``."""
    if isinstance(tree, BiPoly):
        return tree.to_records()
    if isinstance(tree, dict):
        return {key: as_records(value) for key, value in tree.items()}
    if isinstance(tree, list):
        return [as_records(item) for item in tree]
    return tree


POLY = BiPoly.x() * 3 - BiPoly.lam() * BiPoly.x() * Fraction(5, 6) + Fraction(-7, 4)


@settings(max_examples=300)
@given(st.recursive(st.one_of(json_scalars, big_bipolys), json_containers, max_leaves=24))
@example(BiPoly.zero())
@example(BiPoly.const(Fraction(-2, 3)))
@example(POLY)
@example({"a": [{"value": POLY}], "b": [[{"z": BiPoly.zero(), "c": BiPoly.const(5)}]]})
def test_json_text_writes_polynomials_as_records(tree):
    assert cli._json_text(tree) == json.dumps(as_records(tree), indent=2)


@pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}], ids=["Fraction", "set"])
def test_json_text_rejects_other_types(value):
    with pytest.raises(TypeError):
        cli._json_text({"values": [{"n": 0, "value": value}]})


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
