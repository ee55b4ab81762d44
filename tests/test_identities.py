"""Verification-suite tests: catalog behavior, report structure, the weight
polynomial for the summation identity, and cross-checks between identities."""

import ast
import inspect
import math
from fractions import Fraction
from pathlib import Path

import pytest

from degenpoly import families, identities
from degenpoly.bipoly import BiPoly
from degenpoly.families import (
    FamilyId,
    FamilySpec,
    Param,
    build_egf,
    triangular_numbers,
)
from degenpoly.identities import (
    IdentityId,
    coerce_identity,
    default_ranges,
    verify,
    verify_all,
)
from degenpoly.series import EgfSeries
from oracles import classical_value, eq21_rhs_term

L = BiPoly.lam()
X = BiPoly.x()


# -- per-identity verification at compact ranges -----------------------------------


@pytest.mark.parametrize(
    "identity,kwargs",
    [
        (IdentityId.EQ23, dict(max_n=8)),
        (IdentityId.EQ21, dict(max_n=6, max_order=3)),
        (IdentityId.EQ25, dict(max_n=8)),
        (IdentityId.THM2, dict(max_n=6, max_order=3)),
        (IdentityId.THM2_COROLLARY, dict(max_n=6, max_order=3)),
        (IdentityId.THM3, dict(max_n=6, max_order=3)),
        (IdentityId.THM4, dict(max_n=8, max_order=3)),
        (IdentityId.EQ2, dict(max_n=10)),
        (IdentityId.EQ4, dict(max_n=10)),
        (IdentityId.EQ5_RECON, dict(max_n=8)),
        (IdentityId.EQ18_EQUIV, dict(max_n=8)),
        (IdentityId.B_SECOND_KIND_RELATION, dict(max_n=6, max_order=3)),
        (IdentityId.LIMITS_LAMBDA0, dict(max_n=8)),
        (IdentityId.STIRLING_INVERSION, dict(max_n=8)),
        (IdentityId.COMPOSITIONAL_INVERSE, dict(max_n=10)),
    ],
)
def test_identity_passes(identity, kwargs):
    report = verify(identity, **kwargs)
    assert report.all_pass, [dict(c.indices) for c in report.cases if not c.passed]
    assert all(not case.residual for case in report.cases)


def test_minimal_range_single_case():
    report = verify("thm1", max_n=0)
    assert len(report.cases) == 1
    assert report.cases[0].indices == {"n": 0}
    assert report.all_pass


# -- the weight polynomial of the summation identity ---------------------------------


def test_weight_at_diagonal_is_two_to_minus_r():
    for r in (1, 2, 3):
        assert eq21_rhs_term(0, r) == BiPoly.const(Fraction(1, 2**r))


def test_weight_degree_one_case():
    # Order 1, j = 1: the degree-1 polynomial y/2 at y = 2x/l - 1, times l.
    assert eq21_rhs_term(1, 1) == X - L * Fraction(1, 2)


def test_weight_is_a_genuine_polynomial():
    for r in (1, 2, 3):
        for j in (0, 1, 2, 3, 4):
            weight = eq21_rhs_term(j, r)
            assert all(dl >= 0 and dx >= 0 for (dl, dx) in weight.terms())


def test_weight_argument_validation():
    with pytest.raises(ValueError):
        eq21_rhs_term(-1, 1)
    with pytest.raises(ValueError):
        eq21_rhs_term(2, 0)


def test_weight_is_the_appell_sum_over_the_order_r_numbers():
    # l^j B2*_j^(r)(2x/l - r) = sum_i C(j,i) [l^i B2*_i^(r)] (2x - r*l)^(j-i), the
    # convolution eq21's checker reads its weights from.
    for r in (1, 2, 3):
        numbers = [classical_value(FamilyId.TYPE2_DEG_BERNOULLI, i, order=r).subs_x(0)
                   for i in range(6)]
        scaled = [b * L**i for i, b in enumerate(numbers)]
        powers = [(X * 2 - L * r) ** j for j in range(6)]
        assert identities._convolved(scaled, powers, range(6)) == [
            eq21_rhs_term(j, r) for j in range(6)
        ]


def test_eq21_oracle_is_independent_of_the_checkers():
    # The weight oracle must not share code with the module it checks.
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert not [name for name in names if name.startswith("degenpoly.identities")]


def test_cases_alone_builds_a_case():
    # Every checker turns its two sides into cases through _cases, so the rule
    # for a case (its residual, its index order) lives in one place.
    tree = ast.parse(inspect.getsource(identities))
    outside = []
    for func in tree.body:
        if isinstance(func, ast.FunctionDef) and func.name == "_cases":
            continue
        outside += [
            f"{getattr(func, 'name', type(func).__name__)}:{node.lineno}"
            for node in ast.walk(func)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Case"
        ]
    assert outside == []


@pytest.mark.parametrize("indices", [{"k": 1}, {"n": range(2), "m": range(2)}],
                         ids=["no-range", "two-ranges"])
def test_cases_needs_exactly_one_range_index(indices):
    one = BiPoly.const(1)
    with pytest.raises(ValueError):
        identities._cases([one, one], [one, one], **indices)


def test_eq21_weight_needs_the_order_superscript():
    # Dropping the order from the weight polynomial (using the order-1
    # polynomial for every r) breaks the identity already at n=0, r=2:
    # the sides evaluate to 1 and 2.
    n, r = 0, 2
    lhs = build_egf(FamilySpec(FamilyId.DEG_BERNOULLI2, Fraction(r)), 4).value(0)
    order_one_weight = classical_value(FamilyId.TYPE2_DEG_BERNOULLI, 0, order=1)
    s2 = triangular_numbers(FamilyId.STIRLING2, r, r).constant()
    rhs_without_order = order_one_weight * (
        math.comb(n, 0) * s2 / math.comb(r, r) * Fraction(2) ** (r - n)
    )
    assert lhs == BiPoly.const(1)
    assert rhs_without_order == BiPoly.const(2)
    # With the order threaded through, the same case balances.
    rhs = eq21_rhs_term(n, r) * (math.comb(n, 0) * s2 / math.comb(r, r) * Fraction(2) ** (r - n))
    assert rhs == lhs


# -- the verifier can fail ---------------------------------------------------------------
#
# Each mutant adds l to one triangle entry, or l or a constant to one family
# value, as the checkers see it (the module-level names in ``identities``);
# every checker that reads the perturbed entry must then report a nonzero
# residual.  Entries are chosen so that only one side of the identity reads
# them, except in ``limits-lambda0``, whose two sides both build ``deg-exp``.

TRIANGLE_MUTANTS = [
    (IdentityId.EQ21, FamilyId.STIRLING2, (3, 2), dict(max_n=5, max_order=1)),
    (IdentityId.THM2, FamilyId.DEG_STIRLING2, (3, 2), dict(max_n=5, max_order=1)),
    (IdentityId.THM2_COROLLARY, FamilyId.DEG_STIRLING2, (3, 2), dict(max_n=5, max_order=1)),
    (IdentityId.THM3, FamilyId.DEG_STIRLING1, (3, 2), dict(max_n=5, max_order=1)),
    (IdentityId.THM4, FamilyId.DEG_CENTRAL_FACTORIAL, (4, 2), dict(max_n=6, max_order=2)),
    (IdentityId.STIRLING_INVERSION, FamilyId.DEG_STIRLING2, (3, 2), dict(max_n=5)),
    (IdentityId.STIRLING_INVERSION, FamilyId.DEG_STIRLING1, (3, 2), dict(max_n=5)),
    (IdentityId.EQ5_RECON, FamilyId.CENTRAL_FACTORIAL, (4, 2), dict(max_n=5)),
]

FAMILY_MUTANTS = [
    (IdentityId.EQ21, FamilyId.DEG_BERNOULLI2, dict(max_n=5, max_order=1)),
    (IdentityId.EQ21, FamilyId.TYPE2_DEG_BERNOULLI, dict(max_n=5, max_order=1)),
    (IdentityId.EQ25, FamilyId.TYPE2_DEG_BERNOULLI2, dict(max_n=5)),
    (IdentityId.THM2, FamilyId.TYPE2_DEG_BERNOULLI2, dict(max_n=5, max_order=1)),
    (IdentityId.THM2_COROLLARY, FamilyId.TYPE2_DEG_BERNOULLI2, dict(max_n=5, max_order=1)),
    (IdentityId.THM3, FamilyId.TYPE2_DEG_BERNOULLI, dict(max_n=5, max_order=1)),
    (IdentityId.THM4, FamilyId.DEG_BERNOULLI2, dict(max_n=6, max_order=2)),
    (IdentityId.EQ2, FamilyId.TYPE2_BERNOULLI, dict(max_n=5)),
    (IdentityId.EQ4, FamilyId.TYPE2_EULER, dict(max_n=5)),
    (IdentityId.EQ18_EQUIV, FamilyId.DEG_BERNOULLI2, dict(max_n=5)),
    (IdentityId.B_SECOND_KIND_RELATION, FamilyId.DEG_BERNOULLI2, dict(max_n=5, max_order=1)),
    (IdentityId.EQ23, FamilyId.TYPE2_DEG_BERNOULLI2, dict(max_n=5)),
    (IdentityId.LIMITS_LAMBDA0, FamilyId.DEG_EXP, dict(max_n=5)),
    (IdentityId.COMPOSITIONAL_INVERSE, FamilyId.DEG_LOG, dict(max_n=5)),
]

# What a family mutant adds to coefficient 2, so to value 2 twice as much.
COEFFICIENT_SHIFTS = {"half-l": L * Fraction(1, 2), "half": BiPoly.const(Fraction(1, 2))}


@pytest.mark.parametrize("identity,family,entry,kwargs", TRIANGLE_MUTANTS)
def test_perturbed_triangle_entry_fails(monkeypatch, identity, family, entry, kwargs):
    # Checkers read every triangle entry from one read of rows 0..n, so one
    # accessor carries the fault, in every read that reaches row row_n.
    original_rows = identities.triangle_rows
    row_n, k_perturbed = entry

    def perturbed_rows(fam, n, *args, **kw):
        rows = original_rows(fam, n, *args, **kw)
        if fam != family or n < row_n:
            return rows
        row = rows[row_n]
        row = row[:k_perturbed] + (row[k_perturbed] + L,) + row[k_perturbed + 1:]
        return rows[:row_n] + (row,) + rows[row_n + 1:]

    monkeypatch.setattr(identities, "triangle_rows", perturbed_rows)
    report = verify(identity, **kwargs)
    assert not report.all_pass


@pytest.mark.parametrize("shift", list(COEFFICIENT_SHIFTS))
@pytest.mark.parametrize("identity,family,kwargs", FAMILY_MUTANTS)
def test_perturbed_family_value_fails(monkeypatch, request, identity, family, kwargs, shift):
    if (identity, shift) == (IdentityId.LIMITS_LAMBDA0, "half"):
        # Both sides build deg-exp with one recipe, at symbolic l and at l = 0,
        # so a constant fault shifts both alike.
        request.applymarker(pytest.mark.xfail(
            strict=True,
            reason="limits-lambda0 compares a recipe with itself at l = 0 (ROADMAP: "
            "classical limits that do not reuse the recipe)",
        ))
    original = identities.build_egf

    def perturbed(spec, trunc):
        series = original(spec, trunc)
        if spec.family != family:
            return series
        coeffs = list(series.coefficients)
        coeffs[2] = coeffs[2] + COEFFICIENT_SHIFTS[shift]
        return EgfSeries(coeffs)

    monkeypatch.setattr(identities, "build_egf", perturbed)
    report = verify(identity, **kwargs)
    assert not report.all_pass


def test_every_identity_can_fail():
    mutated = {mutant[0] for mutant in TRIANGLE_MUTANTS + FAMILY_MUTANTS}
    assert mutated == set(IdentityId)


# -- cross-checks between identities ---------------------------------------------------


def test_corollary_is_the_x_equals_k_specialization():
    trunc = 8
    for k in (1, 2):
        symbolic = build_egf(
            FamilySpec(FamilyId.TYPE2_DEG_BERNOULLI2, Fraction(k)), trunc
        ).values()
        numeric = build_egf(
            FamilySpec(FamilyId.TYPE2_DEG_BERNOULLI2, Fraction(k), Param.numeric(k)),
            trunc,
        ).values()
        # Specializing the symbolic polynomials at x = k gives the numeric build.
        assert [v.subs_x(k) for v in symbolic] == numeric
        # The corollary residual is -C(n+k,k) times the specialized main residual.
        main = {
            (c.indices["n"], c.indices["k"]): c.residual
            for c in verify(IdentityId.THM2, 5, k).cases
        }
        corollary = {
            (c.indices["n"], c.indices["k"]): c.residual
            for c in verify(IdentityId.THM2_COROLLARY, 5, k).cases
        }
        for n in range(6):
            specialized = main[(n, k)].subs_x(k) * (-math.comb(n + k, k))
            assert corollary[(n, k)] == specialized


@pytest.mark.parametrize("identity", list(IdentityId), ids=lambda i: i.value)
def test_checkers_build_to_max_n(identity, monkeypatch):
    # No case reads an index above max_n, so no series is built beyond it,
    # though the report states the full profile's truncation order 16.
    asked = []

    def spy(builder):
        signature = inspect.signature(builder)

        def wrapped(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            asked.append(bound.arguments["trunc"])
            return builder(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(identities, "build_egf", spy(identities.build_egf))
    monkeypatch.setattr(
        identities, "deg_bernoulli2_alt_egf", spy(identities.deg_bernoulli2_alt_egf)
    )
    report = verify(identity, max_n=6)
    assert report.trunc == 16
    assert report.all_pass
    assert all(trunc <= 6 for trunc in asked), asked


@pytest.mark.parametrize("identity", list(IdentityId), ids=lambda i: i.value)
def test_every_identity_passes_at_max_n_zero(identity):
    # Series are then built to order 0, below the lag of log_l(1+t).
    assert verify(identity, max_n=0).all_pass


def test_limits_cover_the_degenerate_catalog():
    report = verify(IdentityId.LIMITS_LAMBDA0, 4)
    families = {case.indices["family"] for case in report.cases}
    assert families >= {
        "deg-exp",
        "deg-log",
        "deg-bernoulli",
        "deg-euler",
        "deg-daehee",
        "deg-bernoulli2",
        "type2-deg-bernoulli",
        "type2-deg-bernoulli2",
        "deg-stirling1",
        "deg-stirling2",
        "deg-central-factorial",
    }


# -- entry-point behavior -----------------------------------------------------------


def test_unknown_identity_rejected():
    with pytest.raises(ValueError, match="unknown identity 'no-such-identity'"):
        verify("no-such-identity", 4)
    with pytest.raises(ValueError, match="unknown identity 'thm9'"):
        coerce_identity("thm9")


def test_aliases_resolve():
    assert coerce_identity("thm1") is IdentityId.EQ23
    assert coerce_identity("thm1-moreover") is IdentityId.EQ21
    assert coerce_identity("eq23") is IdentityId.EQ23


def test_order_on_identity_without_order_rejected():
    with pytest.raises(ValueError, match="has no order parameter"):
        verify(IdentityId.EQ23, 2, max_order=5)
    assert verify(IdentityId.EQ23, 2).max_order is None


@pytest.mark.parametrize(
    "identity",
    [IdentityId.EQ21, IdentityId.THM2, IdentityId.THM2_COROLLARY, IdentityId.THM3,
     IdentityId.B_SECOND_KIND_RELATION],
)
def test_order_below_first_order_rejected(identity):
    # These identities start at order 1; order 0 used to run as order 1.
    with pytest.raises(ValueError, match="starts at order 1"):
        verify(identity, 2, max_order=0)
    report = verify(identity, 2, max_order=1)
    assert report.all_pass and report.cases


@pytest.mark.parametrize(
    "identity,key,first",
    [
        ("eq21", "r", 1),
        ("thm2", "k", 1),
        ("thm2-corollary", "k", 1),
        ("thm3", "k", 1),
        ("thm4", "k", 0),
        ("b-second-kind-relation", "r", 1),
    ],
)
def test_order_range_starts_at_the_first_order(identity, key, first):
    report = verify(identity, 2, max_order=first + 1)
    assert report.all_pass
    orders = [case.indices[key] for case in report.cases]
    assert set(orders) == {first, first + 1}
    assert orders == sorted(orders)  # all cases of one order before the next
    with pytest.raises(ValueError, match=f"starts at order {first}"):
        verify(identity, 2, max_order=first - 1)


def test_eq21_builds_one_classical_series_per_order():
    families.clear_caches()
    verify(IdentityId.EQ21, 12, max_order=4)
    # Per order: the order-r series b^(r), its kernel (the series at x = 0),
    # and the order-r numbers B2*_i^(r) at x = 0 and l = 0 its weights come from.
    assert families._egf.cache_info().misses == 12


def test_default_ranges_profiles():
    assert default_ranges(IdentityId.THM4, "full") == (12, 6)
    assert default_ranges(IdentityId.THM4, "quick") == (8, 3)
    with pytest.raises(ValueError):
        default_ranges(IdentityId.THM4, "exhaustive")


def test_omitted_ranges_come_from_the_profile():
    report = verify("eq2")
    assert report.all_pass
    assert (report.max_n, report.trunc, report.profile) == (20, 20, "full")
    quick = verify(IdentityId.THM3, 2, profile="quick")
    assert (quick.max_order, quick.trunc, quick.profile) == (3, 12, "quick")
    # Every range given: no profile chose one, but its floor still sets trunc.
    given = verify(IdentityId.THM3, 2, 1, profile="quick")
    assert (given.max_order, given.trunc, given.profile) == (1, 12, None)
    low = verify("eq2", 2)
    assert (low.trunc, low.profile) == (16, None)


def test_profile_is_keyword_only():
    # A fourth positional argument is refused, not read as a profile name.
    with pytest.raises(TypeError):
        verify(IdentityId.THM3, 2, 1, "quick")
    assert "trunc" not in inspect.signature(verify).parameters


def test_verify_all_quick_profile():
    reports = verify_all("quick")
    assert len(reports) == 15
    assert all(report.all_pass for report in reports)
    assert all(report.profile == "quick" for report in reports)
