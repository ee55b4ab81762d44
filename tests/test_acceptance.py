"""Acceptance suite: every exit criterion at its pinned range, run exactly.

Each test prints one line on success; on failure pytest reports the
criterion by name with the failing cases.  All equalities are exact
polynomial identities in Q[l, x] -- the pass condition is an identically
zero residual, never a tolerance.
"""

import hashlib
import time
from fractions import Fraction

from degenpoly import cli
from degenpoly.bipoly import BiPoly
from degenpoly.families import (
    CATALOG,
    FamilyId,
    FamilySpec,
    Param,
    build_egf,
    triangular_numbers,
)
from degenpoly.identities import IdentityId, verify


def _assert_all_pass(report):
    failures = [
        (dict(case.indices), case.residual.render()) for case in report.cases if not case.passed
    ]
    assert report.all_pass, failures


def test_criterion_01_type2_second_kind_splits_into_shifted_pair():
    report = verify(IdentityId.EQ23, max_n=12)
    _assert_all_pass(report)
    assert len(report.cases) == 13
    print("criterion 01 PASS: order-1 split identity, n <= 12")


def test_criterion_02_stirling_weighted_sum_identity():
    start = time.perf_counter()
    report = verify(IdentityId.EQ21, max_n=10, max_order=4)
    elapsed = time.perf_counter() - start
    _assert_all_pass(report)
    assert elapsed < 60.0
    print(f"criterion 02 PASS: weighted-sum identity, n <= 10, r <= 4 ({elapsed:.1f}s)")


def test_criterion_03_order_k_sum_identity_and_corollary():
    start = time.perf_counter()
    _assert_all_pass(verify(IdentityId.THM2, max_n=10, max_order=4))
    _assert_all_pass(verify(IdentityId.THM2_COROLLARY, max_n=10, max_order=4))
    # Cross-check: the numeric-argument build is the x = k specialization.
    for k in (1, 2, 3, 4):
        symbolic = build_egf(
            FamilySpec(FamilyId.TYPE2_DEG_BERNOULLI2, Fraction(k)), 10
        ).values()
        numeric = build_egf(
            FamilySpec(FamilyId.TYPE2_DEG_BERNOULLI2, Fraction(k), Param.numeric(k)),
            10,
        ).values()
        assert [value.subs_x(k) for value in symbolic] == numeric
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 03 PASS: order-k sum identity + corollary ({elapsed:.1f}s)")


def test_criterion_04_first_kind_expansion():
    report = verify(IdentityId.THM3, max_n=10, max_order=4)
    _assert_all_pass(report)
    print("criterion 04 PASS: negative-order expansion, n <= 10, k <= 4")


def test_criterion_05_central_factorial_double_sum():
    report = verify(IdentityId.THM4, max_n=12, max_order=6)
    _assert_all_pass(report)
    # Rational half-integer arguments really occur (odd k).
    ks = {case.indices["k"] for case in report.cases}
    assert {1, 3, 5} <= ks
    print("criterion 05 PASS: double-sum identity, 0 <= k <= n <= 12, k <= 6")


def test_criterion_06_type2_to_classical_argument_shift():
    _assert_all_pass(verify(IdentityId.EQ2, max_n=20))
    _assert_all_pass(verify(IdentityId.EQ4, max_n=20))
    print("criterion 06 PASS: type 2 <-> classical shifts, n <= 20, symbolic x")


def test_criterion_07_binomial_expansion_and_reconstruction():
    _assert_all_pass(verify(IdentityId.EQ25, max_n=12))
    _assert_all_pass(verify(IdentityId.EQ5_RECON, max_n=10))
    print("criterion 07 PASS: binomial expansion (n <= 12) and x^n reconstruction (n <= 10)")


def test_criterion_08_second_kind_order_relation():
    report = verify(IdentityId.B_SECOND_KIND_RELATION, max_n=10, max_order=5)
    _assert_all_pass(report)
    # Orders n - r + 1 <= 0 are exercised (e.g. n = 0, r = 5).
    assert {"n": 0, "r": 5} in [dict(case.indices) for case in report.cases]
    print("criterion 08 PASS: order relation incl. nonpositive orders, n <= 10, r <= 5")


def test_criterion_09_classical_limits_are_exact_substitutions():
    report = verify(IdentityId.LIMITS_LAMBDA0, max_n=12)
    _assert_all_pass(report)
    print("criterion 09 PASS: l = 0 substitution matches classical families, n <= 12")


def test_criterion_10_compositional_inverse_and_inversion():
    _assert_all_pass(verify(IdentityId.COMPOSITIONAL_INVERSE, max_n=16))
    _assert_all_pass(verify(IdentityId.STIRLING_INVERSION, max_n=12))
    print("criterion 10 PASS: compositional inverses at order 16; triangle inversion n, m <= 12")


def test_criterion_11_oracle_cross_checks():
    # Set-partition counts (independent enumeration) for n <= 8.
    from test_families import (
        bernoulli_numbers_by_recurrence,
        euler_polys_by_recurrence,
        stirling2_by_enumeration,
    )

    for n in range(9):
        for k in range(n + 1):
            assert triangular_numbers(FamilyId.STIRLING2, n, k) == BiPoly.const(
                stirling2_by_enumeration(n, k)
            )
    assert stirling2_by_enumeration(4, 2) == 7

    bern = bernoulli_numbers_by_recurrence(12)
    series = build_egf(
        FamilySpec(FamilyId.BERNOULLI_ORDER_R, argument=Param.numeric(0)), 12
    )
    assert [series.value(n).constant() for n in range(13)] == bern

    euler = euler_polys_by_recurrence(12)
    series = build_egf(FamilySpec(FamilyId.EULER), 12)
    assert series.values() == euler
    print("criterion 11 PASS: enumeration and recurrence oracles, n <= 12")


FULL_SUITE_SHA256 = "699f0ff3a60d78c61ddd966098311c83a2bbefe61f0eec5f3e8ba06d1a0f57c1"
QUICK_CSV_SHA256 = "1ec4ffc443566a5d315386b7b2a05a65351f8288ba86dedd73aa140d37aa98ef"
COMPUTE_JSON_SHA256 = "3bb0dec14e880c18b79c2f9ec91319f25b7c6804b11ab3961f79646f5ce6c96d"
COMPUTE_CSV_SHA256 = "f1ea2185de2e5c15154533da1e27d0eefef3a2aa26bb13ba7ff15224736023a7"


def test_criterion_12_full_cli_suite_under_budget(capsys):
    start = time.perf_counter()
    code = cli.run(["verify", "--identity", "all", "--profile", "full"])
    elapsed = time.perf_counter() - start
    payload = capsys.readouterr().out
    assert code == 0
    assert elapsed < 600.0
    # The full-suite JSON is byte-identical to the recorded output.
    assert hashlib.sha256(payload.encode()).hexdigest() == FULL_SUITE_SHA256
    print(f"criterion 12 PASS: full suite exits 0 in {elapsed:.1f}s (< 600s)")


def test_quick_cli_suite_csv_is_pinned(capsys):
    code = cli.run(["verify", "--identity", "all", "--profile", "quick", "--format", "csv"])
    payload = capsys.readouterr().out
    assert code == 0
    # Byte-identical to the recorded output: pins the quick ranges and the arithmetic.
    assert hashlib.sha256(payload.encode()).hexdigest() == QUICK_CSV_SHA256


def _compute_catalog(capsys, fmt):
    # Every family at --max-n 6, symbolic, then at l = -37/42 and x = 5/3
    # wherever the family takes them.
    chunks = []
    for numeric in (False, True):
        for family in FamilyId:
            info = CATALOG[family]
            argv = ["compute", "--family", family.value, "--max-n", "6", "--format", fmt]
            if numeric and info.degenerate:
                argv.append("--lambda=-37/42")
            if numeric and info.takes_argument:
                argv.append("--x=5/3")
            assert cli.run(argv) == 0
            chunks.append(capsys.readouterr().out)
    return hashlib.sha256("".join(chunks).encode()).hexdigest()


def test_compute_json_is_pinned(capsys):
    assert _compute_catalog(capsys, "json") == COMPUTE_JSON_SHA256


def test_compute_csv_is_pinned(capsys):
    assert _compute_catalog(capsys, "csv") == COMPUTE_CSV_SHA256
