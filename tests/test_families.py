"""Family builder tests: frozen values, independent combinatorial oracles,
classical limits, and parameter validation."""

import math
import re
import sys
import threading
from fractions import Fraction
from functools import partial

import pytest

from degenpoly import cli
from degenpoly.bipoly import BiPoly, rational
from degenpoly.families import (
    CATALOG,
    E_L,
    POW1P,
    FamilyId,
    FamilySpec,
    Param,
    TRIANGLE_FAMILIES,
    _egf,
    _step_table,
    _triangle_table,
    build_egf,
    central_factorial_power,
    clear_caches,
    deg_bernoulli2_alt_egf,
    step_egf,
    step_products,
    triangle_rows,
    triangular_numbers,
)
from degenpoly import identities
from degenpoly.identities import Case, IdentityId, VerificationReport, verify
from degenpoly.series import EgfSeries, SeriesError
from oracles import classical_value, series_exp

L = BiPoly.lam()
X = BiPoly.x()
ONE = BiPoly.const(1)
SYM = Param.symbolic()
AT0 = Param.numeric(0)


def values(family, trunc, order=1, argument=SYM, lam=Param()):
    return build_egf(FamilySpec(family, Fraction(order), argument, lam), trunc).values()


# -- independent oracles -------------------------------------------------------


def set_partitions(items):
    """All partitions of a list into nonempty blocks (brute-force enumeration)."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [head]] + partition[i + 1 :]
        yield partition + [[head]]


def stirling2_by_enumeration(n, k):
    return sum(1 for p in set_partitions(list(range(n))) if len(p) == k)


def bernoulli_numbers_by_recurrence(nmax):
    # sum_{k=0..n} C(n+1, k) B_k = 0 for n >= 1, with B_0 = 1.
    numbers = [Fraction(1)]
    for n in range(1, nmax + 1):
        acc = sum(math.comb(n + 1, k) * numbers[k] for k in range(n))
        numbers.append(-acc / math.comb(n + 1, n))
    return numbers


def euler_polys_by_recurrence(nmax):
    # 2 E_n(x) = 2 x^n - sum_{k<n} C(n,k) E_k(x), from (e^t + 1) * EGF = 2 e^(xt).
    polys = [BiPoly.const(1)]
    for n in range(1, nmax + 1):
        acc = X**n * 2
        for k in range(n):
            acc = acc - polys[k] * math.comb(n, k)
        polys.append(acc * Fraction(1, 2))
    return polys


# -- sequence families: frozen values ---------------------------------------------


def test_deg_log_values():
    vals = values(FamilyId.DEG_LOG, 6)
    assert vals[0] == BiPoly.zero()
    for n in range(1, 7):
        expected = BiPoly.const(1)
        for j in range(1, n):
            expected = expected * (L - j)
        assert vals[n] == expected


def test_deg_exp_symbolic_values():
    vals = values(FamilyId.DEG_EXP, 3)
    assert vals[2] == X * X - L * X
    assert vals[3] == X * (X - L) * (X - L * 2)


def test_deg_exp_exponent_additivity():
    # e_l^2(t) = (e_l^1(t))^2 exactly.
    square = build_egf(FamilySpec(FamilyId.DEG_EXP, argument=Param.numeric(1)), 8)
    double = build_egf(FamilySpec(FamilyId.DEG_EXP, argument=Param.numeric(2)), 8)
    assert square * square == double


def test_type2_deg_bernoulli2_low_values():
    vals = values(FamilyId.TYPE2_DEG_BERNOULLI2, 2)
    assert vals[0] == BiPoly.const(2)
    assert vals[1] == X * 2 - L


def test_deg_bernoulli2_first_value():
    vals = values(FamilyId.DEG_BERNOULLI2, 2, argument=AT0)
    assert vals[1] == (BiPoly.const(1) - L) * Fraction(1, 2)


def test_type2_deg_bernoulli_base_constant():
    for k in (1, 2, 3):
        vals = values(FamilyId.TYPE2_DEG_BERNOULLI, 1, order=k, argument=AT0)
        assert vals[0] == BiPoly.const(Fraction(1, 2**k))


def test_deg_bernoulli_first_polynomial():
    vals = values(FamilyId.DEG_BERNOULLI, 2)
    assert vals[1] == X + (L - 1) * Fraction(1, 2)


def test_deg_euler_first_polynomial():
    vals = values(FamilyId.DEG_EULER, 2)
    assert vals[1] == X - Fraction(1, 2)


# -- triangles against oracles ------------------------------------------------------


def test_stirling2_matches_set_partition_enumeration():
    for n in range(9):
        for k in range(n + 1):
            expected = stirling2_by_enumeration(n, k)
            assert triangular_numbers(FamilyId.STIRLING2, n, k) == BiPoly.const(expected)


def test_stirling1_matches_signed_recurrence():
    # s(n+1, k) = s(n, k-1) - n * s(n, k)
    nmax = 8
    table = [[Fraction(0)] * (nmax + 1) for _ in range(nmax + 1)]
    table[0][0] = Fraction(1)
    for n in range(nmax):
        for k in range(n + 2):
            above = table[n][k - 1] if k >= 1 else Fraction(0)
            table[n + 1][k] = above - n * table[n][k]
    for n in range(nmax + 1):
        for k in range(n + 1):
            assert triangular_numbers(FamilyId.STIRLING1, n, k) == BiPoly.const(table[n][k])


def test_degenerate_triangle_values():
    assert triangular_numbers(FamilyId.DEG_STIRLING2, 2, 1) == BiPoly.const(1) - L
    assert triangular_numbers(FamilyId.DEG_STIRLING1, 2, 1) == L - 1
    assert triangular_numbers(FamilyId.DEG_CENTRAL_FACTORIAL, 2, 1) == -L


def test_central_factorial_even_column():
    assert triangular_numbers(FamilyId.CENTRAL_FACTORIAL, 4, 2) == BiPoly.const(1)
    assert triangular_numbers(FamilyId.CENTRAL_FACTORIAL, 3, 2) == BiPoly.zero()


def test_triangle_normalization():
    for family in (
        FamilyId.DEG_STIRLING1,
        FamilyId.DEG_STIRLING2,
        FamilyId.DEG_CENTRAL_FACTORIAL,
    ):
        for n in range(7):
            assert triangular_numbers(family, n, n) == BiPoly.const(1)
        assert triangular_numbers(family, 3, 5) == BiPoly.zero()
        assert triangular_numbers(family, 3, -1) == BiPoly.zero()


def triangle_by_recurrence(nmax, weight):
    # T(n+1, k) = T(n, k-1) + weight(n, k) * T(n, k), with T(0, 0) = 1.
    table = [[BiPoly.zero()] * (nmax + 1) for _ in range(nmax + 1)]
    table[0][0] = ONE
    for n in range(nmax):
        for k in range(n + 2):
            above = table[n][k - 1] if k >= 1 else BiPoly.zero()
            table[n + 1][k] = above + weight(n, k) * table[n][k]
    return table


@pytest.mark.parametrize(
    "family, weight",
    [
        (FamilyId.DEG_STIRLING2, lambda n, k: L * -n + k),
        (FamilyId.DEG_STIRLING1, lambda n, k: L * k - n),
    ],
)
def test_degenerate_stirling_recurrences(family, weight):
    # S2_l(n+1,k) = S2_l(n,k-1) + (k - n*l) S2_l(n,k)
    # S1_l(n+1,k) = S1_l(n,k-1) + (k*l - n) S1_l(n,k)
    table = triangle_by_recurrence(12, weight)
    for n in range(13):
        for k in range(n + 1):
            assert triangular_numbers(family, n, k) == table[n][k], (n, k)


def test_degenerate_central_factorial_expands_degenerate_falling_factorial():
    # (x)_{n,l} = sum_k T_l(n,k) x^[k], with x^[k] = x (x + k/2 - 1) ... (x - k/2 + 1).
    def central_power(k):
        acc = X if k else ONE
        for j in range(1, k):
            acc = acc * (X + Fraction(k, 2) - j)
        return acc

    falling = ONE
    for n in range(11):
        acc = BiPoly.zero()
        for k in range(n + 1):
            t = triangular_numbers(FamilyId.DEG_CENTRAL_FACTORIAL, n, k)
            acc = acc + t * central_power(k)
        assert acc == falling, n
        falling = falling * (X - L * n)


def test_central_factorial_recurrence():
    # T(n+2,k) = T(n,k-2) + (k/2)^2 T(n,k), from rows T(0,.) and T(1,.).
    nmax = 12
    table = [[Fraction(0)] * (nmax + 1) for _ in range(nmax + 1)]
    table[0][0] = table[1][1] = Fraction(1)
    for n in range(nmax - 1):
        for k in range(n + 3):
            below = table[n][k - 2] if k >= 2 else Fraction(0)
            table[n + 2][k] = below + Fraction(k, 2) ** 2 * table[n][k]
    for n in range(nmax + 1):
        for k in range(n + 1):
            expected = BiPoly.const(table[n][k])
            assert triangular_numbers(FamilyId.CENTRAL_FACTORIAL, n, k) == expected, (n, k)


def test_degenerate_central_factorial_recurrence():
    # T_l(n+1,k) = T_l(n-1,k-2) + (k^2/4 - l^2 (n-1)^2) T_l(n-1,k) - l(2n-1) T_l(n,k).
    nmax = 12
    table = [[BiPoly.zero()] * (nmax + 1) for _ in range(nmax + 1)]
    table[0][0] = table[1][1] = ONE
    for n in range(1, nmax):
        for k in range(n + 2):
            below = table[n - 1][k - 2] if k >= 2 else BiPoly.zero()
            weight = L * L * -((n - 1) ** 2) + Fraction(k, 2) ** 2
            table[n + 1][k] = below + weight * table[n - 1][k] - L * (2 * n - 1) * table[n][k]
    for n in range(nmax + 1):
        for k in range(n + 1):
            expected = table[n][k]
            assert triangular_numbers(FamilyId.DEG_CENTRAL_FACTORIAL, n, k) == expected, (n, k)


# The EGF route: column k of a triangle is kernel(l)^k / k!.  It shares no code
# with the row recurrences that build the tables, only step_egf and the series.


def expm1_kernel(lam, trunc):
    """e_l(t) - 1."""
    return step_egf(ONE, lam, trunc) - EgfSeries.one(trunc)


def log1p_kernel(lam, trunc):
    """log_l(1+t)."""
    return step_egf(lam - 1, ONE, trunc, lag=1)


def central_difference_kernel(lam, trunc):
    """e_l^(1/2)(t) - e_l^(-1/2)(t)."""
    half = BiPoly.const(Fraction(1, 2))
    return step_egf(half, lam, trunc) - step_egf(-half, lam, trunc)


def triangle_by_egf_powers(kernel, size):
    rows = [[BiPoly.zero()] * (size + 1) for _ in range(size + 1)]
    rows[0][0] = ONE
    power = EgfSeries.one(size)
    for k in range(1, size + 1):
        power = (power * kernel).scale(Fraction(1, k))
        for n in range(k, size + 1):
            rows[n][k] = power.value(n)
    return tuple(map(tuple, rows))


# family -> (kernel, whether the kernel sees the lambda mode's l)
TRIANGLE_KERNELS = {
    FamilyId.STIRLING1: (log1p_kernel, False),
    FamilyId.STIRLING2: (expm1_kernel, False),
    FamilyId.CENTRAL_FACTORIAL: (central_difference_kernel, False),
    FamilyId.DEG_STIRLING1: (log1p_kernel, True),
    FamilyId.DEG_STIRLING2: (expm1_kernel, True),
    FamilyId.DEG_CENTRAL_FACTORIAL: (central_difference_kernel, True),
}


@pytest.mark.parametrize("family", list(TRIANGLE_KERNELS), ids=lambda f: f.value)
@pytest.mark.parametrize(
    "mode",
    [Param.symbolic(), Param.numeric(Fraction(-37, 42)), Param.scaled(Fraction(3, 2))],
    ids=lambda mode: mode.kind,
)
def test_triangle_tables_match_egf_powers(family, mode):
    size = 13
    kernel, degenerate = TRIANGLE_KERNELS[family]
    if not degenerate and mode.kind != "symbolic":
        # A classical table runs at l = 0 and refuses any other deformation.
        with pytest.raises(ValueError, match="is classical"):
            triangular_numbers(family, size, 1, mode)
        return
    lam = mode.to_poly(L) if degenerate else BiPoly.zero()
    expected = triangle_by_egf_powers(kernel(lam, size), size)
    assert [triangle_rows(family, n, mode)[n] for n in range(size + 1)] == [
        row[: n + 1] for n, row in enumerate(expected)
    ]


@pytest.mark.parametrize("family", list(TRIANGLE_KERNELS), ids=lambda f: f.value)
@pytest.mark.parametrize("numeric", [False, True], ids=["symbolic", "numeric"])
def test_triangle_table_extends_and_serves_prefixes(family, numeric):
    # Longer requests extend the one table, shorter ones read a prefix.
    kernel, degenerate = TRIANGLE_KERNELS[family]
    # A classical table runs at l = 0, its only numeric l.
    mode = Param.numeric(Fraction(-37, 42) if degenerate else 0) if numeric else Param.symbolic()
    lam = mode.to_poly(L) if degenerate else BiPoly.zero()
    expected = triangle_by_egf_powers(kernel(lam, 12), 12)
    clear_caches()
    for n in (3, 9, 5, 0, 12):
        assert triangle_rows(family, n, mode)[n] == expected[n][: n + 1], n
    assert _triangle_table.cache_info()[:2] == (4, 1)  # (hits, misses)


def test_triangle_column_edge_cases():
    # Entries outside 0 <= k <= n are the zero polynomial.
    for n, k in ((3, 5), (3, -1), (-1, 0)):
        assert triangular_numbers(FamilyId.DEG_STIRLING2, n, k) == BiPoly.zero(), (n, k)
    # A numeric-l column holds the substituted symbolic entries, zero above the diagonal.
    third = Param.numeric(Fraction(1, 3))
    for family in (FamilyId.DEG_STIRLING1, FamilyId.DEG_CENTRAL_FACTORIAL):
        for n in range(13):
            expected = triangular_numbers(family, n, 3).subs_lam(third.value)
            assert triangular_numbers(family, n, 3, third) == expected, (family, n)


def test_triangle_rows_are_built_once(capsys):
    clear_caches()
    for max_n, built in (("24", 25), ("30", 31), ("24", 31)):
        assert cli.run(["compute", "--family", "deg-stirling2", "--max-n", max_n]) == 0
        capsys.readouterr()
        assert len(_triangle_table(FamilyId.DEG_STIRLING2, Param.symbolic())[0]) == built, max_n
    assert _triangle_table.cache_info().misses == 1


def test_deep_row_recursion_stays_shallow():
    # Row n must not recurse n calls deep: read a row deeper than the limit.
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    clear_caches()
    sys.setrecursionlimit(depth + 150)
    try:
        value = triangular_numbers(FamilyId.STIRLING2, 400, 2)
    finally:
        sys.setrecursionlimit(limit)
        clear_caches()
    assert value == BiPoly.const(2**399 - 1)  # S2(n, 2) = 2^(n-1) - 1


def test_triangle_table_cache_is_bounded():
    clear_caches()
    for j in range(1, 1401):
        triangular_numbers(FamilyId.DEG_STIRLING2, 2, 1, Param.numeric(Fraction(j, 1401)))
    info = _triangle_table.cache_info()
    assert info.misses == 1400  # one table for each l
    assert info.currsize == info.maxsize == 64


def test_classical_modes_share_one_table():
    clear_caches()
    symbolic = triangular_numbers(FamilyId.STIRLING2, 10, 2)
    assert _triangle_table.cache_info().currsize == 1
    assert triangular_numbers(FamilyId.STIRLING2, 10, 2, Param.numeric(0)) == symbolic
    assert _triangle_table.cache_info()[:4] == (1, 1, 64, 1)  # (hits, misses, maxsize, currsize)


def test_every_family_cache_is_bounded_and_cleared():
    import degenpoly.families as families

    caches = {name: obj for name, obj in vars(families).items() if hasattr(obj, "cache_info")}
    assert {"_step_table", "_egf", "_triangle_table"} == set(caches)
    build_egf(FamilySpec(FamilyId.DEG_BERNOULLI2, Fraction(2)), 4)
    triangular_numbers(FamilyId.DEG_STIRLING2, 4, 2)
    for name, cache in caches.items():
        assert cache.cache_info().currsize > 0, name
        assert cache.cache_info().maxsize is not None, name
    clear_caches()
    for name, cache in caches.items():
        assert cache.cache_info().currsize == 0, name


def _step_oracle(arg, step, trunc, lag):
    """Coefficient n is (arg)_{n-lag,step}/n!, from a fresh step product; 0 below lag."""
    return EgfSeries(
        [
            step_products(arg, step, n - lag)[-1] * Fraction(1, math.factorial(n)) if n >= lag else 0
            for n in range(trunc + 1)
        ]
    )


def test_shifted_step_products_are_a_binomial_convolution():
    # (x - k)_{n,l} = sum_i C(n,i) (-k)_{n-i,l} (x)_{i,l}: e_l^(x-k)(t) = e_l^(-k)(t) e_l^x(t).
    # thm2 forms its right side by this convolution.
    size = 16
    at_x = step_products(X, L, size)
    for k in range(7):
        shifted = step_products(X - k, L, size)
        at_minus_k = step_products(BiPoly.const(-k), L, size)
        for n in range(size + 1):
            expected = BiPoly.zero()
            for i in range(n + 1):
                expected = expected + at_minus_k[n - i] * at_x[i] * math.comb(n, i)
            assert shifted[n] == expected, (k, n)


_STEP_ARGS = [X, BiPoly.const(Fraction(-3, 2)), X + Fraction(5, 3), BiPoly.const(3)]
_STEP_ARG_IDS = ["symbolic", "numeric", "shifted", "integer"]


@pytest.mark.parametrize("lag", [0, 1])
@pytest.mark.parametrize("arg", _STEP_ARGS[:3], ids=_STEP_ARG_IDS[:3])
def test_memoized_step_egf_matches_unmemoized(arg, lag):
    clear_caches()
    for step in (ONE, L):
        expected = _step_oracle(arg, step, 7, lag)
        assert step_egf(arg, step, 7, lag) == expected
        assert step_egf(arg, step, 7, lag) == expected  # a cache hit
    assert _step_table.cache_info().hits == 2


@pytest.mark.parametrize("lag", [0, 1, 2])
@pytest.mark.parametrize("step", [ONE, L], ids=["1", "l"])
@pytest.mark.parametrize("arg", _STEP_ARGS, ids=_STEP_ARG_IDS)
def test_step_table_extends_and_serves_prefixes(arg, step, lag):
    # Longer requests extend the table, shorter ones read a prefix, and
    # trunc 0 lies below lag 1 and 2.  The integer arg 3 at step 1 gives
    # values 0 from n = lag + 4 on.
    clear_caches()
    for trunc in (3, 9, 5, 0, 12):
        got = step_egf(arg, step, trunc, lag)
        assert got.order == trunc
        assert got == _step_oracle(arg, step, trunc, lag), trunc
    assert _step_table.cache_info()[:3] == (4, 1, 64)  # (hits, misses, maxsize)
    assert len(_step_table(arg, step, lag)[0]) == 13  # kept at its longest
    if arg == 3 and step == ONE:
        assert not any(step_egf(arg, step, 12, lag).coefficients[lag + 4 :])


def test_step_table_is_one_entry_per_key():
    clear_caches()
    for trunc in (12, 5, 12):
        step_egf(X, L, trunc)
    assert _step_table.cache_info()[:2] == (2, 1)  # (hits, misses)


def test_step_table_is_shared_across_threads():
    # Concurrent callers may each extend the table; every one gets the
    # oracle's values for its own truncation.
    clear_caches()
    truncs = (4, 11, 7, 16)
    results = {}

    def read(trunc):
        results[trunc] = step_egf(X - 1, L, trunc, 1)

    threads = [threading.Thread(target=read, args=(trunc,)) for trunc in truncs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for trunc in truncs:
        assert results[trunc] == _step_oracle(X - 1, L, trunc, 1), trunc
    assert step_egf(X - 1, L, 16, 1) == results[16]
    assert _step_table.cache_info().currsize == 1


def test_triangle_table_is_shared_across_threads():
    # Concurrent callers may each extend the table; every one gets the
    # EGF route's row for its own index.
    family, mode = FamilyId.DEG_CENTRAL_FACTORIAL, Param.numeric(Fraction(-37, 42))
    expected = triangle_by_egf_powers(central_difference_kernel(mode.to_poly(L), 16), 16)
    clear_caches()
    ns = (4, 11, 7, 16)
    results = {}

    def read(n):
        results[n] = triangle_rows(family, n, mode)[n]

    threads = [threading.Thread(target=read, args=(n,)) for n in ns]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for n in ns:
        assert results[n] == expected[n][: n + 1], n
    assert triangle_rows(family, 16, mode)[16] == results[16]
    assert _triangle_table.cache_info().currsize == 1


@pytest.mark.parametrize(
    "family,order,lam",
    [
        (FamilyId.DEG_BERNOULLI2, Fraction(1, 2), L),
        (FamilyId.TYPE2_DEG_BERNOULLI2, Fraction(2), L),
        (FamilyId.TYPE2_DEG_BERNOULLI, Fraction(-2), BiPoly.const(Fraction(-37, 42))),
        (FamilyId.EULER, Fraction(1), BiPoly.zero()),
        (FamilyId.DEG_DAEHEE, Fraction(1), L * Fraction(1, 2)),
        (FamilyId.DEG_LOG, Fraction(1), L),
    ],
    ids=lambda v: getattr(v, "value", None),
)
def test_memoized_kernel_matches_unmemoized(family, order, lam):
    # A kernel is its family's series at x = 0.
    clear_caches()
    expected = CATALOG[family].build(order, lam, 7)
    assert _egf.__wrapped__(family, order, 0, lam, 7) == expected
    assert _egf(family, order, 0, lam, 7) == expected
    hits = _egf.cache_info().hits
    assert _egf(family, order, 0, lam, 7) == expected
    assert _egf.cache_info().hits == hits + 1  # a cache hit


def test_kernel_is_built_once_per_order_and_l():
    # deg-bernoulli2 at three x-arguments shares one kernel, the series at
    # x = 0, and the kernel of type2-deg-bernoulli2 at the same order reads it.
    clear_caches()
    for argument in (SYM, Param.shifted(-1), Param.numeric(0)):
        build_egf(FamilySpec(FamilyId.DEG_BERNOULLI2, Fraction(2), argument), 6)
    assert _egf.cache_info()[:2] == (2, 3)  # (hits, misses)
    build_egf(FamilySpec(FamilyId.TYPE2_DEG_BERNOULLI2, Fraction(2)), 6)
    assert _egf.cache_info()[:2] == (3, 5)


def test_classical_modes_share_one_series():
    # euler at symbolic x is two entries: its series and its kernel at x = 0.
    clear_caches()
    symbolic = build_egf(FamilySpec(FamilyId.EULER), 6)
    assert _egf.cache_info().currsize == 2
    assert build_egf(FamilySpec(FamilyId.EULER, lambda_mode=Param.numeric(0)), 6) == symbolic
    assert _egf.cache_info()[:4] == (1, 2, 1024, 2)  # (hits, misses, maxsize, currsize)


def test_step_product_length_must_be_nonnegative():
    for build in (partial(step_products, X, ONE, -1), partial(step_egf, X, ONE, -1)):
        for _ in range(2):  # a failed call is not cached
            with pytest.raises(ValueError):
                build()


TRIANGLE_ROW_MODES = {
    True: [Param.symbolic(), Param.numeric(Fraction(-37, 42)),
           Param.scaled(Fraction(1, 2))],
    False: [Param.symbolic(), Param.numeric(0)],
}


@pytest.mark.parametrize("family", sorted(TRIANGLE_FAMILIES, key=lambda f: f.value),
                         ids=lambda f: f.value)
def test_triangle_row_holds_the_entries(family):
    for mode in TRIANGLE_ROW_MODES[CATALOG[family].degenerate]:
        for n in range(21):
            expected = tuple(triangular_numbers(family, n, k, mode) for k in range(n + 1))
            assert triangle_rows(family, n, mode)[n] == expected, (mode, n)


@pytest.mark.parametrize("family", sorted(TRIANGLE_FAMILIES, key=lambda f: f.value),
                         ids=lambda f: f.value)
def test_triangle_rows_hold_rows_zero_to_n(family):
    # One read returns exactly rows 0..n, each the row that a table grown one
    # row at a time holds, whatever longer table the cache already has.
    for mode in TRIANGLE_ROW_MODES[CATALOG[family].degenerate]:
        clear_caches()
        one_at_a_time = [triangle_rows(family, m, mode)[m] for m in range(17)]
        clear_caches()
        triangle_rows(family, 16, mode)
        for n in range(17):
            rows = triangle_rows(family, n, mode)
            assert len(rows) == n + 1, (mode, n)
            assert list(rows) == one_at_a_time[: n + 1], (mode, n)


@pytest.mark.parametrize("family", [FamilyId.STIRLING1, FamilyId.STIRLING2,
                                    FamilyId.CENTRAL_FACTORIAL], ids=lambda f: f.value)
def test_classical_rows_are_one_table_at_l_and_0(family):
    clear_caches()
    assert triangle_rows(family, 9, SYM) == triangle_rows(family, 9, AT0)
    assert _triangle_table.cache_info().currsize == 1


def test_triangle_request_reads_its_table_once(capsys):
    clear_caches()
    argv = ["compute", "--family", "deg-stirling2", "--max-n", "15", "--lambda=42/25"]
    for fmt in ("json", "csv"):
        assert cli.run(argv + ["--format", fmt]) == 0
    capsys.readouterr()
    assert _triangle_table.cache_info()[:2] == (1, 1)  # (hits, misses)


@pytest.mark.parametrize(
    "family,n,mode,match",
    [
        (FamilyId.EULER, 2, SYM, "not a triangle family"),
        (FamilyId.STIRLING2, 4, Param.numeric(3), "is classical"),
        (FamilyId.DEG_STIRLING2, -1, SYM, "nonnegative"),
    ],
    ids=["non-triangle", "classical-l3", "negative-n"],
)
def test_triangle_row_refuses_what_entries_refuse(family, n, mode, match):
    clear_caches()
    with pytest.raises(ValueError, match=match):
        triangle_rows(family, n, mode)
    if n >= 0:
        with pytest.raises(ValueError, match=match):
            triangular_numbers(family, n, 1, mode)
    else:
        # An entry outside the triangle is zero; a row outside it does not exist.
        assert triangular_numbers(family, n, 1, mode) == BiPoly.zero()
    assert _triangle_table.cache_info().currsize == 0


def test_triangle_requires_triangle_family():
    with pytest.raises(ValueError):
        triangular_numbers(FamilyId.EULER, 2, 1)


def test_triangle_cache_grows_consistently():
    small = triangular_numbers(FamilyId.DEG_STIRLING2, 3, 2)
    triangular_numbers(FamilyId.DEG_STIRLING2, 12, 2)  # reads a deeper row
    assert triangular_numbers(FamilyId.DEG_STIRLING2, 3, 2) == small
    # S2(n, 2) = 2^(n-1) - 1 pins the classical row.
    assert triangular_numbers(FamilyId.STIRLING2, 12, 2).constant() == Fraction(2**11 - 1)


def test_triangle_table_thread_safety_smoke():
    results = []

    def worker():
        results.append(triangular_numbers(FamilyId.DEG_STIRLING1, 10, 4))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)


# -- factorial-type polynomials ---------------------------------------------------


def test_classical_falling_factorial():
    falling = step_egf(X, ONE, 3).values()
    assert falling[3] == X**3 - X * X * 3 + X * 2
    assert falling[0] == ONE
    assert step_egf(BiPoly.const(Fraction(3, 2)), ONE, 2).value(2) == BiPoly.const(Fraction(3, 4))


def test_degenerate_falling_factorial_collapses_at_lambda_zero():
    assert step_egf(X, L, 2).value(2).subs_lam(0) == X * X
    # Step 1 recovers the classical product.
    assert step_egf(X, L, 4).value(4).subs_lam(1) == step_egf(X, ONE, 4).value(4)


def test_central_factorial_powers():
    assert central_factorial_power(0) == BiPoly.const(1)
    assert central_factorial_power(2) == X * X
    assert central_factorial_power(3) == X**3 - X * Fraction(1, 4)


# -- classical families against oracles ----------------------------------------------


def test_bernoulli_numbers_against_recurrence():
    expected = bernoulli_numbers_by_recurrence(12)
    vals = values(FamilyId.BERNOULLI_ORDER_R, 12, argument=AT0)
    assert [v.constant() for v in vals] == expected


def test_euler_polynomials_against_recurrence():
    expected = euler_polys_by_recurrence(12)
    vals = values(FamilyId.EULER, 12)
    assert vals == expected


def test_daehee_closed_form():
    # D_n = (-1)^n n!/(n+1), by termwise expansion of the kernel.
    vals = values(FamilyId.DAEHEE, 8, argument=AT0)
    for n in range(9):
        assert vals[n] == BiPoly.const(Fraction((-1) ** n * math.factorial(n), n + 1))


def test_type2_base_values():
    assert values(FamilyId.TYPE2_BERNOULLI, 0, argument=AT0)[0] == BiPoly.const(Fraction(1, 2))
    assert values(FamilyId.TYPE2_EULER, 0, argument=AT0)[0] == BiPoly.const(1)


def test_classical_value_equals_lambda_zero_build():
    for family in (FamilyId.DEG_DAEHEE, FamilyId.DEG_BERNOULLI):
        direct = classical_value(family, 4)
        via_zero = values(family, 4, lam=Param.numeric(0))[4]
        assert direct == via_zero


# -- builder equivalences and modes -----------------------------------------------------


def test_binomial_power_equals_exp_log_route():
    # Closed product form of (1+t)^c against exp(c * log(1+t)).
    exponent = X - L * Fraction(1, 2)
    direct = step_egf(exponent, BiPoly.const(1), 10)
    log1p = step_egf(BiPoly.const(-1), BiPoly.const(1), 10, lag=1)
    via_exp = series_exp(log1p.scale(exponent))
    assert direct == via_exp


def test_numeric_lambda_matches_substituted_symbolic():
    third = Fraction(1, 3)
    symbolic = values(FamilyId.TYPE2_DEG_BERNOULLI2, 6)
    numeric = values(FamilyId.TYPE2_DEG_BERNOULLI2, 6, lam=Param.numeric(third))
    assert [v.subs_lam(third) for v in symbolic] == numeric


def test_scaled_lambda_matches_substituted_symbolic():
    s = Fraction(1, 2)
    for n in range(7):
        for k in range(n + 1):
            scaled = triangular_numbers(FamilyId.DEG_STIRLING2, n, k, Param.scaled(s))
            symbolic = triangular_numbers(FamilyId.DEG_STIRLING2, n, k)
            # l -> s*l multiplies the coefficient of l^dl by s^dl.
            expected = BiPoly({(dl, dx): c * s**dl for (dl, dx), c in symbolic.terms().items()})
            assert scaled == expected


def test_alt_second_kind_route_matches_direct_at_order_one():
    direct = build_egf(FamilySpec(FamilyId.DEG_BERNOULLI2), 8)
    alt = deg_bernoulli2_alt_egf(1, trunc=8)
    assert direct == alt


# -- prefix law: building further never changes a coefficient --------------------------

PREFIX_TRUNCS = (0, 3, 8)
# Order 1 (the default, which eq23, eq25 and the pinned suite use) plus one
# further legal order per domain.
LEGAL_ORDERS = {
    "none": (Fraction(1),),
    "integer": (Fraction(1), Fraction(2)),
    "rational": (Fraction(1), Fraction(1, 2)),
}
SEQUENCE_FAMILIES = [f for f, info in CATALOG.items() if info.kind == "sequence"]


@pytest.mark.parametrize("family", SEQUENCE_FAMILIES, ids=lambda f: f.value)
def test_build_egf_prefix_law(family):
    # The identity checkers build every series to the largest index their
    # cases read; that is sound because coefficient n never depends on the
    # truncation order, for any x, l or order the family takes.
    info = CATALOG[family]
    arguments = [SYM, Param.numeric(Fraction(2, 3)), Param.shifted(-1)]
    lambdas = [Param(), Param.numeric(Fraction(-1, 3))]
    for order in LEGAL_ORDERS[info.order_domain]:
        for argument in arguments if info.takes_argument else [SYM]:
            for lam in lambdas if info.degenerate else [Param()]:
                spec = FamilySpec(family, order, argument, lam)
                for t in PREFIX_TRUNCS:
                    longer = build_egf(spec, t + 4).coefficients
                    assert longer[: t + 1] == build_egf(spec, t).coefficients, (spec, t)


@pytest.mark.parametrize("order", [Fraction(1), Fraction(2), Fraction(1, 2)], ids=str)
def test_alt_second_kind_prefix_law(order):
    for t in PREFIX_TRUNCS:
        longer = deg_bernoulli2_alt_egf(order, trunc=t + 4).coefficients
        assert longer[: t + 1] == deg_bernoulli2_alt_egf(order, trunc=t).coefficients


# -- the shift law: the base carries x ---------------------------------------------------

ARGUMENT_FAMILIES = [f for f in SEQUENCE_FAMILIES if CATALOG[f].takes_argument]


@pytest.mark.parametrize("family", ARGUMENT_FAMILIES, ids=lambda f: f.value)
def test_shift_law(family):
    # value_n(x + c) = sum_j C(n, j) value_j(x) (c)_{n-j,s}: the base e_s^x(t)
    # satisfies e_s^(x+c)(t) = e_s^x(t) * e_s^c(t) and the kernel has no x.
    # The step s is l for e_l^x(t) (0 in a classical family) and 1 for (1+t)^x.
    info = CATALOG[family]
    step = {E_L: L if info.degenerate else BiPoly.zero(), POW1P: ONE}[info.base]
    order = 1 if info.order_domain == "none" else 2
    size = 10
    at_x = values(family, size, order)
    for c in (Fraction(1, 3), Fraction(-2)):
        at_shifted_x = values(family, size, order, Param.shifted(c))
        steps = step_products(BiPoly.const(c), step, size)
        for n in range(size + 1):
            expected = BiPoly.zero()
            for j in range(n + 1):
                expected = expected + at_x[j] * steps[n - j] * math.comb(n, j)
            assert at_shifted_x[n] == expected, (c, n)


# -- degree bounds: the grading every recipe keeps ----------------------------------------

DEGREE_N = 12


def degrees(poly, weight):
    """The largest weight(dl, dx) over the terms; -1 for the zero polynomial."""
    return max((weight(dl, dx) for dl, dx in poly.terms()), default=-1)


@pytest.mark.parametrize("family", SEQUENCE_FAMILIES, ids=lambda f: f.value)
def test_sequence_value_n_has_total_degree_n(family):
    # log_l(1+t) has values (l - 1)_{n-1,1}: degree n - 1, and the zero
    # polynomial (degree -1 here) at n = 0.
    shift = 1 if family is FamilyId.DEG_LOG else 0
    for order in LEGAL_ORDERS[CATALOG[family].order_domain]:
        for n, value in enumerate(values(family, DEGREE_N, order)):
            assert degrees(value, lambda dl, dx: dl + dx) == n - shift, (order, n)


@pytest.mark.parametrize("family", sorted(TRIANGLE_FAMILIES, key=lambda f: f.value),
                         ids=lambda f: f.value)
def test_triangle_entry_has_l_degree_n_minus_k(family):
    # At most n - k, and exactly n - k for a nonzero entry of a degenerate triangle.
    for n in range(DEGREE_N + 1):
        for k in range(n + 1):
            entry = triangular_numbers(family, n, k)
            l_degree = degrees(entry, lambda dl, dx: dl)
            assert l_degree <= n - k, (n, k)
            if CATALOG[family].degenerate and entry:
                assert l_degree == n - k, (n, k)


# -- validation --------------------------------------------------------------------------


def test_unsupported_orders():
    with pytest.raises(ValueError, match="deg-exp takes no order parameter"):
        build_egf(FamilySpec(FamilyId.DEG_EXP, Fraction(2)), 4)
    integer_order = "needs an integer order for exact coefficients"
    with pytest.raises(ValueError, match=f"type2-deg-bernoulli2 {integer_order}"):
        build_egf(FamilySpec(FamilyId.TYPE2_DEG_BERNOULLI2, Fraction(1, 2)), 4)
    with pytest.raises(ValueError, match=f"type2-deg-bernoulli {integer_order}"):
        build_egf(FamilySpec(FamilyId.TYPE2_DEG_BERNOULLI, Fraction(3, 2)), 4)


def test_library_refusals_raise_value_or_series_error():
    # The library raises exactly two types: ValueError for a request it
    # refuses and SeriesError for a broken series precondition.
    refusals = {
        "unknown identity": (lambda: verify("bogus"), ValueError),
        "type2-deg-bernoulli2 order 1/2": (
            lambda: build_egf(FamilySpec(FamilyId.TYPE2_DEG_BERNOULLI2, Fraction(1, 2)), 4),
            ValueError,
        ),
        "euler order 2": (
            lambda: build_egf(FamilySpec(FamilyId.EULER, Fraction(2)), 4), ValueError
        ),
        "deg-log at x = 7": (
            lambda: build_egf(FamilySpec(FamilyId.DEG_LOG, argument=Param.numeric(7)), 3),
            ValueError,
        ),
        "pow(1/2) of constant term 2": (
            lambda: EgfSeries([2, 1, 0]).pow(Fraction(1, 2)), SeriesError
        ),
        "pow(-1) of constant term 0": (lambda: EgfSeries([0, 1, 0]).pow(-1), SeriesError),
        "[1, 1] divided by t": (lambda: EgfSeries([1, 1]).shift_div_t(), SeriesError),
        "order-0 series divided by t": (lambda: EgfSeries([0]).shift_div_t(), SeriesError),
        "inner constant term 1": (
            lambda: EgfSeries([1, 1]).compose(EgfSeries([1, 1])), SeriesError
        ),
        "coefficient 5 of order 3": (
            lambda: EgfSeries([1, 2, 3, 4]).coefficient(5), SeriesError
        ),
        "rational 1/0": (lambda: rational("1/0"), ValueError),
        "numeric parameter 1/0": (lambda: Param.numeric("1/0"), ValueError),
        "order 1/0": (lambda: FamilySpec(FamilyId.DEG_BERNOULLI2, "1/0"), ValueError),
        "coefficient 1/0": (lambda: BiPoly({(0, 0): "1/0"}), ValueError),
        "pow(1/0)": (lambda: EgfSeries([1, 1]).pow("1/0"), ValueError),
        "alternative route at order 1/0": (lambda: deg_bernoulli2_alt_egf("1/0", 2), ValueError),
    }
    raised = {}
    for name, (refusal, _) in refusals.items():
        with pytest.raises(Exception) as caught:
            refusal()
        raised[name] = type(caught.value)
    assert raised == {name: error for name, (_, error) in refusals.items()}


SIZE_REFUSALS = {
    "verify-max-n": ("max_n", lambda size: verify("eq2", max_n=size)),
    "verify-max-order": ("max_order", lambda size: verify("thm2", 2, size)),
    "build-egf-trunc": ("trunc", lambda size: build_egf(FamilySpec(FamilyId.DEG_EXP), size)),
    "step-egf-trunc": ("trunc", lambda size: step_egf(X, L, size)),
    "step-egf-lag": ("lag", lambda size: step_egf(X, L, 3, lag=size)),
    "alt-egf-trunc": ("trunc", lambda size: deg_bernoulli2_alt_egf(1, size)),
    "triangle-row-n": ("n", lambda size: triangle_rows(FamilyId.DEG_STIRLING2, size)),
    "step-products-n": ("n", lambda size: step_products(X, L, size)),
    "central-factorial-power-n": ("n", lambda size: central_factorial_power(size)),
}


@pytest.mark.parametrize("size", [True, False, 2.5, 2.0, Fraction(2), "2"],
                         ids=["True", "False", "2.5", "2.0", "Fraction", "str"])
@pytest.mark.parametrize("name, request_", SIZE_REFUSALS.values(), ids=SIZE_REFUSALS)
def test_size_that_is_not_an_int_is_refused(name, request_, size):
    clear_caches()
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an int, got {size!r}")):
        request_(size)
    assert _egf.cache_info().misses == _step_table.cache_info().misses == 0
    assert _triangle_table.cache_info().misses == 0


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_egf(FamilySpec(FamilyId.EULER, lambda_mode=Param.numeric(5)), 3),
        lambda: build_egf(
            FamilySpec(FamilyId.BERNOULLI_ORDER_R, lambda_mode=Param.scaled(2)), 3
        ),
        lambda: build_egf(FamilySpec(FamilyId.DEG_LOG, argument=Param.numeric(7)), 3),
        lambda: build_egf(FamilySpec(FamilyId.DEG_LOG, argument=Param.shifted(-1)), 3),
        lambda: triangular_numbers(FamilyId.STIRLING2, 4, 2, Param.numeric(3)),
        lambda: triangular_numbers(FamilyId.CENTRAL_FACTORIAL, 0, 0, Param.shifted(1)),
    ],
    ids=["euler-l5", "bernoulli-scaled-l", "deg-log-x7", "deg-log-shifted-x",
         "stirling2-l3", "central-factorial-shifted-l"],
)
def test_unused_parameter_is_refused(build):
    clear_caches()
    with pytest.raises(ValueError, match="is classical|takes no argument"):
        build()
    assert _triangle_table.cache_info().currsize == _egf.cache_info().currsize == 0


def test_classical_family_accepts_lambda_zero():
    # l and x are checked by the polynomial they denote: a classical l is l
    # or 0, and the x of an argument-free family is x.
    for mode in (Param.symbolic(), Param.numeric(0), Param.shifted(0), Param.scaled(0)):
        assert values(FamilyId.EULER, 3, argument=AT0, lam=mode)[1] == BiPoly.const(Fraction(-1, 2))
        assert triangular_numbers(FamilyId.STIRLING2, 4, 2, mode) == BiPoly.const(7)
    for argument in (Param.shifted(0), Param.scaled(1)):
        assert values(FamilyId.DEG_LOG, 5, argument=argument) == values(FamilyId.DEG_LOG, 5)


def test_alt_second_kind_rejects_negative_trunc():
    for trunc in (-1, -5):
        with pytest.raises(ValueError, match="truncation order must be nonnegative"):
            deg_bernoulli2_alt_egf(1, trunc)


def test_step_egf_rejects_negative_lag():
    clear_caches()
    for lag in (-1, -5):
        with pytest.raises(ValueError, match="lag must be nonnegative"):
            step_egf(X, L, 3, lag=lag)
    assert _step_table.cache_info().misses == _step_table.cache_info().currsize == 0


def test_rational_order_allowed_for_second_kind():
    series = build_egf(FamilySpec(FamilyId.DEG_BERNOULLI2, Fraction(1, 2)), 4)
    assert series.value(0) == BiPoly.const(1)


def test_param_kinds():
    assert Param.symbolic().to_poly(X) == X
    assert Param.numeric(Fraction(-37, 42)).to_poly(L) == BiPoly.const(Fraction(-37, 42))
    assert Param.shifted(-1).to_poly(X) == X - 1
    assert Param.scaled(Fraction(1, 2)).to_poly(L) == L * Fraction(1, 2)
    assert type(Param("numeric", 3).value) is Fraction
    # Exact rationals come as ints, Fractions or strings; a float is refused below.
    assert Param.numeric("1/10").value == Fraction(1, 10)
    assert FamilySpec(FamilyId.DEG_BERNOULLI2, "1/2").order == Fraction(1, 2)
    assert BiPoly.const("-3/4") == BiPoly.const(Fraction(-3, 4))
    assert BiPoly({(0, 1): 2, (1, 0): "1/3"}) == X * 2 + L * Fraction(1, 3)
    with pytest.raises(ValueError, match="unknown parameter kind"):
        Param("affine", 1)
    assert Param("symbolic", 0) == Param.symbolic()


RECORDS = {
    "Param": (Param.numeric(5), "value"),
    "FamilySpec": (FamilySpec(FamilyId.DEG_BERNOULLI2, 2), "order"),
    "FamilyInfo": (CATALOG[FamilyId.DEG_STIRLING1], "build"),
    "Case": (Case({"n": 0}, ONE), "residual"),
    "VerificationReport": (
        VerificationReport(IdentityId.EQ23, 0, None, 12, None, (Case({"n": 0}, ONE),), 0.0),
        "cases",
    ),
    "_Entry": (identities._CATALOG[IdentityId.THM4], "min_order"),
}


@pytest.mark.parametrize("record, name", RECORDS.values(), ids=RECORDS)
def test_records_are_immutable(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))


def test_equal_params_share_one_cache_entry():
    first, second = Param.numeric(5), Param("numeric", Fraction(10, 2))
    assert first == second and hash(first) == hash(second)
    assert first != Param.shifted(5)
    clear_caches()
    triangle_rows(FamilyId.DEG_STIRLING2, 4, first)
    triangle_rows(FamilyId.DEG_STIRLING2, 4, second)
    assert _triangle_table.cache_info()[:2] == (1, 1)  # (hits, misses)


def test_param_repr_names_kind_and_value():
    assert repr(Param.numeric(5)) == "Param(kind='numeric', value=Fraction(5, 1))"
    with pytest.raises(ValueError) as refused:
        triangle_rows(FamilyId.STIRLING2, 4, Param.numeric(5))
    assert str(refused.value).endswith("got Param(kind='numeric', value=Fraction(5, 1))")


def test_replace_checks_fields_like_the_constructor():
    assert Param.numeric(5)._replace(value="1/3") == Param.numeric(Fraction(1, 3))
    assert type(Param.numeric(5)._replace(value=2).value) is Fraction
    assert FamilySpec(FamilyId.DEG_BERNOULLI2)._replace(order="1/2").order == Fraction(1, 2)
    with pytest.raises(ValueError, match="unknown parameter kind"):
        Param.numeric(5)._replace(kind="affine")
    with pytest.raises(ValueError, match="symbolic parameter has no value"):
        Param.symbolic()._replace(value=1)
    # A record is a tuple of its fields.
    assert Param.numeric(5) == ("numeric", Fraction(5))
    assert Param.numeric(5)._asdict() == {"kind": "numeric", "value": Fraction(5)}


def test_symbolic_param_takes_no_value():
    # A value on a symbolic parameter would be ignored by to_poly, yet make a
    # second cache key for the same table or series.
    for value in (5, Fraction(-1, 3)):
        with pytest.raises(ValueError, match="symbolic parameter has no value"):
            Param("symbolic", value)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Param.numeric(0.1),
        lambda: Param.scaled(0.5),
        lambda: FamilySpec(FamilyId.DEG_BERNOULLI2, 0.1),
        lambda: BiPoly.const(0.5),
        lambda: BiPoly({(0, 1): 0.25}),
        lambda: X.subs_x(0.5),
        lambda: EgfSeries.one(3).pow(0.5),
        lambda: deg_bernoulli2_alt_egf(0.5, 3),
    ],
    ids=["param-numeric", "param-scaled", "spec-order", "const", "terms", "subs", "pow",
         "alt-order"],
)
def test_float_is_refused(build):
    # Fraction(0.1) is 3602879701896397/36028797018963968: a float is never taken as exact.
    with pytest.raises(ValueError, match="float"):
        build()


def test_each_public_object_has_one_name():
    import degenpoly

    names = [name for name in degenpoly.__all__ if name != "__version__"]
    assert len({id(getattr(degenpoly, name)) for name in names}) == len(names)
    assert degenpoly.Param is Param


def test_polynomial_family_has_no_egf():
    with pytest.raises(ValueError):
        build_egf(FamilySpec(FamilyId.CENTRAL_FACTORIAL_POWER), 4)


def test_triangle_families_have_no_egf():
    # Triangles are read through triangular_numbers only, whatever the order.
    for family in TRIANGLE_FAMILIES:
        for order in (1, 3, -1):
            with pytest.raises(ValueError, match="triangle family"):
                build_egf(FamilySpec(family, Fraction(order)), 4)
