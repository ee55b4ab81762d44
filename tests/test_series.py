"""Tests for truncated EGF arithmetic, with independent oracles for the
derived expansions (long division, recurrences)."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenpoly.bipoly import BiPoly
from degenpoly.series import EgfSeries, SeriesError
from oracles import (
    compose_horner, series_divide, series_exp, series_log, series_t, series_zero, truncate,
)

L = BiPoly.lam()
X = BiPoly.x()


def exp_t(order):
    return EgfSeries([Fraction(1, math.factorial(n)) for n in range(order + 1)])


def log1p(order):
    return EgfSeries(
        [Fraction(0)] + [Fraction((-1) ** (n - 1), n) for n in range(1, order + 1)]
    )


rationals = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=6)
)
small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), rationals, max_size=3
).map(BiPoly)
series_of = lambda first: st.lists(small_polys, min_size=5, max_size=5).map(
    lambda cs: EgfSeries([first] + cs)
)


# -- arithmetic -----------------------------------------------------------------


def test_polynomial_product():
    one_plus = EgfSeries([1, 1, 0, 0])
    one_minus = EgfSeries([1, -1, 0, 0])
    assert (one_plus * one_minus) == EgfSeries([1, 0, -1, 0])


def test_additive_identity():
    f = EgfSeries([1, 2, 3])
    assert f + series_zero(2) == f


def test_min_order_rule():
    f = EgfSeries([1, 1, 1, 1, 1])
    g = EgfSeries([1, 1])
    assert (f + g).order == 1
    assert (f * g).order == 1


@settings(max_examples=40)
@given(st.lists(small_polys, min_size=3, max_size=5), st.lists(small_polys, min_size=3, max_size=5))
def test_truncated_product_matches_exact_product(fc, gc):
    # Oracle: full polynomial convolution, then truncate.
    f, g = EgfSeries(fc), EgfSeries(gc)
    order = min(f.order, g.order)
    exact = [BiPoly.zero()] * (len(fc) + len(gc) - 1)
    for i, a in enumerate(fc):
        for j, b in enumerate(gc):
            exact[i + j] = exact[i + j] + a * b
    assert (f * g).coefficients == tuple(exact[: order + 1])


# -- inverse: pow(-1) ----------------------------------------------------------


def test_geometric_series():
    inv = EgfSeries([1, 1, 0, 0, 0, 0]).pow(-1)
    assert [c.constant() for c in inv.coefficients] == [1, -1, 1, -1, 1, -1]


@pytest.mark.parametrize("g0", [Fraction(1), Fraction(2), Fraction(-3, 2)], ids=str)
@settings(max_examples=20)
@given(f=st.lists(small_polys, min_size=6, max_size=6).map(EgfSeries), data=st.data())
def test_inverse_matches_long_division(g0, f, data):
    g = data.draw(series_of(BiPoly.const(g0)))
    assert f * g.pow(-1) == series_divide(f, g)


def test_t_over_log1p_against_long_division():
    # Oracle: naive long division of 1 by the shifted logarithm coefficients.
    order = 8
    denom = [Fraction((-1) ** n, n + 1) for n in range(order + 1)]
    quot = []
    for n in range(order + 1):
        acc = Fraction(1 if n == 0 else 0)
        for j in range(1, n + 1):
            acc -= denom[j] * quot[n - j]
        quot.append(acc / denom[0])
    series = log1p(order + 1).shift_div_t().pow(-1)
    assert [c.constant() for c in series.coefficients] == quot
    # First values: 1, 1/2, -1/6.
    assert [series.value(n).constant() for n in range(3)] == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(-1, 6),
    ]


# -- t-shifts ----------------------------------------------------------------------


def test_shift_div_t():
    assert EgfSeries([0, 1, 1]).shift_div_t() == EgfSeries([1, 1])
    shifted = log1p(6).shift_div_t()
    assert [c.constant() for c in shifted.coefficients] == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 3),
        Fraction(-1, 4),
        Fraction(1, 5),
        Fraction(-1, 6),
    ]


def test_shift_div_t_errors():
    with pytest.raises(SeriesError, match=r"coefficient of t\^0 is nonzero"):
        EgfSeries([1, 1]).shift_div_t()
    with pytest.raises(SeriesError, match="cannot divide an order-0 series by t"):
        EgfSeries([0]).shift_div_t()


# -- composition --------------------------------------------------------------------


def test_compose_inverse_pair():
    order = 10
    expm1 = exp_t(order) - EgfSeries.one(order)
    assert log1p(order).compose(expm1) == series_t(order)


def test_compose_with_identity():
    f = EgfSeries([1, 2, 3, 4])
    assert f.compose(series_t(3)) == f


def test_compose_rejects_nonzero_inner_constant():
    with pytest.raises(SeriesError, match="inner series has nonzero constant term"):
        EgfSeries([1, 1]).compose(EgfSeries([1, 1]))


LONG_INNER = EgfSeries([0, 1, L, X, 2, Fraction(1, 3), L * X])
SHORT_INNER = EgfSeries([0, X, 1, L])
OUTER = EgfSeries([1, 2, L, Fraction(-1, 2), X, 3, 1])
SHORT_OUTER = truncate(OUTER, 2)
UNEQUAL_PAIRS = [(OUTER, SHORT_INNER), (SHORT_OUTER, LONG_INNER), (OUTER, LONG_INNER)]


def test_compose_with_unequal_orders():
    # Oracle: sum_k f_k g^k by repeated multiplication, at the smaller order.
    def naive(f, g):
        order = min(f.order, g.order)
        acc = series_zero(order)
        power = EgfSeries.one(order)
        for c in f.coefficients[: order + 1]:
            acc = acc + power.scale(c)
            power = power * g
        return acc

    for f, g in UNEQUAL_PAIRS:
        result = f.compose(g)
        assert result.order == min(f.order, g.order)
        assert result == naive(f, g)
    assert EgfSeries([5]).compose(LONG_INNER) == EgfSeries([5])


# One operand cut to order m < 5, so the orders differ.
unequal_pairs = st.builds(
    lambda f, g, m, cut_inner: (f, truncate(g, m)) if cut_inner else (truncate(f, m), g),
    series_of(BiPoly.const(2)),
    series_of(BiPoly.zero()),
    st.integers(min_value=0, max_value=4),
    st.booleans(),
)


@settings(max_examples=40)
@given(unequal_pairs)
@example(UNEQUAL_PAIRS[0])
@example(UNEQUAL_PAIRS[1])
@example(UNEQUAL_PAIRS[2])
def test_compose_matches_horner(pair):
    f, g = pair
    assert f.compose(g) == compose_horner(f, g)


@settings(max_examples=20)
@given(series_of(BiPoly.const(1)), series_of(BiPoly.zero()), series_of(BiPoly.zero()))
def test_compose_associativity(f, g, h):
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


# -- prefix law -------------------------------------------------------------------------


@settings(max_examples=30)
@given(
    series_of(BiPoly.const(1)),
    series_of(BiPoly.const(2)),
    series_of(BiPoly.zero()),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([Fraction(3), Fraction(-2), Fraction(1, 2)]),
)
def test_operations_commute_with_truncation(f, g, h, m, alpha):
    # Coefficient n of each result reads input coefficients <= n only, so
    # truncating the inputs gives the truncation of the longer result.
    def cut(s):
        return truncate(s, m)

    assert cut(f) * cut(g) == cut(f * g)
    assert cut(g).pow(-1) == cut(g.pow(-1))
    assert cut(f).pow(alpha) == cut(f.pow(alpha))
    assert cut(f).compose(cut(h)) == cut(f.compose(h))
    assert truncate(h, m + 1).shift_div_t() == cut(h.shift_div_t())


# -- exp, log, pow --------------------------------------------------------------------


def test_exp_of_t():
    assert series_exp(series_t(6)) == exp_t(6)


def test_exp_value_sequence_of_2t():
    doubled = series_exp(series_t(6).scale(2))
    assert [doubled.value(n).constant() for n in range(7)] == [2**n for n in range(7)]


@settings(max_examples=40)
@given(series_of(BiPoly.zero()))
def test_log_inverts_exp(f):
    assert series_log(series_exp(f)) == f


def test_exp_log_preconditions():
    with pytest.raises(SeriesError, match="exp needs constant term 0"):
        series_exp(EgfSeries([1, 1]))
    with pytest.raises(SeriesError, match="log needs constant term 1"):
        series_log(EgfSeries([0, 1]))


def test_pow_square():
    assert EgfSeries([1, 1, 0]).pow(2) == EgfSeries([1, 2, 1])


def test_pow_root_roundtrip():
    one_plus_t = EgfSeries([1, 1, 0, 0, 0, 0])
    root = one_plus_t.pow(Fraction(1, 2))
    assert root.pow(2) == one_plus_t


@settings(max_examples=30)
@given(series_of(BiPoly.const(1)), st.integers(min_value=1, max_value=3))
def test_inverse_powers_cancel(f, k):
    assert f.pow(-k) * f.pow(k) == EgfSeries.one(f.order)


@settings(max_examples=30)
@given(series_of(BiPoly.const(1)), st.integers(min_value=0, max_value=4))
def test_integer_pow_matches_repeated_multiplication(f, k):
    product = EgfSeries.one(f.order)
    for _ in range(k):
        product = product * f
    assert f.pow(k) == product


def test_fractional_pow_needs_unit_constant():
    needs_one = "fractional power needs constant term 1"
    with pytest.raises(SeriesError, match=needs_one):
        EgfSeries([2, 1, 0]).pow(Fraction(1, 2))
    with pytest.raises(SeriesError, match=needs_one):
        EgfSeries([L, 1, 0]).pow(Fraction(-1, 2))
    with pytest.raises(SeriesError, match=needs_one):
        EgfSeries([0, 1, 0]).pow(Fraction(3, 2))


NEEDS_UNIT = "power needs a nonzero rational constant term"


def test_negative_pow_needs_rational_unit():
    with pytest.raises(SeriesError, match=NEEDS_UNIT):
        EgfSeries([0, 1, 0]).pow(-1)
    with pytest.raises(SeriesError, match=NEEDS_UNIT):
        EgfSeries([L, 1, 0]).pow(-2)


def test_nonnegative_pow_needs_rational_unit():
    for alpha in (0, 1, 3):
        with pytest.raises(SeriesError, match=NEEDS_UNIT):
            EgfSeries([0, 1, L, 0, X]).pow(alpha)
        with pytest.raises(SeriesError, match=NEEDS_UNIT):
            EgfSeries([L, 1, 0, X]).pow(alpha)


def test_first_power_is_the_series_itself():
    f = EgfSeries([2, L, X, 1])
    assert f.pow(1) is f


def test_pow_constant_term_stays_rational():
    assert EgfSeries([2, 1, 0]).pow(-1) == series_divide(EgfSeries.one(2), EgfSeries([2, 1, 0]))
    assert EgfSeries([2, 1]).pow(-3).coefficient(0) == BiPoly.const(Fraction(1, 8))
    root = EgfSeries([1, L, X]).pow(Fraction(-1, 2))
    assert isinstance(root.coefficient(0).constant(), Fraction)


# alpha + 1 = -2/3 and 5/3: Miller's weights fold a denominator 3 into each coefficient.
@pytest.mark.parametrize(
    "alpha",
    [-3, -1, Fraction(-5, 3), Fraction(-1, 2), Fraction(1, 2), Fraction(2, 3), Fraction(3, 2)],
    ids=str,
)
@settings(max_examples=10)
@given(f=series_of(BiPoly.const(1)))
@example(f=EgfSeries([1, L, X * Fraction(1, 2), L * X - 3]))
def test_pow_matches_exp_log_route(f, alpha):
    assert f.pow(alpha) == series_exp(series_log(f).scale(alpha))


# -- extraction and truncation -------------------------------------------------------


def test_value_extraction():
    e = exp_t(6)
    assert e.value(5) == BiPoly.const(1)
    assert e.value(0) == e.coefficient(0)


def test_bernoulli_value_via_recurrence_oracle():
    # Oracle: sum_{k=0..n} C(n+1, k) B_k = 0 with B_0 = 1.
    order = 8
    bern = [Fraction(1)]
    for n in range(1, order + 1):
        acc = sum(math.comb(n + 1, k) * bern[k] for k in range(n))
        bern.append(-acc / math.comb(n + 1, n))
    kernel = (exp_t(order + 1) - EgfSeries.one(order + 1)).shift_div_t().pow(-1)
    assert [kernel.value(n).constant() for n in range(order + 1)] == bern
    assert kernel.value(2).constant() == Fraction(1, 6)


def test_value_beyond_truncation():
    with pytest.raises(SeriesError, match="coefficient 2 beyond truncation order 1"):
        EgfSeries([1, 1]).value(2)


def test_truncate():
    f = EgfSeries([1, 2, 3, 4])
    assert truncate(f, 1) == EgfSeries([1, 2])
    with pytest.raises(SeriesError, match="cannot truncate order-3 series to 5"):
        truncate(f, 5)


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        EgfSeries([])
