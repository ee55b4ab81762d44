"""Cross-check of every catalog family against sympy.

Every expansion here is written from the catalog recipe with
``sympy.polys.ring_series`` over QQ[t, l, x], with l and x symbolic, and
shares no code with ``degenpoly.series``.  Each sequence oracle's docstring
is its family's recipe string.  Three substitutions turn each degenerate
recipe into exp, log, inversion and power of series in t, and a classical
recipe's e^(a*t) is ``rs_exp(a*t)``:

* (1+t)^a = exp(a*log(1+t));
* log_l(1+t) = (exp(l*log(1+t)) - 1)/l, the division by l made term by term;
* e_l^a(t) = exp(a*log(1+l*t)/l), the same division by l.

A sequence family's value n is n! times the coefficient of t^n; column k of
a triangle is kernel^k/k!, so entry (n, k) is n!/k! times the coefficient
of t^n in kernel^k.  The central factorial power x^[n] is checked against
x * ``sympy.ff``(x + n/2 - 1, n - 1).
"""

from fractions import Fraction
from math import factorial

import pytest
from sympy import QQ, Rational, Symbol, expand, ff
from sympy.polys.rings import ring
from sympy.polys.ring_series import rs_exp, rs_log, rs_nth_root, rs_pow, rs_series_inversion

from degenpoly import families
from degenpoly.bipoly import BiPoly
from degenpoly.families import (
    CATALOG,
    FamilyId,
    FamilySpec,
    build_egf,
    central_factorial_power,
    triangular_numbers,
)

N = 8  # largest index compared
PREC = N + 2  # terms kept, one more than a division by t uses

R, t, l, x = ring("t, l, x", QQ)


def _divide_by(p, generator: int):
    """p divided term by term by the generator at ``generator`` (0 is t, 1 is l)."""
    out = {}
    for monom, c in p.items():
        assert monom[generator] > 0, "the division must be exact"
        lowered = list(monom)
        lowered[generator] -= 1
        out[tuple(lowered)] = c
    return R(out)


def _power(p, a: Fraction):
    """p^a; a root needs p to have constant term 1."""
    if a.denominator != 1:
        p = rs_nth_root(p, a.denominator, t, PREC)
    return rs_pow(p, a.numerator, t, PREC)


def _inverse(p):
    """1/p; p needs a nonzero rational constant term."""
    return rs_series_inversion(p, t, PREC)


def _exp(a):
    """e^(a*t)."""
    return rs_exp(a * t, t, PREC)


def _pow1p(a):
    """(1+t)^a."""
    return rs_exp(a * rs_log(1 + t, t, PREC), t, PREC)


def _deg_exp(a):
    """e_l^a(t) = (1 + l*t)^(a/l)."""
    return rs_exp(a * _divide_by(rs_log(1 + l * t, t, PREC), 1), t, PREC)


def _log_l():
    """log_l(1+t) = ((1+t)^l - 1)/l."""
    return _divide_by(_pow1p(l) - 1, 1)


# -- one oracle per sequence family; its docstring is the recipe, a is the order --


def _bernoulli_order_r(a):
    """(t/(e^t - 1))^r * e^(x*t)"""
    return _power(_divide_by(_exp(1) - 1, 0), -a) * _exp(x)


def _euler(a):
    """2/(e^t + 1) * e^(x*t)"""
    return 2 * _inverse(_exp(1) + 1) * _exp(x)


def _type2_bernoulli(a):
    """t/(e^t - e^(-t)) * e^(x*t)"""
    return _inverse(_divide_by(_exp(1) - _exp(-1), 0)) * _exp(x)


def _type2_euler(a):
    """2/(e^t + e^(-t)) * e^(x*t)"""
    return 2 * _inverse(_exp(1) + _exp(-1)) * _exp(x)


def _daehee(a):
    """(log(1+t)/t) * (1+t)^x"""
    return _divide_by(rs_log(1 + t, t, PREC), 0) * _pow1p(x)


def _falling_factorial(a):
    """(1+t)^x  [value n is (x)_n]"""
    return _pow1p(x)


def _deg_falling_factorial(a):
    """e_l^x(t)  [value n is (x)_{n,l}]"""
    return _deg_exp(x)


def _deg_exp_x(a):
    """e_l^x(t) = (1 + l*t)^(x/l)"""
    return _deg_exp(x)


def _deg_log(a):
    """log_l(1+t) = ((1+t)^l - 1)/l"""
    return _log_l()


def _deg_bernoulli(a):
    """t/(e_l(t) - 1) * e_l^x(t)"""
    return _inverse(_divide_by(_deg_exp(1) - 1, 0)) * _deg_exp(x)


def _deg_euler(a):
    """2/(e_l(t) + 1) * e_l^x(t)"""
    return 2 * _inverse(_deg_exp(1) + 1) * _deg_exp(x)


def _deg_daehee(a):
    """(log_l(1+t)/t) * (1+t)^x"""
    return _divide_by(_log_l(), 0) * _pow1p(x)


def _deg_bernoulli2(a):
    """(t/log_l(1+t))^a * (1+t)^x"""
    return _power(_divide_by(_log_l(), 0), -a) * _pow1p(x)


def _type2_deg_bernoulli2(a):
    """(((1+t) - (1+t)^(-1))/log_l(1+t))^a * (1+t)^x"""
    numerator = _divide_by(1 + t - _inverse(1 + t), 0)
    kernel = numerator * _inverse(_divide_by(_log_l(), 0))
    return _power(kernel, a) * _pow1p(x)


def _type2_deg_bernoulli(a):
    """(t/(e_l(t) - e_l^(-1)(t)))^a * e_l^x(t)"""
    kernel = _divide_by(_deg_exp(1) - _deg_exp(-1), 0)
    return _power(kernel, -a) * _deg_exp(x)


SEQUENCE_ORACLES = {
    FamilyId.BERNOULLI_ORDER_R: _bernoulli_order_r,
    FamilyId.EULER: _euler,
    FamilyId.TYPE2_BERNOULLI: _type2_bernoulli,
    FamilyId.TYPE2_EULER: _type2_euler,
    FamilyId.DAEHEE: _daehee,
    FamilyId.FALLING_FACTORIAL: _falling_factorial,
    FamilyId.DEG_FALLING_FACTORIAL: _deg_falling_factorial,
    FamilyId.DEG_EXP: _deg_exp_x,
    FamilyId.DEG_LOG: _deg_log,
    FamilyId.DEG_BERNOULLI: _deg_bernoulli,
    FamilyId.DEG_EULER: _deg_euler,
    FamilyId.DEG_DAEHEE: _deg_daehee,
    FamilyId.DEG_BERNOULLI2: _deg_bernoulli2,
    FamilyId.TYPE2_DEG_BERNOULLI2: _type2_deg_bernoulli2,
    FamilyId.TYPE2_DEG_BERNOULLI: _type2_deg_bernoulli,
}

# The orders compared where a family takes one; every other family runs at order 1.
ORDERS = {
    FamilyId.BERNOULLI_ORDER_R: [Fraction(1, 2), Fraction(3)],
    FamilyId.DEG_BERNOULLI2: [Fraction(1), Fraction(2), Fraction(1, 2)],
    FamilyId.TYPE2_DEG_BERNOULLI2: [Fraction(1), Fraction(2)],
    FamilyId.TYPE2_DEG_BERNOULLI: [Fraction(1), Fraction(-1)],
}

# Each triangle's kernel g, from its recipe (1/k!) * g^k.
_TRIANGLE_KERNELS = {
    FamilyId.STIRLING1: lambda: rs_log(1 + t, t, PREC),
    FamilyId.STIRLING2: lambda: _exp(1) - 1,
    FamilyId.CENTRAL_FACTORIAL: lambda: _exp(QQ(1, 2)) - _exp(QQ(-1, 2)),
    FamilyId.DEG_STIRLING1: _log_l,
    FamilyId.DEG_STIRLING2: lambda: _deg_exp(1) - 1,
    FamilyId.DEG_CENTRAL_FACTORIAL: lambda: _deg_exp(QQ(1, 2)) - _deg_exp(QQ(-1, 2)),
}


def _value(p, n: int, scale: int) -> BiPoly:
    """scale times the coefficient of t^n in p, as a polynomial in l and x."""
    return BiPoly({
        (dl, dx): Fraction(int(c.numerator), int(c.denominator)) * scale
        for (dt, dl, dx), c in p.items()
        if dt == n
    })


SEQUENCE_CASES = [
    (family, order, expansion)
    for family, expansion in SEQUENCE_ORACLES.items()
    for order in ORDERS.get(family, [Fraction(1)])
]


def _sequence_mismatches(family: FamilyId, order: Fraction, expansion) -> list[int]:
    """The indices n <= N at which the package value differs from the oracle."""
    values = build_egf(FamilySpec(family, order), N).values()
    oracle = expansion(order)
    return [
        n for n in range(N + 1)
        if values[n] != _value(oracle, n, factorial(n))
    ]


@pytest.mark.parametrize(
    "family,order,expansion", SEQUENCE_CASES,
    ids=[f"{family.value}-order-{order}" for family, order, _ in SEQUENCE_CASES],
)
def test_sequence_matches_ring_series(family, order, expansion):
    assert _sequence_mismatches(family, order, expansion) == []


@pytest.mark.parametrize("family", list(_TRIANGLE_KERNELS), ids=lambda f: f.value)
def test_triangle_rows_match_ring_series(family):
    kernel = _TRIANGLE_KERNELS[family]()
    for k in range(N + 1):
        column = rs_pow(kernel, k, t, PREC)
        for n in range(N + 1):
            expected = _value(column, n, factorial(n))
            assert triangular_numbers(family, n, k) * factorial(k) == expected, (n, k)


def test_central_factorial_power_matches_sympy_ff():
    # x^[n] = x * (x + n/2 - 1)_{n-1}; at n = 0, x * ff(x - 1, -1) = x * (1/x) = 1.
    sym = Symbol("x")
    for n in range(N + 1):
        expected = R.from_expr(expand(sym * ff(sym + Rational(n, 2) - 1, n - 1)))
        assert central_factorial_power(n) == _value(expected, 0, 1), n


def test_every_family_has_an_oracle():
    oracles = {
        "sequence": set(SEQUENCE_ORACLES),
        "triangle": set(_TRIANGLE_KERNELS),
        "polynomial": {FamilyId.CENTRAL_FACTORIAL_POWER},
    }
    assert set().union(*oracles.values()) == set(FamilyId)
    for kind, covered in oracles.items():
        assert covered == {f for f, info in CATALOG.items() if info.kind == kind}, kind
    for family, expansion in SEQUENCE_ORACLES.items():
        assert expansion.__doc__ == CATALOG[family].recipe, family


def test_oracle_rejects_a_mutated_recipe(monkeypatch):
    # Adding l to coefficient 3 of the recipe's kernel must show at index 3 and,
    # through the base (1+t)^x whose values are all nonzero, at every later index.
    info = families.CATALOG[FamilyId.TYPE2_DEG_BERNOULLI2]

    def mutated(*args):
        series = info.build(*args)
        coeffs = list(series.coefficients)
        coeffs[3] = coeffs[3] + BiPoly.lam()
        return type(series)(coeffs)

    monkeypatch.setitem(families.CATALOG, FamilyId.TYPE2_DEG_BERNOULLI2,
                        info._replace(build=mutated))
    families.clear_caches()
    try:
        assert _sequence_mismatches(
            FamilyId.TYPE2_DEG_BERNOULLI2, Fraction(2), _type2_deg_bernoulli2
        ) == list(range(3, N + 1))
    finally:
        families.clear_caches()  # drop the mutated series before the catalog is restored
