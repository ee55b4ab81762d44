"""Core tests for exact bivariate polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenpoly.bipoly import BiPoly, binomial, factorial

L = BiPoly.lam()
X = BiPoly.x()


def frac(p, q=1):
    return Fraction(p, q)


# -- hypothesis strategies ----------------------------------------------------

rationals = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=9),
)

bipolys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    rationals,
    max_size=4,
).map(BiPoly)


# -- construction and canonical form ------------------------------------------


def test_zero_coefficients_are_dropped():
    p = BiPoly({(0, 0): 0, (1, 1): frac(1, 2)})
    assert p.terms() == {(1, 1): frac(1, 2)}


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        BiPoly({(-1, 0): 1})


def test_zero_polynomial_is_falsy():
    assert BiPoly.zero().is_zero()
    assert not BiPoly.zero()
    assert BiPoly.const(0) == BiPoly.zero()


@given(bipolys)
def test_canonical_form_idempotent(p):
    assert BiPoly(p.terms()) == p


def test_constant_detection():
    assert BiPoly.const(frac(3, 4)).constant() == frac(3, 4)
    assert BiPoly.zero().constant() == 0
    assert (L + 1).constant() is None


# -- arithmetic ----------------------------------------------------------------


def test_add_cancellation():
    assert (L + X) + (L - X) == L * 2


def test_product_expansion():
    assert X * (X - L) == BiPoly({(0, 2): 1, (1, 1): -1})


def test_rational_scalar_product():
    assert (L * frac(1, 2)) * (L * frac(2, 3)) == BiPoly({(2, 0): frac(1, 3)})


def test_integer_power():
    assert (X + 1) ** 2 == X * X + X * 2 + 1
    assert (X + L) ** 0 == BiPoly.const(1)
    with pytest.raises(ValueError):
        (X + 1) ** -1


@settings(max_examples=60)
@given(bipolys, bipolys, bipolys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == BiPoly.zero()
    assert a * BiPoly.const(1) == a


@given(bipolys, bipolys, rationals)
def test_equal_polynomials_hash_equally(p, q, c):
    # The same polynomial reached by another route, with another term order.
    same = (q + p) - q
    assert same == p and hash(same) == hash(p)
    assert {p: 1}[same] == 1
    assert len({p, same, p * 1}) == 1
    # A constant equals its rational, so it hashes like one.
    assert hash(BiPoly.const(c)) == hash(c)
    assert {c: "c"}[BiPoly.const(c)] == "c"


def test_hash_of_zero_and_integer_constants():
    assert hash(BiPoly.zero()) == 0
    assert hash(BiPoly.const(3)) == hash(3)
    assert len({L, X, L * 1, BiPoly.const(2), 2}) == 3


# -- substitutions ---------------------------------------------------------------


def test_subs_lambda_at_zero():
    assert (X * X - L * X).subs_lam(0) == X * X


def test_subs_x():
    assert (X * X + L * X).subs_x(frac(1, 2)) == BiPoly.const(frac(1, 4)) + L * frac(1, 2)


def test_subs_x_poly_affine():
    half_shift = (X + 1) * frac(1, 2)
    assert (X * X).subs_x_poly(half_shift) == (X * X + X * 2 + 1) * frac(1, 4)


@settings(max_examples=60)
@given(bipolys, rationals)
def test_substitution_composes_to_evaluation(p, c):
    assert p.subs_lam(0).subs_x(c).constant() == p.evaluate(0, c)


def test_div_lam():
    assert (L * X + L * L).div_lam() == X + L
    assert BiPoly.zero().div_lam() == BiPoly.zero()
    with pytest.raises(ValueError):
        (L + X).div_lam()


# -- combinatorial helpers --------------------------------------------------------


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_factorial_values():
    assert factorial(5) == 120
    assert factorial(0) == 1
    with pytest.raises(ValueError):
        factorial(-2)


# -- serialization and rendering ----------------------------------------------------


def test_sorted_terms_graded_lex():
    p = L * X + X * X + BiPoly.const(1) + L
    keys = [key for key, _ in p.sorted_terms()]
    assert keys == [(0, 0), (1, 0), (0, 2), (1, 1)]


def test_to_records():
    p = X * X - L * X
    assert p.to_records() == [
        {"dl": 0, "dx": 2, "c": "1"},
        {"dl": 1, "dx": 1, "c": "-1"},
    ]


def test_render_conventions():
    assert BiPoly.zero().render() == "0"
    assert (X * X - L * X).render() == "x^2 - l*x"
    assert BiPoly.const(frac(-1, 2)).render() == "-1/2"
    assert (BiPoly.const(1) - L).render() == "1 - l"
    assert (L * 2).render() == "2*l"
    assert (L * L * X * frac(3, 4)).render() == "3/4*l^2*x"
