"""Core tests for exact bivariate polynomial arithmetic.

``RefPoly`` is the package's earlier coefficient layout, a dict of
``Fraction`` coefficients, kept here as the reference that the
integer-numerator ``BiPoly`` must agree with on every operation.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenpoly.bipoly import BiPoly, dot
from oracles import sorted_terms

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



class RefPoly:
    """Sparse Q[l, x] as {(dl, dx): Fraction}, no zero values; the reference."""

    def __init__(self, terms):
        self.terms = {key: Fraction(c) for key, c in terms.items() if c}

    @classmethod
    def of(cls, p: BiPoly) -> "RefPoly":
        return cls(p.terms())

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return RefPoly(out)

    def __neg__(self):
        return RefPoly({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for (al, ax), ac in self.terms.items():
            for (bl, bx), bc in other.terms.items():
                key = (al + bl, ax + bx)
                out[key] = out.get(key, Fraction(0)) + ac * bc
        return RefPoly(out)

    def __pow__(self, n):
        result = RefPoly({(0, 0): 1})
        for _ in range(n):
            result = result * self
        return result

    def subs_lam(self, value):
        c = Fraction(value)
        return sum(
            (RefPoly({(0, dx): coeff * c**dl}) for (dl, dx), coeff in self.terms.items()),
            RefPoly({}),
        )

    def subs_x(self, value):
        c = Fraction(value)
        return sum(
            (RefPoly({(dl, 0): coeff * c**dx}) for (dl, dx), coeff in self.terms.items()),
            RefPoly({}),
        )

    def subs_x_poly(self, q):
        return sum(
            (RefPoly({(dl, 0): coeff}) * q**dx for (dl, dx), coeff in self.terms.items()),
            RefPoly({}),
        )

    def div_lam(self):
        assert all(dl > 0 for dl, _ in self.terms)
        return RefPoly({(dl - 1, dx): c for (dl, dx), c in self.terms.items()})

    def evaluate(self, lam_value, x_value):
        lv, xv = Fraction(lam_value), Fraction(x_value)
        return sum((c * lv**dl * xv**dx for (dl, dx), c in self.terms.items()), Fraction(0))


def assert_canonical(p: BiPoly) -> None:
    # Integer numerators, none zero, over a positive denominator sharing no
    # factor with all of them; the zero polynomial is ({}, 1).
    assert type(p._den) is int and p._den > 0
    assert all(type(v) is int and v for v in p._terms.values())
    assert math.gcd(p._den, *p._terms.values()) == 1


def agrees(p: BiPoly, ref: RefPoly) -> bool:
    assert_canonical(p)
    return p.terms() == ref.terms


# Large numerators and denominators, and small denominators that share
# factors, so results need the gcd pass and the rescaling in addition.
big_rationals = st.one_of(
    st.builds(
        Fraction,
        st.integers(min_value=-10**30, max_value=10**30),
        st.integers(min_value=1, max_value=10**20),
    ),
    st.builds(
        Fraction,
        st.integers(min_value=-60, max_value=60),
        st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 36, 720]),
    ),
)

big_bipolys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    big_rationals,
    max_size=6,
).map(BiPoly)


# -- construction and canonical form ------------------------------------------


def test_zero_coefficients_are_dropped():
    p = BiPoly({(0, 0): 0, (1, 1): frac(1, 2)})
    assert p.terms() == {(1, 1): frac(1, 2)}


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        BiPoly({(-1, 0): 1})


def test_zero_polynomial_is_falsy():
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


@pytest.mark.parametrize(
    "compare",
    [
        lambda p: p == 1.0,
        lambda p: p != 1.0,
        lambda p: 1.0 == p,
        lambda p: 1.0 != p,
        lambda p: p + 1.0,
        lambda p: 1.0 - p,
        lambda p: p * 1.0,
    ],
    ids=["eq", "ne", "req", "rne", "add", "rsub", "mul"],
)
def test_float_operand_raises(compare):
    # A float is never taken as exact, so a comparison with one is refused
    # like arithmetic with one, not answered False.
    with pytest.raises(TypeError, match="float"):
        compare(BiPoly.const(1))


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
    assert p.subs_lam(0).subs_x(c).constant() == RefPoly.of(p).evaluate(0, c)


def test_div_lam():
    assert (L * X + L * L).div_lam() == X + L
    assert BiPoly.zero().div_lam() == BiPoly.zero()
    with pytest.raises(ValueError):
        (L + X).div_lam()


# -- serialization and rendering ----------------------------------------------------


def test_sorted_terms_graded_lex():
    p = L * X + X * X + BiPoly.const(1) + L
    keys = [key for key, _ in sorted_terms(p)]
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


def render_reference(ordered):
    """The plain-text form of graded-lex ``Fraction`` terms, written from str(Fraction)."""
    pieces = []
    for (dl, dx), c in ordered:
        powers = (f"l^{dl}" if dl > 1 else "l" * dl, f"x^{dx}" if dx > 1 else "x" * dx)
        mono = "*".join(s for s in powers if s)
        body = mono if mono and abs(c) == 1 else "*".join(s for s in (str(abs(c)), mono) if s)
        pieces.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(pieces) or "+ 0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


@settings(max_examples=150)
@given(big_bipolys)
def test_serialization_matches_fraction_reference(p):
    ordered = sorted(p.terms().items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]))
    assert sorted_terms(p) == ordered
    assert p.to_records() == [{"dl": dl, "dx": dx, "c": str(c)} for (dl, dx), c in ordered]
    assert p.render() == render_reference(ordered)


# -- agreement with the Fraction-dict reference --------------------------------------


@settings(max_examples=150)
@given(big_bipolys, big_bipolys)
def test_ring_operations_match_reference(a, b):
    ra, rb = RefPoly.of(a), RefPoly.of(b)
    assert agrees(a, ra) and agrees(b, rb)
    assert agrees(a + b, ra + rb)
    assert agrees(a - b, ra - rb)
    assert agrees(a - a, RefPoly({}))
    assert agrees(a * b, ra * rb)
    assert agrees(-a, -ra)


@settings(max_examples=100)
@given(big_bipolys, big_rationals, st.integers(-10**12, 10**12))
def test_scalar_operands_match_reference(a, c, k):
    ra = RefPoly.of(a)
    for scalar in (c, k):
        rs = RefPoly({(0, 0): scalar})
        assert agrees(a + scalar, ra + rs) and agrees(scalar + a, ra + rs)
        assert agrees(a - scalar, ra - rs) and agrees(scalar - a, rs - ra)
        assert agrees(a * scalar, ra * rs) and agrees(scalar * a, ra * rs)
        assert (BiPoly.const(scalar) == scalar) and agrees(BiPoly.const(scalar), rs)


# ``*`` by an int, a Fraction or a constant polynomial takes the scalar path;
# its storage must be what the product kernel gives.
scalars = st.one_of(
    st.integers(-10**12, 10**12),
    big_rationals,
    big_rationals.map(BiPoly.const),
)


@settings(max_examples=300)
@given(big_bipolys, scalars)
@example(L * 3 - X * frac(1, 2), 0)
@example(L * 3 - X * frac(1, 2), BiPoly.const(0))
@example(L * 3 - X * frac(1, 2), 1)
@example(L * 3 - X * frac(1, 2), -1)
@example(L * frac(3, 4) - X * frac(1, 2), frac(-5, 3))
@example(L * frac(1, 6) + X * frac(1, 4), 9)  # 9 shares 3 with the denominator 12
@example(L * 6 - X * 4, frac(-1, 2))  # 2 divides every numerator
@example(L * frac(6, 5) + frac(4, 5), BiPoly.const(frac(5, 2)))  # both reductions
@example(BiPoly.zero(), frac(7, 3))
@example(BiPoly.const(frac(2, 9)), BiPoly.const(frac(3, 4)))
def test_constant_factor_matches_dot(p, c):
    expected = dot((p,), (c if isinstance(c, BiPoly) else BiPoly.const(c),))
    for prod in (p * c, c * p):
        assert_canonical(prod)
        assert (prod._terms, prod._den) == (expected._terms, expected._den)


@settings(max_examples=60)
@given(big_bipolys, st.integers(0, 4))
def test_power_matches_reference(a, n):
    assert agrees(a**n, RefPoly.of(a) ** n)


@settings(max_examples=100)
@given(big_bipolys, big_rationals, bipolys)
def test_substitutions_match_reference(a, c, q):
    ra = RefPoly.of(a)
    assert agrees(a.subs_lam(c), ra.subs_lam(c))
    assert agrees(a.subs_x(c), ra.subs_x(c))
    assert agrees(a.subs_lam(0), ra.subs_lam(0))
    assert agrees(a.subs_x_poly(q), ra.subs_x_poly(RefPoly.of(q)))
    assert agrees((a * L).div_lam(), (ra * RefPoly({(1, 0): 1})).div_lam())


@settings(max_examples=100)
@given(st.lists(st.tuples(big_bipolys, big_bipolys), max_size=5))
def test_dot_matches_reference(pairs):
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    expected = sum((RefPoly.of(x) * RefPoly.of(y) for x, y in pairs), RefPoly({}))
    assert agrees(dot(xs, ys), expected)
    assert agrees(dot(iter(xs), iter(ys)), expected)


def test_dot_of_nothing_is_canonical_zero():
    zero = dot([], [])
    assert (zero._terms, zero._den) == ({}, 1)


def test_dot_skips_zero_factors():
    half_l = L * frac(1, 2)
    zero = BiPoly.zero()
    assert dot([zero, half_l, X], [X, X * frac(2, 3), zero]) == L * X * frac(1, 3)
    only_zeros = dot([zero, X], [L, zero])
    assert (only_zeros._terms, only_zeros._den) == ({}, 1)


def test_dot_cancelling_to_zero_is_canonical():
    a, b = L * frac(1, 6) + X, X * frac(3, 4) - 1
    cancelled = dot([a, -a, b], [b, b, BiPoly.zero()])
    assert (cancelled._terms, cancelled._den) == ({}, 1)
    # (1/2 l)(1/3) + (1/3 l)(1/2) - (l)(1/3): over the denominator 6, it cancels.
    third = BiPoly.const(frac(1, 3))
    cancelled = dot([L * frac(1, 2), L * frac(1, 3), -L], [third, BiPoly.const(frac(1, 2)), third])
    assert (cancelled._terms, cancelled._den) == ({}, 1)


def test_dot_rejects_unequal_lengths():
    with pytest.raises(ValueError):
        dot([L, X], [X])
    with pytest.raises(ValueError):
        dot([], [L])


@settings(max_examples=100)
@given(st.lists(st.tuples(big_bipolys, big_bipolys, st.integers(-40, 40)), max_size=5))
@example([(L * frac(1, 6) + X, X * frac(3, 4) - 1, 0)])  # a zero weight drops its pair
@example([(L * frac(1, 6) + X, X - 1, 1), (L * frac(1, 6) + X, X - 1, -1)])  # cancels
@example([(L * frac(5, 6), X * frac(1, 4), 3), (X, L, -7)])  # 3 divides the denominator 24
@example([(L * frac(1, 6), BiPoly.const(frac(1, 2)), 12)])  # weight cancels the denominator
@example([(BiPoly.zero(), X, 5), (L, BiPoly.zero(), -2)])
def test_weighted_dot_matches_scaled_operands(triples):
    xs = [x for x, _, _ in triples]
    ys = [y for _, y, _ in triples]
    ws = [w for _, _, w in triples]
    expected = dot([x * w for x, w in zip(xs, ws)], ys)
    for got in (dot(xs, ys, ws), dot(iter(xs), iter(ys), iter(ws))):
        assert_canonical(got)
        assert (got._terms, got._den) == (expected._terms, expected._den)


# Operands of one pair with uneven term counts, either way round, or with
# integer coefficients, so that every pair has the denominator 1.
_keys = st.tuples(st.integers(0, 4), st.integers(0, 4))
few_terms = st.dictionaries(_keys, big_rationals, min_size=1, max_size=2).map(BiPoly)
many_terms = st.dictionaries(_keys, big_rationals, min_size=4, max_size=9).map(BiPoly)
integer_bipolys = st.dictionaries(_keys, st.integers(-50, 50), max_size=6).map(BiPoly)
uneven_pairs = st.one_of(
    st.tuples(few_terms, many_terms),
    st.tuples(many_terms, few_terms),
    st.tuples(integer_bipolys, integer_bipolys),
)


@settings(max_examples=100)
@given(st.lists(st.tuples(uneven_pairs, st.integers(-40, 40)), max_size=5))
@example([((L * frac(1, 2) + X, X * frac(1, 3)), 1), ((X * frac(1, 2), L * frac(1, 3) + 1), 2)])
@example([((L * frac(1, 2), X * frac(1, 3) + L), 1), ((X * frac(1, 5), L), -3)])
def test_dot_is_symmetric_in_its_operands(pairs):
    # The first example has one pair denominator (6), the second two (6 and 5).
    xs = [x for (x, _), _ in pairs]
    ys = [y for (_, y), _ in pairs]
    ws = [w for _, w in pairs]
    expected = sum(
        (RefPoly.of(x) * RefPoly.of(y) * RefPoly({(0, 0): w}) for x, y, w in zip(xs, ys, ws)),
        RefPoly({}),
    )
    forward, backward = dot(xs, ys, ws), dot(ys, xs, ws)
    assert (forward._terms, forward._den) == (backward._terms, backward._den)
    assert agrees(forward, expected)


def test_weighted_dot_rejects_unequal_lengths():
    with pytest.raises(ValueError):
        dot([L, X], [X, L], [1])
    with pytest.raises(ValueError):
        dot([L], [X], [1, 2])
    with pytest.raises(ValueError):
        dot([L, X], [X], [1, 2])


def test_product_cancellation_leaves_no_zero_terms():
    prod = (L * frac(1, 2) + X) * (L * frac(1, 2) - X)
    assert prod.terms() == {(2, 0): frac(1, 4), (0, 2): frac(-1)}
    assert_canonical(prod)


def test_common_denominator_is_reduced():
    # 1/6 + 1/3 = 1/2 and (2/3) * (3/4) = 1/2: both need the gcd pass.
    half = BiPoly.const(frac(1, 6)) + BiPoly.const(frac(1, 3))
    assert (half._terms, half._den) == ({(0, 0): 1}, 2)
    prod = (L * frac(2, 3)) * (X * frac(3, 4))
    assert (prod._terms, prod._den) == ({(1, 1): 1}, 2)
    mixed = BiPoly({(0, 0): frac(1, 4), (1, 0): frac(1, 6)})
    assert (mixed._terms, mixed._den) == ({(0, 0): 3, (1, 0): 2}, 12)
    assert_canonical(mixed - BiPoly.const(frac(1, 4)))
    zero = mixed - mixed
    assert (zero._terms, zero._den) == ({}, 1)


@given(big_bipolys, big_bipolys, big_bipolys)
def test_equal_values_by_different_routes_hash_equally(a, b, c):
    left, right = a * (b + c), a * b + a * c
    assert left == right and hash(left) == hash(right)


def test_constant_hashes_like_its_fraction():
    assert hash(BiPoly.const(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(BiPoly.const(Fraction(-10**40, 3))) == hash(Fraction(-10**40, 3))
