"""Series operations, family values and views that only tests use, kept as oracles.

The series operations use nothing of ``EgfSeries`` beyond its public
constructor and coefficients, so a test can compare a package route
(Miller's power recurrence, the closed product forms, composition by a
table of powers) with the long-division, exp/log and Horner routes
written here.  ``classical_value``
and ``eq21_rhs_term`` compute one value or one eq. (21) weight at a time.
"""

from fractions import Fraction

from degenpoly.bipoly import BiPoly, Term
from degenpoly.families import FamilyId, FamilySpec, Param, build_egf
from degenpoly.series import EgfSeries, SeriesError

_ONE = BiPoly.const(1)
_L = BiPoly.lam()
_X = BiPoly.x()


def sorted_terms(p: BiPoly) -> list[tuple[Term, Fraction]]:
    """Terms of p in graded-lex order (total degree, then l-degree) as ``Fraction``s."""
    return [((r["dl"], r["dx"]), Fraction(r["c"])) for r in p.to_records()]


def series_zero(order: int) -> EgfSeries:
    """The zero series at truncation order ``order``."""
    return EgfSeries([BiPoly.zero()] * (order + 1))


def series_t(order: int) -> EgfSeries:
    """The identity series t at truncation order ``order`` >= 1."""
    if order < 1:
        raise ValueError("the series t needs truncation order >= 1")
    coeffs = [BiPoly.zero()] * (order + 1)
    coeffs[1] = _ONE
    return EgfSeries(coeffs)


def truncate(f: EgfSeries, order: int) -> EgfSeries:
    """Discard coefficients above ``order``, which must not exceed f's order."""
    if order < 0 or order > f.order:
        raise SeriesError(f"cannot truncate order-{f.order} series to {order}")
    return EgfSeries(f.coefficients[: order + 1])


def series_divide(f: EgfSeries, g: EgfSeries) -> EgfSeries:
    """The quotient f/g at the smaller order by long division,
    q_n = (f_n - sum_{k=1..n} g_k q_{n-k}) / g_0; g_0 must be a nonzero rational."""
    g0 = g.coefficients[0].constant()
    order = min(f.order, g.order)
    out: list[BiPoly] = []
    for n in range(order + 1):
        acc = f.coefficients[n]
        for k in range(1, n + 1):
            acc = acc - g.coefficients[k] * out[n - k]
        out.append(acc * (1 / g0))
    return EgfSeries(out)


def compose_horner(f: EgfSeries, g: EgfSeries) -> EgfSeries:
    """f(g(t)) at the smaller order by Horner's scheme; g's constant term must vanish.

    The accumulator after step k is later multiplied by g^k, which is
    divisible by t^k, so step k only needs order N - k.  With g = t*h, each
    step is f_k + t*(h * acc) at one order more.
    """
    fc, gc = f.coefficients, g.coefficients
    if gc[0]:
        raise SeriesError(f"inner series has nonzero constant term {gc[0]!r}")
    order = min(f.order, g.order)
    h = gc[1:]
    acc = [fc[order]]
    for k in range(order - 1, -1, -1):
        product = [sum((h[i] * acc[m - i] for i in range(m + 1)), BiPoly.zero())
                   for m in range(len(acc))]
        acc = [fc[k], *product]
    return EgfSeries(acc)


def series_exp(f: EgfSeries) -> EgfSeries:
    """Formal exponential of a series with vanishing constant term, by
    g_n = (1/n) * sum_{k=1..n} k f_k g_{n-k}."""
    c = f.coefficients
    if c[0]:
        raise SeriesError(f"exp needs constant term 0, got {c[0]!r}")
    out = [_ONE]
    for n in range(1, f.order + 1):
        acc = BiPoly.zero()
        for k in range(1, n + 1):
            if c[k]:
                acc = acc + c[k] * out[n - k] * k
        out.append(acc * Fraction(1, n))
    return EgfSeries(out)


def series_log(f: EgfSeries) -> EgfSeries:
    """Formal logarithm of a series with constant term 1, by
    L_n = f_n - (1/n) * sum_{k=1..n-1} k L_k f_{n-k}."""
    c = f.coefficients
    if c[0] != _ONE:
        raise SeriesError(f"log needs constant term 1, got {c[0]!r}")
    out = [BiPoly.zero()]
    for n in range(1, f.order + 1):
        corr = BiPoly.zero()
        for k in range(1, n):
            if out[k] and c[n - k]:
                corr = corr + out[k] * c[n - k] * k
        out.append(c[n] - corr * Fraction(1, n))
    return EgfSeries(out)


def classical_value(family: FamilyId, n: int, order: Fraction | int = 1) -> BiPoly:
    """The classical (deformation switched off) family value at index n, symbolic x."""
    spec = FamilySpec(family, Fraction(order), Param(), Param.numeric(0))
    return build_egf(spec, n).value(n)


def eq21_rhs_term(j: int, r: int) -> BiPoly:
    """The weight l^j * B2*_j^(r)(2x/l - r) of eq. (21), expanded as a polynomial.

    It is built from one classical polynomial of degree j, not from the
    order-r numbers that ``_check_eq21`` convolves with powers of 2x - r*l.
    Writing that polynomial as sum_i c_i y^i, the weight is sum_i c_i
    (2x - r*l)^i l^(j-i): the homogenized polynomial {(j-i, i): c_i} at
    x -> 2x - r*l.  Every power of l is nonnegative because i <= j.
    """
    if j < 0:
        raise ValueError(f"degree must be nonnegative, got {j}")
    if r < 1:
        raise ValueError(f"order must be a positive integer, got {r}")
    homogenized: dict[Term, Fraction] = {}
    for (dl, dx), c in classical_value(FamilyId.TYPE2_DEG_BERNOULLI, j, order=r).terms().items():
        if dl != 0:
            raise AssertionError("classical value unexpectedly contains l")
        homogenized[(j - dx, dx)] = c
    return BiPoly(homogenized).subs_x_poly(_X * 2 - _L * r)
