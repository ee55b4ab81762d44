"""Named builders for the special-polynomial families of the package.

Each family is one generating-function recipe over the ring Q[l, x]; the
catalog (``list_families`` / the CLI ``list-families`` command) documents
every recipe next to the function that builds it.  ``l`` is the deformation
parameter: a classical family runs the recipe of its degenerate twin with
l = 0, and coefficients are polynomial in ``l`` by construction, so the
classical limit is the exact substitution l -> 0.

Every sequence recipe is built from one primitive, the step product
(a)_{n,s} = a*(a - s)*...*(a - (n-1)*s), through ``step_egf(a, s, N, lag)``,
the series whose value at n is (a)_{n-lag,s} (zero below n = lag):

* e_l^a(t) = (1 + l*t)^(a/l) has values (a)_{n,l};
* (1+t)^a = e_1^a(t) has values (a)_{n,1}, the classical falling factorial;
* log_l(1+t) = ((1+t)^l - 1)/l has values (l - 1)_{n-1,1} for n >= 1,
  so it is never built by dividing a series by l, and no negative power
  of ``l`` enters the ring.

A triangle's column k has the EGF g(t)^k / k! for its kernel g (the catalog
recipe), but its entries are built row by row: each triangle pair has one
step rule that gives row n+1 from rows n-1 and n, a recurrence that follows
from the kernel, so no series is multiplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

from .bipoly import BiPoly, factorial
from .series import EgfSeries

_L = BiPoly.lam()
_X = BiPoly.x()
_ONE = BiPoly.const(1)
_ZERO = BiPoly.zero()
_HALF = Fraction(1, 2)


class UnsupportedOrder(ValueError):
    """The requested order parameter is outside the family's exact domain."""


class FamilyId(Enum):
    """Every family the package can build, keyed by its CLI name."""

    BERNOULLI_ORDER_R = "bernoulli-order-r"
    EULER = "euler"
    TYPE2_BERNOULLI = "type2-bernoulli"
    TYPE2_EULER = "type2-euler"
    STIRLING1 = "stirling1"
    STIRLING2 = "stirling2"
    CENTRAL_FACTORIAL = "central-factorial"
    DAEHEE = "daehee"
    FALLING_FACTORIAL = "falling-factorial"
    DEG_FALLING_FACTORIAL = "deg-falling-factorial"
    DEG_EXP = "deg-exp"
    DEG_LOG = "deg-log"
    DEG_BERNOULLI = "deg-bernoulli"
    DEG_EULER = "deg-euler"
    DEG_CENTRAL_FACTORIAL = "deg-central-factorial"
    DEG_DAEHEE = "deg-daehee"
    DEG_BERNOULLI2 = "deg-bernoulli2"
    TYPE2_DEG_BERNOULLI2 = "type2-deg-bernoulli2"
    TYPE2_DEG_BERNOULLI = "type2-deg-bernoulli"
    DEG_STIRLING1 = "deg-stirling1"
    DEG_STIRLING2 = "deg-stirling2"
    CENTRAL_FACTORIAL_POWER = "central-factorial-power"


@dataclass(frozen=True)
class Param:
    """How x or l enters a family: symbolic, a rational, shifted by a rational or scaled by one."""

    kind: str = "symbolic"
    value: Fraction = Fraction(0)

    def __post_init__(self):
        if self.kind not in ("symbolic", "numeric", "shifted", "scaled"):
            raise ValueError(f"unknown parameter kind {self.kind!r}")
        object.__setattr__(self, "value", Fraction(self.value))

    @classmethod
    def symbolic(cls) -> "Param":
        return cls("symbolic")

    @classmethod
    def numeric(cls, value: Fraction | int) -> "Param":
        return cls("numeric", value)

    @classmethod
    def shifted(cls, value: Fraction | int) -> "Param":
        return cls("shifted", value)

    @classmethod
    def scaled(cls, value: Fraction | int) -> "Param":
        return cls("scaled", value)

    def to_poly(self, var: BiPoly) -> BiPoly:
        """The parameter as a polynomial in ``var``, the ring variable x or l."""
        if self.kind == "symbolic":
            return var
        if self.kind == "numeric":
            return BiPoly.const(self.value)
        if self.kind == "shifted":
            return var + self.value
        return var * self.value


# The public names of the x-argument and the lambda mode of a FamilySpec.
Argument = LambdaMode = Param


@dataclass(frozen=True)
class FamilySpec:
    """Selects one sequence family's generating function: family, order, x-argument, lambda mode."""

    family: FamilyId
    order: Fraction = Fraction(1)
    argument: Param = field(default_factory=Param)
    lambda_mode: Param = field(default_factory=Param)

    def __post_init__(self):
        object.__setattr__(self, "order", Fraction(self.order))


# -- the step product ---------------------------------------------------------


def step_products(arg: BiPoly, step: BiPoly, n: int) -> list[BiPoly]:
    """The prefix products [1, arg, arg*(arg - step), ..., (arg)_{n,step}]."""
    if n < 0:
        raise ValueError(f"product length must be nonnegative, got {n}")
    prods = [_ONE]
    for j in range(n):
        # Once a factor vanishes (integer arg, step 1), every later product is 0.
        prods.append(prods[-1] * (arg - step * j) if prods[-1] else _ZERO)
    return prods


def step_egf(arg: BiPoly, step: BiPoly, trunc: int, lag: int = 0) -> EgfSeries:
    """The EGF whose value at n is (arg)_{n-lag,step}, and 0 for n < lag."""
    prods = step_products(arg, step, trunc - lag)
    return EgfSeries(
        [_ZERO] * lag + [p * (1 / factorial(n + lag)) for n, p in enumerate(prods)]
    )


def central_factorial_power(n: int) -> BiPoly:
    """The central factorial x^[n] = x * (x + n/2 - 1) * (x + n/2 - 2) * ... * (x - n/2 + 1)."""
    if n < 0:
        raise ValueError(f"central factorial power needs n >= 0, got {n}")
    if n == 0:
        return _ONE
    return _X * step_products(_X + (Fraction(n, 2) - 1), _ONE, n - 1)[-1]


# -- recipes -------------------------------------------------------------------
#
# A sequence recipe maps (order a, argument x, deformation l, truncation N)
# to its series.  A triangle rule maps (l, n, k, row n-1, row n) to entry
# (n+1, k) for 1 <= n and 1 <= k <= n+1; rows are indexed by k and hold
# zeros right of the diagonal.  A classical family shares the recipe or rule
# of its degenerate twin and receives l = 0.


def _log1p(lam: BiPoly, trunc: int) -> EgfSeries:
    """log_l(1+t)."""
    return step_egf(lam - 1, _ONE, trunc, lag=1)


def _stirling1_step(
    lam: BiPoly, n: int, k: int, older: list[BiPoly], row: list[BiPoly]
) -> BiPoly:
    """S1_l(n+1,k) = S1_l(n,k-1) + (k*l - n)*S1_l(n,k), column k of log_l(1+t)^k/k!."""
    return row[k - 1] + (lam * k - n) * row[k]


def _stirling2_step(
    lam: BiPoly, n: int, k: int, older: list[BiPoly], row: list[BiPoly]
) -> BiPoly:
    """S2_l(n+1,k) = S2_l(n,k-1) + (k - n*l)*S2_l(n,k), column k of (e_l(t) - 1)^k/k!."""
    return row[k - 1] + (k - lam * n) * row[k]


def _central_factorial_step(
    lam: BiPoly, n: int, k: int, older: list[BiPoly], row: list[BiPoly]
) -> BiPoly:
    """T_l(n+1,k) = T_l(n-1,k-2) + (k^2/4 - l^2*(n-1)^2)*T_l(n-1,k)
                    - l*(2n-1)*T_l(n,k), column k of f^k/k!.

    With D = (1 + l*t)*d/dt and f = e_l^(1/2)(t) - e_l^(-1/2)(t), D^2 f = f/4
    and (D f)^2 = (f^2 + 4)/4, so D^2 (f^k/k!) = (k^2/4)*f^k/k! + f^(k-2)/(k-2)!.
    On EGF coefficients D^2 is c_{n+2} + l*(2n+1)*c_{n+1} + l^2*n^2*c_n.
    """
    below = older[k - 2] if k >= 2 else _ZERO
    weight = Fraction(k * k, 4) - lam * lam * (n - 1) ** 2
    return below + weight * older[k] - lam * (2 * n - 1) * row[k]


def _deg_exp(a: Fraction, arg: BiPoly, lam: BiPoly, trunc: int) -> EgfSeries:
    """e_l^x(t)."""
    return step_egf(arg, lam, trunc)


def _pow1p(a: Fraction, arg: BiPoly, lam: BiPoly, trunc: int) -> EgfSeries:
    """(1+t)^x."""
    return step_egf(arg, _ONE, trunc)


def _deg_log(a: Fraction, arg: BiPoly, lam: BiPoly, trunc: int) -> EgfSeries:
    """log_l(1+t)."""
    return _log1p(lam, trunc)


def _bernoulli_like(
    low: BiPoly, a: Fraction, arg: BiPoly, lam: BiPoly, trunc: int
) -> EgfSeries:
    """(t/(e_l(t) - e_l^low(t)))^a * e_l^x(t); e_l^0(t) is 1."""
    diff = step_egf(_ONE, lam, trunc + 1) - step_egf(low, lam, trunc + 1)
    return diff.shift_div_t(1).pow(-a) * step_egf(arg, lam, trunc)


def _euler_like(
    low: BiPoly, a: Fraction, arg: BiPoly, lam: BiPoly, trunc: int
) -> EgfSeries:
    """2/(e_l(t) + e_l^low(t)) * e_l^x(t)."""
    denom = step_egf(_ONE, lam, trunc) + step_egf(low, lam, trunc)
    return EgfSeries.one(trunc).scale(2).divide(denom) * step_egf(arg, lam, trunc)


def _daehee(a: Fraction, arg: BiPoly, lam: BiPoly, trunc: int) -> EgfSeries:
    """(log_l(1+t)/t) * (1+t)^x."""
    return _log1p(lam, trunc + 1).shift_div_t(1) * step_egf(arg, _ONE, trunc)


def _bernoulli2(a: Fraction, arg: BiPoly, lam: BiPoly, trunc: int) -> EgfSeries:
    """(t/log_l(1+t))^a * (1+t)^x.

    The normalized kernel has constant term 1, so any rational order is exact.
    """
    kernel = _log1p(lam, trunc + 1).shift_div_t(1).pow(-a)
    return kernel * step_egf(arg, _ONE, trunc)


def _type2_bernoulli2(a: Fraction, arg: BiPoly, lam: BiPoly, trunc: int) -> EgfSeries:
    """(((1+t) - (1+t)^(-1))/log_l(1+t))^a * (1+t)^x.

    The kernel has constant term 2, so only integer orders stay inside Q[l, x].
    """
    numerator = step_egf(_ONE, _ONE, trunc + 1) - step_egf(-_ONE, _ONE, trunc + 1)
    kernel = numerator.shift_div_t(1).divide(_log1p(lam, trunc + 1).shift_div_t(1))
    return kernel.pow(a) * step_egf(arg, _ONE, trunc)


_bernoulli = partial(_bernoulli_like, _ZERO)
_type2_bernoulli = partial(_bernoulli_like, -_ONE)
_euler = partial(_euler_like, _ZERO)
_type2_euler = partial(_euler_like, -_ONE)


@dataclass(frozen=True)
class FamilyInfo:
    """Catalog entry: output kind, parameter surface, the defining recipe and its builder."""

    kind: str  # "sequence" | "triangle" | "polynomial"
    order_domain: str  # "rational" | "integer" | "none"; a triangle's column k is "nonneg-integer"
    takes_argument: bool
    degenerate: bool
    recipe: str
    # A sequence family's series recipe, or a triangle family's step rule.
    build: Callable[..., EgfSeries | BiPoly] | None = None


CATALOG: dict[FamilyId, FamilyInfo] = {
    FamilyId.BERNOULLI_ORDER_R: FamilyInfo(
        "sequence", "rational", True, False, "(t/(e^t - 1))^r * e^(x*t)", _bernoulli
    ),
    FamilyId.EULER: FamilyInfo(
        "sequence", "none", True, False, "2/(e^t + 1) * e^(x*t)", _euler
    ),
    FamilyId.TYPE2_BERNOULLI: FamilyInfo(
        "sequence", "none", True, False, "t/(e^t - e^(-t)) * e^(x*t)", _type2_bernoulli
    ),
    FamilyId.TYPE2_EULER: FamilyInfo(
        "sequence", "none", True, False, "2/(e^t + e^(-t)) * e^(x*t)", _type2_euler
    ),
    FamilyId.STIRLING1: FamilyInfo(
        "triangle", "nonneg-integer", False, False, "(1/k!) * log(1+t)^k", _stirling1_step
    ),
    FamilyId.STIRLING2: FamilyInfo(
        "triangle", "nonneg-integer", False, False, "(1/k!) * (e^t - 1)^k", _stirling2_step
    ),
    FamilyId.CENTRAL_FACTORIAL: FamilyInfo(
        "triangle", "nonneg-integer", False, False, "(1/k!) * (e^(t/2) - e^(-t/2))^k",
        _central_factorial_step,
    ),
    FamilyId.DAEHEE: FamilyInfo(
        "sequence", "none", True, False, "(log(1+t)/t) * (1+t)^x", _daehee
    ),
    FamilyId.FALLING_FACTORIAL: FamilyInfo(
        "sequence", "none", True, False, "(1+t)^x  [value n is (x)_n]", _pow1p
    ),
    FamilyId.DEG_FALLING_FACTORIAL: FamilyInfo(
        "sequence", "none", True, True, "e_l^x(t)  [value n is (x)_{n,l}]", _deg_exp
    ),
    FamilyId.DEG_EXP: FamilyInfo(
        "sequence", "none", True, True, "e_l^x(t) = (1 + l*t)^(x/l)", _deg_exp
    ),
    FamilyId.DEG_LOG: FamilyInfo(
        "sequence", "none", False, True, "log_l(1+t) = ((1+t)^l - 1)/l", _deg_log
    ),
    FamilyId.DEG_BERNOULLI: FamilyInfo(
        "sequence", "none", True, True, "t/(e_l(t) - 1) * e_l^x(t)", _bernoulli
    ),
    FamilyId.DEG_EULER: FamilyInfo(
        "sequence", "none", True, True, "2/(e_l(t) + 1) * e_l^x(t)", _euler
    ),
    FamilyId.DEG_CENTRAL_FACTORIAL: FamilyInfo(
        "triangle", "nonneg-integer", False, True, "(1/k!) * (e_l^(1/2)(t) - e_l^(-1/2)(t))^k",
        _central_factorial_step,
    ),
    FamilyId.DEG_DAEHEE: FamilyInfo(
        "sequence", "none", True, True, "(log_l(1+t)/t) * (1+t)^x", _daehee
    ),
    FamilyId.DEG_BERNOULLI2: FamilyInfo(
        "sequence", "rational", True, True, "(t/log_l(1+t))^a * (1+t)^x", _bernoulli2
    ),
    FamilyId.TYPE2_DEG_BERNOULLI2: FamilyInfo(
        "sequence", "integer", True, True, "(((1+t) - (1+t)^(-1))/log_l(1+t))^a * (1+t)^x",
        _type2_bernoulli2,
    ),
    FamilyId.TYPE2_DEG_BERNOULLI: FamilyInfo(
        "sequence", "integer", True, True, "(t/(e_l(t) - e_l^(-1)(t)))^a * e_l^x(t)",
        _type2_bernoulli,
    ),
    FamilyId.DEG_STIRLING1: FamilyInfo(
        "triangle", "nonneg-integer", False, True, "(1/k!) * log_l(1+t)^k", _stirling1_step
    ),
    FamilyId.DEG_STIRLING2: FamilyInfo(
        "triangle", "nonneg-integer", False, True, "(1/k!) * (e_l(t) - 1)^k", _stirling2_step
    ),
    FamilyId.CENTRAL_FACTORIAL_POWER: FamilyInfo(
        "polynomial", "none", False, False, "x^[n] = x*(x + n/2 - 1)*(x + n/2 - 2)*...*(x - n/2 + 1)"
    ),
}

TRIANGLE_FAMILIES = frozenset(f for f, info in CATALOG.items() if info.kind == "triangle")


def _check_order(family: FamilyId, order: Fraction) -> None:
    """Reject an order outside the family's domain, before any work starts."""
    domain = CATALOG[family].order_domain
    if domain == "none" and order != 1:
        raise UnsupportedOrder(f"{family.value} takes no order parameter (got {order})")
    if domain == "integer" and order.denominator != 1:
        raise UnsupportedOrder(
            f"{family.value} needs an integer order for exact coefficients, got {order}"
        )


def _deformation(family: FamilyId, mode: Param) -> BiPoly:
    """The l a recipe receives: the mode's value, or 0 for a classical family."""
    return mode.to_poly(_L) if CATALOG[family].degenerate else _ZERO


# -- EGF dispatch ------------------------------------------------------------


def build_egf(spec: FamilySpec, trunc: int) -> EgfSeries:
    """Build the truncated EGF of the sequence family selected by ``spec``.

    The value of the result at index n (``.value(n)``) is the n-th family
    member; coefficients are polynomial in ``l`` and ``x``.  Triangle
    entries come from ``triangular_numbers`` and central factorial powers
    from ``central_factorial_power``.
    """
    if trunc < 0:
        raise ValueError(f"truncation order must be nonnegative, got {trunc}")
    kind = CATALOG[spec.family].kind
    if kind != "sequence":
        raise ValueError(f"{spec.family.value} is a {kind} family; build_egf builds sequences")
    return _build_egf_cached(spec, trunc)


@lru_cache(maxsize=1024)
def _build_egf_cached(spec: FamilySpec, trunc: int) -> EgfSeries:
    fid = spec.family
    _check_order(fid, spec.order)
    lam = _deformation(fid, spec.lambda_mode)
    return CATALOG[fid].build(spec.order, spec.argument.to_poly(_X), lam, trunc)


# -- triangle rows -----------------------------------------------------------


def triangular_numbers(
    family: FamilyId, n: int, k: int, lambda_mode: Param = Param()
) -> BiPoly:
    """Entry (n, k) of a connection-coefficient triangle.

    Outside the triangle 0 <= k <= n the value is the zero polynomial.
    Entries come from the memoized row n, built by the family's row
    recurrence; rows are immutable and safe to share across threads.
    """
    if family not in TRIANGLE_FAMILIES:
        raise ValueError(f"{family.value} is not a triangle family")
    if n < 0 or k < 0 or k > n:
        return _ZERO
    return _triangle_row(family, lambda_mode, n)[k]


@lru_cache(maxsize=4096)
def _triangle_row(family: FamilyId, mode: Param, n: int) -> tuple[BiPoly, ...]:
    """Entries k = 0..n of row n >= 0; row n comes from rows n-2 and n-1 by the step rule.

    Every triangle starts from T(0,0) = T(1,1) = 1, and column 0 is zero
    below row 0.  A miss first fetches row n-32, so a deep row recurses
    about n/32 + 32 calls deep instead of n.
    """
    if n < 2:
        return (_ONE,) if n == 0 else (_ZERO, _ONE)
    if n > 32:
        _triangle_row(family, mode, n - 32)
    older = _triangle_row(family, mode, n - 2) + (_ZERO, _ZERO)
    row = _triangle_row(family, mode, n - 1) + (_ZERO,)
    step = CATALOG[family].build
    lam = _deformation(family, mode)
    return (_ZERO,) + tuple(step(lam, n - 1, k, older, row) for k in range(1, n + 1))


def clear_caches() -> None:
    """Drop all memoized triangle rows and series (mainly for tests)."""
    _triangle_row.cache_clear()
    _build_egf_cached.cache_clear()


# -- the alternative second-kind route ----------------------------------------


def deg_bernoulli2_alt_egf(order: Fraction | int, trunc: int = 16) -> EgfSeries:
    """Alternative route to the order-a degenerate Bernoulli polynomials of
    the second kind, at symbolic l and x:

        (l*t / ((1+t)^(l/2) - (1+t)^(-l/2)))^a * (1+t)^(x - l*a/2)

    The denominator's coefficients are odd polynomials in ``l``, so dividing
    by ``l*t`` is exact polynomial division.
    """
    order = Fraction(order)
    half_l = _L * _HALF
    diff = step_egf(half_l, _ONE, trunc + 1) - step_egf(-half_l, _ONE, trunc + 1)
    normalized = EgfSeries([c.div_lam() for c in diff.shift_div_t(1).coefficients])
    return normalized.pow(-order) * step_egf(_X - half_l * order, _ONE, trunc)


def list_families() -> list[dict[str, str]]:
    """The family catalog as deterministic records (name, kind, order, recipe)."""
    rows = []
    for fid in FamilyId:
        info = CATALOG[fid]
        rows.append(
            {
                "name": fid.value,
                "kind": info.kind,
                "order": info.order_domain,
                "argument": "x" if info.takes_argument else "-",
                "deformation": "l" if info.degenerate else "-",
                "recipe": info.recipe,
            }
        )
    return rows
