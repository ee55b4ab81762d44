"""Named builders for the special-polynomial families of the package.

Each family is one generating-function recipe over the ring Q[l, x]; the
catalog ``CATALOG`` (printed by the CLI ``list-families`` command) documents
every recipe next to the function that builds it.  ``l`` is the deformation
parameter: a classical family runs the recipe of its degenerate twin with
l = 0, and coefficients are polynomial in ``l`` by construction, so the
classical limit is the exact substitution l -> 0.

A sequence recipe is an x-free kernel K(order, l, trunc) times a base
that carries x: e_l^x(t), (1+t)^x or none.  A base is 1 at x = 0, so a
kernel is its family's series at x = 0, and one series cache, keyed by
the polynomials x and l a recipe receives, holds both: a family read at
several x-arguments (symbolic, x - 1, 0, k) builds its kernel once.

Every series is built from one primitive, the step product
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

Both recurrences are memoized the same way.  Each ``(a, s, lag)`` has one
step table, its coefficients, and each triangle family and l one triangle
table, its rows; each table holds the longest run built so far.  A longer
request continues it from its last items, in a loop, and a shorter one
reads a prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

from .bipoly import BiPoly, rational
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
        object.__setattr__(self, "value", rational(self.value))
        if self.kind == "symbolic" and self.value:
            raise ValueError(f"a symbolic parameter has no value, got {self.value}")

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


LambdaMode = Param  # the former name of Param, still imported by the benchmark harness
_SYMBOLIC = Param.symbolic()


@dataclass(frozen=True)
class FamilySpec:
    """Selects one sequence family's generating function: family, order, x-argument, lambda mode."""

    family: FamilyId
    order: Fraction = Fraction(1)
    argument: Param = field(default_factory=Param)
    lambda_mode: Param = field(default_factory=Param)

    def __post_init__(self):
        object.__setattr__(self, "order", rational(self.order))


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
    """The EGF whose value at n is (arg)_{n-lag,step}, and 0 for n < lag.

    Read from the step table of ``(arg, step, lag)``, which grows by
    c_n = c_{n-1}*(arg - (n-1-lag)*step)/n.  The recipes ask for e_l(t),
    log_l(1+t) and (1+t)^x at every order, x-argument and truncation, so
    each is built once, as far as the longest request.
    """
    if trunc < 0:
        raise ValueError(f"truncation order must be nonnegative, got {trunc}")

    def coefficient(coeffs: list[BiPoly], n: int) -> BiPoly:
        c = coeffs[-1]
        # Once a factor vanishes (integer arg, step 1), every later coefficient is 0.
        return c * ((arg - step * (n - 1 - lag)) * Fraction(1, n)) if c else c

    return EgfSeries(_grown(_step_table(arg, step, lag), trunc + 1, coefficient)[: trunc + 1])


@lru_cache(maxsize=64)
def _step_table(arg: BiPoly, step: BiPoly, lag: int) -> list[tuple[BiPoly, ...]]:
    """The step table of one ``(arg, step, lag)``, a one-slot list for
    ``_grown``, seeded with coefficients 0..lag, of which only 1/lag! is nonzero.

    A verification pass repeats most of its step products within a few dozen
    calls, and a numeric sweep reads 55 distinct keys, so 64 entries keep
    nearly all of their hits.
    """
    return [(_ZERO,) * lag + (BiPoly.const(Fraction(1, math.factorial(lag))),)]


def _grown(table: list[tuple], size: int, item: Callable[[list, int], object]) -> tuple:
    """The items of a one-slot table, at least ``size`` of them.

    A short table is grown by ``item(items, n)``, which builds item n from
    the items before it; a longer table is returned as it is, and the caller
    reads the prefix it needs.  The slot is replaced whole, never mutated: a
    concurrent caller keeps the tuple it read, and all callers get equal
    values.
    """
    items = table[0]
    if len(items) < size:
        grown = list(items)
        for n in range(len(items), size):
            grown.append(item(grown, n))
        items = tuple(grown)
        if len(items) > len(table[0]):
            table[0] = items
    return items


def central_factorial_power(n: int) -> BiPoly:
    """The central factorial x^[n] = x * (x + n/2 - 1) * (x + n/2 - 2) * ... * (x - n/2 + 1)."""
    if n < 0:
        raise ValueError(f"central factorial power needs n >= 0, got {n}")
    if n == 0:
        return _ONE
    return _X * step_products(_X + (Fraction(n, 2) - 1), _ONE, n - 1)[-1]


# -- recipes -------------------------------------------------------------------
#
# A sequence kernel maps (order a, deformation l, truncation N) to its x-free
# series, and the catalog names the base it is multiplied by.  A triangle rule
# maps (l, n, k, row n-1, row n) to entry (n+1, k) for 1 <= n and
# 1 <= k <= n+1; rows are indexed by k and hold zeros right of the diagonal.
# A classical family shares the kernel or rule of its degenerate twin and
# receives l = 0.

E_L = "e_l^x(t)"  # base with values (x)_{n,l}: step l, and 0 in a classical family
POW1P = "(1+t)^x"  # base with values (x)_{n,1}: step 1


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


def _deg_log(a: Fraction, lam: BiPoly, trunc: int) -> EgfSeries:
    """log_l(1+t)."""
    return _log1p(lam, trunc)


def _bernoulli_like(low: BiPoly, a: Fraction, lam: BiPoly, trunc: int) -> EgfSeries:
    """(t/(e_l(t) - e_l^low(t)))^a; e_l^0(t) is 1."""
    diff = step_egf(_ONE, lam, trunc + 1) - step_egf(low, lam, trunc + 1)
    return diff.shift_div_t().pow(-a)


def _euler_like(low: BiPoly, a: Fraction, lam: BiPoly, trunc: int) -> EgfSeries:
    """2/(e_l(t) + e_l^low(t)); the denominator has constant term 2."""
    denom = step_egf(_ONE, lam, trunc) + step_egf(low, lam, trunc)
    return denom.pow(-1).scale(2)


def _daehee(a: Fraction, lam: BiPoly, trunc: int) -> EgfSeries:
    """log_l(1+t)/t."""
    return _log1p(lam, trunc + 1).shift_div_t()


def _bernoulli2(a: Fraction, lam: BiPoly, trunc: int) -> EgfSeries:
    """(t/log_l(1+t))^a.

    The normalized kernel has constant term 1, so any rational order is exact.
    """
    return _log1p(lam, trunc + 1).shift_div_t().pow(-a)


def _type2_bernoulli2(a: Fraction, lam: BiPoly, trunc: int) -> EgfSeries:
    """(((1+t) - (1+t)^(-1))/log_l(1+t))^a, built as N^a * L^(-a) with
    N = ((1+t) - (1+t)^(-1))/t and L = log_l(1+t)/t.  N has constant term 2, so
    only integer orders stay inside Q[l, x], and for those (N/L)^a = N^a * L^(-a).
    L^(-a) is ``deg-bernoulli2``'s kernel, its series at x = 0, read from the
    series cache.
    """
    numerator = step_egf(_ONE, _ONE, trunc + 1) - step_egf(-_ONE, _ONE, trunc + 1)
    return numerator.shift_div_t().pow(a) * _egf(FamilyId.DEG_BERNOULLI2, a, _ZERO, lam, trunc)


_bernoulli = partial(_bernoulli_like, _ZERO)
_type2_bernoulli = partial(_bernoulli_like, -_ONE)
_euler = partial(_euler_like, _ZERO)
_type2_euler = partial(_euler_like, -_ONE)


@dataclass(frozen=True)
class FamilyInfo:
    """Catalog entry: output kind, parameter surface, the defining recipe and its builder."""

    kind: str  # "sequence" | "triangle" | "polynomial"
    order_domain: str  # "rational" | "integer" | "none"; a triangle's column k is "nonneg-integer"
    degenerate: bool
    recipe: str
    # A sequence family's x-free kernel K(order, l, trunc) (None: the base
    # alone), or a triangle family's step rule.
    build: Callable[..., EgfSeries | BiPoly] | None = None
    # The sequence's factor in x, E_L or POW1P; None if it takes no argument x.
    base: str | None = None

    @property
    def takes_argument(self) -> bool:
        return self.base is not None


CATALOG: dict[FamilyId, FamilyInfo] = {
    FamilyId.BERNOULLI_ORDER_R: FamilyInfo(
        "sequence", "rational", False, "(t/(e^t - 1))^r * e^(x*t)", _bernoulli, E_L
    ),
    FamilyId.EULER: FamilyInfo(
        "sequence", "none", False, "2/(e^t + 1) * e^(x*t)", _euler, E_L
    ),
    FamilyId.TYPE2_BERNOULLI: FamilyInfo(
        "sequence", "none", False, "t/(e^t - e^(-t)) * e^(x*t)", _type2_bernoulli, E_L
    ),
    FamilyId.TYPE2_EULER: FamilyInfo(
        "sequence", "none", False, "2/(e^t + e^(-t)) * e^(x*t)", _type2_euler, E_L
    ),
    FamilyId.STIRLING1: FamilyInfo(
        "triangle", "nonneg-integer", False, "(1/k!) * log(1+t)^k", _stirling1_step
    ),
    FamilyId.STIRLING2: FamilyInfo(
        "triangle", "nonneg-integer", False, "(1/k!) * (e^t - 1)^k", _stirling2_step
    ),
    FamilyId.CENTRAL_FACTORIAL: FamilyInfo(
        "triangle", "nonneg-integer", False, "(1/k!) * (e^(t/2) - e^(-t/2))^k",
        _central_factorial_step,
    ),
    FamilyId.DAEHEE: FamilyInfo(
        "sequence", "none", False, "(log(1+t)/t) * (1+t)^x", _daehee, POW1P
    ),
    FamilyId.FALLING_FACTORIAL: FamilyInfo(
        "sequence", "none", False, "(1+t)^x  [value n is (x)_n]", None, POW1P
    ),
    FamilyId.DEG_FALLING_FACTORIAL: FamilyInfo(
        "sequence", "none", True, "e_l^x(t)  [value n is (x)_{n,l}]", None, E_L
    ),
    FamilyId.DEG_EXP: FamilyInfo(
        "sequence", "none", True, "e_l^x(t) = (1 + l*t)^(x/l)", None, E_L
    ),
    FamilyId.DEG_LOG: FamilyInfo(
        "sequence", "none", True, "log_l(1+t) = ((1+t)^l - 1)/l", _deg_log
    ),
    FamilyId.DEG_BERNOULLI: FamilyInfo(
        "sequence", "none", True, "t/(e_l(t) - 1) * e_l^x(t)", _bernoulli, E_L
    ),
    FamilyId.DEG_EULER: FamilyInfo(
        "sequence", "none", True, "2/(e_l(t) + 1) * e_l^x(t)", _euler, E_L
    ),
    FamilyId.DEG_CENTRAL_FACTORIAL: FamilyInfo(
        "triangle", "nonneg-integer", True, "(1/k!) * (e_l^(1/2)(t) - e_l^(-1/2)(t))^k",
        _central_factorial_step,
    ),
    FamilyId.DEG_DAEHEE: FamilyInfo(
        "sequence", "none", True, "(log_l(1+t)/t) * (1+t)^x", _daehee, POW1P
    ),
    FamilyId.DEG_BERNOULLI2: FamilyInfo(
        "sequence", "rational", True, "(t/log_l(1+t))^a * (1+t)^x", _bernoulli2, POW1P
    ),
    FamilyId.TYPE2_DEG_BERNOULLI2: FamilyInfo(
        "sequence", "integer", True, "(((1+t) - (1+t)^(-1))/log_l(1+t))^a * (1+t)^x",
        _type2_bernoulli2, POW1P,
    ),
    FamilyId.TYPE2_DEG_BERNOULLI: FamilyInfo(
        "sequence", "integer", True, "(t/(e_l(t) - e_l^(-1)(t)))^a * e_l^x(t)",
        _type2_bernoulli, E_L,
    ),
    FamilyId.DEG_STIRLING1: FamilyInfo(
        "triangle", "nonneg-integer", True, "(1/k!) * log_l(1+t)^k", _stirling1_step
    ),
    FamilyId.DEG_STIRLING2: FamilyInfo(
        "triangle", "nonneg-integer", True, "(1/k!) * (e_l(t) - 1)^k", _stirling2_step
    ),
    FamilyId.CENTRAL_FACTORIAL_POWER: FamilyInfo(
        "polynomial", "none", False, "x^[n] = x*(x + n/2 - 1)*(x + n/2 - 2)*...*(x - n/2 + 1)"
    ),
}

TRIANGLE_FAMILIES = frozenset(f for f, info in CATALOG.items() if info.kind == "triangle")


def _deformation(family: FamilyId, mode: Param) -> BiPoly:
    """The l a recipe receives: the mode's polynomial, or 0 for a classical
    family, which refuses a mode that denotes neither l nor 0."""
    lam = mode.to_poly(_L)
    if CATALOG[family].degenerate:
        return lam
    if lam and lam != _L:
        raise ValueError(f"{family.value} is classical: its l must be l or 0, got {mode}")
    return _ZERO


# -- EGF dispatch ------------------------------------------------------------


def build_egf(spec: FamilySpec, trunc: int) -> EgfSeries:
    """Build the truncated EGF of the sequence family selected by ``spec``.

    The value of the result at index n (``.value(n)``) is the n-th family
    member; coefficients are polynomial in ``l`` and ``x``.  Triangle
    entries come from ``triangular_numbers`` and central factorial powers
    from ``central_factorial_power``.  An order outside the family's
    domain, or an x or l it ignores, is refused before any work starts.
    """
    if trunc < 0:
        raise ValueError(f"truncation order must be nonnegative, got {trunc}")
    family, order, info = spec.family, spec.order, CATALOG[spec.family]
    if info.kind != "sequence":
        raise ValueError(f"{family.value} is a {info.kind} family; build_egf builds sequences")
    if info.order_domain == "none" and order != 1:
        raise UnsupportedOrder(f"{family.value} takes no order parameter (got {order})")
    if info.order_domain == "integer" and order.denominator != 1:
        raise UnsupportedOrder(
            f"{family.value} needs an integer order for exact coefficients, got {order}"
        )
    arg = spec.argument.to_poly(_X)
    if not (info.takes_argument or arg == _X):
        raise ValueError(f"{family.value} takes no argument x, got {spec.argument}")
    return _egf(family, order, arg, _deformation(family, spec.lambda_mode), trunc)


@lru_cache(maxsize=1024)
def _egf(family: FamilyId, order: Fraction, arg: BiPoly, lam: BiPoly, trunc: int) -> EgfSeries:
    """The series of a sequence family at one order, x-argument, l and truncation.

    A kernel is read here at ``arg`` 0, where the base is 1: the paper's
    higher-order identities read one family at up to four x-arguments
    (symbolic, x - 1, 0, k), which share it, ``type2-deg-bernoulli2``
    reuses the kernel of ``deg-bernoulli2``, and a classical family shares
    one entry at every l it accepts.  Kernels are not shared with the
    alternative route ``deg_bernoulli2_alt_egf``, which ``eq18-equivalence``
    compares with the direct one.
    """
    info = CATALOG[family]
    if info.build is not None and (info.base is None or not arg):
        return info.build(order, lam, trunc)
    base = step_egf(arg, lam if info.base == E_L else _ONE, trunc)
    return base if info.build is None else _egf(family, order, _ZERO, lam, trunc) * base


# -- triangle rows -----------------------------------------------------------


def triangle_row(family: FamilyId, n: int, lambda_mode: Param = Param()) -> tuple[BiPoly, ...]:
    """Row n >= 0 of a connection-coefficient triangle: entries k = 0..n.

    Read from the triangle table of ``(family, l)``, which the family's step
    rule grows from its last two rows.  Rows are immutable and safe to share
    across threads.  A classical family reads one table at l symbolic and
    at l = 0.
    """
    mode = _table_mode(family, lambda_mode)
    if n < 0:
        raise ValueError(f"triangle row index must be nonnegative, got {n}")

    def next_row(rows: list[tuple[BiPoly, ...]], i: int) -> tuple[BiPoly, ...]:
        older, row = rows[i - 2] + (_ZERO, _ZERO), rows[i - 1] + (_ZERO,)
        step, lam = CATALOG[family].build, _deformation(family, mode)
        return (_ZERO,) + tuple(step(lam, i - 1, k, older, row) for k in range(1, i + 1))

    return _grown(_triangle_table(family, mode), n + 1, next_row)[n]


def triangular_numbers(
    family: FamilyId, n: int, k: int, lambda_mode: Param = Param()
) -> BiPoly:
    """Entry (n, k) of a connection-coefficient triangle, ``triangle_row(...)[k]``.

    Outside the triangle 0 <= k <= n the value is the zero polynomial.
    """
    if n < 0 or k < 0 or k > n:
        _table_mode(family, lambda_mode)
        return _ZERO
    return triangle_row(family, n, lambda_mode)[k]


def _table_mode(family: FamilyId, mode: Param) -> Param:
    """Reject a non-triangle family or an l it ignores; return the table's cache key."""
    if family not in TRIANGLE_FAMILIES:
        raise ValueError(f"{family.value} is not a triangle family")
    _deformation(family, mode)
    # Every classical mode, l or 0, reads one table, built at l = 0.
    return mode if CATALOG[family].degenerate else _SYMBOLIC


@lru_cache(maxsize=64)
def _triangle_table(family: FamilyId, mode: Param) -> list[tuple[tuple[BiPoly, ...], ...]]:
    """The triangle table of one family and l, a one-slot list for ``_grown``,
    seeded with rows 0 and 1.

    Every triangle starts from T(0,0) = T(1,1) = 1, and column 0 is zero
    below row 0.  A full verification pass reads 7 tables and a numeric
    sweep 24 (three triangles at eight l), so 64, as for the step tables,
    keep all of their hits.
    """
    return [((_ONE,), (_ZERO, _ONE))]


def clear_caches() -> None:
    """Empty the three bounded caches: family series (kernels among them),
    step tables and triangle tables (mainly for tests and benchmarks, which
    time a pass from cold caches)."""
    _egf.cache_clear()
    _step_table.cache_clear()
    _triangle_table.cache_clear()


# -- the alternative second-kind route ----------------------------------------


def deg_bernoulli2_alt_egf(order: Fraction | int, trunc: int) -> EgfSeries:
    """Alternative route to the order-a degenerate Bernoulli polynomials of
    the second kind, at symbolic l and x:

        (l*t / ((1+t)^(l/2) - (1+t)^(-l/2)))^a * (1+t)^(x - l*a/2)

    The denominator's coefficients are odd polynomials in ``l``, so dividing
    by ``l*t`` is exact polynomial division.
    """
    if trunc < 0:
        raise ValueError(f"truncation order must be nonnegative, got {trunc}")
    order = rational(order)
    half_l = _L * _HALF
    diff = step_egf(half_l, _ONE, trunc + 1) - step_egf(-half_l, _ONE, trunc + 1)
    normalized = EgfSeries([c.div_lam() for c in diff.shift_div_t().coefficients])
    return normalized.pow(-order) * step_egf(_X - half_l * order, _ONE, trunc)

