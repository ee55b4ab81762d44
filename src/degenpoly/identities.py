"""Catalog of polynomial identities, each verified exactly in Q[l, x].

Both sides of every identity are assembled from the public family builders
(never from a shared derivation path), the residual LHS - RHS is computed
as an exact polynomial, and a case passes iff that residual is identically
zero -- not small, zero.  ``x`` stays symbolic in every polynomial identity
and ``l`` stays symbolic everywhere except the classical-limit checks,
which substitute l = 0.  A checker verifies one order of its identity;
``verify()`` runs it for every order from the identity's first order
(``thm4`` from 0, the others from 1) up to ``max_order``.

This module alone holds the range policy: ``default_ranges`` gives each
identity's ranges under the ``quick`` and ``full`` profiles, and
``verify()`` fills every range it is not given from them, so the CLI
passes its flags straight through.  An unknown identity or profile, or a
range it cannot honour, raises ``ValueError`` before any work starts.

A checker builds every series to ``max_n``, the largest index its cases
read.  Truncated series arithmetic is exact and coefficient n of a
product, quotient, power, composition or t-shift depends only on input
coefficients up to n, so building further cannot change a residual.  A
report's ``trunc``, the truncation order the result is stated at, is
therefore derived: ``max_n`` raised to the profile's ``_TRUNC_FLOOR``.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from functools import partial
from typing import Callable, Mapping, NamedTuple

from .bipoly import BiPoly, as_size, dot
from .series import EgfSeries
from .families import (
    FamilyId,
    FamilySpec,
    Param,
    build_egf,
    central_factorial_power,
    deg_bernoulli2_alt_egf,
    step_products,
    triangle_rows,
)
from enum import Enum

_L = BiPoly.lam()
_X = BiPoly.x()
_ONE = BiPoly.const(1)
_ZERO = BiPoly.zero()
_SYM = Param.symbolic()
_TWO = Fraction(2)
_LAM0 = Param.numeric(0)
_HALF_L = Param.scaled(Fraction(1, 2))  # the l/2 of S2_{l/2} in thm2 and its corollary
_ALPHAS = (Fraction(1), Fraction(2), Fraction(1, 2))  # the orders eq18 and its limits check


class IdentityId(Enum):
    """Every identity in the verification catalog, keyed by its CLI name."""

    EQ2 = "eq2"
    EQ4 = "eq4"
    EQ5_RECON = "eq5-reconstruction"
    EQ18_EQUIV = "eq18-equivalence"
    EQ21 = "eq21"
    EQ23 = "eq23"
    EQ25 = "eq25"
    THM2 = "thm2"
    THM2_COROLLARY = "thm2-corollary"
    THM3 = "thm3"
    THM4 = "thm4"
    B_SECOND_KIND_RELATION = "b-second-kind-relation"
    LIMITS_LAMBDA0 = "limits-lambda0"
    STIRLING_INVERSION = "stirling-inversion"
    COMPOSITIONAL_INVERSE = "compositional-inverse"


#: Accepted spellings beyond the canonical kebab names.
ALIASES: dict[str, IdentityId] = {
    "thm1": IdentityId.EQ23,
    "thm1-main": IdentityId.EQ23,
    "thm1-moreover": IdentityId.EQ21,
}


class Case(NamedTuple):
    """One verified index tuple: its indices and the exact residual polynomial."""

    indices: Mapping[str, object]
    residual: BiPoly

    @property
    def passed(self) -> bool:
        return not self.residual


class VerificationReport(NamedTuple):
    """Outcome of one identity over its index ranges."""

    identity: IdentityId
    max_n: int
    max_order: int | None
    trunc: int
    profile: str | None
    cases: tuple[Case, ...]
    wall_time_ms: float

    @property
    def all_pass(self) -> bool:
        return all(case.passed for case in self.cases)


# -- shared helpers -----------------------------------------------------------


def _series(family: FamilyId, n: int, order: Fraction | int = 1,
            argument: Param = _SYM,
            lambda_mode: Param = _SYM) -> "list[BiPoly]":
    """Values 0..n of one family's sequence."""
    return build_egf(
        FamilySpec(family, Fraction(order), argument, lambda_mode), n
    ).values()


def _column(family: FamilyId, k: int, ns: range, lambda_mode: Param = _SYM) -> "list[BiPoly]":
    """Entries T(n, k) for n in ``ns``, from one table read; zero above the diagonal."""
    rows = triangle_rows(family, ns[-1], lambda_mode) if ns else ()
    return [rows[n][k] if k <= n else _ZERO for n in ns]


def _transformed(values: "list[BiPoly]", family: FamilyId, ns: range) -> "list[BiPoly]":
    """The triangle transforms sum_{m<=n} values[m] * T(n, m) of one value list, n in ``ns``."""
    rows = triangle_rows(family, ns[-1]) if ns else ()
    return [dot(values[: n + 1], rows[n]) for n in ns]


def _convolved(a: "list[BiPoly]", b: "list[BiPoly]", ns: range) -> "list[BiPoly]":
    """The binomial convolutions sum_{m<=n} C(n,m) a[m] b[n-m], n in ``ns``: EGF product values."""
    return [dot(a[: n + 1], b[n::-1], [math.comb(n, m) for m in range(n + 1)]) for n in ns]


def _cases(lhs: "list[BiPoly]", rhs: "list[BiPoly]", **indices: object) -> list[Case]:
    """One case per value of the one ``range`` index, residual lhs - rhs, indices in given order.

    The range index runs along with the sides and every other index stays
    fixed; ``ValueError`` unless exactly one index is a ``range``.
    """
    ((key, ns),) = [(k, v) for k, v in indices.items() if isinstance(v, range)]
    return [Case({**indices, key: i}, a - b) for i, a, b in zip(ns, lhs, rhs, strict=True)]


# -- identity checkers --------------------------------------------------------


def _check_eq23(max_n: int, order: None) -> list[Case]:
    # b2*_{n,l}(x) = b_{n,l}^(1)(x) + b_{n,l}^(1)(x - 1)
    lhs = _series(FamilyId.TYPE2_DEG_BERNOULLI2, max_n)
    rhs_a = _series(FamilyId.DEG_BERNOULLI2, max_n)
    rhs_b = _series(FamilyId.DEG_BERNOULLI2, max_n, argument=Param.shifted(-1))
    return _cases(lhs, [a + b for a, b in zip(rhs_a, rhs_b)], n=range(max_n + 1))


def _check_eq21(max_n: int, r: int) -> list[Case]:
    # sum_m b_{m,l}^(r)(x) S2(n,m)
    #   = sum_m C(n,m) [l^(n-m) B2*_(n-m)^(r)(2x/l - r)] S2(m+r,r)/C(m+r,r) 2^(m+r-n)
    # The weight is an Appell sum over the order-r numbers B2*_i^(r):
    #   l^j B2*_j^(r)(2x/l - r) = sum_i C(j,i) [l^i B2*_i^(r)] (2x - r*l)^(j-i).
    b_r = _series(FamilyId.DEG_BERNOULLI2, max_n, order=r)
    numbers = _series(FamilyId.TYPE2_DEG_BERNOULLI, max_n, order=r,
                      argument=Param.numeric(0), lambda_mode=_LAM0)
    scaled = [b * _L**i for i, b in enumerate(numbers)]
    powers = step_products(_X * 2 - _L * r, _ZERO, max_n)  # (2x - r*l)^j
    s2_col = _column(FamilyId.STIRLING2, r, range(r, max_n + r + 1))
    s2_weights = [s2 * Fraction(1, math.comb(m + r, r)) for m, s2 in enumerate(s2_col)]
    ns = range(max_n + 1)
    terms = [t * _TWO ** (r - j) for j, t in enumerate(_convolved(scaled, powers, ns))]
    return _cases(_transformed(b_r, FamilyId.STIRLING2, ns), _convolved(s2_weights, terms, ns),
                  n=ns, r=r)


def _check_eq25(max_n: int, order: None) -> list[Case]:
    # b2*_{n,l}(x) = sum_l C(n,l) b2*_{l,l} (x)_{n-l}
    poly_values = _series(FamilyId.TYPE2_DEG_BERNOULLI2, max_n)
    number_values = _series(
        FamilyId.TYPE2_DEG_BERNOULLI2, max_n, argument=Param.numeric(0)
    )
    ff = step_products(_X, _ONE, max_n)  # (x)_j
    ns = range(max_n + 1)
    return _cases(poly_values, _convolved(number_values, ff, ns), n=ns)


def _check_thm2(max_n: int, k: int) -> list[Case]:
    # sum_l b2*_{l,l}^(k)(x) S2_l(n,l)
    #   = sum_l C(n,l) 2^(l+k)/C(l+k,k) S2_{l/2}(l+k,k) (x-k)_{n-l,l}
    # The right side is the EGF product W e_l^(x-k), W the weights' EGF, taken
    # as (W e_l^(-k)) e_l^x by
    #   (x-k)_{j,l} = sum_i C(j,i) (-k)_{j-i,l} (x)_{i,l},
    # so no product holds the dense bivariate (x-k)_{j,l}.
    bstar = _series(FamilyId.TYPE2_DEG_BERNOULLI2, max_n, order=k)
    s2_col = _column(FamilyId.DEG_STIRLING2, k, range(k, max_n + k + 1), _HALF_L)
    weights = [s2 * (_TWO ** (m + k) / math.comb(m + k, k)) for m, s2 in enumerate(s2_col)]
    ns = range(max_n + 1)
    shifted = _convolved(weights, step_products(BiPoly.const(-k), _L, max_n), ns)
    return _cases(_transformed(bstar, FamilyId.DEG_STIRLING2, ns),
                  _convolved(shifted, step_products(_X, _L, max_n), ns), n=ns, k=k)


def _check_thm2_corollary(max_n: int, k: int) -> list[Case]:
    # 2^(n+k) S2_{l/2}(n+k,k) = C(n+k,k) sum_l b2*_{l,l}^(k)(k) S2_l(n,l)
    bstar_at_k = _series(
        FamilyId.TYPE2_DEG_BERNOULLI2, max_n, order=k, argument=Param.numeric(k)
    )
    s2_col = _column(FamilyId.DEG_STIRLING2, k, range(k, max_n + k + 1), _HALF_L)
    ns = range(max_n + 1)
    sums = _transformed(bstar_at_k, FamilyId.DEG_STIRLING2, ns)
    return _cases([s2 * _TWO ** (n + k) for n, s2 in enumerate(s2_col)],
                  [s * math.comb(n + k, k) for n, s in enumerate(sums)], n=ns, k=k)


def _check_thm3(max_n: int, k: int) -> list[Case]:
    # b2*_{n,l}^(k)(x) = sum_l beta2*_{l,l}^(-k)(x) S1_l(n,l)
    bstar = _series(FamilyId.TYPE2_DEG_BERNOULLI2, max_n, order=k)
    beta = _series(FamilyId.TYPE2_DEG_BERNOULLI, max_n, order=-k)
    ns = range(max_n + 1)
    return _cases(bstar, _transformed(beta, FamilyId.DEG_STIRLING1, ns), n=ns, k=k)


def _check_thm4(max_n: int, k: int) -> list[Case]:
    # sum_{m=k..n} sum_{l=k..m} T_l(l,k) S1_l(m,l) C(n,m) (k/2)_{n-m}
    #   = sum_{m=k..n} S1_l(m,k) b_{n-m,l}^(k) C(n,m)
    # Triangle entries vanish outside 0 <= k <= n, so every sum may start at 0.
    b_k = _series(FamilyId.DEG_BERNOULLI2, max_n, order=k, argument=Param.numeric(0))
    ff = step_products(BiPoly.const(Fraction(k, 2)), _ONE, max_n)  # (k/2)_j
    t_col = _column(FamilyId.DEG_CENTRAL_FACTORIAL, k, range(max_n + 1))
    inner = _transformed(t_col, FamilyId.DEG_STIRLING1, range(max_n + 1))
    s1_col = _column(FamilyId.DEG_STIRLING1, k, range(max_n + 1))
    ns = range(k, max_n + 1)
    return _cases(_convolved(inner, ff, ns), _convolved(s1_col, b_k, ns), n=ns, k=k)


def _check_half_argument(type2: FamilyId, classical: FamilyId, shift: int,
                         max_n: int, order: None) -> list[Case]:
    # B2*_n(x) = 2^(n-1) B_n((x+1)/2)  and  E2*_n(x) = 2^n E_n((x+1)/2)
    lhs = _series(type2, max_n)
    rhs = _series(classical, max_n)
    half_shift = (_X + 1) * Fraction(1, 2)
    return _cases(lhs, [v.subs_x_poly(half_shift) * _TWO ** (n + shift)
                        for n, v in enumerate(rhs)], n=range(max_n + 1))


def _check_eq5_recon(max_n: int, order: None) -> list[Case]:
    # x^n = sum_k T(n,k) x^[k]
    ns = range(max_n + 1)
    powers = [central_factorial_power(k) for k in ns]
    return _cases(_transformed(powers, FamilyId.CENTRAL_FACTORIAL, ns), [_X**n for n in ns], n=ns)


def _check_eq18_equiv(max_n: int, order: None) -> list[Case]:
    # (t/log_l(1+t))^a (1+t)^x  ==  (l*t/((1+t)^(l/2)-(1+t)^(-l/2)))^a (1+t)^(x-l*a/2)
    cases = []
    for alpha in _ALPHAS:
        direct = _series(FamilyId.DEG_BERNOULLI2, max_n, order=alpha)
        alt = deg_bernoulli2_alt_egf(alpha, trunc=max_n).values()
        cases += _cases(direct, alt, alpha=str(alpha), n=range(max_n + 1))
    return cases


def _check_b_second_kind(max_n: int, r: int) -> list[Case]:
    # b_n^(r)(x) = B_n^(n-r+1)(x+1); the right-hand order may be <= 0.
    classical_b = _series(FamilyId.DEG_BERNOULLI2, max_n, order=r, lambda_mode=_LAM0)
    ns = range(max_n + 1)
    rhs = [build_egf(FamilySpec(FamilyId.BERNOULLI_ORDER_R, n - r + 1, Param.shifted(1), _LAM0),
                     max_n).value(n) for n in ns]
    return _cases(classical_b, rhs, n=ns, r=r)


#: The classical-limit catalog: each degenerate family and the classical one it meets at l = 0.
_LIMIT_SEQUENCES = [
    (FamilyId.DEG_EXP, FamilyId.DEG_EXP),
    (FamilyId.DEG_LOG, FamilyId.DEG_LOG),
    (FamilyId.DEG_BERNOULLI, FamilyId.BERNOULLI_ORDER_R),
    (FamilyId.DEG_EULER, FamilyId.EULER),
    (FamilyId.DEG_DAEHEE, FamilyId.DAEHEE),
    (FamilyId.TYPE2_DEG_BERNOULLI, FamilyId.TYPE2_BERNOULLI),
    (FamilyId.TYPE2_DEG_BERNOULLI2, FamilyId.TYPE2_DEG_BERNOULLI2),
]

_LIMIT_TRIANGLES = [
    (FamilyId.DEG_STIRLING1, FamilyId.STIRLING1),
    (FamilyId.DEG_STIRLING2, FamilyId.STIRLING2),
    (FamilyId.DEG_CENTRAL_FACTORIAL, FamilyId.CENTRAL_FACTORIAL),
]


def _check_limits(max_n: int, order: None) -> list[Case]:
    # Substituting l = 0 in each degenerate family reproduces its classical
    # counterpart -- the assertable form of every classical-limit statement.
    # Each sequence at order 1, then deg-bernoulli2 at eq18's orders alpha.
    b2 = FamilyId.DEG_BERNOULLI2
    sequences = [({"family": deg.value}, deg, classical, 1) for deg, classical in _LIMIT_SEQUENCES]
    sequences += [({"family": b2.value, "alpha": str(a)}, b2, b2, a) for a in _ALPHAS]
    ns = range(max_n + 1)
    cases = []
    for extra, deg, classical, order in sequences:
        at_zero = [v.subs_lam(0) for v in _series(deg, max_n, order)]
        cases += _cases(at_zero, _series(classical, max_n, order, lambda_mode=_LAM0), **extra, n=ns)
    for deg, classical in _LIMIT_TRIANGLES:
        deg_rows, classical_rows = triangle_rows(deg, max_n), triangle_rows(classical, max_n)
        for n in ns:
            at_zero = [entry.subs_lam(0) for entry in deg_rows[n]]
            cases += _cases(at_zero, classical_rows[n], family=deg.value, n=n, k=range(n + 1))
    return cases


def _check_stirling_inversion(max_n: int, order: None) -> list[Case]:
    # sum_l S2_l(n,l) S1_l(l,m) = delta(n,m), symbolic l
    # sums[m][n - m] is the left side at (n, m), formed only for m <= n.
    ns = range(max_n + 1)
    sums = [_transformed(_column(FamilyId.DEG_STIRLING1, m, ns), FamilyId.DEG_STIRLING2,
                         range(m, max_n + 1)) for m in ns]
    cases = []
    for n in ns:
        cases += _cases([sums[m][n - m] for m in range(n + 1)], [_ZERO] * n + [_ONE],
                        n=n, m=range(n + 1))
    return cases


def _check_compositional_inverse(max_n: int, order: None) -> list[Case]:
    # e_l(log_l(1+t)) = 1 + t  and  log_l(1 + (e_l(t) - 1)) = t, symbolic l
    e_series = build_egf(
        FamilySpec(FamilyId.DEG_EXP, Fraction(1), Param.numeric(1), _SYM),
        max_n,
    )
    log_series = build_egf(
        FamilySpec(FamilyId.DEG_LOG, Fraction(1), _SYM, _SYM), max_n
    )
    one_plus_t = e_series.compose(log_series)
    back = log_series.compose(e_series - EgfSeries.one(max_n))
    ns = range(max_n + 1)
    return (_cases(one_plus_t.values(), [_ONE if n <= 1 else _ZERO for n in ns],
                   direction="exp-after-log", n=ns)
            + _cases(back.values(), [_ONE if n == 1 else _ZERO for n in ns],
                     direction="log-after-exp", n=ns))


# -- catalog and entry points -------------------------------------------------


class _Entry(NamedTuple):
    checker: Callable[[int, int | None], list[Case]]  # (max_n, order)
    full: tuple[int, int | None]  # (max_n, max_order); max_order is None iff no order
    min_order: int = 1  # the identity's first order, read only when it has an order


_CATALOG: dict[IdentityId, _Entry] = {
    IdentityId.EQ2: _Entry(
        partial(_check_half_argument, FamilyId.TYPE2_BERNOULLI, FamilyId.BERNOULLI_ORDER_R, -1),
        (20, None),
    ),
    IdentityId.EQ4: _Entry(
        partial(_check_half_argument, FamilyId.TYPE2_EULER, FamilyId.EULER, 0), (20, None)
    ),
    IdentityId.EQ5_RECON: _Entry(_check_eq5_recon, (10, None)),
    IdentityId.EQ18_EQUIV: _Entry(_check_eq18_equiv, (12, None)),
    IdentityId.EQ21: _Entry(_check_eq21, (12, 4)),
    IdentityId.EQ23: _Entry(_check_eq23, (12, None)),
    IdentityId.EQ25: _Entry(_check_eq25, (12, None)),
    IdentityId.THM2: _Entry(_check_thm2, (12, 4)),
    IdentityId.THM2_COROLLARY: _Entry(_check_thm2_corollary, (12, 4)),
    IdentityId.THM3: _Entry(_check_thm3, (12, 4)),
    IdentityId.THM4: _Entry(_check_thm4, (12, 6), 0),
    IdentityId.B_SECOND_KIND_RELATION: _Entry(_check_b_second_kind, (10, 5)),
    IdentityId.LIMITS_LAMBDA0: _Entry(_check_limits, (12, None)),
    IdentityId.STIRLING_INVERSION: _Entry(_check_stirling_inversion, (12, None)),
    IdentityId.COMPOSITIONAL_INVERSE: _Entry(_check_compositional_inverse, (16, None)),
}


def coerce_identity(name: "IdentityId | str") -> IdentityId:
    """Resolve an IdentityId, its kebab name, or an accepted alias; refuse any other name."""
    if isinstance(name, IdentityId):
        return name
    try:
        return IdentityId(name)
    except ValueError:
        pass
    if name in ALIASES:
        return ALIASES[name]
    raise ValueError(f"unknown identity {name!r}")


_TRUNC_FLOOR = {"full": 16, "quick": 12}  # the least trunc a report states, per profile


def default_ranges(identity: "IdentityId | str", profile: str = "full") -> tuple[int, int | None]:
    """The (max_n, max_order) ranges an identity gets under a profile.

    ``full`` ranges are per identity; ``quick`` is n <= 8 and orders <= 3
    for every identity, with no order where it has none.
    """
    entry = _CATALOG[coerce_identity(identity)]
    if profile == "quick":
        return (8, None if entry.full[1] is None else 3)
    if profile == "full":
        return entry.full
    raise ValueError(f"unknown profile {profile!r}")


def verify(
    identity: "IdentityId | str",
    max_n: int | None = None,
    max_order: int | None = None,
    *,
    profile: str = "full",
) -> VerificationReport:
    """Verify one identity over inclusive index ranges, returning exact residuals.

    A range left as ``None`` comes from ``default_ranges(identity, profile)``.
    Every series is built to ``max_n``, and the report's ``trunc`` is
    ``max_n`` raised to 16 under ``full`` and to 12 under ``quick``.  The
    report's ``profile`` names the profile when some range came from it,
    and is ``None`` when every range was given.  Cases come order by order,
    from the identity's first order up to ``max_order``.  Ranges it cannot
    honour raise ``ValueError`` before any work starts.
    """
    identity = coerce_identity(identity)
    entry = _CATALOG[identity]
    d_max_n, d_order = default_ranges(identity, profile)
    uses_order = d_order is not None
    if max_order is not None and not uses_order:
        raise ValueError(f"identity {identity.value} has no order parameter")
    from_profile = max_n is None or (max_order is None and uses_order)
    max_n = d_max_n if max_n is None else max_n
    max_order = d_order if max_order is None else max_order
    if as_size(max_n, "max_n") < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    if uses_order and as_size(max_order, "max_order") < entry.min_order:
        raise ValueError(
            f"identity {identity.value} starts at order {entry.min_order}, got {max_order}"
        )
    orders = range(entry.min_order, max_order + 1) if uses_order else (None,)
    start = time.perf_counter()
    cases = tuple(case for order in orders for case in entry.checker(max_n, order))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return VerificationReport(
        identity=identity,
        max_n=max_n,
        max_order=max_order,
        trunc=max(_TRUNC_FLOOR[profile], max_n),
        profile=profile if from_profile else None,
        cases=cases,
        wall_time_ms=elapsed_ms,
    )


def verify_all(profile: str = "full") -> list[VerificationReport]:
    """Run the whole catalog under a profile; failures are reported, not raised."""
    return [verify(identity, profile=profile) for identity in IdentityId]
