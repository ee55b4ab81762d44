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
passes its flags straight through.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Mapping

from .bipoly import BiPoly, dot
from .series import EgfSeries
from .families import (
    FamilyId,
    FamilySpec,
    Param,
    build_egf,
    central_factorial_power,
    deg_bernoulli2_alt_egf,
    step_products,
    triangle_row,
)
from enum import Enum

_L = BiPoly.lam()
_X = BiPoly.x()
_ONE = BiPoly.const(1)
_ZERO = BiPoly.zero()
_SYM = Param.symbolic()
_TWO = Fraction(2)
_HALF_L = Param.scaled(Fraction(1, 2))  # the l/2 of S2_{l/2} in thm2 and its corollary


class UnknownIdentity(ValueError):
    """The requested identity name is not in the catalog."""


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


@dataclass(frozen=True)
class Case:
    """One verified index tuple: its indices and the exact residual polynomial."""

    indices: Mapping[str, object]
    residual: BiPoly

    @property
    def passed(self) -> bool:
        return not self.residual


@dataclass(frozen=True)
class VerificationReport:
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
    """Entries T(n, k) for n in ``ns``, each read from its whole row; zero above the diagonal."""
    rows = (triangle_row(family, n, lambda_mode) for n in ns)
    return [row[k] if k < len(row) else _ZERO for row in rows]


def _transform(values: "list[BiPoly]", family: FamilyId, n: int) -> BiPoly:
    """The triangle transform sum_{m<=n} values[m] * T(n, m) of one value list."""
    return dot(values[: n + 1], triangle_row(family, n))


def _convolve(a: "list[BiPoly]", b: "list[BiPoly]", n: int) -> BiPoly:
    """The binomial convolution sum_{m<=n} C(n,m) a[m] b[n-m]: value n of an EGF product."""
    return dot(a[: n + 1], b[n::-1], [math.comb(n, m) for m in range(n + 1)])


def _eq21_weight(poly: BiPoly, j: int, r: int) -> BiPoly:
    """l^j * poly(2x/l - r) for a polynomial of degree at most j in x alone.

    Writing poly as sum_i c_i y^i, the weight is sum_i c_i (2x - r*l)^i
    l^(j-i): the homogenized polynomial {(j-i, i): c_i} at x -> 2x - r*l.
    Every power of l is nonnegative because i <= j, so the result lives in
    Q[l, x].
    """
    homogenized: dict[tuple[int, int], Fraction] = {}
    for (dl, dx), c in poly.terms().items():
        if dl != 0:
            raise AssertionError("classical value unexpectedly contains l")
        homogenized[(j - dx, dx)] = c
    return BiPoly(homogenized).subs_x_poly(_X * 2 - _L * r)


# -- identity checkers --------------------------------------------------------


def _check_eq23(max_n: int, order: None) -> list[Case]:
    # b2*_{n,l}(x) = b_{n,l}^(1)(x) + b_{n,l}^(1)(x - 1)
    lhs = _series(FamilyId.TYPE2_DEG_BERNOULLI2, max_n)
    rhs_a = _series(FamilyId.DEG_BERNOULLI2, max_n)
    rhs_b = _series(FamilyId.DEG_BERNOULLI2, max_n, argument=Param.shifted(-1))
    return [
        Case({"n": n}, lhs[n] - rhs_a[n] - rhs_b[n]) for n in range(max_n + 1)
    ]


def _check_eq21(max_n: int, r: int) -> list[Case]:
    # sum_m b_{m,l}^(r)(x) S2(n,m)
    #   = sum_m C(n,m) [l^(n-m) B2*_(n-m)^(r)(2x/l - r)] S2(m+r,r)/C(m+r,r) 2^(m+r-n)
    b_r = _series(FamilyId.DEG_BERNOULLI2, max_n, order=r)
    classical = _series(
        FamilyId.TYPE2_DEG_BERNOULLI, max_n, order=r, lambda_mode=Param.numeric(0)
    )
    s2_col = _column(FamilyId.STIRLING2, r, range(r, max_n + r + 1))
    s2_weights = [s2 * Fraction(1, math.comb(m + r, r)) for m, s2 in enumerate(s2_col)]
    terms = [_eq21_weight(classical[j], j, r) * _TWO ** (r - j) for j in range(max_n + 1)]
    return [
        Case({"n": n, "r": r},
             _transform(b_r, FamilyId.STIRLING2, n) - _convolve(s2_weights, terms, n))
        for n in range(max_n + 1)
    ]


def _check_eq25(max_n: int, order: None) -> list[Case]:
    # b2*_{n,l}(x) = sum_l C(n,l) b2*_{l,l} (x)_{n-l}
    poly_values = _series(FamilyId.TYPE2_DEG_BERNOULLI2, max_n)
    number_values = _series(
        FamilyId.TYPE2_DEG_BERNOULLI2, max_n, argument=Param.numeric(0)
    )
    ff = step_products(_X, _ONE, max_n)  # (x)_j
    return [
        Case({"n": n}, poly_values[n] - _convolve(number_values, ff, n))
        for n in range(max_n + 1)
    ]


def _check_thm2(max_n: int, k: int) -> list[Case]:
    # sum_l b2*_{l,l}^(k)(x) S2_l(n,l)
    #   = sum_l C(n,l) 2^(l+k)/C(l+k,k) S2_{l/2}(l+k,k) (x-k)_{n-l,l}
    bstar = _series(FamilyId.TYPE2_DEG_BERNOULLI2, max_n, order=k)
    ff = step_products(_X - k, _L, max_n)  # (x-k)_{j,l}
    s2_col = _column(FamilyId.DEG_STIRLING2, k, range(k, max_n + k + 1), _HALF_L)
    weights = [s2 * (_TWO ** (m + k) / math.comb(m + k, k)) for m, s2 in enumerate(s2_col)]
    return [
        Case({"n": n, "k": k},
             _transform(bstar, FamilyId.DEG_STIRLING2, n) - _convolve(weights, ff, n))
        for n in range(max_n + 1)
    ]


def _check_thm2_corollary(max_n: int, k: int) -> list[Case]:
    # 2^(n+k) S2_{l/2}(n+k,k) = C(n+k,k) sum_l b2*_{l,l}^(k)(k) S2_l(n,l)
    bstar_at_k = _series(
        FamilyId.TYPE2_DEG_BERNOULLI2, max_n, order=k, argument=Param.numeric(k)
    )
    s2_col = _column(FamilyId.DEG_STIRLING2, k, range(k, max_n + k + 1), _HALF_L)
    return [
        Case({"n": n, "k": k},
             s2_col[n] * _TWO ** (n + k)
             - _transform(bstar_at_k, FamilyId.DEG_STIRLING2, n) * math.comb(n + k, k))
        for n in range(max_n + 1)
    ]


def _check_thm3(max_n: int, k: int) -> list[Case]:
    # b2*_{n,l}^(k)(x) = sum_l beta2*_{l,l}^(-k)(x) S1_l(n,l)
    bstar = _series(FamilyId.TYPE2_DEG_BERNOULLI2, max_n, order=k)
    beta = _series(FamilyId.TYPE2_DEG_BERNOULLI, max_n, order=-k)
    return [
        Case({"n": n, "k": k}, bstar[n] - _transform(beta, FamilyId.DEG_STIRLING1, n))
        for n in range(max_n + 1)
    ]


def _check_thm4(max_n: int, k: int) -> list[Case]:
    # sum_{m=k..n} sum_{l=k..m} T_l(l,k) S1_l(m,l) C(n,m) (k/2)_{n-m}
    #   = sum_{m=k..n} S1_l(m,k) b_{n-m,l}^(k) C(n,m)
    # Triangle entries vanish outside 0 <= k <= n, so every sum may start at 0.
    b_k = _series(FamilyId.DEG_BERNOULLI2, max_n, order=k, argument=Param.numeric(0))
    ff = step_products(BiPoly.const(Fraction(k, 2)), _ONE, max_n)  # (k/2)_j
    t_col = _column(FamilyId.DEG_CENTRAL_FACTORIAL, k, range(max_n + 1))
    inner = [_transform(t_col, FamilyId.DEG_STIRLING1, m) for m in range(max_n + 1)]
    s1_col = _column(FamilyId.DEG_STIRLING1, k, range(max_n + 1))
    return [
        Case({"n": n, "k": k}, _convolve(inner, ff, n) - _convolve(s1_col, b_k, n))
        for n in range(k, max_n + 1)
    ]


def _check_half_argument(type2: FamilyId, classical: FamilyId, shift: int,
                         max_n: int, order: None) -> list[Case]:
    # B2*_n(x) = 2^(n-1) B_n((x+1)/2)  and  E2*_n(x) = 2^n E_n((x+1)/2)
    lhs = _series(type2, max_n)
    rhs = _series(classical, max_n)
    half_shift = (_X + 1) * Fraction(1, 2)
    return [
        Case({"n": n}, lhs[n] - rhs[n].subs_x_poly(half_shift) * _TWO ** (n + shift))
        for n in range(max_n + 1)
    ]


def _check_eq5_recon(max_n: int, order: None) -> list[Case]:
    # x^n = sum_k T(n,k) x^[k]
    powers = [central_factorial_power(k) for k in range(max_n + 1)]
    return [
        Case({"n": n}, _transform(powers, FamilyId.CENTRAL_FACTORIAL, n) - _X**n)
        for n in range(max_n + 1)
    ]


def _check_eq18_equiv(max_n: int, order: None) -> list[Case]:
    # (t/log_l(1+t))^a (1+t)^x  ==  (l*t/((1+t)^(l/2)-(1+t)^(-l/2)))^a (1+t)^(x-l*a/2)
    cases = []
    for alpha in (Fraction(1), Fraction(2), Fraction(1, 2)):
        direct = _series(FamilyId.DEG_BERNOULLI2, max_n, order=alpha)
        alt = deg_bernoulli2_alt_egf(alpha, trunc=max_n).values()
        for n in range(max_n + 1):
            cases.append(Case({"alpha": str(alpha), "n": n}, direct[n] - alt[n]))
    return cases


def _check_b_second_kind(max_n: int, r: int) -> list[Case]:
    # b_n^(r)(x) = B_n^(n-r+1)(x+1); the right-hand order may be <= 0.
    lam0 = Param.numeric(0)
    classical_b = _series(FamilyId.DEG_BERNOULLI2, max_n, order=r, lambda_mode=lam0)
    return [
        Case({"n": n, "r": r}, classical_b[n] - build_egf(
            FamilySpec(FamilyId.BERNOULLI_ORDER_R, Fraction(n - r + 1), Param.shifted(1), lam0),
            max_n,
        ).value(n))
        for n in range(max_n + 1)
    ]


def _limit_pairs() -> list[tuple[dict[str, object], FamilySpec, FamilySpec]]:
    """The classical-limit catalog: (case indices, degenerate spec, classical spec)."""
    lam0 = Param.numeric(0)
    pairs: list[tuple[dict[str, object], FamilySpec, FamilySpec]] = []

    def seq(family: FamilyId, classical: FamilyId | None = None,
            order: Fraction | int = 1, **extra: object) -> None:
        deg = FamilySpec(family, Fraction(order), _SYM, _SYM)
        cls = FamilySpec(classical or family, Fraction(order) if classical is None else Fraction(1), _SYM, lam0)
        pairs.append(({"family": family.value, **extra}, deg, cls))

    seq(FamilyId.DEG_EXP)
    seq(FamilyId.DEG_LOG)
    seq(FamilyId.DEG_BERNOULLI, FamilyId.BERNOULLI_ORDER_R)
    seq(FamilyId.DEG_EULER, FamilyId.EULER)
    seq(FamilyId.DEG_DAEHEE, FamilyId.DAEHEE)
    seq(FamilyId.TYPE2_DEG_BERNOULLI, FamilyId.TYPE2_BERNOULLI)
    seq(FamilyId.TYPE2_DEG_BERNOULLI2)
    for alpha in (Fraction(1), Fraction(2), Fraction(1, 2)):
        seq(FamilyId.DEG_BERNOULLI2, order=alpha, alpha=str(alpha))
    return pairs


_LIMIT_TRIANGLES = [
    (FamilyId.DEG_STIRLING1, FamilyId.STIRLING1),
    (FamilyId.DEG_STIRLING2, FamilyId.STIRLING2),
    (FamilyId.DEG_CENTRAL_FACTORIAL, FamilyId.CENTRAL_FACTORIAL),
]


def _check_limits(max_n: int, order: None) -> list[Case]:
    # Substituting l = 0 in each degenerate family reproduces its classical
    # counterpart -- the assertable form of every classical-limit statement.
    cases = []
    for extra, deg_spec, classical_spec in _limit_pairs():
        deg_values = build_egf(deg_spec, max_n).values()
        classical_values = build_egf(classical_spec, max_n).values()
        for n in range(max_n + 1):
            residual = deg_values[n].subs_lam(0) - classical_values[n]
            cases.append(Case({**extra, "n": n}, residual))
    for deg_family, classical_family in _LIMIT_TRIANGLES:
        for n in range(max_n + 1):
            classical_row = triangle_row(classical_family, n)
            for k, entry in enumerate(triangle_row(deg_family, n)):
                residual = entry.subs_lam(0) - classical_row[k]
                cases.append(Case({"family": deg_family.value, "n": n, "k": k}, residual))
    return cases


def _check_stirling_inversion(max_n: int, order: None) -> list[Case]:
    # sum_l S2_l(n,l) S1_l(l,m) = delta(n,m), symbolic l
    s1_cols = [_column(FamilyId.DEG_STIRLING1, m, range(max_n + 1)) for m in range(max_n + 1)]
    cases = []
    for n in range(max_n + 1):
        for m in range(n + 1):
            delta = _ONE if n == m else _ZERO
            residual = _transform(s1_cols[m], FamilyId.DEG_STIRLING2, n) - delta
            cases.append(Case({"n": n, "m": m}, residual))
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
    cases = []
    for n in range(max_n + 1):
        expected = _ONE if n <= 1 else _ZERO
        cases.append(
            Case({"direction": "exp-after-log", "n": n}, one_plus_t.value(n) - expected)
        )
    for n in range(max_n + 1):
        expected = _ONE if n == 1 else _ZERO
        cases.append(
            Case({"direction": "log-after-exp", "n": n}, back.value(n) - expected)
        )
    return cases


# -- catalog and entry points -------------------------------------------------


@dataclass(frozen=True)
class _Entry:
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
    """Resolve an IdentityId, its kebab name, or an accepted alias."""
    if isinstance(name, IdentityId):
        return name
    try:
        return IdentityId(name)
    except ValueError:
        pass
    if name in ALIASES:
        return ALIASES[name]
    raise UnknownIdentity(f"unknown identity {name!r}")


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
    if max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    if uses_order and max_order < entry.min_order:
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
