"""Truncated exponential-generating-function arithmetic over BiPoly.

An ``EgfSeries`` holds coefficients a_0..a_N of f(t) = sum a_n t^n together
with the inclusive truncation order N.  The *value* of the series at index
n is n! * a_n, matching the t^n/n! convention of exponential generating
functions: extraction must multiply by the factorial.

Binary operations truncate to the smaller operand order; ``pow(-1)`` is the
only inverse.  Everything is exact in Q[l, x]; no rounding ever occurs.

A broken precondition (a coefficient beyond the truncation order, a nonzero
term where t-division or composition needs zero, a power's constant term
that is not a usable unit) raises ``SeriesError``, whose message names it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .bipoly import BiPoly, dot, rational

_ONE = BiPoly.const(1)


class SeriesError(ArithmeticError):
    """A truncated-series operation's precondition does not hold."""


class EgfSeries:
    """A truncated formal power series with BiPoly coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[BiPoly | Fraction | int]):
        clean: list[BiPoly] = []
        for c in coeffs:
            if not isinstance(c, BiPoly):
                c = BiPoly.const(c)
            clean.append(c)
        if not clean:
            raise ValueError("a series needs at least the constant coefficient")
        self._coeffs = tuple(clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, order: int) -> "EgfSeries":
        return cls([_ONE] + [BiPoly.zero()] * order)

    # -- accessors ---------------------------------------------------------

    @property
    def order(self) -> int:
        """The inclusive truncation order N."""
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[BiPoly, ...]:
        return self._coeffs

    def coefficient(self, n: int) -> BiPoly:
        if n < 0 or n > self.order:
            raise SeriesError(f"coefficient {n} beyond truncation order {self.order}")
        return self._coeffs[n]

    def value(self, n: int) -> BiPoly:
        """The family value at index n, i.e. n! * a_n."""
        return self.coefficient(n) * math.factorial(n)

    def values(self) -> list[BiPoly]:
        return [self.value(n) for n in range(self.order + 1)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EgfSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self) -> str:
        head = ", ".join(c.render() for c in self._coeffs[:4])
        tail = ", ..." if self.order >= 4 else ""
        return f"EgfSeries(order={self.order}; {head}{tail})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "EgfSeries") -> "EgfSeries":
        return EgfSeries([a + b for a, b in zip(self._coeffs, other._coeffs)])

    def __sub__(self, other: "EgfSeries") -> "EgfSeries":
        return EgfSeries([a - b for a, b in zip(self._coeffs, other._coeffs)])

    def __mul__(self, other: "EgfSeries") -> "EgfSeries":
        f, g = self._coeffs, other._coeffs
        return EgfSeries([dot(f[: n + 1], g[n::-1]) for n in range(min(len(f), len(g)))])

    def scale(self, c: BiPoly | Fraction | int) -> "EgfSeries":
        """Multiply every coefficient by a scalar or polynomial."""
        return EgfSeries([coeff * c for coeff in self._coeffs])

    def shift_div_t(self) -> "EgfSeries":
        """Divide by t; the constant term must vanish.  Order drops by 1."""
        if self.order < 1:
            raise SeriesError("cannot divide an order-0 series by t")
        if self._coeffs[0]:
            raise SeriesError(f"coefficient of t^0 is nonzero: {self._coeffs[0]!r}")
        return EgfSeries(self._coeffs[1:])

    def compose(self, inner: "EgfSeries") -> "EgfSeries":
        """f(inner(t)) from a table of powers; the inner constant term must vanish.

        inner^k is divisible by t^k, so its row keeps only coefficients
        k..N, each one ``dot`` over the row of inner^(k-1).  Coefficient n
        of the result is f_0 at n = 0 and otherwise one ``dot`` of f_1..f_n
        with coefficient n of inner^1..inner^n: the table half of Brent and
        Kung's algorithm (J. ACM 25, 1978).  Every ``dot`` makes a
        coefficient of some inner^k or of the result, so no intermediate
        carries terms that cancel later.
        """
        g = inner._coeffs
        if g[0]:
            raise SeriesError(f"inner series has nonzero constant term {g[0]!r}")
        order = min(self.order, inner.order)
        row = g[1 : order + 1]  # coefficients k..N of inner^k, from k = 1
        columns = [[c] for c in row]  # columns[n - 1]: coefficient n of inner^1..inner^n
        for k in range(2, order + 1):
            row = [dot(row[:j], g[j:0:-1]) for j in range(1, order - k + 2)]
            for column, c in zip(columns[k - 1 :], row):
                column.append(c)
        f = self._coeffs
        return EgfSeries([f[0], *(dot(f[1 : n + 1], col) for n, col in enumerate(columns, 1))])

    def pow(self, alpha: Fraction | int) -> "EgfSeries":
        """Raise to a rational power by J.C.P. Miller's recurrence (Knuth,
        TAOCP vol. 2, 4.7), one pass for every exponent:
        g_n = (1/(n f_0)) * sum_{k=1..n} ((alpha + 1) k - n) f_k g_{n-k}.
        With alpha + 1 = a/b in lowest terms this is
        g_n = (1/(b n f_0)) * sum_{k=1..n} (a k - b n) f_k g_{n-k},
        so every weight is an integer, and ``dot`` takes the weights a k - b n
        directly: no f_k is scaled per coefficient n.

        A negative exponent is the package's only inverse: f/g is f * g.pow(-1).

        The constant term f_0 must be a nonzero rational, and 1 for a
        fractional exponent, so that g_0 is rational.
        """
        alpha = rational(alpha)
        f0 = self._coeffs[0].constant()
        if alpha.denominator != 1 and f0 != 1:
            raise SeriesError(f"fractional power needs constant term 1, got {self._coeffs[0]!r}")
        if not f0:
            raise SeriesError(
                f"power needs a nonzero rational constant term, got {self._coeffs[0]!r}"
            )
        if alpha == 1:
            return self
        # Fraction ** Fraction may return a float, so g_0 is formed from ints.
        out = [BiPoly.const(f0**alpha.numerator if alpha.denominator == 1 else 1)]
        f = self._coeffs
        a, b = alpha.numerator + alpha.denominator, alpha.denominator
        for n in range(1, self.order + 1):
            weights = [a * k - b * n for k in range(1, n + 1)]
            out.append(dot(f[1 : n + 1], out[::-1], weights) * (1 / (b * n * f0)))
        return EgfSeries(out)
