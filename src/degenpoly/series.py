"""Truncated exponential-generating-function arithmetic over BiPoly.

An ``EgfSeries`` holds coefficients a_0..a_N of f(t) = sum a_n t^n together
with the inclusive truncation order N.  The *value* of the series at index
n is n! * a_n, matching the t^n/n! convention of exponential generating
functions: extraction must multiply by the factorial.

Binary operations truncate to the smaller operand order; ``pow(-1)`` is the
only inverse.  Everything is exact in Q[l, x]; no rounding ever occurs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .bipoly import BiPoly, dot, rational

_ONE = BiPoly.const(1)


class SeriesError(ArithmeticError):
    """Base class for truncated-series contract violations."""


class DivisionByNonUnit(SeriesError):
    """A power's constant term is zero or not a pure rational."""


class NonzeroLowOrder(SeriesError):
    """A leading coefficient that must vanish for t-division is nonzero."""


class NonzeroConstantInner(SeriesError):
    """Inner series of a composition has a nonzero constant term."""


class BadConstantTerm(SeriesError):
    """Constant term violates the precondition of a fractional power."""


class IndexBeyondTruncation(SeriesError):
    """Requested index exceeds the truncation order."""


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
            raise IndexBeyondTruncation(f"coefficient {n} beyond truncation order {self.order}")
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
            raise IndexBeyondTruncation("cannot divide an order-0 series by t")
        if self._coeffs[0]:
            raise NonzeroLowOrder(f"coefficient of t^0 is nonzero: {self._coeffs[0]!r}")
        return EgfSeries(self._coeffs[1:])

    def compose(self, inner: "EgfSeries") -> "EgfSeries":
        """f(inner(t)) by Horner's scheme; the inner constant term must vanish.

        The accumulator after step k is multiplied by inner^k, which is
        divisible by t^k, so step k only needs order N - k.  With
        inner = t*h, each step is f_k + t*(h * acc) at one order more.
        """
        if inner._coeffs[0]:
            raise NonzeroConstantInner(
                f"inner series has nonzero constant term {inner._coeffs[0]!r}"
            )
        order = min(self.order, inner.order)
        acc = EgfSeries([self._coeffs[order]])
        if order == 0:
            return acc
        h = inner.shift_div_t()
        for k in range(order - 1, -1, -1):
            acc = EgfSeries([self._coeffs[k], *(h * acc)._coeffs])
        return acc

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
            raise BadConstantTerm(
                f"fractional power needs constant term 1, got {self._coeffs[0]!r}"
            )
        if not f0:
            raise DivisionByNonUnit(
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
