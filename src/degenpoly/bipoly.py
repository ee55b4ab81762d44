"""Exact sparse bivariate polynomials over the rationals.

Every coefficient in this package lives in the ring Q[l, x]: polynomials
in the deformation parameter (printed ``l``) and the argument ``x``, with
``fractions.Fraction`` coefficients.  Instances are immutable and stored
in canonical form (no zero terms), so ``==`` decides polynomial identity
exactly.  Serialization and printing order is graded-lexicographic:
ascending total degree, then ascending degree in ``l``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

Scalar = Fraction | int
Term = tuple[int, int]  # (degree in l, degree in x)

_ZERO = Fraction(0)


def factorial(n: int) -> Fraction:
    """n! as an exact rational; n must be a nonnegative integer."""
    if n < 0:
        raise ValueError(f"factorial of negative argument: {n}")
    return Fraction(math.factorial(n))


def binomial(n: int, k: int) -> Fraction:
    """C(n, k) as an exact rational; zero for k outside 0..n, negative n rejected."""
    if n < 0:
        raise ValueError(f"binomial with negative upper index: {n}")
    if k < 0 or k > n:
        return Fraction(0)
    return Fraction(math.comb(n, k))


class BiPoly:
    """A polynomial in ``l`` and ``x`` with exact rational coefficients.

    Terms map exponent pairs ``(dl, dx)`` to nonzero coefficients; the zero
    polynomial is the empty map.  All operations return new instances.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Term, Scalar] | None = None):
        clean: dict[Term, Fraction] = {}
        if terms:
            for (dl, dx), c in terms.items():
                if dl < 0 or dx < 0:
                    raise ValueError(f"negative exponent in term ({dl}, {dx})")
                c = Fraction(c)
                if c:
                    clean[(int(dl), int(dx))] = c
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict[Term, Fraction]) -> "BiPoly":
        # Internal constructor for terms already known to be canonical.
        p = object.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls._raw({})

    @classmethod
    def const(cls, c: Scalar) -> "BiPoly":
        c = Fraction(c)
        return cls._raw({(0, 0): c} if c else {})

    @classmethod
    def lam(cls) -> "BiPoly":
        """The variable ``l``."""
        return cls._raw({(1, 0): Fraction(1)})

    @classmethod
    def x(cls) -> "BiPoly":
        """The variable ``x``."""
        return cls._raw({(0, 1): Fraction(1)})

    # -- inspection ------------------------------------------------------

    def terms(self) -> dict[Term, Fraction]:
        """A copy of the canonical term map."""
        return dict(self._terms)

    def coeff(self, dl: int, dx: int) -> Fraction:
        return self._terms.get((dl, dx), _ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def constant(self) -> Fraction | None:
        """The polynomial as a plain rational, or None if ``l`` or ``x`` occurs."""
        if not self._terms:
            return Fraction(0)
        if set(self._terms) == {(0, 0)}:
            return self._terms[(0, 0)]
        return None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BiPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == BiPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        # A constant equals its rational, so it must hash like one.
        c = self.constant()
        return hash(c) if c is not None else hash(frozenset(self._terms.items()))

    # -- ring arithmetic -------------------------------------------------

    @staticmethod
    def _coerce(value: object) -> "BiPoly | None":
        if isinstance(value, BiPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return BiPoly.const(value)
        return None

    def __add__(self, other: object) -> "BiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for key, c in o._terms.items():
            s = out.get(key, _ZERO) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return BiPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return BiPoly._raw({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: object) -> "BiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "BiPoly":
        return (-self) + other

    def __mul__(self, other: object) -> "BiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._terms or not o._terms:
            return BiPoly._raw({})
        out: dict[Term, Fraction] = {}
        for (al, ax), ac in self._terms.items():
            for (bl, bx), bc in o._terms.items():
                key = (al + bl, ax + bx)
                out[key] = out.get(key, _ZERO) + ac * bc
        return BiPoly._raw({key: c for key, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"polynomial power must be a nonnegative integer, got {n!r}")
        result = BiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- substitutions ---------------------------------------------------

    def subs_lam(self, value: Scalar) -> "BiPoly":
        """Substitute l -> value (exact)."""
        c = Fraction(value)
        out: dict[Term, Fraction] = {}
        for (dl, dx), coeff in self._terms.items():
            key = (0, dx)
            out[key] = out.get(key, _ZERO) + coeff * c**dl
        return BiPoly._raw({key: v for key, v in out.items() if v})

    def subs_x(self, value: Scalar) -> "BiPoly":
        """Substitute x -> value (exact)."""
        c = Fraction(value)
        out: dict[Term, Fraction] = {}
        for (dl, dx), coeff in self._terms.items():
            key = (dl, 0)
            out[key] = out.get(key, _ZERO) + coeff * c**dx
        return BiPoly._raw({key: v for key, v in out.items() if v})

    def subs_x_poly(self, q: "BiPoly") -> "BiPoly":
        """Substitute x -> q for an arbitrary polynomial q, by Horner's scheme."""
        if not self._terms:
            return self
        buckets: dict[int, dict[Term, Fraction]] = {}
        for (dl, dx), coeff in self._terms.items():
            buckets.setdefault(dx, {})[(dl, 0)] = coeff
        top = max(buckets)
        acc = BiPoly._raw(buckets.get(top, {}))
        for d in range(top - 1, -1, -1):
            acc = acc * q + BiPoly._raw(buckets.get(d, {}))
        return acc

    def div_lam(self) -> "BiPoly":
        """Exact division by ``l``; every term must contain ``l``."""
        for (dl, _dx) in self._terms:
            if dl == 0:
                raise ValueError("polynomial is not divisible by l")
        return BiPoly._raw({(dl - 1, dx): c for (dl, dx), c in self._terms.items()})

    def evaluate(self, lam_value: Scalar, x_value: Scalar) -> Fraction:
        """Evaluate at a rational point (exact)."""
        lv, xv = Fraction(lam_value), Fraction(x_value)
        total = Fraction(0)
        for (dl, dx), coeff in self._terms.items():
            total += coeff * lv**dl * xv**dx
        return total

    # -- serialization and printing --------------------------------------

    def sorted_terms(self) -> list[tuple[Term, Fraction]]:
        """Terms in graded-lex order: total degree ascending, then l-degree."""
        return sorted(self._terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]))

    def to_records(self) -> list[dict[str, object]]:
        """JSON-ready term list: [{"dl": int, "dx": int, "c": "p/q"}, ...]."""
        return [
            {"dl": dl, "dx": dx, "c": str(c)}
            for (dl, dx), c in self.sorted_terms()
        ]

    def render(self) -> str:
        """Plain-text form, e.g. ``x^2 - l*x``; the zero polynomial prints ``0``."""
        if not self._terms:
            return "0"
        pieces: list[tuple[str, str]] = []
        for (dl, dx), c in self.sorted_terms():
            mono = "*".join(p for p in (_pow_str("l", dl), _pow_str("x", dx)) if p)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"BiPoly({self.render()})"


def _pow_str(name: str, d: int) -> str:
    if d == 0:
        return ""
    if d == 1:
        return name
    return f"{name}^{d}"
