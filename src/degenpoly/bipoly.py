"""Exact sparse bivariate polynomials over the rationals.

Every coefficient in this package lives in the ring Q[l, x]: polynomials
in the deformation parameter (printed ``l``) and the argument ``x``.  A
polynomial is stored as integer numerators over one common denominator,
the layout of FLINT's ``fmpq_poly``: ``_terms`` maps exponent pairs
``(dl, dx)`` to ``int`` numerators and ``_den`` is a positive ``int``, so
the coefficient of l^dl x^dx is ``_terms[(dl, dx)] / _den``.  Arithmetic
runs on plain ints and reduces each result once, by a single gcd over its
denominator and numerators.  ``dot(xs, ys, ws)``, the sum of w*x*y over
paired polynomials with optional integer weights, is the one product
kernel, and each sum of products in the series and identity layers is one
call to it; a weight scales its pair's numerators inside the kernel, so no
weighted operand is built.  ``*`` by a rational constant
(an ``int``, a ``Fraction`` or a constant polynomial) bypasses it: the
numerators are scaled and reduced by gcds taken with the scalar alone.

Instances are immutable and kept in canonical form: no zero numerator,
``_den > 0`` and ``gcd(_den, *numerators) == 1``; the zero polynomial is
``({}, 1)``.  Equal polynomials therefore have equal storage, and ``==``
decides polynomial identity exactly.  Coefficients leave the class as
``fractions.Fraction`` values.  Serialization and printing order is
graded-lexicographic: ascending total degree, then ascending degree in ``l``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Mapping

Scalar = Fraction | int
Term = tuple[int, int]  # (degree in l, degree in x)

_gcd = math.gcd


def factorial(n: int) -> Fraction:
    """n! as an exact rational; n must be a nonnegative integer."""
    if n < 0:
        raise ValueError(f"factorial of negative argument: {n}")
    return Fraction(math.factorial(n))


def rational(value: Scalar | str) -> Fraction:
    """``value`` as an exact ``Fraction``: an int, a Fraction or a rational string.

    A float is refused with ``ValueError``: it holds a binary approximation,
    and ``Fraction(0.1)`` is 3602879701896397/36028797018963968, not 1/10.
    """
    if isinstance(value, float):
        raise ValueError(f"a float is not an exact rational: {value!r}; pass a Fraction or a str")
    return Fraction(value)


def _raw(nums: dict[Term, int], den: int) -> "BiPoly":
    """A BiPoly from numerators and denominator already in canonical form."""
    p = object.__new__(BiPoly)
    p._terms = nums
    p._den = den
    return p


def _make(nums: dict[Term, int], den: int) -> "BiPoly":
    """A BiPoly from nonzero numerators over ``den > 0``, reduced by one gcd pass."""
    if not nums:
        return _raw(nums, 1)
    if den != 1:
        g = _gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {key: v // g for key, v in nums.items()}
    return _raw(nums, den)


class BiPoly:
    """A polynomial in ``l`` and ``x`` with exact rational coefficients.

    ``_terms`` maps exponent pairs ``(dl, dx)`` to nonzero integer
    numerators over the common denominator ``_den`` (see the module
    docstring for the canonical form).  All operations return new instances.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[Term, Scalar] | None = None):
        coeffs: dict[Term, Fraction] = {}
        if terms:
            for (dl, dx), c in terms.items():
                if dl < 0 or dx < 0:
                    raise ValueError(f"negative exponent in term ({dl}, {dx})")
                c = rational(c)
                if c:
                    coeffs[(int(dl), int(dx))] = c
        # Over the lcm of reduced denominators the numerators share no factor with it.
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self._terms = {key: c.numerator * (den // c.denominator) for key, c in coeffs.items()}
        self._den = den

    @classmethod
    def zero(cls) -> "BiPoly":
        return _raw({}, 1)

    @classmethod
    def const(cls, c: Scalar) -> "BiPoly":
        if not isinstance(c, (int, Fraction)):
            c = rational(c)
        return _raw({(0, 0): c.numerator}, c.denominator) if c else _raw({}, 1)

    @classmethod
    def lam(cls) -> "BiPoly":
        """The variable ``l``."""
        return _raw({(1, 0): 1}, 1)

    @classmethod
    def x(cls) -> "BiPoly":
        """The variable ``x``."""
        return _raw({(0, 1): 1}, 1)

    # -- inspection ------------------------------------------------------

    def terms(self) -> dict[Term, Fraction]:
        """The canonical term map, with ``Fraction`` coefficients."""
        den = self._den
        return {key: Fraction(v, den) for key, v in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def constant(self) -> Fraction | None:
        """The polynomial as a plain rational, or None if ``l`` or ``x`` occurs."""
        terms = self._terms
        if not terms:
            return Fraction(0)
        if len(terms) == 1 and (0, 0) in terms:
            return Fraction(terms[(0, 0)], self._den)
        return None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BiPoly):
            return self._den == other._den and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == BiPoly.const(other)
        if isinstance(other, float):
            # As +, - and * do; ``float == BiPoly`` lands here by reflection.
            raise TypeError(f"cannot compare a polynomial with a float: {other!r}")
        return NotImplemented

    def __hash__(self) -> int:
        # A constant equals its rational, so it must hash like one.
        c = self.constant()
        if c is not None:
            return hash(c)
        return hash((self._den, frozenset(self._terms.items())))

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
        a, b = self._terms, o._terms
        if not b:
            return self
        if not a:
            return o
        # Over the lcm of the denominators: scale a by ma and b by mb.
        da, db = self._den, o._den
        if da == db:
            ma = mb = 1
            out = dict(a)
        else:
            g = _gcd(da, db)
            ma, mb = db // g, da // g
            out = {key: v * ma for key, v in a.items()}
        get = out.get
        for key, v in b.items():
            s = get(key, 0) + v * mb
            if s:
                out[key] = s
            else:
                del out[key]
        return _make(out, da * ma)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return _raw({key: -v for key, v in self._terms.items()}, self._den)

    def __sub__(self, other: object) -> "BiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "BiPoly":
        return (-self) + other

    def __mul__(self, other: object) -> "BiPoly":
        if isinstance(other, BiPoly):
            c = other._terms
            if len(c) == 1 and (0, 0) in c:
                return _scale(self, c[(0, 0)], other._den)
            c = self._terms
            if len(c) == 1 and (0, 0) in c:
                return _scale(other, c[(0, 0)], self._den)
            return dot((self,), (other,))
        if isinstance(other, int):
            return _scale(self, other, 1)
        if isinstance(other, Fraction):
            return _scale(self, other.numerator, other.denominator)
        return NotImplemented

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

    def _subs(self, value: Scalar, axis: int) -> "BiPoly":
        # Substitute p/q for the variable at position ``axis`` of the exponent
        # pair: a term n * v^d over den becomes n * p^d * q^(top - d) over
        # den * q^top, with top the largest degree d present.
        c = rational(value)
        p, q = c.numerator, c.denominator
        terms = self._terms
        if not terms:
            return self
        top = max(key[axis] for key in terms)
        p_pow = [1]
        q_pow = [1]
        for _ in range(top):
            p_pow.append(p_pow[-1] * p)
            q_pow.append(q_pow[-1] * q)
        out: dict[Term, int] = {}
        for key, v in terms.items():
            d = key[axis]
            rest = (0, key[1]) if axis == 0 else (key[0], 0)
            out[rest] = out.get(rest, 0) + v * p_pow[d] * q_pow[top - d]
        return _make({key: v for key, v in out.items() if v}, self._den * q_pow[top])

    def subs_lam(self, value: Scalar) -> "BiPoly":
        """Substitute l -> value (exact)."""
        return self._subs(value, 0)

    def subs_x(self, value: Scalar) -> "BiPoly":
        """Substitute x -> value (exact)."""
        return self._subs(value, 1)

    def subs_x_poly(self, q: "BiPoly") -> "BiPoly":
        """Substitute x -> q for an arbitrary polynomial q, by Horner's scheme."""
        if not self._terms:
            return self
        buckets: dict[int, dict[Term, int]] = {}
        for (dl, dx), v in self._terms.items():
            buckets.setdefault(dx, {})[(dl, 0)] = v
        den = self._den
        top = max(buckets)
        acc = _make(buckets[top], den)
        for d in range(top - 1, -1, -1):
            acc = acc * q + _make(buckets.get(d, {}), den)
        return acc

    def div_lam(self) -> "BiPoly":
        """Exact division by ``l``; every term must contain ``l``."""
        for (dl, _dx) in self._terms:
            if dl == 0:
                raise ValueError("polynomial is not divisible by l")
        return _raw({(dl - 1, dx): v for (dl, dx), v in self._terms.items()}, self._den)

    # -- serialization and printing --------------------------------------

    def _reduced_terms(self) -> list[tuple[int, int, int, int]]:
        """``(dl, dx, p, q)`` per term in graded-lex order, coefficient p/q reduced, q > 0."""
        den = self._den
        out = []
        for (dl, dx), v in sorted(self._terms.items(), key=_graded_lex):
            g = _gcd(v, den)
            out.append((dl, dx, v // g, den // g))
        return out

    def to_records(self) -> list[dict[str, object]]:
        """JSON-ready term list: [{"dl": int, "dx": int, "c": "p/q"}, ...]."""
        return [
            {"dl": dl, "dx": dx, "c": f"{p}/{q}" if q != 1 else str(p)}
            for dl, dx, p, q in self._reduced_terms()
        ]

    def render(self) -> str:
        """Plain-text form, e.g. ``x^2 - l*x``; the zero polynomial prints ``0``."""
        if not self._terms:
            return "0"
        text = ""
        for dl, dx, p, q in self._reduced_terms():
            mono = "*".join(s for s in (_pow_str("l", dl), _pow_str("x", dx)) if s)
            mag = f"{abs(p)}/{q}" if q != 1 else str(abs(p))
            if not mono:
                body = mag
            elif mag == "1":
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not text:
                text = "-" + body if p < 0 else body
            else:
                text += f" - {body}" if p < 0 else f" + {body}"
        return text

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"BiPoly({self.render()})"


def dot(
    xs: Iterable[BiPoly], ys: Iterable[BiPoly], ws: Iterable[int] | None = None
) -> BiPoly:
    """The sum of w*x*y over ``zip(xs, ys, ws, strict=True)``, reduced once.

    ``ws`` holds integer weights and defaults to all 1.  Pairs with a zero
    factor or weight are skipped.  Every product is accumulated over the
    lcm of the pairs' denominator products, so the numerators stay ints and
    the sum gets a single gcd pass; a pair's weight joins the integer that
    scales its numerators onto that lcm, so no weighted operand is built.
    Each pair loops over its operand with fewer terms on the outside and
    scales each outer numerator once.
    """
    pairs = []
    den = 1
    weights = repeat(1) if ws is None else ws
    for (x, y), w in zip(zip(xs, ys, strict=True), weights, strict=ws is not None):
        a, b = x._terms, y._terms
        if w and a and b:
            d = x._den * y._den
            pairs.append((a, b, d, w) if len(a) <= len(b) else (b, a, d, w))
            if d != den:
                den = math.lcm(den, d)
    out: dict[Term, int] = {}
    get = out.get
    products = 0
    for a, b, d, w in pairs:
        # Scale a's numerators so that this product lands over ``den``, weighted.
        scale = den // d * w
        b_items = b.items()
        products += len(a) * len(b)
        for (al, ax), ac in a.items():
            ac *= scale
            for (bl, bx), bc in b_items:
                key = (al + bl, ax + bx)
                out[key] = get(key, 0) + ac * bc
    # Only a sum that merged some products can hold a zero numerator.
    if len(out) < products:
        out = {key: v for key, v in out.items() if v}
    return _make(out, den)


def _scale(poly: BiPoly, p: int, q: int) -> BiPoly:
    """``poly * (p/q)`` for a reduced fraction p/q with q > 0.

    Both factors are canonical, so the only factor that the numerators
    ``p * v`` share with ``_den * q`` is gcd(p, _den) * gcd(q, *numerators):
    the result is reduced without a gcd pass over the product.
    """
    nums = poly._terms
    if not p or not nums:
        return _raw({}, 1)
    den = poly._den
    g = _gcd(p, den)
    if g != 1:
        p //= g
        den //= g
    if q != 1:
        g = _gcd(q, *nums.values())
        if g != 1:
            q //= g
            nums = {key: v // g for key, v in nums.items()}
    if p != 1:
        nums = {key: v * p for key, v in nums.items()}
    return _raw(nums, den * q)


def _graded_lex(item: tuple[Term, int]) -> tuple[int, int]:
    """Sort key of a term: total degree, then degree in ``l``."""
    (dl, dx), _ = item
    return (dl + dx, dl)


def _pow_str(name: str, d: int) -> str:
    if d == 0:
        return ""
    if d == 1:
        return name
    return f"{name}^{d}"
