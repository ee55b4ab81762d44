"""Exact sparse bivariate polynomials over the rationals.

Every coefficient in this package lives in the ring Q[l, x]: polynomials
in the deformation parameter (printed ``l``) and the argument ``x``.  A
polynomial is stored as integer numerators over one common denominator,
the layout of FLINT's ``fmpq_poly``: ``_terms`` maps term keys to ``int``
numerators and ``_den`` is a positive ``int``, so the coefficient of
l^dl x^dx is ``_terms[key] / _den``.  A term key packs the exponent pair
into one int, total degree above degree in ``l``:
``key = (dl + dx) << 15 | dl`` (the graded packed exponent vectors of
Monagan and Pearce).  The key of the product of two terms is then the sum
of their keys, and ascending keys are graded-lex order.  Total degree is
bounded by 16383, so a key stays below 2**30 and the ``dl`` fields of two
factors sum without carrying into the degree field.  The constructor
refuses a term past the bound, and ``dot``, the one routine that raises
degrees, checks its result once, so every stored key is exact.  Arithmetic
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

# Term keys: (dl + dx) << _SHIFT | dl.  The keys of l and x are _L_KEY and
# _X_KEY, so l^dl x^dx has the key dl * _L_KEY + dx * _X_KEY.  Two degrees
# within _MAX_DEGREE sum below 2**_SHIFT, so adding keys never carries.
_SHIFT = 15
_DL_MASK = (1 << _SHIFT) - 1
_MAX_DEGREE = 16383
_X_KEY = 1 << _SHIFT
_L_KEY = _X_KEY | 1


def _key(dl: int, dx: int) -> int:
    """The term key of l^dl x^dx."""
    return (dl + dx) << _SHIFT | dl


def _pair(key: int) -> Term:
    """The exponent pair ``(dl, dx)`` of a term key."""
    dl = key & _DL_MASK
    return dl, (key >> _SHIFT) - dl


def rational(value: Scalar | str) -> Fraction:
    """``value`` as an exact ``Fraction``: an int, a Fraction or a rational string.

    A float is refused with ``ValueError``: it holds a binary approximation,
    and ``Fraction(0.1)`` is 3602879701896397/36028797018963968, not 1/10.
    """
    if isinstance(value, float):
        raise ValueError(f"a float is not an exact rational: {value!r}; pass a Fraction or a str")
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:
        raise ValueError(f"a rational with denominator 0: {value!r}") from exc


def as_size(value: int, name: str) -> int:
    """``value``, a size such as a truncation order or an index bound, if it is an ``int``.

    A ``bool`` or any other type is refused with ``ValueError`` naming the
    argument ``name``; the caller checks the bound.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    return value


def _raw(nums: dict[int, int], den: int) -> "BiPoly":
    """A BiPoly from numerators and denominator already in canonical form."""
    p = object.__new__(BiPoly)
    p._terms = nums
    p._den = den
    return p


def _make(nums: dict[int, int], den: int) -> "BiPoly":
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

    ``_terms`` maps term keys ``(dl + dx) << 15 | dl`` to nonzero integer
    numerators over the common denominator ``_den`` (see the module
    docstring for the key layout and the canonical form); ``terms()`` gives
    them back keyed by ``(dl, dx)``.  The product of two terms has the sum
    of their keys as its key, and sorted keys are in graded-lex order.  An
    exponent must be an ``int``, not a ``bool``, and a total degree past
    16383 raises ``ValueError``: here for a term given to the constructor,
    and in ``dot`` for a product.  All operations return new instances.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[Term, Scalar] | None = None):
        coeffs: dict[int, Fraction] = {}
        if terms:
            for (dl, dx), c in terms.items():
                if type(dl) is not int or type(dx) is not int:  # True is not l^1
                    raise ValueError(f"an exponent is not an int in term ({dl!r}, {dx!r})")
                if dl < 0 or dx < 0:
                    raise ValueError(f"negative exponent in term ({dl}, {dx})")
                if dl + dx > _MAX_DEGREE:
                    raise ValueError(
                        f"total degree of term ({dl}, {dx}) exceeds {_MAX_DEGREE}"
                    )
                c = rational(c)
                if c:
                    coeffs[_key(dl, dx)] = c
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
        return _raw({0: c.numerator}, c.denominator) if c else _raw({}, 1)

    @classmethod
    def lam(cls) -> "BiPoly":
        """The variable ``l``."""
        return _raw({_L_KEY: 1}, 1)

    @classmethod
    def x(cls) -> "BiPoly":
        """The variable ``x``."""
        return _raw({_X_KEY: 1}, 1)

    # -- inspection ------------------------------------------------------

    def terms(self) -> dict[Term, Fraction]:
        """The canonical term map, with ``Fraction`` coefficients."""
        den = self._den
        return {_pair(key): Fraction(v, den) for key, v in self._terms.items()}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def constant(self) -> Fraction | None:
        """The polynomial as a plain rational, or None if ``l`` or ``x`` occurs."""
        terms = self._terms
        if not terms:
            return Fraction(0)
        if len(terms) == 1 and 0 in terms:
            return Fraction(terms[0], self._den)
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

    def __add__(self, other: object, sign: int = 1) -> "BiPoly":
        # ``sign`` -1 subtracts: it joins b's rescale factor, so no -o is built.
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._terms, o._terms
        if not b:
            return self
        if not a:
            return o if sign == 1 else -o
        # Over the lcm of the denominators: scale a by ma and b by mb.
        da, db = self._den, o._den
        if da == db:
            ma, mb = 1, sign
            out = dict(a)
        else:
            g = _gcd(da, db)
            ma, mb = db // g, da // g * sign
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
        return self.__add__(other, -1)

    def __rsub__(self, other: object) -> "BiPoly":
        return (-self) + other

    def __mul__(self, other: object) -> "BiPoly":
        if isinstance(other, BiPoly):
            c = other._terms
            if len(c) == 1 and 0 in c:
                return _scale(self, c[0], other._den)
            c = self._terms
            if len(c) == 1 and 0 in c:
                return _scale(other, c[0], self._den)
            return dot((self,), (other,))
        if isinstance(other, int):
            return _scale(self, other, 1)
        if isinstance(other, Fraction):
            return _scale(self, other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        if type(n) is not int or n < 0:  # a bool is refused, as sizes are
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
        # Each term as (d, key of the monomial left once v^d is taken out, n).
        split = []
        for key, v in terms.items():
            dl = key & _DL_MASK
            dx = (key >> _SHIFT) - dl
            split.append((dl, dx * _X_KEY, v) if axis == 0 else (dx, dl * _L_KEY, v))
        top = max(d for d, _, _ in split)
        p_pow = [1]
        q_pow = [1]
        for _ in range(top):
            p_pow.append(p_pow[-1] * p)
            q_pow.append(q_pow[-1] * q)
        out: dict[int, int] = {}
        for d, rest, v in split:
            if p_pow[d]:  # at value 0, every term with v^d, d > 0, vanishes
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
        buckets: dict[int, dict[int, int]] = {}
        for key, v in self._terms.items():
            dl, dx = _pair(key)
            buckets.setdefault(dx, {})[_key(dl, 0)] = v
        den = self._den
        top = max(buckets)
        acc = _make(buckets[top], den)
        for d in range(top - 1, -1, -1):
            acc = acc * q + _make(buckets.get(d, {}), den)
        return acc

    def div_lam(self) -> "BiPoly":
        """Exact division by ``l``; every term must contain ``l``."""
        for key in self._terms:
            if not key & _DL_MASK:
                raise ValueError("polynomial is not divisible by l")
        return _raw({key - _L_KEY: v for key, v in self._terms.items()}, self._den)

    # -- serialization and printing --------------------------------------

    def _reduced_terms(self) -> list[tuple[int, int, int]]:
        """``(key, p, q)`` per term in graded-lex order, coefficient p/q reduced, q > 0."""
        terms, den = self._terms, self._den
        out = []
        for key in sorted(terms):
            v = terms[key]
            g = _gcd(v, den)
            out.append((key, v // g, den // g))
        return out

    def to_records(self) -> list[dict[str, object]]:
        """JSON-ready term list: [{"dl": int, "dx": int, "c": "p/q"}, ...]."""
        records = []
        for key, p, q in self._reduced_terms():
            dl, dx = _pair(key)
            records.append({"dl": dl, "dx": dx, "c": f"{p}/{q}" if q != 1 else str(p)})
        return records

    def render(self, monos: dict[int, str] | None = None) -> str:
        """Plain-text form, e.g. ``x^2 - l*x``; the zero polynomial prints ``0``.

        ``monos`` maps a term key to its monomial's text (``l^2*x``, empty
        for the constant term) and is filled on the key's first use, so a
        caller that renders many polynomials formats each monomial once by
        passing them one table.
        """
        if not self._terms:
            return "0"
        if monos is None:
            monos = {}
        text = ""
        for key, p, q in self._reduced_terms():
            mono = monos.get(key)
            if mono is None:
                dl, dx = _pair(key)
                mono = monos[key] = "*".join(
                    s for s in (_pow_str("l", dl), _pow_str("x", dx)) if s
                )
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
    out: dict[int, int] = {}
    get = out.get
    products = 0
    for a, b, d, w in pairs:
        # Scale a's numerators so that this product lands over ``den``, weighted.
        scale = den // d * w
        b_items = b.items()
        products += len(a) * len(b)
        for ka, ac in a.items():
            ac *= scale
            for kb, bc in b_items:
                key = ka + kb
                out[key] = get(key, 0) + ac * bc
    # Only a sum that merged some products can hold a zero numerator.
    if len(out) < products:
        out = {key: v for key, v in out.items() if v}
    # Factors within the degree bound sum their dl fields without a carry,
    # so the largest key holds the largest total degree exactly.
    if out and max(out) >> _SHIFT > _MAX_DEGREE:
        raise ValueError(f"total degree {max(out) >> _SHIFT} of a product exceeds {_MAX_DEGREE}")
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


def _pow_str(name: str, d: int) -> str:
    if d == 0:
        return ""
    if d == 1:
        return name
    return f"{name}^{d}"
