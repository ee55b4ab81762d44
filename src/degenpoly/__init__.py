"""Exact construction and verification of degenerate special-polynomial families.

The package works entirely in the ring Q[l, x] (``l`` the deformation
parameter, ``x`` the polynomial argument) via truncated exponential
generating functions with exact rational arithmetic.  See ``families``
for the catalog of builders and ``identities`` for the verification suite.

The verification names (``Case``, ``IdentityId``, ``VerificationReport``,
``verify`` and ``verify_all``) resolve through the module ``__getattr__`` of
PEP 562, which imports ``identities`` on first access.  Every CLI request
runs in a fresh process, and a ``compute`` table never verifies, so it does
not pay for compiling the suite; ``from degenpoly import verify`` and the
star import work as before.
"""

from .bipoly import BiPoly
from .series import EgfSeries, SeriesError
from .families import (
    FamilyId,
    FamilySpec,
    Param,
    build_egf,
    central_factorial_power,
    deg_bernoulli2_alt_egf,
    triangle_row,
    triangular_numbers,
)

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "EgfSeries",
    "SeriesError",
    "FamilyId",
    "FamilySpec",
    "Param",
    "build_egf",
    "triangle_row",
    "triangular_numbers",
    "central_factorial_power",
    "deg_bernoulli2_alt_egf",
    "IdentityId",
    "Case",
    "VerificationReport",
    "verify",
    "verify_all",
    "__version__",
]


def __getattr__(name: str):
    if name in ("Case", "IdentityId", "VerificationReport", "verify", "verify_all"):
        from . import identities

        return getattr(identities, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
