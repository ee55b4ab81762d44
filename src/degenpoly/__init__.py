"""Exact construction and verification of degenerate special-polynomial families.

The package works entirely in the ring Q[l, x] (``l`` the deformation
parameter, ``x`` the polynomial argument) via truncated exponential
generating functions with exact rational arithmetic.  See ``families``
for the catalog of builders and ``identities`` for the verification suite.
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
from .identities import (
    Case,
    IdentityId,
    VerificationReport,
    verify,
    verify_all,
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
