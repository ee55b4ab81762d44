"""Exact construction and verification of degenerate special-polynomial families.

The package works entirely in the ring Q[l, x] (``l`` the deformation
parameter, ``x`` the polynomial argument) via truncated exponential
generating functions with exact rational arithmetic.  See ``families``
for the catalog of builders and ``identities`` for the verification suite.
"""

from .bipoly import BiPoly, binomial, factorial
from .series import (
    BadConstantTerm,
    DivisionByNonUnit,
    EgfSeries,
    IndexBeyondTruncation,
    NonzeroConstantInner,
    NonzeroLowOrder,
    SeriesError,
)
from .families import (
    Argument,
    FamilyId,
    FamilySpec,
    LambdaMode,
    UnsupportedOrder,
    build_egf,
    central_factorial_power,
    deg_bernoulli2_alt_egf,
    list_families,
    triangular_numbers,
)
from .identities import (
    Case,
    IdentityId,
    UnknownIdentity,
    VerificationReport,
    verify,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "binomial",
    "factorial",
    "EgfSeries",
    "SeriesError",
    "DivisionByNonUnit",
    "NonzeroLowOrder",
    "NonzeroConstantInner",
    "BadConstantTerm",
    "IndexBeyondTruncation",
    "FamilyId",
    "FamilySpec",
    "Argument",
    "LambdaMode",
    "UnsupportedOrder",
    "build_egf",
    "triangular_numbers",
    "central_factorial_power",
    "deg_bernoulli2_alt_egf",
    "list_families",
    "IdentityId",
    "UnknownIdentity",
    "Case",
    "VerificationReport",
    "verify",
    "verify_all",
    "__version__",
]
