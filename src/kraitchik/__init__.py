"""Exact construction and validated verification of the Gauss-Kraitchik
decomposition 4*Phi_d(X) = Psi_d(X)^2 - D*Xi_d(X)^2 for odd squarefree d."""

from .construct import (
    IdentityReport,
    KraitchikPair,
    SymmetryReport,
    check_symmetry,
    cyclotomic,
    psi_xi,
    verify_identity,
)
from .powersums import DiscriminantContext, power_sum_s
from .qfield import QuadElem, cmp_surd

__all__ = [
    "DiscriminantContext",
    "IdentityReport",
    "KraitchikPair",
    "QuadElem",
    "SymmetryReport",
    "check_symmetry",
    "cmp_surd",
    "cyclotomic",
    "power_sum_s",
    "psi_xi",
    "verify_identity",
]
