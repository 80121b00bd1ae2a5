"""Numerical tolerances shared by the whole package.

Exact support handling rests on a few fixed thresholds: when a matrix
counts as Hermitian, where a spectrum ends (the support cut), how far an
operator may leak out of another's support, how negative an eigenvalue
may be and still count as PSD. They are plain module constants, read
directly where they apply, so that each value is stated once and a
support decision made in one module is the same decision in every other.
"""

from __future__ import annotations

import numpy as np

# Hermiticity check: max |A - A^dag| may reach HERM_RTOL * max(1, max|entry|)
HERM_RTOL = 1e-8
# eigenvalue support threshold factor: see eps_supp
SUPP_RTOL = 1e-10
# eigenvalue slack when certifying positive semi-definiteness
PSD_SLACK = 1e-9
# operator-norm threshold for support containment (omega << tau)
SUPPORT_LEAK_TOL = 1e-8


def eps_supp(lambda_max):
    """Support threshold for a PSD spectrum with largest eigenvalue
    lambda_max; elementwise on an array of them (the last column of a stack
    of ascending spectra, kept as a column, cuts each row)."""
    return SUPP_RTOL * np.maximum(1.0, lambda_max)
