"""A priori sparsity pattern of the generalized Lyapunov solution.

The pattern is built from the recursion

    G_1     = E P Abar^T + Abar P E^T
    G_{i+1} = E (E^T G_i Abar + Abar^T G_i E) Abar^T
            + Abar (E^T G_i Abar + Abar^T G_i E) E^T,   i = 1..w

and the result is the support of I + G_1 + ... + G_{w+1}. All inputs are
replaced by their 0/1 patterns and each G_i is binarized before the next
step, so accidental numeric cancellation, overflow, or underflow cannot
delete structurally present entries.
"""

from __future__ import annotations

import scipy.sparse as sp

from .sparsecore import binarize, check_square, identity, pattern_power_sum


def apriori_pattern(Abar, E, P, w=1):
    """Order-w a priori pattern of the solution of E^T Z Abar + Abar^T Z E = P.

    Returns the (symmetrized) support of I + sum of the G_i recursion
    terms as a binary CSR pattern.
    """
    if w < 0:
        raise ValueError("pattern order w must be >= 0")
    n = Abar.shape[0]
    check_square("apriori_pattern", n, Abar, E, P)
    A, Em, Pm = binarize(Abar), binarize(E), binarize(P)

    G = binarize(A @ Pm @ Em.T + Em @ Pm @ A.T)
    acc = binarize(identity(n) + G)
    for _ in range(w):
        H = Em.T @ G @ A + A.T @ G @ Em
        G = binarize(Em @ H @ A.T + A @ H @ Em.T)
        acc = binarize(acc + G)
    # exact Lyapunov solutions are symmetric; keep the pattern symmetric too
    return binarize(acc + acc.T)


def inverse_pattern(E, k1):
    """Pattern estimate of E^{-1}: support of I + E + ... + E^{k1}."""
    return pattern_power_sum(binarize(E), k1)


def pattern_density(X):
    X = sp.csr_matrix(X)
    return X.nnz / float(X.shape[0] * X.shape[1])
