"""Row reduction over the residue field GF(p^r) of a CoeffRing.

Vectors carry ring coordinates in trailing axes: a matrix has shape
(rows, cols, r).  A matrix whose entries lie in F_p mod p (every
matrix at r = 1, and every space built from integral structure
constants) is reduced by modp.rref on its coordinate-0 plane: its RREF
over F_{p^r} is unique and has entries in F_p, so it is that of the F_p
matrix.  Any other matrix is reduced by modp.rref on the regular
representation K.regular(A), the F_p matrix of v -> vA, which has r^2
times the cells.
"""

from __future__ import annotations

import numpy as np

from . import modp


def rref_f(K, A):
    """Reduced row echelon form over K's residue field F_{p^r} (entries
    mod K.p, whatever K.m); returns (R, pivot_columns), R padded with
    zero rows to A's shape.

    The row space V of A is an F_{p^r}-space, so the F_p pivots of its
    regular representation come in whole column blocks (c, 0..r-1), and
    the F_p row with pivot (c, 0) is the F_{p^r} row with pivot c.  An
    A with every coordinate past 0 divisible by p skips that expansion:
    its RREF is modp.rref of A[..., 0], embedded in the ring.
    """
    A = np.asarray(A)
    rows, cols, r = A.shape
    if r == 1 or not (A[..., 1:] % K.p).any():
        R, piv = modp.rref(A[..., 0], K.p)
        return K.mat_from_int(R), piv
    R, piv = modp.rref(K.regular(A), K.p)
    keep = [i for i, c in enumerate(piv) if c % r == 0]
    out = np.zeros((rows, cols, r), dtype=np.int64)
    out[: len(keep)] = R[keep].reshape(len(keep), cols, r)
    return out, [piv[i] // r for i in keep]


def rank_f(K, A):
    if A.shape[0] == 0:
        return 0
    return len(rref_f(K, A)[1])


def echelon_f(K, A):
    if A.shape[0] == 0:
        return A
    R, piv = rref_f(K, A)
    return R[: len(piv)]


def kernel_f(K, A):
    """Rows spanning the right kernel of A (shape (rows, cols, r))."""
    R, piv = rref_f(K, A)
    free = np.ones(A.shape[1], dtype=bool)
    free[piv] = False
    fc = np.flatnonzero(free)
    out = np.zeros((fc.size, A.shape[1], K.r), dtype=np.int64)
    out[np.arange(fc.size), fc] = K.one()
    out[:, piv] = K.neg(R[: len(piv)][:, free]).swapaxes(0, 1)
    return out

