"""Row reduction over a residue field GF(p^r) given as CoeffRing(p,1,r).

Vectors carry ring coordinates in trailing axes: a matrix has shape
(rows, cols, r).  At r = 1 elimination is modp.rref on the single
coordinate; the scalar loop below, with numpy rows, serves r > 1.
"""

from __future__ import annotations

import numpy as np

from . import modp


def rref_f(K, A):
    if K.r == 1:
        R, pivots = modp.rref(np.asarray(A)[..., 0], K.q)
        return R[..., None], pivots
    A = np.array(A, dtype=np.int64) % K.q
    rows, cols = A.shape[0], A.shape[1]
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = None
        for i in range(r, rows):
            if K.is_unit(A[i, c]):
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        A[r] = K.mul(A[r], K.inv(A[r, c])[None, :])
        for i in range(rows):
            if i != r and np.any(A[i, c]):
                A[i] = K.sub(A[i], K.mul(A[i, c][None, :], A[r]))
        pivots.append(c)
        r += 1
    return A, pivots


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
    cols = A.shape[1]
    free = [c for c in range(cols) if c not in piv]
    out = np.zeros((len(free), cols, K.r), dtype=np.int64)
    for k, fc in enumerate(free):
        out[k, fc] = K.one()
        for i, pc in enumerate(piv):
            out[k, pc] = K.neg(R[i, fc])
    return out


def contains_f(K, B, v):
    if B.shape[0] == 0:
        return not np.any(v % K.q)
    return rank_f(K, np.concatenate([B, v[None, :]], axis=0)) == rank_f(K, B)


def same_space_f(K, B1, B2):
    if rank_f(K, B1) != rank_f(K, B2):
        return False
    return rank_f(K, np.concatenate([B1, B2], axis=0)) == rank_f(K, B1)


def intersect_f(K, B1, B2):
    """Zassenhaus intersection of row spaces."""
    n = B1.shape[1]
    if B1.shape[0] == 0 or B2.shape[0] == 0:
        return np.zeros((0, n, K.r), dtype=np.int64)
    top = np.concatenate([B1, B1], axis=1)
    bot = np.concatenate([B2, np.zeros_like(B2)], axis=1)
    R, piv = rref_f(K, np.concatenate([top, bot], axis=0))
    out = [R[i, n:] for i in range(R.shape[0])
           if not np.any(R[i, :n]) and np.any(R[i, n:])]
    if not out:
        return np.zeros((0, n, K.r), dtype=np.int64)
    return np.stack(out)
