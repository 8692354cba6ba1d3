"""The shared residue-field kernels against the scalar Gauss-Jordan
inverse that CoeffRing used before they were merged."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab import fieldlinalg as fl
from liftlab import modp
from liftlab.coeffring import CoeffRing, CoeffRingError


def _mat_inv_modp(self, A):
    # Gauss-Jordan over the residue field F_{p^r}
    n = A.shape[0]
    Rp = self if self.m == 1 else CoeffRing(self.p, 1, self.r)
    M = np.concatenate([A % self.p, Rp.mat_id(n)], axis=1).astype(np.int64)
    for col in range(n):
        piv = None
        for row in range(col, n):
            if Rp.is_unit(M[row, col]):
                piv = row
                break
        if piv is None:
            raise CoeffRingError("matrix not invertible mod p")
        if piv != col:
            M[[col, piv]] = M[[piv, col]]
        inv = Rp.inv(M[col, col])
        M[col] = Rp.mul(M[col], inv[None, :])
        for row in range(n):
            if row != col and np.any(M[row, col] % self.p):
                M[row] = Rp.sub(M[row], Rp.mul(M[row, col][None, :], M[col]))
    return M[:, n:] % self.q


def reference_mat_inv(R, A):
    """The reference residue inverse, Newton-lifted as in CoeffRing.mat_inv."""
    n = A.shape[0]
    X = _mat_inv_modp(R, A)
    prec = 1
    while prec < R.m:
        AX = R.mat_mul(A, X)
        X = R.mat_mul(X, (2 * R.mat_id(n) - AX) % R.q)
        prec *= 2
    return X


ring = lru_cache(maxsize=None)(CoeffRing)

rings = st.tuples(st.sampled_from([5, 7, 13]), st.sampled_from([1, 2, 3]),
                  st.sampled_from([1, 2, 3]))
seeds = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(rings, st.integers(1, 5), seeds)
def test_mat_inv_matches_reference(prm, n, seed):
    R = ring(*prm)
    A = np.random.default_rng(seed).integers(0, R.q, size=(n, n, R.r),
                                             dtype=np.int64)
    try:
        want = reference_mat_inv(R, A)
    except CoeffRingError:
        with pytest.raises(CoeffRingError, match="matrix not invertible mod p"):
            R.mat_inv(A)
        return
    X = R.mat_inv(A)
    assert X.dtype == want.dtype and np.array_equal(X, want)
    assert R.mat_eq(R.mat_mul(A, X), R.mat_id(n))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rings, st.integers(2, 5), seeds)
def test_singular_mod_p_raises(prm, n, seed):
    R = ring(*prm)
    rng = np.random.default_rng(seed)
    A = rng.integers(0, R.q, size=(n, n, R.r), dtype=np.int64)
    # row 0 = c * row 1 mod p, plus a p-divisible perturbation
    noise = R.p * rng.integers(0, R.q, size=(n, R.r), dtype=np.int64)
    A[0] = (R.mul(R.random(rng)[None, :], A[1]) + noise) % R.q
    with pytest.raises(CoeffRingError, match="matrix not invertible mod p"):
        R.mat_inv(A)
    with pytest.raises(CoeffRingError):
        reference_mat_inv(R, A)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([5, 7, 13]), st.integers(0, 6), st.integers(1, 8),
       st.integers(0, 4), seeds)
def test_rref_f_at_r1_is_modp_rref(p, rows, cols, k, seed):
    # rank at most k, so pivot-free columns and zero rows occur
    rng = np.random.default_rng(seed)
    A = rng.integers(0, p, size=(rows, k)) @ rng.integers(0, p, size=(k, cols)) % p
    R, piv = modp.rref(A, p)
    Rf, pivf = fl.rref_f(ring(p, 1, 1), A[..., None])
    assert pivf == piv
    assert Rf.shape == R.shape + (1,) and np.array_equal(Rf[..., 0], R)
