import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from liftlab import modp  # noqa: E402
from liftlab.coeffring import CoeffRing, CoeffRingError  # noqa: E402

# The test-side matrix inverse over O/p^m: the scalar Gauss-Jordan loop
# over the residue field, with the extended Euclid inverse of a unit,
# that CoeffRing used before every residue field went through
# modp.rref, Newton-lifted to precision m.  The library inverts
# matrices only mod p; tests that need a full inverse take this one.


def _invert_modp(self, f):
    # extended euclid: find g with f g = 1 mod (modulus, p)
    p = self.p
    r0, r1 = list(self.modulus), modp.poly_trim(f)
    s0, s1 = [0], [1]
    while r1 != [0]:
        qq, rr = modp.poly_divmod(r0, r1, p)
        r0, r1 = r1, rr
        t = modp.poly_mul(qq, s1, p)
        ln = max(len(s0), len(t))
        s2 = s0 + [0] * (ln - len(s0))
        t = t + [0] * (ln - len(t))
        s0, s1 = s1, modp.poly_trim([(x - y) % p for x, y in zip(s2, t)])
    if len(r0) != 1:
        raise CoeffRingError("element not invertible mod p")
    c = pow(r0[0], p - 2, p)
    return [(c * x) % p for x in s0]


def reference_inv_modp(R, a):
    """Inverse mod p of a unit of R by the extended Euclid above."""
    g = _invert_modp(R, [int(c) % R.p for c in a])
    return np.array(g + [0] * (R.r - len(g)), dtype=np.int64)


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
        inv = reference_inv_modp(Rp, M[col, col])
        M[col] = Rp.mul(M[col], inv[None, :])
        for row in range(n):
            if row != col and np.any(M[row, col] % self.p):
                M[row] = Rp.sub(M[row], Rp.mul(M[row, col][None, :], M[col]))
    return M[:, n:] % self.q


def reference_mat_inv(R, A):
    """The inverse over O/p^m: the reference residue inverse above,
    Newton-lifted as CoeffRing.inv lifts a scalar."""
    n = A.shape[0]
    X = _mat_inv_modp(R, A)
    prec = 1
    while prec < R.m:
        AX = R.mat_mul(A, X)
        X = R.mat_mul(X, (2 * R.mat_id(n) - AX) % R.q)
        prec *= 2
    return X
