"""Exact arithmetic in truncated Witt coefficient rings O/p^m.

The ring GR(p^m, r) is the degree-r unramified extension of Z/p^m,
realized as (Z/p^m)[x] / (f) for a monic degree-r polynomial f whose
reduction mod p is irreducible.  Elements are coefficient vectors of
length r with entries in [0, p^m), stored as int64 numpy arrays; the
ring object holds all arithmetic.  Values are immutable in intent:
every operation returns a fresh array, so elements are safe to share
between threads.

The modulus is chosen deterministically from (p, r): the
lexicographically smallest monic irreducible of degree r over F_p,
coefficients lifted to [0, p) and compared from the top coefficient
down; a candidate f is irreducible when modp.squarefree_factors yields
f itself as its first factor.  Reduction GR(p^m, r) -> GR(p^m', r)
for m' <= m is coefficientwise reduction mod p^m' and is a ring
homomorphism because the modulus does not depend on m.

Products take one of two paths, chosen by r.  At r = 1 an element is
an integer mod q and a product is the integer product.  At r > 1 the
r x r block of coefficient products a_k b_l is folded through one table
T[k, l] = x^(k+l) mod (modulus, q), the same table that regular() reads
mod p; mat_mul forms the block with one matmul per coefficient pair.
int64 keeps every product exact while max(n, r^2) (q - 1)^2 < 2^63 for
inner dimension n: a matmul sums n products below q^2, the fold r^2.

A ring builds its n x n identity matrix once per n, on first use;
mat_id hands out a copy, which the caller may write into.

No matrix is inverted: group elements whose inverse is needed carry
it in closed form.  A scalar inverse lies in the ring generated by its
argument, so data in a prime ring are inverted there: a scalar in Z/q
(every scalar at r = 1) by Python's modular inverse mod q.  Any other
unit is the Newton (Hensel) lift of its inverse mod p, which is
pow(a0, -1, p) for a scalar a0 + p y in F_p mod p and a^(p^r - 2) for
any other, since the unit group of F_{p^r} has order p^r - 1.
"""

from __future__ import annotations

import functools

import numpy as np

from . import modp


class LiftlabError(ValueError):
    """The base of every error liftlab raises on purpose: a refused
    input or a failed check.  Anything else escaping a computation is an
    internal error, which the command line reports as such."""


class CoeffRingError(LiftlabError):
    pass


class ParameterError(LiftlabError):
    """A refused parameter choice, as opposed to a failure during the
    computation; the command line reports it as an invalid
    configuration."""


class RingParameterError(CoeffRingError, ParameterError):
    pass


def int64_exact(p, m, r=1, n=1):
    """Whether products of n x n matrices over GR(p^m, r) are exact in
    int64: max(n, r^2) (q - 1)^2 < 2^63 (see the module docstring)."""
    return max(n, r * r) * (p ** m - 1) ** 2 < 2 ** 63


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@functools.lru_cache(maxsize=None)
def _find_modulus(p, r):
    """Lexicographically smallest monic irreducible of degree r over F_p,
    as a coefficient tuple, lowest degree first; cached, since every
    change of precision builds a new ring on the same (p, r)."""
    if r == 1:
        return (0, 1)
    # iterate over coefficient tuples (c_0, ..., c_{r-1}) in lex order
    total = p ** r
    for k in range(total):
        coeffs = []
        kk = k
        for _ in range(r):
            coeffs.append(kk % p)
            kk //= p
        f = coeffs + [1]
        # a monic f is irreducible iff its first irreducible factor is f
        if next(modp.squarefree_factors(f, p)) == f:
            return tuple(f)
    raise CoeffRingError("no irreducible modulus found (unreachable)")


class CoeffRing:
    """GR(p^m, r) = W(F_{p^r}) / p^m with a fixed deterministic modulus.

    Elements are int64 arrays of shape (r,) (or any shape ending in r
    for the vectorized helpers).  |R| = p^(m r), unit group has order
    p^((m-1) r) (p^r - 1).
    """

    def __init__(self, p, m, r=1):
        if not is_prime(p):
            raise RingParameterError("p must be prime, got %r" % (p,))
        if p == 2:
            raise RingParameterError("p = 2 is not supported (odd p required)")
        if m < 1:
            raise RingParameterError("precision m must be >= 1")
        if r < 1:
            raise RingParameterError("residue degree r must be >= 1")
        if not int64_exact(p, m, r):
            raise RingParameterError("GR(%d^%d, %d) is past the exact int64 "
                                     "range" % (p, m, r))
        self.p = p
        self.m = m
        self.r = r
        self.q = p ** m
        self.modulus = list(_find_modulus(p, r))
        # x^j mod (modulus, q) for j <= 2r - 2, then T[k, l] = x^(k+l)
        powers = np.zeros((2 * r - 1, r), dtype=np.int64)
        powers[0, 0] = 1
        top = -np.array(self.modulus[:r], dtype=np.int64) % self.q   # x^r
        for j in range(1, 2 * r - 1):
            powers[j, 1:] = powers[j - 1, :-1]
            powers[j] = (powers[j] + powers[j - 1, -1] * top) % self.q
        self._xtab = powers[np.add.outer(np.arange(r), np.arange(r))]
        self._eye = {}

    # -- element constructors

    def el(self, v):
        """Coerce an int or length-r sequence to a ring element."""
        if isinstance(v, (int, np.integer)):
            out = np.zeros(self.r, dtype=np.int64)
            out[0] = int(v) % self.q
            return out
        a = np.asarray(v, dtype=np.int64) % self.q
        if a.shape != (self.r,):
            raise CoeffRingError("element must have %d coefficients" % self.r)
        return a

    def one(self):
        return self.el(1)

    def random(self, rng):
        return rng.integers(0, self.q, size=self.r, dtype=np.int64)

    def random_unit(self, rng):
        while True:
            x = self.random(rng)
            if self.is_unit(x):
                return x

    # -- arithmetic (shapes (..., r) throughout)

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def neg(self, a):
        return (-a) % self.q

    def mul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.r == 1:
            return (a * b) % self.q
        return self._fold(a[..., :, None] * b[..., None, :])

    def _fold(self, P):
        """The ring element sum_{k,l} P[..., k, l] x^(k+l) for a block P
        of coefficient products, shape (..., r, r)."""
        r = self.r
        P = P % self.q
        return (P.reshape(P.shape[:-2] + (r * r,))
                @ self._xtab.reshape(r * r, r)) % self.q

    def scalar_mul(self, c, a):
        return (int(c) * np.asarray(a, dtype=np.int64)) % self.q

    def pow(self, a, e):
        result = self.one()
        base = a
        e = int(e)
        if e < 0:
            base = self.inv(a)
            e = -e
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def is_unit(self, a):
        """Unit iff the reduction mod p is non-zero."""
        return bool((np.asarray(a) % self.p).any())

    def valuation(self, a):
        """v(x) in {0, ..., m}, with v(0) = m."""
        a = np.asarray(a)
        for v in range(self.m):
            if (a % self.p ** (v + 1)).any():
                return v
        return self.m

    def inv(self, a):
        """Inverse of a unit.  A unit of Z/q (coordinates past 0 zero
        mod q) is inverted mod q directly; any other unit is the Hensel
        lift of its mod-p inverse: pow(a0, -1, p) when the coordinates
        past 0 are zero mod p (a = a0 + p y), else a^(p^r - 2).

        Division by a non-unit is an error, never a silent truncation.
        """
        if not self.is_unit(a):
            raise CoeffRingError("division by non-unit")
        a = np.asarray(a)
        if self.r == 1 or not (a[1:] % self.q).any():
            return self.el(pow(int(a[0]), -1, self.q))
        if (a[1:] % self.p).any():
            x = self.pow(a, self.p ** self.r - 2)
        else:
            x = self.el(pow(int(a[0]), -1, self.p))
        # Newton: x <- x (2 - a x), doubles p-adic precision each step
        prec = 1
        while prec < self.m:
            ax = self.mul(a, x)
            x = self.mul(x, (2 * np.eye(1, self.r, 0, dtype=np.int64)[0] - ax) % self.q)
            prec *= 2
        return x

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def eq(self, a, b):
        return bool(((np.asarray(a) - np.asarray(b)) % self.q == 0).all())

    # -- matrices: int64 arrays of shape (n, n, r) (adjoint operators etc.)

    def mat_id(self, n):
        """A fresh, writable copy of the ring's n x n identity."""
        eye = self._eye.get(n)
        if eye is None:
            eye = self._eye[n] = np.zeros((n, n, self.r), dtype=np.int64)
            eye[np.arange(n), np.arange(n), 0] = 1
        return eye.copy()

    def mat_from_int(self, A):
        A = np.asarray(A)
        M = np.zeros(A.shape + (self.r,), dtype=np.int64)
        M[..., 0] = A % self.q
        return M

    def mat_mul(self, A, B):
        if self.r == 1:
            return (A[..., 0] @ B[..., 0])[..., None] % self.q
        # P[..., k, l, :, :] = A_k B_l for the coefficient matrices
        # A_k, B_l; views with the coefficient axis before the matrix axes
        Ak = A.swapaxes(-1, -2).swapaxes(-2, -3)
        Bl = B.swapaxes(-1, -2).swapaxes(-2, -3)
        P = Ak[..., :, None, :, :] @ Bl[..., None, :, :, :]
        return self._fold(P.swapaxes(-4, -2).swapaxes(-3, -1))

    def mat_vec(self, A, v):
        return self.mat_mul(A, v[..., None, :])[..., 0, :]

    def mat_pow(self, A, e):
        """A^e as a new array reduced mod q, by square-and-multiply that
        starts from the power of the lowest set bit of e and squares up
        to the top bit only: floor(log2 e) + popcount(e) - 1 products
        for e >= 1, and the identity for e = 0."""
        e = int(e)
        if e < 0:
            raise CoeffRingError("negative matrix power %d" % e)
        if e == 0:
            return self.mat_id(A.shape[0])
        base = A % self.q
        result = None
        while True:
            if e & 1:
                result = base if result is None \
                    else self.mat_mul(result, base)
            e >>= 1
            if not e:
                return result
            base = self.mat_mul(base, base)

    def regular(self, A):
        """The F_p matrix of v -> vA on row vectors over F_{p^r}.

        For A of shape (rows, cols, r) the result is (rows r) x (cols r);
        row (i, k) holds x^k A[i] mod p in coordinates (column c, power
        j of x).  It is a ring homomorphism: regular(AB) = regular(A)
        regular(B) mod p.  The result is a new array with entries in
        [0, p) for every r.
        """
        rows, cols, r = A.shape
        M = np.einsum("icl,klj->ikcj", A % self.p, self._xtab % self.p) % self.p
        return M.reshape(rows * r, cols * r)

    def mat_eq(self, A, B):
        return bool(((A - B) % self.q == 0).all())

    # -- display: GR(p^m,r):[c_0,...,c_{r-1}]

    def format_el(self, a):
        return "GR(%d^%d,%d):[%s]" % (self.p, self.m, self.r,
                                      ",".join(str(int(c)) for c in a))

    def __repr__(self):
        return "CoeffRing(p=%d, m=%d, r=%d)" % (self.p, self.m, self.r)


def sqrt_one_mod_p(R, q):
    """The square root of q that is = 1 mod p, for q = 1 mod p.

    For q = 1 + pc the root is s = 1 + pc/2 + ...; it is computed by
    Hensel iteration from s = 1 and is the unique root = 1 (mod p)
    since p is odd.  Requires a unit q = 1 mod p; works at any
    precision m (the spec's primary use is m = 2).
    """
    q = R.el(q) if isinstance(q, (int, np.integer)) else q
    if not R.is_unit(q):
        raise CoeffRingError("q must be a unit")
    if (R.sub(q, R.one()) % R.p).any():
        raise CoeffRingError("q must be = 1 mod p")
    s = R.one()
    inv2 = R.inv(R.el(2))
    # Newton for s^2 = q: s <- (s + q/s)/2 doubles the p-adic precision
    # of s = 1 mod p per step, so ceil(log2 m) steps reach p^m
    prec = 1
    while prec < R.m:
        s = R.mul(inv2, R.add(s, R.mul(q, R.inv(s))))
        prec *= 2
    if not R.eq(R.mul(s, s), q):
        raise CoeffRingError("square root iteration failed")
    return s
