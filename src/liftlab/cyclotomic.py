"""Exact arithmetic in cyclotomic integer rings Z[zeta_N].

An element is an int64 coefficient array of length phi(N) in the power
basis 1, x, ..., x^{phi(N)-1} of Z[x]/Phi_N(x).  One table per N,
`pw[k] = x^k mod Phi_N` for k < max(N, 2 phi(N) - 1), carries all the
arithmetic: `zeta(j)` is a row, a product is the convolution of the
two coefficient arrays folded through the first 2 phi(N) - 1 rows, and
the Galois map sigma_s: zeta -> zeta^s is the row gather
`a @ pw[(arange(phi(N)) s) % N]`.  Phi_n and the table are built once
per n; nothing else is cached.

The int64 bound.  Write d = phi(N) and w = max |pw| (the largest
coefficient of any x^k mod Phi_N; w = 1 at N = 60 and 2 at N = 546).
For elements with coefficients at most A and B in absolute value,
`galois` is exact while d w A < 2^63 and `mul` while
(2d - 1) d w A B < 2^63.  `gram` sums class-weighted products over
classes of total weight S; every partial sum it forms is bounded by

    d^2 w S A B,

so it computes in int64 when that bound is below 2^63 and in Python
integers (object dtype) otherwise.  Values are parsed in int64, so
callers keep each coefficient below 2^63 (`chartable` refuses a value
that would leave that range).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .coeffring import LiftlabError


class CycloError(LiftlabError):
    pass


def _prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Phi_n as a read-only int64 coefficient array (low degree first).

    With r the radical of n, Phi_n(x) = Phi_r(x^(n/r)), and for r > 1
    Phi_r is the Moebius product of the (1 - x^e)^mu(r/e) over e | r,
    taken as power series truncated past degree phi(r): multiplying by
    1 - x^e subtracts a shifted copy, dividing by it is a cumulative
    sum with stride e.
    """
    if n == 1:
        out = np.array([-1, 1], dtype=np.int64)
        out.flags.writeable = False
        return out
    primes = _prime_factors(n)
    r = math.prod(primes)
    size = math.prod(q - 1 for q in primes) + 1
    f = np.zeros(size, dtype=object)
    f[0] = 1
    for mask in range(1 << len(primes)):
        e = r // math.prod(q for i, q in enumerate(primes) if mask >> i & 1)
        if e >= size:
            continue                      # 1 - x^e is 1 mod x^size
        if bin(mask).count("1") % 2 == 0:
            f[e:] = f[e:] - f[:size - e]
        else:
            g = np.zeros(-(-size // e) * e, dtype=object)
            g[:size] = f
            f = g.reshape(-1, e).cumsum(axis=0).reshape(-1)[:size]
    out = np.zeros((size - 1) * (n // r) + 1, dtype=np.int64)
    out[::n // r] = f
    out.flags.writeable = False
    return out


def _height(a):
    """max |a|, without an |a| temporary."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


@functools.lru_cache(maxsize=None)
def _power_table(n):
    """x^k mod Phi_n for k < max(n, 2 phi(n) - 1), one read-only int64
    row per k."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    pw = np.zeros((max(n, 2 * d - 1), d), dtype=np.int64)
    pw[:d] = np.eye(d, dtype=np.int64)
    top = -phi[:d]                        # x^d mod Phi_n
    for k in range(d, len(pw)):
        lead = pw[k - 1, -1]
        pw[k, 1:] = pw[k - 1, :-1]
        if lead:
            pw[k] += lead * top
    pw.flags.writeable = False
    return pw


class CycloContext:
    """Fixed-N context: elements, products, Galois maps and Gram sums."""

    def __init__(self, n):
        self.n = n
        self.phi = cyclotomic_polynomial(n)
        self.deg = len(self.phi) - 1
        self.pw = _power_table(n)
        self.height = _height(self.pw)                # w of the bounds

    def zero(self):
        return np.zeros(self.deg, dtype=np.int64)

    def one(self):
        return self.integer(1)

    def integer(self, c):
        v = self.zero()
        v[0] = c
        return v

    def zeta(self, k=1):
        return self.pw[k % self.n].copy()

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def scal(self, c, a):
        return int(c) * a

    def mul(self, a, b):
        return np.convolve(a, b) @ self.pw[:2 * self.deg - 1]

    def galois(self, a, s):
        """The map zeta -> zeta^s (s coprime to n) on an element or on
        an array of elements (last axis); conjugation is s = -1."""
        if math.gcd(s, self.n) != 1:
            raise CycloError("zeta -> zeta^%d is not a Galois map of "
                             "Q(zeta_%d): %d is not coprime to %d"
                             % (s, self.n, s, self.n))
        return a @ self.pw[np.arange(self.deg) * s % self.n]

    def gram(self, F, H, weights):
        """sum_c weights[c] F[i, c] conj(H[j, c]) for every i, j.

        F is (m, c, deg) and H is (k, c, deg), rows of class functions
        on c classes; the result is the (m, k, deg) array of these
        cyclotomic integers.  Conjugation negates exponents, so the
        products of the nonzero coefficients f_a x^a of F[i, c] and
        h_b x^b of H[j, c] accumulate, weighted, at x^(a - b) with
        -deg < a - b < deg; the sums at negative exponents t then fold
        through the table rows pw[N + t].  int64 under the module's
        bound, Python integers beyond it (an object array).
        """
        F, H = np.asarray(F), np.asarray(H)
        (m, c, d), k = F.shape, H.shape[0]
        bound = (d * d * self.height * sum(abs(int(x)) for x in weights)
                 * _height(F) * _height(H))
        dtype = np.int64 if bound < 2 ** 63 else object
        F, H = F.astype(dtype, copy=False), H.astype(dtype, copy=False)
        width = 2 * d - 1
        U = np.zeros((m * k, width), dtype)  # U[i k + j, d - 1 + t]: x^t
        for cls, weight in enumerate(weights):
            i, a = np.nonzero(F[:, cls])
            j, b = np.nonzero(H[:, cls])
            np.add.at(U.reshape(-1),
                      np.add.outer(i * k * width + a + d - 1,
                                   j * width - b).ravel(),
                      np.multiply.outer(int(weight) * F[i, cls, a],
                                        H[j, cls, b]).ravel())
        G = U[:, d - 1:]
        for row in np.flatnonzero(U[:, :d - 1].any(axis=1)):
            t = np.flatnonzero(U[row, :d - 1])
            G[row] += U[row, t] @ self.pw[t + self.n - d + 1]
        return G.reshape(m, k, d)

    def is_rational(self, a):
        return not np.any(a[1:])

    def rational_value(self, a):
        if not self.is_rational(a):
            raise CycloError("value is not rational: %r" % (a,))
        return int(a[0])
