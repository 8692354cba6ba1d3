"""Dense linear algebra and polynomial factorization over F_p.

numpy int64 matrices with entries in [0, p).  Row reduction loops over
pivot columns in Python; a pivot step updates only the rows with a
nonzero entry in its column (the whole matrix when more than half the
rows are hit).  Entries do not return to [0, p) after every step: a
whole-matrix update moves an entry by at most (p-1)^2 and is left
unreduced, and int64 holds (2^63 - p) // (p-1)^2 such updates after a
reduction (`_update_budget`: about 2^63 / p^2, so one at p near
3.03e9, two at 2^31 - 1, eight just below 2^30).  The pivot column and
the pivot row are reduced before they are read or scaled, the whole
matrix when the next update would pass the budget and once at the end.
A row space grown one vector at a time is kept in an incremental
echelon (`Echelon`): a new vector is reduced against the rows kept so
far and kept when its residue is nonzero.  A reduction sums at most n
products below p^2, so it is exact in int64 while n (p-1)^2 < 2^63.
A matrix solved against many times is factored once (`LeftSolver`):
each solve is then two products, under the same bound in its row count.
A product of reduced matrices (`matmul`) goes through float64, so BLAS,
while its inner dimension n has n (p-1)^2 < 2^53, and through int64
otherwise.
Polynomials are int lists, low degree first.  Factorization is
distinct-degree followed by Cantor-Zassenhaus equal-degree splitting
(p odd), which is all the MeatAxe needs.
"""

from __future__ import annotations

import numpy as np


def _inv(a, p):
    return pow(int(a), -1, p)


def _update_budget(p):
    """How many whole-matrix updates int64 holds after a reduction: each
    moves an entry in [0, p) by at most (p-1)^2, and the entry must stay
    within 2^63 - 1."""
    return (2 ** 63 - p) // (p - 1) ** 2


def rref(A, p):
    """Reduced row echelon form; returns (R, pivot_columns).

    A pivot step scales the pivot row unless its pivot is already 1,
    and updates only the rows whose entry in the pivot column is
    nonzero (none, when the column is already clear), or the whole
    matrix when more than half the rows are hit.  A whole-matrix update
    is left unreduced while `_update_budget(p)` of them fit in int64:
    the pivot column is reduced before it is read, the pivot row before
    it is scaled, and the whole matrix when the next update would pass
    the budget and at the end.  Every product then stays below p^2 and
    every sum within int64, for any p < 3.03e9.  R is reduced, so it
    equals the RREF of a step-by-step reduction.  The caller's array is
    not modified.
    """
    A = np.array(A, dtype=np.int64) % p
    rows, cols = A.shape
    budget = left = _update_budget(p)
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        if left < budget:
            A[:, c] %= p
        if not A[r, c]:
            below = A[r:, c].nonzero()[0]
            if not below.size:
                continue
            piv = r + int(below[0])
            A[[r, piv]] = A[[piv, r]]
        if left < budget:
            A[r] %= p
        a = A[r, c]
        if a != 1:
            A[r] = A[r] * _inv(a, p) % p
        m = A[:, c].copy()
        m[r] = 0
        hit = m.nonzero()[0]
        if hit.size and not left:
            A %= p
            left = budget
        if 2 * hit.size > rows:
            A -= m[:, None] * A[r]
            left -= 1
        elif hit.size:
            A[hit] = (A[hit] - m[hit, None] * A[r]) % p
        pivots.append(c)
        r += 1
    if left < budget:
        A %= p
    return A, pivots


def rank(A, p):
    return len(rref(A, p)[1])


def kernel_basis(A, p):
    """Basis (rows) of the right kernel of A: one row per free column
    of the RREF R, 1 at that column and -R's column on the pivots."""
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    R, piv = rref(A, p)
    cols = A.shape[1]
    pivset = set(piv)
    free = [c for c in range(cols) if c not in pivset]
    out = np.zeros((len(free), cols), dtype=np.int64)
    R = R[:len(piv)]
    for k, fc in enumerate(free):
        out[k, fc] = 1
        out[k, piv] = -R[:, fc] % p
    return out


def matmul(A, B, p):
    """A B mod p for int64 matrices (or vectors) with entries in [0, p).

    The product goes through float64, so BLAS, while its inner
    dimension n has n (p-1)^2 < 2^53: every partial sum is then an
    integer below 2^53, exact in float64 in any summation order.  Past
    that it goes through int64, exact while n (p-1)^2 < 2^63; a product
    past both raises ValueError.
    """
    bound = A.shape[-1] * (p - 1) ** 2
    if bound < 2 ** 53:
        return (A.astype(np.float64) @ B.astype(np.float64)).astype(
            np.int64) % p
    if bound >= 2 ** 63:
        raise ValueError("inner dimension %d mod %d is past the exact "
                         "int64 range" % (A.shape[-1], p))
    return A @ B % p


def solve(A, b, p):
    """One solution of A x = b, or None.

    A 1-D b gives a 1-D x.  A 2-D b holds one right-hand side per
    column; all of them are solved by one elimination of [A | b] and the
    result X (cols x k) has the solution of column j as its column j, or
    is None if any column has no solution.  The left block is reduced
    first, so each column's solution equals the one a 1-D call returns.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    b = np.asarray(b, dtype=np.int64) % p
    aug = np.concatenate([A % p, b if b.ndim == 2 else b.reshape(-1, 1)],
                         axis=1)
    R, piv = rref(aug, p)
    cols = A.shape[1]
    if piv and piv[-1] >= cols:
        return None
    X = np.zeros((cols, aug.shape[1] - cols), dtype=np.int64)
    X[piv] = R[: len(piv), cols:]
    return X if b.ndim == 2 else X[:, 0]


def inverse(A, p):
    """A left inverse L of A (L A = 1), or None when the columns of A
    are dependent; for a square A, its inverse.

    One row reduction of [A | I]: the left block reduces to the top of
    the identity exactly when the columns are independent, and the top
    rows of the right block are then L.  A pivot row only ever receives
    multiples of other pivot rows, so L is supported on A's pivot rows,
    where it is the inverse of A.
    """
    rows, cols = A.shape
    R, piv = rref(np.concatenate([A % p, np.eye(rows, dtype=np.int64)],
                                 axis=1), p)
    if piv[:cols] != list(range(cols)):
        return None
    return R[:cols, cols:]


class LeftSolver:
    """A x = b for one fixed A of full column rank, factored once.

    Construction takes a left inverse L of A (`inverse`) and refuses,
    with ValueError, an A whose columns are dependent or whose products
    could leave int64: a solve sums at most rows products below p^2, so
    it is exact while rows (p-1)^2 < 2^63.  `solve(b)` returns x = L b
    after the exact check A x = b.  A solution of A x = b is unique, so
    it returns None exactly when the function `solve` does, and
    otherwise the solution that function returns; a 2-D b holds one
    right-hand side per column, as there.
    """

    def __init__(self, A, p):
        A = np.atleast_2d(np.asarray(A, dtype=np.int64)) % p
        if A.shape[0] * (p - 1) ** 2 >= 2 ** 63:
            raise ValueError("%d rows mod %d are past the exact int64 range"
                             % (A.shape[0], p))
        L = inverse(A, p)
        if L is None:
            raise ValueError("the columns are dependent mod %d" % p)
        self.A, self.L, self.p = A, L, p

    def solve(self, b):
        p = self.p
        b = np.asarray(b, dtype=np.int64) % p
        x = self.L @ b % p
        if ((self.A @ x - b) % p).any():
            return None
        return x


def row_space_contains(B, v, p):
    """True iff v lies in the row span of B (one elimination of [B^T | v])."""
    return solve(B.T, v, p) is not None


def echelon_basis(B, p):
    """Row-reduced basis of a row space (drops zero rows)."""
    if B.shape[0] == 0:
        return B
    R, piv = rref(B, p)
    return R[: len(piv)]


class Echelon:
    """A growing row space of F_p^n, kept in reduced echelon form.

    The kept rows are normalised at their pivots and cleared at every
    other pivot, in the order they were added; `basis` sorts them by
    pivot, which is the RREF `echelon_basis` returns for the same span.
    """

    def __init__(self, n, p):
        self.p = p
        self.E = np.zeros((n, n), dtype=np.int64)   # rows :rank kept
        self.piv = []

    def reduce(self, V):
        """Residues of the rows of V modulo the span: zero exactly on
        the rows that lie in it, and zero at every pivot column."""
        V = np.asarray(V, dtype=np.int64) % self.p
        return (V - V[..., self.piv] @ self.E[:len(self.piv)]) % self.p

    def add(self, v):
        """Keep v if it lies outside the span; returns whether it did."""
        p = self.p
        r = self.reduce(v)
        nz = np.flatnonzero(r)
        if not nz.size:
            return False
        c = int(nz[0])
        r = r * _inv(r[c], p) % p
        k = len(self.piv)
        self.E[:k] = (self.E[:k] - np.outer(self.E[:k, c], r)) % p
        self.E[k] = r
        self.piv.append(c)
        return True

    def basis(self):
        """The kept rows sorted by pivot: the span's unique RREF."""
        return self.E[np.argsort(self.piv)]


# -- polynomials over F_p (lists of ints, low degree first)


def poly_trim(f):
    """f without its trailing zeros (a zero f keeps one), in one slice;
    f itself when it has none."""
    n = len(f)
    while n > 1 and f[n - 1] == 0:
        n -= 1
    return f if n == len(f) else f[:n]


def poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return poly_trim(out)


def poly_divmod(f, g, p):
    """(q, r) with f = q g + r and deg r < deg g, for reduced f and g
    (g[-1] a unit); one pass over the coefficients of f from the top,
    each of degree >= deg g cleared by one multiple of g."""
    f = list(f)
    dg = len(g) - 1
    if len(f) <= dg:
        return [0], poly_trim(f)
    inv = _inv(g[-1], p)
    q = [0] * (len(f) - dg)
    low = g[:dg]
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i] * inv % p
        if c:
            q[i - dg] = c
            f[i - dg:i] = [(a - c * b) % p for a, b in zip(f[i - dg:i], low)]
    return poly_trim(q), poly_trim(f[:dg] or [0])


def poly_gcd(f, g, p):
    f, g = poly_trim(list(f)), poly_trim(list(g))
    while g != [0]:
        f, g = g, poly_divmod(f, g, p)[1]
    return f if f == [0] else poly_monic(f, p)


def poly_powmod(f, e, mod, p):
    out = [1]
    base = poly_divmod(f, mod, p)[1]
    while e:
        if e & 1:
            out = poly_divmod(poly_mul(out, base, p), mod, p)[1]
        base = poly_divmod(poly_mul(base, base, p), mod, p)[1]
        e >>= 1
    return out


def poly_eval_matrix(f, M, p):
    """f(M) for a square matrix M."""
    n = M.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    Mk = np.eye(n, dtype=np.int64)
    for c in f:
        if c:
            out = (out + c * Mk) % p
        Mk = Mk @ M % p
    return out


def min_poly(M, p, rng):
    """Minimal polynomial of M via linear dependence of powers on a few
    random vectors (lcm of the local minimal polynomials).

    One elimination per vector v: in the RREF R of the matrix with
    columns v, M v, ..., M^n v the pivots are the first k columns, k the
    dimension of the Krylov space, and M^k v = sum_{i<k} R[i, k] M^i v,
    so v's minimal polynomial is x^k - sum_{i<k} R[i, k] x^i."""
    n = M.shape[0]
    mp = [1]
    for _ in range(4):
        v = rng.integers(0, p, size=n, dtype=np.int64)
        vecs = [v]
        for _ in range(n):
            vecs.append(vecs[-1] @ M.T % p)  # row vector times M^T = M v
        R, piv = rref(np.array(vecs).T, p)
        k = len(piv)
        f = [int(-c % p) for c in R[:k, k]] + [1]
        mp = poly_lcm(mp, f, p)
        if len(mp) == n + 1:
            break
    return mp


def poly_lcm(f, g, p):
    if f == [1]:
        return poly_trim(list(g))
    if g == [1]:
        return poly_trim(list(f))
    gcd = poly_gcd(f, g, p)
    return poly_monic(poly_divmod(poly_mul(f, g, p), gcd, p)[0], p)


def squarefree_factors(f, p):
    """The distinct irreducible factors of f (multiplicities ignored),
    generated lazily: a caller that takes only the first one does no
    work for the rest."""
    f = poly_monic(poly_trim(list(f)), p)
    # squarefree part: f / gcd(f, f')
    df = poly_trim([(i * c) % p for i, c in enumerate(f)][1:] or [0])
    if df == [0]:
        # f is a p-th power: f(x) = h(x^p) = h(x)^p; recurse on h
        yield from squarefree_factors(f[::p], p)
        return
    g = poly_gcd(f, df, p)
    out = []
    for fac in _factor_squarefree(poly_divmod(f, g, p)[0], p):
        out.append(fac)
        yield fac
    # factors hidden in the non-squarefree part
    if len(g) > 1:
        for extra in squarefree_factors(g, p):
            if extra not in out:
                out.append(extra)
                yield extra


def _factor_squarefree(f, p, rng=None):
    """Distinct-degree then Cantor-Zassenhaus equal-degree splitting,
    generated lazily."""
    if rng is None:
        rng = np.random.default_rng(12345)
    f = poly_trim(list(f))
    if len(f) <= 1:
        return
    d = 1
    rest = f
    # h = x^(p^d) mod rest; each new rest divides the old one, so the
    # previous h raised to the p-th power is x^(p^d) modulo it as well
    h = [0, 1]
    while len(rest) - 1 >= 2 * d:
        h = poly_powmod(h, p, rest, p)
        ln = max(len(h), 2)
        hm = poly_trim([((h[i] if i < len(h) else 0) - (1 if i == 1 else 0)) % p
                        for i in range(ln)])
        g = poly_gcd(hm, rest, p)
        if len(g) > 1:
            yield from _equal_degree_split(g, d, p, rng)
            rest = poly_divmod(rest, g, p)[0]
        d += 1
    if len(rest) > 1:
        yield poly_monic(rest, p)


def poly_monic(f, p):
    inv = _inv(f[-1], p)
    return [c * inv % p for c in f]


def _equal_degree_split(f, d, p, rng):
    """Cantor-Zassenhaus for a product of degree-d irreducibles, p odd;
    the factors are generated lazily, the factors of the first split
    part before those of the second."""
    f = poly_monic(f, p)
    n = len(f) - 1
    if n == d:
        yield f
        return
    while True:
        a = [int(rng.integers(0, p)) for _ in range(n)] or [1]
        a = poly_trim(a)
        if len(a) == 1 and a[0] == 0:
            continue
        g = poly_gcd(a, f, p)
        if len(g) > 1 and len(g) - 1 < n:
            yield from _equal_degree_split(g, d, p, rng)
            yield from _equal_degree_split(poly_divmod(f, g, p)[0], d, p, rng)
            return
        b = poly_powmod(a, (p ** d - 1) // 2, f, p)
        bm1 = poly_trim([(c - (1 if i == 0 else 0)) % p for i, c in enumerate(b)])
        g = poly_gcd(bm1, f, p)
        if len(g) > 1 and len(g) - 1 < n:
            yield from _equal_degree_split(g, d, p, rng)
            yield from _equal_degree_split(poly_divmod(f, g, p)[0], d, p, rng)
            return
