"""Dense linear algebra and polynomial factorization over F_p.

numpy int64 matrices with entries in [0, p); row reduction is partial
numpy-vectorized.  Polynomials are int lists, low degree first.
Factorization is distinct-degree followed by Cantor-Zassenhaus
equal-degree splitting (p odd), which is all the MeatAxe needs.
"""

from __future__ import annotations

import numpy as np


def _inv(a, p):
    return pow(int(a) % p, p - 2, p)


def rref(A, p):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    A = np.array(A, dtype=np.int64) % p
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = None
        for i in range(r, rows):
            if A[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        A[r] = A[r] * _inv(A[r, c], p) % p
        mask = A[:, c].copy()
        mask[r] = 0
        A = (A - np.outer(mask, A[r])) % p
        pivots.append(c)
        r += 1
    return A, pivots


def rank(A, p):
    return len(rref(A, p)[1])


def kernel_basis(A, p):
    """Basis (rows) of the right kernel of A."""
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    R, piv = rref(A, p)
    cols = A.shape[1]
    free = [c for c in range(cols) if c not in piv]
    out = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        out[k, fc] = 1
        for i, pc in enumerate(piv):
            out[k, pc] = (-R[i, fc]) % p
    return out


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
    """Inverse of a square matrix (row reduction of [A | I]), or None."""
    n = A.shape[0]
    R, piv = rref(np.concatenate([A % p, np.eye(n, dtype=np.int64)], axis=1), p)
    if piv != list(range(n)):
        return None
    return R[:, n:]


def row_space_contains(B, v, p):
    """True iff v lies in the row span of B (one elimination of [B^T | v])."""
    return solve(B.T, v, p) is not None


def intersect_row_spaces(B1, B2, p):
    """Basis of the intersection of two row spaces (Zassenhaus)."""
    n = B1.shape[1] if B1.size else B2.shape[1]
    if B1.shape[0] == 0 or B2.shape[0] == 0:
        return np.zeros((0, n), dtype=np.int64)
    top = np.concatenate([B1, B1], axis=1)
    bot = np.concatenate([B2, np.zeros_like(B2)], axis=1)
    M = np.vstack([top, bot])
    R, piv = rref(M, p)
    # rows of the echelon with zero left half carry the intersection
    out = []
    for i in range(R.shape[0]):
        if not np.any(R[i, :n]) and np.any(R[i, n:]):
            out.append(R[i, n:])
    if not out:
        return np.zeros((0, n), dtype=np.int64)
    return np.array(out, dtype=np.int64) % p


def echelon_basis(B, p):
    """Row-reduced basis of a row space (drops zero rows)."""
    if B.shape[0] == 0:
        return B
    R, piv = rref(B, p)
    return R[: len(piv)]


# -- polynomials over F_p (lists of ints, low degree first)


def poly_trim(f):
    while len(f) > 1 and f[-1] == 0:
        f = f[:-1]
    return f


def poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return poly_trim(out)


def poly_divmod(f, g, p):
    f = list(f)
    dg = len(g) - 1
    inv = _inv(g[-1], p)
    q = [0] * max(1, len(f) - dg)
    while len(f) - 1 >= dg and any(f):
        if f[-1] == 0:
            f.pop()
            continue
        c = f[-1] * inv % p
        q[len(f) - 1 - dg] = c
        for i in range(dg + 1):
            f[len(f) - 1 - dg + i] = (f[len(f) - 1 - dg + i] - c * g[i]) % p
        f = poly_trim(f)
    return poly_trim(q), poly_trim(f)


def poly_gcd(f, g, p):
    f, g = poly_trim(list(f)), poly_trim(list(g))
    while g != [0]:
        f, g = g, poly_divmod(f, g, p)[1]
    if f != [0]:
        inv = _inv(f[-1], p)
        f = [c * inv % p for c in f]
    return f


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
    random vectors (lcm of the local minimal polynomials)."""
    n = M.shape[0]
    mp = [1]
    for _ in range(4):
        v = rng.integers(0, p, size=n, dtype=np.int64)
        vecs = [v]
        for _ in range(n):
            vecs.append(vecs[-1] @ M.T % p)  # row vector times M^T = M v
        V = np.array(vecs)
        # first k with linear dependence among rows 0..k
        R, piv = rref(V, p)
        k = len(piv)
        # coefficients: solve sum_{i<=k} c_i M^i v = 0 with c_k = 1
        W = V[: k + 1]
        sol = solve(W[:-1].T, (-W[-1]) % p, p)
        if sol is None:
            continue
        f = poly_trim(list(map(int, sol)) + [1])
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
    q, r = poly_divmod(poly_mul(f, g, p), gcd, p)
    inv = _inv(q[-1], p)
    return [c * inv % p for c in q]


def factor_squarefree_part(f, p):
    """Distinct irreducible factors of f (ignores multiplicities)."""
    return list(squarefree_factors(f, p))


def squarefree_factors(f, p):
    """The distinct irreducible factors of f, generated lazily in the
    order factor_squarefree_part lists them: a caller that takes only
    the first one does no work for the rest."""
    f = poly_trim(list(f))
    inv = _inv(f[-1], p)
    f = [c * inv % p for c in f]
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
