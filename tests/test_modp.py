import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liftlab import modp


def test_rref_kernel_solve():
    rng = np.random.default_rng(0)
    p = 13
    for _ in range(40):
        A = rng.integers(0, p, size=(6, 9), dtype=np.int64)
        K = modp.kernel_basis(A, p)
        assert not np.any(A @ K.T % p)
        assert K.shape[0] == 9 - modp.rank(A, p)
        x0 = rng.integers(0, p, size=9, dtype=np.int64)
        b = A @ x0 % p
        x = modp.solve(A, b, p)
        assert x is not None and not np.any((A @ x - b) % p)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([5, 7, 13]), st.integers(0, 6), st.integers(1, 7),
       st.integers(0, 4), st.integers(0, 3), st.integers(0, 2),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_solve_columns_match_single_solves(p, rows, cols, k, ngood, nrand,
                                           dup_last, seed):
    # rank at most k: random columns are mostly inconsistent
    rng = np.random.default_rng(seed)
    A = rng.integers(0, p, size=(rows, k)) @ rng.integers(0, p, size=(k, cols)) % p
    b = np.concatenate([A @ rng.integers(0, p, size=(cols, ngood)) % p,
                        rng.integers(0, p, size=(rows, nrand))], axis=1)
    b = b[:, rng.permutation(b.shape[1])]
    if dup_last and b.shape[1]:
        b = np.concatenate([b, b[:, -1:]], axis=1)
    singles = [modp.solve(A, b[:, j], p) for j in range(b.shape[1])]
    X = modp.solve(A, b, p)
    if any(x is None for x in singles):
        assert X is None
    else:
        assert X.shape == (cols, b.shape[1])
        for j, x in enumerate(singles):
            assert x.shape == (cols,) and np.array_equal(X[:, j], x)


def test_solve_matrix_rhs_edges():
    p = 7
    A = np.array([[1, 2, 3], [2, 4, 6]], dtype=np.int64)   # rank 1
    good = A @ np.array([1, 0, 2]) % p
    bad = np.array([1, 0], dtype=np.int64)   # not a multiple of (1, 2)
    x = modp.solve(A, good, p)
    assert x.shape == (3,) and not np.any((A @ x - good) % p)
    assert modp.solve(A, bad, p) is None
    assert np.array_equal(modp.solve(A, good.reshape(2, 1), p), x.reshape(3, 1))
    assert modp.solve(A, np.stack([good, good, bad], axis=1), p) is None
    assert modp.solve(A, np.stack([good, bad, bad], axis=1), p) is None
    assert modp.solve(A, np.zeros((2, 0), dtype=np.int64), p).shape == (3, 0)


def test_row_space_contains_matches_rank():
    rng = np.random.default_rng(3)
    for p in (5, 7, 13):
        for _ in range(60):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(0, 5))    # k = 0: empty B
            B = rng.integers(0, p, size=(k, 3)) @ rng.integers(0, p, size=(3, n)) % p
            inside = rng.integers(0, p, size=k) @ B % p
            for v in (inside, rng.integers(0, p, size=n), np.zeros(n, dtype=np.int64)):
                want = modp.rank(np.vstack([B, v]), p) == modp.rank(B, p)
                assert modp.row_space_contains(B, v, p) == want
            assert modp.row_space_contains(B, inside, p)


def test_intersection():
    p = 7
    B1 = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64)
    B2 = np.array([[0, 1, 0], [0, 0, 1]], dtype=np.int64)
    I = modp.intersect_row_spaces(B1, B2, p)
    assert I.shape[0] == 1 and I[0][0] == 0 and I[0][2] == 0


def test_factorization_roundtrip():
    rng = np.random.default_rng(1)
    p = 11
    from functools import reduce
    for _ in range(40):
        factors = []
        for _ in range(int(rng.integers(1, 4))):
            while True:
                f = [int(x) for x in rng.integers(0, p, size=rng.integers(1, 4))] + [1]
                got = modp.factor_squarefree_part(f, p)
                if len(got) == 1 and len(got[0]) == len(f):
                    break
            factors.append(f)
        F = reduce(lambda a, b: modp.poly_mul(a, b, p), factors, [1])
        got = set(tuple(g) for g in modp.factor_squarefree_part(F, p))
        want = set(tuple(modp.poly_monic(f, p)) for f in factors)
        assert got == want


def test_min_poly_companion():
    rng = np.random.default_rng(2)
    p = 13
    M = np.array([[0, 0, 2], [1, 0, 3], [0, 1, 5]], dtype=np.int64)
    mp = modp.min_poly(M, p, rng)
    assert mp == [(-2) % p, (-3) % p, (-5) % p, 1]
    Z = np.zeros((6, 6), dtype=np.int64)
    Z[:3, :3] = M
    Z[3:, 3:] = M
    assert modp.min_poly(Z, p, rng) == mp


def reference_factor_squarefree(f, p, rng):
    """The distinct-degree loop computing x^(p^d) mod rest from x for
    every degree d."""
    f = modp.poly_trim(list(f))
    if len(f) <= 1:
        return []
    out = []
    d = 1
    rest = f
    while len(rest) - 1 >= 2 * d:
        h = modp.poly_powmod([0, 1], p ** d, rest, p)
        ln = max(len(h), 2)
        hm = modp.poly_trim([((h[i] if i < len(h) else 0)
                              - (1 if i == 1 else 0)) % p for i in range(ln)])
        g = modp.poly_gcd(hm, rest, p)
        if len(g) > 1:
            out.extend(modp._equal_degree_split(g, d, p, rng))
            rest = modp.poly_divmod(rest, g, p)[0]
        d += 1
    if len(rest) > 1:
        out.append(modp.poly_monic(rest, p))
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(1, 12),
       st.integers(0, 2 ** 32 - 1))
def test_factor_squarefree_matches_from_scratch_powers(p, deg, seed):
    # the squarefree part f / gcd(f, f') of a random monic f, as
    # factor_squarefree_part passes it
    rng = np.random.default_rng(seed)
    f = [int(c) for c in rng.integers(0, p, size=deg)] + [1]
    df = modp.poly_trim([i * c % p for i, c in enumerate(f)][1:])
    assume(df != [0])
    sf = modp.poly_divmod(f, modp.poly_gcd(f, df, p), p)[0]
    got = modp._factor_squarefree(sf, p, np.random.default_rng(seed))
    want = reference_factor_squarefree(sf, p, np.random.default_rng(seed))
    assert got == want
