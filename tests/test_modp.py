import numpy as np

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
