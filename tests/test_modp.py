import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liftlab import modp


def reference_rref(A, p):
    """The elimination that subtracts a multiple of the pivot row from
    every row, hit or not, at every pivot step."""
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
        A[r] = A[r] * modp._inv(A[r, c], p) % p
        mask = A[:, c].copy()
        mask[r] = 0
        A = (A - mask[:, None] * A[r]) % p
        pivots.append(c)
        r += 1
    return A, pivots


def _rref_input(family, p, rows, cols, rng):
    """A rows x cols integer matrix of one structural family."""
    if family == "dense":
        return rng.integers(0, p, size=(rows, cols))
    if family == "sparse":
        # about 2% nonzero, like the regular representations of local-ext
        keep = rng.random((rows, cols)) < 0.02
        return keep * rng.integers(1, p, size=(rows, cols))
    if family == "low-rank":
        k = int(rng.integers(0, 4))
        # reduced, so the product stays within int64 at large p too
        return rng.integers(0, p, size=(rows, k)) @ rng.integers(0, p, size=(k, cols)) % p
    if family == "near-echelon":
        # [I | X] with its rows permuted and one entry changed
        k = min(rows, cols)
        A = np.zeros((rows, cols), dtype=np.int64)
        A[:k, :k] = np.eye(k, dtype=np.int64)
        A[:k, k:] = rng.integers(0, p, size=(k, cols - k))
        if A.size:
            A[rng.integers(0, rows), rng.integers(0, cols)] = rng.integers(0, p)
        return A[rng.permutation(rows)]
    if family == "zero-columns":
        A = rng.integers(0, p, size=(rows, cols))
        A[:, rng.random(cols) < 0.5] = 0
        return A
    # "half": each column nonzero in half the rows plus one or two, so
    # the first pivot step hits exactly half the other rows or one more
    A = np.zeros((rows, cols), dtype=np.int64)
    for c in range(cols):
        n = min(rows, rows // 2 + 1 + int(rng.integers(0, 2)))
        A[rng.choice(rows, size=n, replace=False), c] = rng.integers(1, p, size=n)
    return A


FAMILIES = ["dense", "sparse", "low-rank", "near-echelon", "zero-columns",
            "half"]
# int64 holds one whole-matrix update past a reduction at the first, two
# at the second, and eight at the third, which a dense 30 x 30
# elimination spends part-way
LARGE_PRIMES = [3037000493, 2147483647, 1073741789]


@settings(max_examples=640, deadline=None, derandomize=True)
@given(st.sampled_from([3, 5, 7, 13, 101] + LARGE_PRIMES),
       st.sampled_from(FAMILIES),
       st.sampled_from(["empty-rows", "empty-cols", "row", "column", "tall",
                        "wide", "square"]),
       st.integers(1, 30), st.integers(1, 30), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_rref_matches_reference(p, family, shape, a, b, unreduced, seed):
    rows, cols = {"empty-rows": (0, a), "empty-cols": (a, 0), "row": (1, a),
                  "column": (a, 1), "tall": (max(a, b) + 1, min(a, b)),
                  "wide": (min(a, b), max(a, b) + 1), "square": (a, a)}[shape]
    rng = np.random.default_rng(seed)
    A = _rref_input(family, p, rows, cols, rng).astype(np.int64)
    if unreduced:
        # entries outside [0, p), negative ones too
        A = A + p * rng.integers(-3, 4, size=A.shape)
    before = A.copy()
    R, piv = modp.rref(A, p)
    want, wpiv = reference_rref(A, p)
    assert np.array_equal(A, before)
    assert piv == wpiv
    assert R.dtype == want.dtype and np.array_equal(R, want)


@pytest.mark.parametrize("p, budget", zip(LARGE_PRIMES, [1, 2, 8]))
def test_rref_update_budget_at_large_p(p, budget):
    # budget updates of at most (p-1)^2 each fit above an entry in
    # [0, p), and one more would not
    assert modp._update_budget(p) == budget
    assert (p - 1) + budget * (p - 1) ** 2 < 2 ** 63 \
        <= (p - 1) + (budget + 1) * (p - 1) ** 2
    rng = np.random.default_rng(p)
    for unreduced in (False, True):
        # dense: 30 whole-matrix updates, past every budget here
        A = rng.integers(0, p, size=(30, 30))
        if unreduced:
            A = A + p * rng.integers(-3, 4, size=A.shape)
        R, piv = modp.rref(A, p)
        want, wpiv = reference_rref(A, p)
        assert piv == wpiv == list(range(30)) and np.array_equal(R, want)


def test_rref_branch_boundary():
    # rows = 8: the first pivot column hits 4 other rows (every hit row
    # updated alone) or 5 (the whole matrix updated)
    p = 7
    rng = np.random.default_rng(5)
    for hits in (3, 4, 5, 6):
        A = rng.integers(0, p, size=(8, 6))
        A[:, 0] = 0
        A[: hits + 1, 0] = rng.integers(1, p, size=hits + 1)
        R, piv = modp.rref(A, p)
        want, wpiv = reference_rref(A, p)
        assert piv == wpiv and np.array_equal(R, want)


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([3, 7, 101] + LARGE_PRIMES), st.sampled_from(FAMILIES),
       st.integers(0, 12), st.integers(1, 12), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_kernel_basis_is_identity_on_free_columns(p, family, rows, cols,
                                                  unreduced, seed):
    rng = np.random.default_rng(seed)
    A = _rref_input(family, p, rows, cols, rng).astype(np.int64)
    if unreduced:
        A = A + p * rng.integers(-3, 4, size=A.shape)
    K = modp.kernel_basis(A, p)
    R, piv = modp.rref(A, p)
    free = [c for c in range(cols) if c not in piv]
    assert K.dtype == np.int64 and K.shape == (len(free), cols)
    assert np.array_equal(K[:, free], np.eye(len(free), dtype=np.int64))
    assert np.array_equal(K[:, piv], (-R[:len(piv), free]).T % p)
    # exact products, past int64 at the large primes
    assert not np.any(A.astype(object) @ K.T.astype(object) % p)


def reference_rref_kernel(R, piv, p):
    """The kernel basis filled one free column at a time."""
    cols = R.shape[1]
    pivset = set(piv)
    free = [c for c in range(cols) if c not in pivset]
    out = np.zeros((len(free), cols), dtype=np.int64)
    R = R[:len(piv)]
    for k, fc in enumerate(free):
        out[k, fc] = 1
        out[k, piv] = -R[:, fc] % p
    return out


def _kernel_input(kind, p, rows, cols, rng):
    """A rows x cols matrix whose RREF has a pivot in every column
    (all-pivot), in none (no-pivot), has no rows at all (zero-row), or
    one of the rref families with zero rows appended below it."""
    if kind == "all-pivot":
        A = np.vstack([np.eye(cols, dtype=np.int64),
                       rng.integers(0, p, size=(rows, cols))])
        return A[rng.permutation(A.shape[0])]
    if kind == "no-pivot":
        return np.zeros((rows, cols), dtype=np.int64)
    if kind == "zero-row":
        return np.zeros((0, cols), dtype=np.int64)
    A = _rref_input(kind, p, rows, cols, rng).astype(np.int64)
    return np.vstack([A, np.zeros((2, cols), dtype=np.int64)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([3, 7, 101] + LARGE_PRIMES),
       st.sampled_from(["all-pivot", "no-pivot", "zero-row"] + FAMILIES),
       st.integers(0, 12), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
def test_rref_kernel_reads_only_the_pivot_rows(p, kind, rows, cols, seed):
    # R may lack its zero rows: the full RREF and the one trimmed to its
    # pivot rows give the same kernel, the one the per-column loop fills
    A = _kernel_input(kind, p, rows, cols, np.random.default_rng(seed))
    R, piv = modp.rref(A, p)
    want = reference_rref_kernel(R, piv, p)
    for Rk in (R, R[:len(piv)]):
        K = modp.rref_kernel(Rk, piv, p)
        assert K.dtype == np.int64 and np.array_equal(K, want)
    nfree = {"all-pivot": 0, "no-pivot": cols, "zero-row": cols}.get(
        kind, cols - len(piv))
    assert want.shape == (nfree, cols)


# p - 1 = 2^25 - 40: 8 (p-1)^2 < 2^53 <= 9 (p-1)^2, so the product
# goes through float64 up to inner dimension 8 and through int64 past it
MATMUL_P = 33554393


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([2, 7, 101, MATMUL_P]), st.integers(0, 6),
       st.integers(0, 16), st.integers(0, 6), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_matmul_matches_int64(p, rows, inner, cols, extreme, seed):
    rng = np.random.default_rng(seed)
    if extreme:
        # every entry p - 1: the largest sums the bound allows
        A = np.full((rows, inner), p - 1, dtype=np.int64)
        B = np.full((inner, cols), p - 1, dtype=np.int64)
    else:
        A = rng.integers(0, p, size=(rows, inner))
        B = rng.integers(0, p, size=(inner, cols))
    C = modp.matmul(A, B, p)
    assert C.dtype == np.int64 and C.shape == (rows, cols)
    assert np.array_equal(C, A @ B % p)
    assert np.array_equal(C, A.astype(object) @ B.astype(object) % p)
    # vector operands, on either side
    if rows:
        assert np.array_equal(modp.matmul(A[0], B, p), A[0] @ B % p)
    if cols:
        assert np.array_equal(modp.matmul(A, B[:, 0], p), A @ B[:, 0] % p)


def test_matmul_bounds():
    p = MATMUL_P
    assert 8 * (p - 1) ** 2 < 2 ** 53 <= 9 * (p - 1) ** 2
    # entries p - 2: at inner dimension 9 each sum is odd and above
    # 2^53, where float64 would round it
    assert float(9 * (p - 2) ** 2) != 9 * (p - 2) ** 2
    for inner in (8, 9):
        A = np.full((2, inner), p - 2, dtype=np.int64)
        B = np.full((inner, 3), p - 2, dtype=np.int64)
        assert np.all(modp.matmul(A, B, p) == inner * (p - 2) ** 2 % p)
    # past int64 as well: refused
    with pytest.raises(ValueError):
        modp.matmul(np.ones((1, 2), dtype=np.int64),
                    np.ones((2, 1), dtype=np.int64), 3037000493)


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


def _echelon_rows(family, p, n, rng):
    """Rows for an incremental echelon, in the order they are added."""
    if family == "no-rows":
        return np.zeros((0, n), dtype=np.int64)
    if family == "full-rank":
        # L U with unit triangular factors is invertible; rows permuted
        L = np.tril(rng.integers(0, p, size=(n, n)), -1) + np.eye(n, dtype=np.int64)
        U = np.triu(rng.integers(0, p, size=(n, n)), 1) + np.eye(n, dtype=np.int64)
        return (L @ U % p)[rng.permutation(n)]
    k = int(rng.integers(0, n + 1))
    V = rng.integers(0, p, size=(int(rng.integers(0, 2 * n + 2)), k)) \
        @ rng.integers(0, p, size=(k, n)) % p
    if family == "duplicate-zero" and V.shape[0]:
        extra = [V[rng.integers(0, V.shape[0], size=3)],
                 np.zeros((2, n), dtype=np.int64)]
        V = np.vstack([V] + extra)
    return V[rng.permutation(V.shape[0])]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([3, 5, 7, 13, 101]),
       st.sampled_from(["no-rows", "n=1", "duplicate-zero", "full-rank",
                        "shuffled"]),
       st.integers(1, 12), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_echelon_matches_rank_and_echelon_basis(p, family, a, unreduced, seed):
    rng = np.random.default_rng(seed)
    n = 1 if family == "n=1" else a
    V = _echelon_rows(family, p, n, rng).astype(np.int64)
    if unreduced:
        V = V + p * rng.integers(-3, 4, size=V.shape)
    span = modp.Echelon(n, p)
    for i, v in enumerate(V):
        before = v.copy()
        grew = modp.rank(V[: i + 1], p) > modp.rank(V[:i], p)
        assert span.add(v) == grew
        assert np.array_equal(v, before)
        assert len(span.piv) == modp.rank(V[: i + 1], p)
    B = span.basis()
    assert B.dtype == np.int64
    assert np.array_equal(B, modp.echelon_basis(V % p, p))
    # in the span, outside it (mostly), and zero
    W = np.vstack([rng.integers(0, p, size=(3, V.shape[0])) @ V,
                   rng.integers(0, p, size=(3, n)),
                   np.zeros((1, n), dtype=np.int64)])
    before = W.copy()
    R = span.reduce(W)
    assert np.array_equal(W, before)
    inside = [modp.rank(np.vstack([V, w]), p) == modp.rank(V, p) for w in W]
    assert np.array_equal(~np.any(R, axis=1), inside)
    assert not np.any(R[:, span.piv])


def test_factorization_roundtrip():
    rng = np.random.default_rng(1)
    p = 11
    from functools import reduce
    for _ in range(40):
        factors = []
        for _ in range(int(rng.integers(1, 4))):
            while True:
                f = [int(x) for x in rng.integers(0, p, size=rng.integers(1, 4))] + [1]
                got = list(modp.squarefree_factors(f, p))
                if len(got) == 1 and len(got[0]) == len(f):
                    break
            factors.append(f)
        F = reduce(lambda a, b: modp.poly_mul(a, b, p), factors, [1])
        got = set(tuple(g) for g in list(modp.squarefree_factors(F, p)))
        want = set(tuple(modp.poly_monic(f, p)) for f in factors)
        assert got == want


def test_krylov_poly_companion():
    # e_1 is a cyclic vector of a companion matrix: its Krylov
    # polynomial is the characteristic polynomial, in both copies of a
    # block sum and on their diagonal
    p = 13
    M = np.array([[0, 0, 2], [1, 0, 3], [0, 1, 5]], dtype=np.int64)
    char = [(-2) % p, (-3) % p, (-5) % p, 1]
    assert modp.krylov_poly(M, [1, 0, 0], p) == char
    Z = np.zeros((6, 6), dtype=np.int64)
    Z[:3, :3] = M
    Z[3:, 3:] = M
    for v in ([1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [1, 0, 0, 1, 0, 0]):
        assert modp.krylov_poly(Z, v, p) == char
    # the zero vector has the constant polynomial
    assert modp.krylov_poly(Z, [0] * 6, p) == [1]


polys = st.lists(st.integers(0, 12), max_size=9)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([5, 7, 13]), polys, polys, st.integers(1, 12))
def test_poly_divmod_is_division_with_remainder(p, f, g, lead):
    f = [c % p for c in f] or [0]
    g = [c % p for c in g] + [lead % p or 1]
    q, r = modp.poly_divmod(f, g, p)
    assert all(0 <= c < p for c in q + r)
    assert q == modp.poly_trim(q) and r == modp.poly_trim(r)
    assert len(r) < len(g) or r == [0]
    qg = modp.poly_mul(q, g, p)
    n = max(len(f), len(qg), len(r))
    f, qg, r = ([*h, *[0] * (n - len(h))] for h in (f, qg, r))
    assert all((a - b - c) % p == 0 for a, b, c in zip(f, qg, r))


def reference_poly_lcm(f, g, p):
    gcd = modp.poly_gcd(f, g, p)
    return modp.poly_monic(modp.poly_divmod(modp.poly_mul(f, g, p), gcd, p)[0],
                           p)


def reference_min_poly(M, p):
    """The minimal polynomial of M: the lcm of its minimal polynomials
    at the unit vectors, each by two eliminations, the rank of the
    Krylov rows for k and then a solve for the coefficients."""
    n = M.shape[0]
    mp = [1]
    for v in np.eye(n, dtype=np.int64):
        vecs = [v]
        for _ in range(n):
            vecs.append(vecs[-1] @ M.T % p)
        V = np.array(vecs)
        k = len(modp.rref(V, p)[1])
        sol = modp.solve(V[:k].T, (-V[k]) % p, p)
        mp = reference_poly_lcm(mp, list(map(int, sol)) + [1], p)
    return mp


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([5, 7, 13]), st.integers(0, 7),
       st.sampled_from(["singular", "nilpotent", "block"]),
       st.integers(0, 7), st.integers(0, 2 ** 32 - 1))
def test_krylov_poly_divides_reference_min_poly(p, n, kind, rank, seed):
    # low-rank, nilpotent and block matrices give Krylov spaces of
    # every dimension
    rng = np.random.default_rng(seed)
    rank = min(rank, n)
    if kind == "nilpotent":
        # a strictly upper triangular N in a random basis L U
        N = np.triu(rng.integers(0, p, size=(n, n)), 1)
        L, U = (tri(rng.integers(0, p, size=(n, n)), k) + np.eye(n, dtype=int)
                for tri, k in ((np.tril, -1), (np.triu, 1)))
        P = (L @ U % p).astype(np.int64)
        M = P @ N @ modp.inverse(P, p) % p
    else:
        M = rng.integers(0, p, size=(n, rank)) @ rng.integers(
            0, p, size=(rank, n)) % p
        if kind == "block" and n:
            M[: n // 2, n // 2:] = M[n // 2:, : n // 2] = 0
    M = M.astype(np.int64)
    v = rng.integers(0, p, size=n) if seed % 5 else np.zeros(n, dtype=int)
    f = modp.krylov_poly(M, v, p)
    assert f[-1] == 1 and all(0 <= c < p for c in f)
    # f(M) v = 0, and deg f is the dimension of the Krylov space
    assert not (modp.poly_eval_matrix(f, M, p) @ v % p).any()
    krylov = [v % p]
    for _ in range(n):
        krylov.append(krylov[-1] @ M.T % p)
    assert len(f) - 1 == modp.rank(np.array(krylov).reshape(n + 1, n), p)
    mp = reference_min_poly(M, p)
    assert not modp.poly_eval_matrix(mp, M, p).any()
    assert modp.poly_divmod(mp, f, p)[1] == [0]
    if kind == "nilpotent":
        assert f == [0] * (len(f) - 1) + [1]


def poly_from_roots(roots, cofactor, p):
    f = list(cofactor)
    for r in roots:
        f = modp.poly_mul(f, [-r % p, 1], p)
    return f


def assert_irreducible_factor_of(f, F, p):
    assert f[-1] == 1 and all(0 <= c < p for c in f)
    assert list(modp.squarefree_factors(f, p)) == [f]
    assert modp.poly_divmod(F, f, p)[1] == [0]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([13, 17]), st.lists(st.integers(0, 16), max_size=4),
       st.integers(0, 4), st.integers(0, 2 ** 32 - 1))
def test_irreducible_factor_is_the_smallest_root(p, roots, deg, seed):
    # roots times a random monic cofactor, which may add roots of its own
    rng = np.random.default_rng(seed)
    cofactor = [int(c) for c in rng.integers(0, p, size=deg)] + [1]
    F = poly_from_roots([r % p for r in roots], cofactor, p)
    assume(len(F) > 1)
    lead = int(rng.integers(1, p))
    f = modp.irreducible_factor([c * lead % p for c in F], p)
    assert_irreducible_factor_of(f, F, p)
    zeros = [x for x in range(p)
             if sum(c * pow(x, i, p) for i, c in enumerate(F)) % p == 0]
    if zeros:
        assert f == [-min(zeros) % p, 1]
    else:
        assert f == next(modp.squarefree_factors(F, p))


def _counted(monkeypatch, name):
    calls, fn = [], getattr(modp, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(modp, name, counted)
    return calls


def test_irreducible_factor_without_a_root_factors(monkeypatch):
    # an irreducible quadratic times an irreducible cubic mod 13: the
    # scan runs, finds no root, and the factorization decides
    p = 13
    quad = [-2 % p, 0, 1]           # 2 is not a square mod 13
    cubic = next(f for f in ([c, 1, 0, 1] for c in range(p))
                 if all((x ** 3 + x + f[0]) % p for x in range(p)))
    F = modp.poly_mul(quad, cubic, p)
    scans = _counted(monkeypatch, "_smallest_root")
    factorizations = _counted(monkeypatch, "squarefree_factors")
    f = modp.irreducible_factor(F, p)
    assert len(scans) == 1 and len(factorizations) == 1
    assert f in (quad, cubic)
    assert_irreducible_factor_of(f, F, p)


def test_irreducible_factor_at_a_large_prime_does_not_scan(monkeypatch):
    p = 65537
    rng = np.random.default_rng(4)
    for deg in (0, 3, 19):
        cofactor = [int(c) for c in rng.integers(0, p, size=deg)] + [1]
        F = poly_from_roots([5, 3], cofactor, p)
        monkeypatch.setattr(modp, "_smallest_root", None)
        f = modp.irreducible_factor(F, p)
        monkeypatch.undo()
        assert f == next(modp.squarefree_factors(F, p))
        assert_irreducible_factor_of(f, F, p)
    # the same polynomial at p = 17 is scanned
    scans = _counted(monkeypatch, "_smallest_root")
    assert modp.irreducible_factor(poly_from_roots([5, 3], [1], 17), 17) \
        == [-3 % 17, 1]
    assert len(scans) == 1


@pytest.mark.parametrize("p, scanned", [(1009, True), (10007, True),
                                        (100003, False)])
def test_root_scan_crossover_at_degree_20(monkeypatch, p, scanned):
    rng = np.random.default_rng(p)
    cofactor = [int(c) for c in rng.integers(0, p, size=19)] + [1]
    F = poly_from_roots([7], cofactor, p)
    scans = _counted(monkeypatch, "_smallest_root")
    f = modp.irreducible_factor(F, p)
    assert len(scans) == scanned
    assert_irreducible_factor_of(f, F, p)


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
    # squarefree_factors passes it
    rng = np.random.default_rng(seed)
    f = [int(c) for c in rng.integers(0, p, size=deg)] + [1]
    df = modp.poly_trim([i * c % p for i, c in enumerate(f)][1:])
    assume(df != [0])
    sf = modp.poly_divmod(f, modp.poly_gcd(f, df, p), p)[0]
    got = list(modp._factor_squarefree(sf, p, np.random.default_rng(seed)))
    want = reference_factor_squarefree(sf, p, np.random.default_rng(seed))
    assert got == want


def reference_factor_squarefree_part(f, p):
    """Every factor listed eagerly before any is used."""
    f = modp.poly_monic(modp.poly_trim(list(f)), p)
    df = modp.poly_trim([(i * c) % p for i, c in enumerate(f)][1:] or [0])
    if df == [0]:
        return reference_factor_squarefree_part(f[::p], p)
    g = modp.poly_gcd(f, df, p)
    sf = modp.poly_divmod(f, g, p)[0]
    out = reference_factor_squarefree(sf, p, np.random.default_rng(12345))
    if len(g) > 1:
        for extra in reference_factor_squarefree_part(g, p):
            if extra not in out:
                out.append(extra)
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(1, 6),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_first_lazy_factor_is_the_first_listed(p, deg, power, seed):
    # f = g^power h(x^p) covers repeated factors and p-th powers
    rng = np.random.default_rng(seed)
    g = [int(c) for c in rng.integers(0, p, size=deg)] + [1]
    h = [int(c) for c in rng.integers(0, p, size=2)] + [1]
    f = [1]
    for _ in range(power):
        f = modp.poly_mul(f, g, p)
    hp = [0] * (2 * p + 1)
    hp[::p] = h
    for F in (f, modp.poly_mul(f, hp, p), hp):
        want = reference_factor_squarefree_part(F, p)
        assert next(modp.squarefree_factors(F, p)) == want[0]
        assert list(modp.squarefree_factors(F, p)) == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([5, 7, 13]), st.sampled_from(["square", "tall"]),
       st.integers(1, 8), st.integers(1, 4), st.sampled_from([0, 1, 3]),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_left_solver_matches_solve(p, shape, cols, extra, k, consistent,
                                   seed):
    # k = 0 is a 1-D b, k > 0 a 2-D b of k columns; an inconsistent b
    # has a column moved off the column space of A, which only a tall A
    # has room for
    rng = np.random.default_rng(seed)
    rows = cols if shape == "square" else cols + extra
    A = rng.integers(0, p, size=(rows, cols))
    while modp.rank(A, p) < cols:
        A = rng.integers(0, p, size=(rows, cols))
    X = rng.integers(0, p, size=(cols, k) if k else cols)
    b = A @ X % p
    if not consistent:
        assume(shape == "tall")
        y = modp.kernel_basis(A.T, p)[0]           # y A = 0
        i = int(np.flatnonzero(y)[0])
        if k:
            b[i, int(rng.integers(0, k))] += 1     # y b != 0 there
        else:
            b[i] += 1
    # entries outside [0, p) on both sides
    solver = modp.LeftSolver(A - p * rng.integers(0, 3, size=A.shape), p)
    got = solver.solve(b + p * rng.integers(-2, 3, size=b.shape))
    want = modp.solve(A, b, p)
    if not consistent:
        assert got is None and want is None
    else:
        assert np.array_equal(got, want) and np.array_equal(got, X)
    assert np.array_equal(solver.L @ A % p, np.eye(cols, dtype=np.int64))


@pytest.mark.parametrize("p", [5, 7, 13])
def test_left_solver_refuses_dependent_columns(p):
    rng = np.random.default_rng(p)
    A = rng.integers(0, p, size=(6, 3))
    A[:, 2] = (2 * A[:, 0] + 3 * A[:, 1]) % p
    with pytest.raises(ValueError, match="dependent"):
        modp.LeftSolver(A, p)
    with pytest.raises(ValueError, match="dependent"):
        modp.LeftSolver(A[:2], p)                  # wide
    with pytest.raises(ValueError, match="dependent"):
        modp.LeftSolver(np.zeros((3, 3), dtype=np.int64), p)
    # a call sums rows products below p^2, so 3 rows at p = 2^31 - 1
    # would leave int64
    with pytest.raises(ValueError, match="int64"):
        modp.LeftSolver(np.eye(3, dtype=np.int64), 2 ** 31 - 1)
