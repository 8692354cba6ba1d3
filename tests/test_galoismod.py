import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab import galoismod, modp
from liftlab.coeffring import CoeffRing
from liftlab.chevgroup import LieAlgebra, torus_elt, u_alpha
from liftlab.galoismod import (GaloisModError, MatrixModule, decompose,
                               hom_space, modules_isomorphic, spin)
from liftlab.rootdata import root_datum

# A6 on standard generators a (order 2), b (order 4), which satisfy the
# presentation a^2 = b^4 = (ab)^5 = (ab^2)^5 = 1 of A6 and generate a
# group of order 360 (test_a6_permutations_generate_a6); permutations
# found by search.
A6_RELATORS = ("aa", "bbbb", "ab" * 5, "abb" * 5)
A6_PERM_A = (0, 1, 3, 2, 5, 4)
A6_PERM_B = (2, 3, 0, 4, 5, 1)


def perm_matrix(perm, p):
    n = len(perm)
    M = np.zeros((n, n), dtype=np.int64)
    for i, j in enumerate(perm):
        M[j, i] = 1
    return M % p


def compose(*perms):
    """The product of permutations as perm_matrix multiplies them: the
    last one acts first."""
    out = tuple(range(len(perms[0])))
    for perm in perms:
        out = tuple(out[i] for i in perm)
    return out


def test_a6_permutations_generate_a6():
    gens = {"a": A6_PERM_A, "b": A6_PERM_B}
    identity = tuple(range(6))
    for word in A6_RELATORS:
        assert compose(*(gens[x] for x in word)) == identity
    closure, frontier = {identity}, {identity}
    while frontier:
        frontier = {compose(g, h) for h in frontier
                    for g in gens.values()} - closure
        closure |= frontier
    assert len(closure) == 360


def sl2_adjoint_module(p, extra_torus=True):
    d, b = root_datum("A1")
    R = CoeffRing(p, 1, 1)
    alg = LieAlgebra(d, b, R)
    al = d.positive_roots[0]
    gens = [u_alpha(alg, al, R.el(1)).mat[..., 0],
            u_alpha(alg, d.neg(al), R.el(1)).mat[..., 0]]
    if extra_torus:
        gens.append(torus_elt(alg, [R.el(3)]).mat[..., 0])
    return MatrixModule(p, gens)


def test_trivial_group_plane():
    dec = decompose(MatrixModule(7, [np.eye(2, dtype=np.int64)]))
    assert dec.semisimple and len(dec.summands) == 2
    assert dec.isotypic[0]["multiplicity"] == 2
    assert not dec.multiplicity_free
    assert dec.contains_trivial


def test_sl2_adjoint_irreducible():
    for p in [5, 7, 13]:
        dec = decompose(sl2_adjoint_module(p))
        assert dec.semisimple and dec.multiplicity_free
        assert len(dec.isotypic) == 1
        assert dec.isotypic[0]["dim"] == 3
        assert dec.isotypic[0]["endo_degree"] == 1
        assert not dec.contains_trivial


def test_summands_reassemble():
    rng = np.random.default_rng(0)
    p = 7
    M = MatrixModule(p, [perm_matrix(A6_PERM_A, p), perm_matrix(A6_PERM_B, p)])
    dec = decompose(M, rng)
    assert dec.semisimple
    total = np.vstack([b for b, _ in dec.summands])
    from liftlab import modp
    assert modp.rank(total, p) == 6
    # permutation module = trivial + 5-dim
    dims = sorted(c["dim"] for c in dec.isotypic)
    assert dims == [1, 5]
    assert dec.contains_trivial


def test_isomorphism_is_equivalence():
    M = sl2_adjoint_module(7)
    dec = decompose(M)
    W = dec.isotypic[0]["module"]
    assert modules_isomorphic(W, W)


def test_non_semisimple_detected():
    U = np.array([[1, 1], [0, 1]], dtype=np.int64)
    dec = decompose(MatrixModule(7, [U]))
    # the fixed line has no complement: splitting stops before any summand
    assert not dec.semisimple and not dec.multiplicity_free
    assert dec.summands == [] and dec.isotypic == []


def test_h0_of_nontrivial_component():
    # quotient the permutation module by invariants implicitly: the
    # 5-dim constituent has no fixed vectors
    p = 7
    M = MatrixModule(p, [perm_matrix(A6_PERM_A, p), perm_matrix(A6_PERM_B, p)])
    dec = decompose(M)
    W = next(c["module"] for c in dec.isotypic if c["dim"] == 5)
    stacked = np.vstack([g - np.eye(W.dim, dtype=np.int64) for g in W.gens])
    assert modp.kernel_basis(stacked % p, p).shape[0] == 0
    # the same kernel on the whole permutation module is the all-ones line
    stacked = np.vstack([g - np.eye(6, dtype=np.int64) for g in M.gens])
    assert modp.kernel_basis(stacked % p, p).tolist() == [[1] * 6]


def test_hom_space_schur():
    M = sl2_adjoint_module(7)
    dec = decompose(M)
    W = dec.isotypic[0]["module"]
    H = hom_space(W, W)
    assert len(H) == 1  # endo field F_p


# -- per-vector reference loops for spin and restrict


def reference_spin(module, vectors):
    p = module.p
    B = modp.echelon_basis(np.atleast_2d(np.asarray(vectors)) % p, p)
    while True:
        grew = False
        for g in module.gens:
            for row in B @ g.T % p:
                if not modp.row_space_contains(B, row, p):
                    B = modp.echelon_basis(np.vstack([B, row]), p)
                    grew = True
        if not grew:
            return B


def reference_restrict_gens(module, basis):
    p = module.p
    B = modp.echelon_basis(np.asarray(basis, dtype=np.int64) % p, p)
    out = []
    for g in module.gens:
        coords = []
        for row in B @ g.T % p:
            x = modp.solve(B.T, row, p)
            if x is None:
                raise GaloisModError("basis does not span a submodule")
            coords.append(x)
        # k x k also for k = 0 (the loop's np.array([]) would be 1-D)
        k = B.shape[0]
        out.append(np.array(coords, dtype=np.int64).reshape(k, k).T % p)
    return B, out


def random_sum_module(blocks, p, rng):
    """Direct sum of modules with equal generator counts, in a random
    basis (conjugated by a random invertible matrix P).  Returns the
    module and, per block, the rows spanning that summand."""
    n = sum(b.dim for b in blocks)
    while True:
        P = rng.integers(0, p, size=(n, n), dtype=np.int64)
        Pinv = modp.inverse(P, p)
        if Pinv is not None:
            break
    gens = []
    for k in range(len(blocks[0].gens)):
        D = np.zeros((n, n), dtype=np.int64)
        pos = 0
        for b in blocks:
            D[pos:pos + b.dim, pos:pos + b.dim] = b.gens[k]
            pos += b.dim
        gens.append(P @ D @ Pinv % p)
    cuts = np.cumsum([0] + [b.dim for b in blocks])
    return MatrixModule(p, gens), [P.T[a:b] for a, b in zip(cuts, cuts[1:])]


def random_modules_at_7(rng):
    p = 7
    sl2 = sl2_adjoint_module(p)
    # the trivial line, with as many generators as sl2
    triv = MatrixModule(p, [np.eye(1, dtype=np.int64)] * len(sl2.gens))
    a6 = MatrixModule(p, [perm_matrix(A6_PERM_A, p),
                          perm_matrix(A6_PERM_B, p)])
    return [random_sum_module([sl2, sl2], p, rng),
            random_sum_module([sl2, triv, triv], p, rng),
            random_sum_module([a6], p, rng),
            random_sum_module([a6, a6], p, rng)]


def test_spin_and_restrict_match_reference_loops():
    rng = np.random.default_rng(5)
    p = 7
    dims = set()
    for M, summands in random_modules_at_7(rng):
        for _ in range(8):
            # vectors inside a random sum of summands, so that proper
            # submodules of several dimensions are spun
            pick = [S for S in summands if rng.integers(0, 2)] or summands
            span = np.vstack(pick)
            nvec = int(rng.integers(1, 4))
            vecs = rng.integers(0, p, size=(nvec, span.shape[0])) @ span % p
            S = spin(M, vecs)
            dims.add((M.dim, S.shape[0]))
            assert np.array_equal(S, reference_spin(M, vecs))
            B, gens = reference_restrict_gens(M, S)
            sub = M.restrict(S)
            assert len(sub.gens) == len(gens)
            for g, got, want in zip(M.gens, sub.gens, gens):
                assert np.array_equal(got, want)
                # one solve per generator gives the same coordinates
                assert np.array_equal(got, modp.solve(B.T, g @ B.T % p, p))
        assert spin(M, np.zeros(M.dim, dtype=np.int64)).shape == (0, M.dim)
    assert any(k < n for n, k in dims) and len(dims) > 4


def test_restrict_rejects_unstable_basis():
    rng = np.random.default_rng(6)
    p = 7
    for M, _ in random_modules_at_7(rng):
        v = rng.integers(0, p, size=(1, M.dim), dtype=np.int64)
        assert spin(M, v).shape[0] > 1       # the line is not stable
        with pytest.raises(GaloisModError, match="does not span"):
            M.restrict(v)
        with pytest.raises(GaloisModError):
            reference_restrict_gens(M, v)


# -- Hom spaces: the Kronecker system as the reference for spinning


def reference_hom_space(m1, m2):
    """Kernel of the whole (ngens d1 d2) x (d1 d2) Kronecker system for
    phi g1 = g2 phi, phi flattened row by row."""
    p = m1.p
    d1, d2 = m1.dim, m2.dim
    rows = []
    for g1, g2 in zip(m1.gens, m2.gens):
        M = np.kron(np.eye(d2, dtype=np.int64), g1.T % p) - \
            np.kron(g2 % p, np.eye(d1, dtype=np.int64))
        rows.append(M % p)
    A = np.vstack(rows) % p
    K = modp.kernel_basis(A, p)
    return [k.reshape(d2, d1) % p for k in K]


def assert_hom_matches_reference(m1, m2):
    got, want = hom_space(m1, m2), reference_hom_space(m1, m2)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == (m2.dim, m1.dim)
        assert np.array_equal(a, b)
    for h in got:
        for g1, g2 in zip(m1.gens, m2.gens):
            assert not np.any((h @ g1 - g2 @ h) % m1.p)
    return got


def trivial_action(p, dim, ngens):
    return MatrixModule(p, [np.eye(dim, dtype=np.int64)] * ngens)


def hom_families_at_7(rng):
    """Two lists of modules with aligned generators (three for the SL2
    adjoint family, two for A6), irreducible and reducible, in random
    bases; the scalar twist of sl2 has no nonzero map to or from sl2."""
    p = 7
    sl2 = sl2_adjoint_module(p)
    a6 = MatrixModule(p, [perm_matrix(A6_PERM_A, p),
                          perm_matrix(A6_PERM_B, p)])
    sums = [M for M, _ in random_modules_at_7(rng)]
    twist = MatrixModule(p, [g * 3 % p for g in sl2.gens])
    return ([sl2, twist, trivial_action(p, 1, 3), trivial_action(p, 4, 3),
             sums[0], sums[1]],
            [a6, trivial_action(p, 1, 2), trivial_action(p, 3, 2),
             sums[2], sums[3]])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 1), st.integers(0, 5), st.integers(0, 5),
       st.integers(0, 2 ** 32 - 1))
def test_hom_space_matches_kronecker_reference(family, i, j, seed):
    mods = hom_families_at_7(np.random.default_rng(seed))[family]
    assert_hom_matches_reference(mods[i % len(mods)], mods[j % len(mods)])


def test_hom_space_edges():
    p = 7
    sl2 = sl2_adjoint_module(p)
    twist = MatrixModule(p, [g * 3 % p for g in sl2.gens])
    # zero Hom, both ways
    assert assert_hom_matches_reference(sl2, twist) == []
    assert assert_hom_matches_reference(twist, sl2) == []
    # dimension 1 on both sides: the scalars
    line = trivial_action(p, 1, 3)
    assert [h.tolist() for h in
            assert_hom_matches_reference(line, line)] == [[[1]]]
    # trivial action: every unit vector is a seed, Hom is all matrices
    for d in (1, 3, 5):
        T = trivial_action(p, d, 2)
        B, origin, k = galoismod._standard_basis(T)
        assert k == d and np.array_equal(B, np.eye(d, dtype=np.int64))
        assert len(assert_hom_matches_reference(T, T)) == d * d
    # a zero-dimensional side has no maps
    empty = MatrixModule(p, [np.zeros((0, 0), dtype=np.int64)] * 3)
    assert hom_space(empty, sl2) == [] and hom_space(sl2, empty) == []


def test_standard_basis_words():
    rng = np.random.default_rng(3)
    for mods in hom_families_at_7(rng):
        for M in mods:
            B, origin, k = galoismod._standard_basis(M)
            assert modp.rank(B, M.p) == M.dim
            assert sum(j < 0 for j, _ in origin) == k
            for i, (j, g) in enumerate(origin):
                if j >= 0:
                    assert j < i
                    assert np.array_equal(B[i], M.gens[g] @ B[j] % M.p)
                else:
                    assert np.count_nonzero(B[i]) == 1
    # an irreducible module is spun from e_0 alone
    assert galoismod._standard_basis(sl2_adjoint_module(7))[2] == 1


def test_hom_space_transposed_path(monkeypatch):
    # sl2 + 2 trivial lines needs two seeds (10 unknowns into sl2); the
    # transposed problem from sl2^T needs one (5 unknowns)
    p = 7
    rng = np.random.default_rng(11)
    sl2 = sl2_adjoint_module(p)
    sums = [M for M, _ in random_modules_at_7(rng)]
    big = sums[1]
    assert galoismod._standard_basis(big)[2] == 2
    sources = []
    spin_hom = galoismod._hom_by_spin

    def spy(src, spun, tgt):
        sources.append(src.dim)
        return spin_hom(src, spun, tgt)

    monkeypatch.setattr(galoismod, "_hom_by_spin", spy)
    H = assert_hom_matches_reference(big, sl2)
    assert sources == [sl2.dim] and len(H) == 1
    # the direct path, for the other direction
    sources.clear()
    assert len(assert_hom_matches_reference(sl2, big)) == 1
    assert sources == [sl2.dim]
