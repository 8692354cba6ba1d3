import numpy as np
import pytest

from liftlab.intlinalg import smith_normal_form
from liftlab.rootdata import (ChevalleyBasis, RootDataError, RootDatum,
                              closed_symmetric_subsystems, levi_bound,
                              phi_alpha, root_datum)

TYPE_DATA = {
    # dim g, |Phi^+|, Weyl order
    "A1": (3, 1, 2),
    "A2": (8, 3, 6),
    "A3": (15, 6, 24),
    "B2": (10, 4, 8),
    "B3": (21, 9, 48),
    "C3": (21, 9, 48),
    "G2": (14, 6, 12),
    "D4": (28, 12, 192),
    "F4": (52, 24, 1152),
    "E6": (78, 36, 51840),
}


def test_type_tables():
    for name, (dim, npos, worder) in TYPE_DATA.items():
        d, b = root_datum(name)
        assert d.dim == dim
        assert len(d.positive_roots) == npos
        assert d.weyl_order == worder
        # dim Flag = |Phi^+| = (dim g - rank)/2
        assert npos == (dim - d.rank) // 2


def test_jacobi_exhaustive_small_ranks():
    for name in ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "D4"]:
        _, b = root_datum(name)
        assert b.verify_jacobi()


def test_jacobi_f4_exhaustive():
    _, b = root_datum("F4")
    assert b.verify_jacobi()


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_jacobi_catches_one_corrupted_constant(name):
    d, b = root_datum(name)
    i, j, k = (b.root_basis_index(d.positive_roots[n]) for n in (0, 1, 2))
    assert b.ad[i, k, j] != 0     # [e_a1, e_a2] = N e_(a1+a2)
    for antisymmetric in (True, False):
        fresh = ChevalleyBasis(d)
        ad = b.ad.copy()
        ad[i, k, j] *= 2
        if antisymmetric:
            ad[j, k, i] *= 2
        fresh.__dict__["ad"] = ad
        assert not fresh.verify_jacobi()


def test_jacobi_rank6_random():
    # 2000 random basis triples of E6, bracketed from the ad table:
    # [b_j, b_k] is column k of ad(b_j)
    rng = np.random.default_rng(0)
    _, b = root_datum("E6")
    ad = b.ad
    for _ in range(2000):
        i, j, k = rng.choice(b.dim, size=3, replace=False)
        jacobi = (ad[i] @ ad[j][:, k] + ad[j] @ ad[k][:, i]
                  + ad[k] @ ad[i][:, j])
        assert not jacobi.any(), (i, j, k)


def test_structure_constant_chain_lengths():
    # N = +-(p+1) is asserted at construction; recheck one type by hand
    d, b = root_datum("G2")
    for (x, y), n in b._N.items():
        k = 0
        cur = tuple(a - c for a, c in zip(y, x))
        while d.is_root(cur):
            k += 1
            cur = tuple(a - c for a, c in zip(cur, x))
        assert abs(n) == k + 1


def test_bracket_self_consistency():
    # the dense ad table against N and the Cartan matrix, every type up
    # to rank 4: N_{a,b} X_{a+b} = [X_a, X_b], [h_j, X_r] =
    # <r, alpha_j^vee> X_r, and ad[i][:, j] = -ad[j][:, i]; [b_i, b_j] is
    # column j of ad(b_i)
    for name in [t for t in TYPE_DATA if int(t[1:]) <= 4]:
        d, b = root_datum(name)
        assert np.array_equal(b.ad.transpose(2, 1, 0), -b.ad)
        for a in d.roots:
            ia = b.root_basis_index(a)
            for j in range(d.rank):
                want = np.zeros(d.dim, dtype=np.int64)
                want[ia] = sum(a[k] * d.cartan[j][k] for k in range(d.rank))
                assert np.array_equal(b.ad[j][:, ia], want)
            for c in d.roots:
                s = d.add_roots(a, c)
                if d.is_root(s):
                    out = b.ad[ia][:, b.root_basis_index(c)]
                    want = np.zeros(d.dim, dtype=np.int64)
                    want[b.root_basis_index(s)] = b.N(a, c)
                    assert np.array_equal(out, want)


def test_roots_alone_build_no_ad_table():
    # a fresh basis, so no earlier test can have built its table
    b = ChevalleyBasis(RootDatum("E", 8))
    alpha = b.datum.roots[0]
    assert len(phi_alpha(b, alpha)) == 1 + sum(
        b.N(alpha, c) != 0 for c in b.datum.roots)
    assert "ad" not in vars(b)


def test_exponents():
    assert root_datum("G2")[0].exponents() == [1, 5]
    assert root_datum("A2")[0].exponents() == [1, 2]
    assert root_datum("D4")[0].exponents() == [1, 3, 3, 5]
    assert root_datum("F4")[0].exponents() == [1, 5, 7, 11]
    for name in TYPE_DATA:
        d, _ = root_datum(name)
        prod = 1
        for m in d.exponents():
            prod *= m + 1
        assert prod == d.weyl_order


def test_phi_alpha_a1_a2():
    d, b = root_datum("A1")
    al = d.positive_roots[0]
    assert phi_alpha(b, al) == [d.neg(al)]
    d, b = root_datum("A2")
    al = d.positive_roots[0]
    pa = phi_alpha(b, al)
    assert len(pa) == 3 and d.neg(al) in pa


def test_phi_alpha_bruteforce_oracle():
    # beta in Phi^alpha iff alpha + beta is a root, or beta = -alpha
    # (string combinatorics; independent of the sign data)
    for name in ["A2", "B2", "G2"]:
        d, b = root_datum(name)
        for al in d.roots:
            got = set(phi_alpha(b, al))
            want = {d.neg(al)} | {
                be for be in d.roots if d.is_root(d.add_roots(al, be))}
            assert got == want


def test_phi_alpha_is_the_structure_constant_scan_as_a_fresh_list():
    for name in ["A1", "A2", "A3", "B2", "B3", "G2", "D4"]:
        d, b = root_datum(name)
        for al in d.roots:
            want = [be for be in d.roots
                    if be == d.neg(al) or b.N(al, be) != 0]
            got = phi_alpha(b, al)
            assert got == want
            got.append("mutated")
            got.clear()
            assert phi_alpha(b, list(al)) == want
    for _ in range(2):
        with pytest.raises(RootDataError):
            phi_alpha(b, (3,) * d.rank)


def test_neg_alpha_always_in_phi_alpha():
    for name in ["A1", "A3", "F4"]:
        d, b = root_datum(name)
        for al in d.roots:
            assert d.neg(al) in phi_alpha(b, al)


def test_levi_bound_a1_adjoint():
    d, _ = root_datum("A1")
    lb = levi_bound(d)
    # the pair (W' = W, Psi = {}) gives X/(w-1)X = Z/2
    assert lb["n_prime"] % 2 == 0
    assert lb["m_g"] == 2 + 2
    assert lb["n_g"] == lb["n_prime"] ** lb["m_g"]


def test_levi_bound_full_psi_divides_fundamental_group():
    # Psi = Phi: torsion of X/Z Phi divides the fundamental group order
    for name, fund in [("A1", 2), ("A2", 3), ("B2", 2), ("G2", 1)]:
        d, _ = root_datum(name)
        mat = [[r[i] for r in d.roots] for i in range(d.rank)]
        facs = [x for x in smith_normal_form(mat) if x]
        tors = 1
        for x in facs:
            tors = tors * x // np.gcd(tors, x)
        assert fund % tors == 0


def test_levi_bound_rank_guard():
    d, _ = root_datum("A5")
    with pytest.raises(RootDataError):
        levi_bound(d)


def test_closed_subsystems_g2_contains_long_a2():
    d, _ = root_datum("G2")
    systems = closed_symmetric_subsystems(d)
    sizes = sorted(len(s) for s in systems)
    assert 0 in sizes and 12 in sizes
    # the long-root A2 is a closed symmetric subsystem of size 6
    assert 6 in sizes


def test_lattice_torsion_examples():
    from liftlab.intlinalg import smith_normal_form
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 0], [0, 4]]) == [2, 4]
    assert smith_normal_form([[2, 1], [0, 3]]) == [1, 6]


def test_root_tables_pin_the_scalar_pairings():
    for name in TYPE_DATA:
        d, _ = root_datum(name)
        assert d.root_matrix.tolist() == [list(r) for r in d.roots]
        for k, r in enumerate(d.roots):
            for i in range(d.rank):
                assert d.simple_pairings[k, i] == d.pair_simple_coroot(r, i)
        for i, k in enumerate(d.simple_indices):
            assert d.roots[k] == tuple(int(j == i) for j in range(d.rank))
        for g in d.roots[:: max(1, len(d.roots) // 8)]:
            assert d.coroot_pairings(g).tolist() == \
                [d.pair_root_coroot(r, g) for r in d.roots]
        for table in (d.root_matrix, d.simple_pairings, d.simple_indices):
            assert not table.flags.writeable
