import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab import chevgroup
from liftlab.coeffring import (CoeffRing, ParameterError, int64_exact,
                              sqrt_one_mod_p)
from liftlab.chevgroup import (ChevGroupError, GroupElement, LieAlgebra,
                               ad_eigenvalues_on_roots, exp_hat,
                               identity, image_growth_check,
                               levi_certificate_check, matrix_identity_check,
                               perturb, principal_sl2, root_product,
                               root_value_of_torus, torus_elt,
                               frobenius_b_search, torus_from_coroot_data,
                               torus_root_values, u_alpha)
from liftlab.rootdata import levi_bound, phi_alpha, root_datum


def alg_for(name, p, m, r=1):
    d, b = root_datum(name)
    return d, b, LieAlgebra(d, b, CoeffRing(p, m, r))


def killing_form(alg, x, y):
    """tr(ad(x) ad(y)) in the ring."""
    R = alg.ring
    M = R.mat_mul(alg.ad(x), alg.ad(y))
    return M[np.arange(alg.dim), np.arange(alg.dim)].sum(axis=0) % R.q


def test_u_alpha_identity_and_homomorphism():
    d, b, alg = alg_for("A1", 5, 3)
    R = alg.ring
    al = d.positive_roots[0]
    assert u_alpha(alg, al, R.el(0)).eq(identity(alg))
    assert (u_alpha(alg, al, R.el(2)) @ u_alpha(alg, al, R.el(7))).eq(
        u_alpha(alg, al, R.el(9)))


def test_u_alpha_classical_sl2_matrix():
    # exp(ad xE) on the ordered basis (h, X_+, X_-):
    # h -> h - 2x X_+, X_- -> X_- + x h - x^2 X_+, X_+ fixed
    d, b, alg = alg_for("A1", 7, 2)
    R = alg.ring
    x = 3
    M = u_alpha(alg, d.positive_roots[0], R.el(x)).mat[..., 0]
    want = np.array([[1, 0, x],
                     [(-2 * x) % R.q, 1, (-x * x) % R.q],
                     [0, 0, 1]], dtype=np.int64)
    assert np.array_equal(M, want)


@pytest.mark.parametrize("r", [1, 2])
def test_product_is_reduced_once(monkeypatch, r):
    # mat_mul reduces mod q, and the product is built without __init__,
    # which would reduce the same matrix again
    d, b, alg = alg_for("A2", 5, 3, r)
    R = alg.ring
    g = u_alpha(alg, d.roots[0], R.el(7))
    h = torus_elt(alg, [2, 3])
    init = GroupElement.__init__
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GroupElement, "__init__", counted)
    gh = g @ h
    assert not calls
    assert gh.alg is alg and gh.inverse_mat is None
    assert np.array_equal(gh.mat, R.mat_mul(g.mat, h.mat))
    assert gh.mat.min() >= 0 and gh.mat.max() < R.q


def test_torus_conjugation_scales_by_alpha():
    d, b, alg = alg_for("A2", 7, 3)
    R = alg.ring
    rng = np.random.default_rng(0)
    t = torus_elt(alg, [R.random_unit(rng) for _ in range(2)])
    for al in d.roots:
        # t u(x) t^-1 = u(alpha(t) x), checked without an inverse
        x = R.random(rng)
        rhs = u_alpha(alg, al, R.mul(root_value_of_torus(alg, t, al), x))
        assert (t @ u_alpha(alg, al, x)).eq(rhs @ t)


def test_torus_additivity_of_roots():
    d, b, alg = alg_for("A2", 5, 2)
    R = alg.ring
    t = torus_elt(alg, [R.el(2), R.el(3)])
    a, bb = d.positive_roots[0], d.positive_roots[1]
    ab = d.add_roots(a, bb)
    if not d.is_root(ab):
        a, bb = d.positive_roots[0], d.positive_roots[2]
        ab = d.add_roots(a, bb)
    assert R.eq(root_value_of_torus(alg, t, ab),
                R.mul(root_value_of_torus(alg, t, a),
                      root_value_of_torus(alg, t, bb)))


def test_group_elements_preserve_bracket_and_form():
    rng = np.random.default_rng(1)
    for name, p in [("A2", 7), ("B2", 5), ("G2", 7)]:
        d, b, alg = alg_for(name, p, 3)
        R = alg.ring
        g = identity(alg)
        for _ in range(3):
            r = d.roots[rng.integers(len(d.roots))]
            g = g @ u_alpha(alg, r, R.random(rng))
        g = g @ torus_elt(alg, [R.random_unit(rng) for _ in range(d.rank)])
        for _ in range(6):
            x, y = alg.random_vec(rng), alg.random_vec(rng)
            assert np.array_equal(g.apply(alg.bracket(x, y)),
                                  alg.bracket(g.apply(x), g.apply(y)))
            assert R.eq(killing_form(alg, g.apply(x), g.apply(y)),
                        killing_form(alg, x, y))


def test_bracket_and_form_match_integer_tables():
    # a ring vector is sum_c x_c t^c over integer vectors x_c, so
    # [x, y] = sum_{c,d} [x_c, y_d] t^c t^d mod q, each integer bracket
    # read from the ad table, and B alike
    rng = np.random.default_rng(5)
    for name, p, m, r in [("A1", 5, 3, 1), ("A2", 7, 2, 2), ("B2", 5, 3, 3),
                          ("G2", 7, 3, 2), ("G2", 13, 1, 3)]:
        d, b, alg = alg_for(name, p, m, r)
        R = alg.ring
        B = np.einsum("ijk,lkj->il", b.ad, b.ad)      # tr(ad b_i ad b_l)
        t = np.eye(r, dtype=np.int64)
        for _ in range(4):
            x, y = alg.random_vec(rng), alg.random_vec(rng)
            x[rng.integers(alg.dim)] = 0
            br = np.zeros((alg.dim, r), dtype=np.int64)
            form = np.zeros(r, dtype=np.int64)
            for c in range(r):
                for e in range(r):
                    tt = R.mul(t[c], t[e])
                    xy = np.einsum("i,iak,k->a", x[:, c], b.ad, y[:, e])
                    br = (br + xy[:, None] % R.q * tt) % R.q
                    form = (form + int(x[:, c] @ B @ y[:, e]) % R.q * tt) % R.q
            assert np.array_equal(alg.bracket(x, y), br)
            assert np.array_equal(killing_form(alg, x, y), form)


def test_reduction_functoriality():
    rng = np.random.default_rng(2)
    d, b, alg = alg_for("A2", 5, 3)
    R = alg.ring
    g1 = u_alpha(alg, d.roots[0], R.random(rng))
    g2 = torus_elt(alg, [R.random_unit(rng), R.random_unit(rng)])
    prod = (g1 @ g2).reduce(2)
    assert prod.eq(g1.reduce(2) @ g2.reduce(2))


def test_exp_hat():
    rng = np.random.default_rng(3)
    d, b, alg = alg_for("A2", 5, 2)
    R = alg.ring
    X = alg.random_vec(rng) * 5 % R.q
    assert np.array_equal(exp_hat(alg, X).mat,
                          (R.mat_id(alg.dim) + alg.ad(X)) % R.q)
    # m = 3: direct series oracle 1 + p ad X + p^2 ad(X)^2 / 2
    d, b, alg3 = alg_for("A2", 5, 3)
    R3 = alg3.ring
    Y = alg3.random_vec(rng)
    X = (5 * Y) % R3.q
    A = alg3.ad(X)
    inv2 = pow(2, -1, R3.q)
    series = (R3.mat_id(alg3.dim) + A + inv2 * R3.mat_mul(A, A)) % R3.q
    assert np.array_equal(exp_hat(alg3, X).mat, series)
    # additivity to first order
    X2 = (5 * alg3.random_vec(rng)) % R3.q
    lhs = (exp_hat(alg3, X) @ exp_hat(alg3, X2)).mat % 25
    rhs = exp_hat(alg3, (X + X2) % R3.q).mat % 25
    assert np.array_equal(lhs, rhs)
    with pytest.raises(ChevGroupError):
        exp_hat(alg3, alg3.random_vec(rng) * 5 + 1)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
@pytest.mark.parametrize("m,r", [(1, 1), (3, 1), (2, 2)])
def test_exp_hat_of_a_root_vector_is_u_alpha(name, m, r):
    # c X_beta is ad-nilpotent of degree at most 4 < p, whatever the
    # valuation of c, so its exponential is the root element u_beta(c)
    rng = np.random.default_rng(4)
    d, b, alg = alg_for(name, 13, m, r)
    R = alg.ring
    for beta in d.roots:
        for c in (R.one(), R.el(12), R.random_unit(rng), R.random(rng)):
            X = alg.zero_vec()
            X[b.root_basis_index(beta)] = c
            assert np.array_equal(exp_hat(alg, X).mat,
                                  u_alpha(alg, beta, c).mat)


def test_matrix_identity_spec_instance():
    # N=2, m=3, X=E12, A=E21, B=0, p=5: both sides (1+25(E11-E22))(1+5E21)
    p, q = 5, 125
    X = np.array([[0, 1], [0, 0]], dtype=np.int64)
    A = np.array([[0, 0], [1, 0]], dtype=np.int64)
    one = np.eye(2, dtype=np.int64)
    mid = (one + 5 * A) % q
    lhs = (one + 5 * X) @ mid % q @ (one - 5 * X + 25 * (X @ X)) % q
    comm = X @ A - A @ X
    rhs = (one + 25 * comm) % q @ mid % q
    want = ((one + 25 * np.diag([1, -1])) % q) @ mid % q
    assert np.array_equal(lhs % q, rhs % q)
    assert np.array_equal(rhs % q, want % q)


def test_matrix_identity_random_grid():
    rng = np.random.default_rng(4)
    for p in [5, 7, 13]:
        for m in [3, 4, 5]:
            assert matrix_identity_check(p, m, 8, 60, rng) == 0
    assert matrix_identity_check(5, 3, 1, 20, rng) == 0
    with pytest.raises(ChevGroupError):
        matrix_identity_check(5, 2, 4, 1, rng)


def test_image_growth():
    rng = np.random.default_rng(5)
    assert image_growth_check(5, 2, 4, 80, rng) == 0
    assert image_growth_check(7, 3, 3, 60, rng) == 0
    assert image_growth_check(5, 4, 2, 40, rng) == 0


def test_principal_sl2():
    d, b, alg = alg_for("A1", 7, 1)
    e, h, f = principal_sl2(alg)
    assert int(h[0, 0]) == 1  # h_alpha
    # A2: eigenvalues {0,0} + {+-2, +-2, +-4} (2 x root heights)
    d, b, alg = alg_for("A2", 7, 1)
    e, h, f = principal_sl2(alg)
    ev = ad_eigenvalues_on_roots(alg, h)
    from collections import Counter
    assert Counter(ev) == Counter([2 % 7, 2 % 7, 4 % 7, -2 % 7, -2 % 7,
                                   -4 % 7, 0, 0])
    # G2: includes +-10 (highest root height 5)
    d, b, alg = alg_for("G2", 13, 1)
    e, h, f = principal_sl2(alg)
    ev = ad_eigenvalues_on_roots(alg, h)
    assert 10 in ev and (-10) % 13 in ev
    with pytest.raises(ChevGroupError):
        principal_sl2(alg_for("G2", 5, 1)[2])   # p <= Coxeter number 6


def frobenius_torus(alg2, alpha, q, seed=0):
    """t_b = (1 + p b) alpha^vee(q^(1/2)) over alg2's ring, b from
    frobenius_b_search: the trivial-Frobenius torus, built directly as
    localconds.frobenius_member builds it.  Returns (t_b, b, report)."""
    R = alg2.ring
    b, report = frobenius_b_search(alg2.datum, alg2.basis, alpha, R.p, q,
                                   seed)
    s = sqrt_one_mod_p(R, R.el(q))
    return torus_from_coroot_data(alg2, alpha, s, b), b, report


def test_frobenius_search_a1():
    d, b, alg2 = alg_for("A1", 5, 2)
    al = d.positive_roots[0]
    t, bvec, rep = frobenius_torus(alg2, al, 6, seed=0)
    assert int(root_value_of_torus(alg2, t, al)[0]) == 6
    v = int(root_value_of_torus(alg2, t, d.neg(al))[0])
    assert v % 25 != 1   # q^{-1} != 1 mod p^2


def test_frobenius_search_a2_p13_exhaustive_oracle():
    d, b, alg2 = alg_for("A2", 13, 2)
    al = d.positive_roots[0]
    t, bvec, rep = frobenius_torus(alg2, al, 14, seed=1)
    pa = phi_alpha(b, al)
    assert len(pa) == 3
    for beta in pa:
        assert int(root_value_of_torus(alg2, t, beta)[0]) % (13 * 13) != 1
    # oracle: exhaustive scan of ker(alpha) = F_13 finds some solution,
    # and every reported solution satisfies the inequations
    p, c = 13, (14 - 1) // 13
    half = pow(2, p - 2, p)
    sols = []
    for b0 in range(p):
        for b1 in range(p):
            bb = (b0, b1)
            if sum(bb[i] * d.pair_simple_coroot(al, i) for i in range(2)) % p:
                continue
            ok = True
            for beta in pa:
                mco = d.pair_root_coroot(beta, al)
                if (sum(bb[i] * d.pair_simple_coroot(beta, i)
                        for i in range(2)) + c * mco % p * half) % p == 0:
                    ok = False
            if ok:
                sols.append(bb)
    assert sols and tuple(bvec) in sols


def test_frobenius_search_g2_p5_error_path():
    # tiny p may exhaust the hyperplane complement; either a verified
    # witness or the documented exhaustion error is acceptable
    d, b, alg2 = alg_for("G2", 5, 2)
    for al in d.roots:
        try:
            t, bvec, rep = frobenius_torus(alg2, al, 6, seed=0)
            for beta in phi_alpha(b, al):
                assert int(root_value_of_torus(alg2, t, beta)[0]) % 25 != 1
        except ChevGroupError as exc:
            assert "exhausted" in str(exc)


def test_levi_certificate_small_types():
    rng = np.random.default_rng(6)
    for name in ["A1", "A2", "B2"]:
        d, _ = root_datum(name)
        lb = levi_bound(d)
        assert levi_certificate_check(d, lb["n_prime"], lb["m_g"], 113, 25,
                                      rng) == 25
    # the torus is T(F_q): a q that is not a prime is refused
    with pytest.raises(ParameterError):
        levi_certificate_check(d, lb["n_prime"], lb["m_g"], 9, 1, rng)


def test_very_good_prime_guard():
    d, b = root_datum("A4")
    with pytest.raises(ChevGroupError):
        LieAlgebra(d, b, CoeffRing(5, 1, 1))  # p | n+1
    # past the exact int64 range: dim g (q - 1)^2 >= 2^63 over a ring
    # that is itself in range, (q - 1)^2 < 2^63 <= 8 (q - 1)^2 at q = 5^13
    d, b = root_datum("A1")
    LieAlgebra(d, b, CoeffRing(5, 13, 1))
    d, b = root_datum("A2")
    with pytest.raises(ParameterError, match="past the exact int64 range"):
        LieAlgebra(d, b, CoeffRing(5, 13, 1))


# -- root-group tables shared per Chevalley basis


RING_ORDER = [(5, 3, 1), (5, 4, 2), (7, 3, 1)] * 2


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_root_groups_over_rings_sharing_one_basis(name):
    # rings of different p, m and r read the same tables, built by the
    # first of them; the group laws must hold on every one
    d, b = root_datum(name)
    rng = np.random.default_rng(7)
    algs = []
    for p, m, r in RING_ORDER:
        alg = LieAlgebra(d, b, CoeffRing(p, m, r))
        algs.append(alg)
        R = alg.ring
        one = identity(alg)
        factors = []
        for al in d.roots:
            x, y = R.random(rng), R.random(rng)
            ux = u_alpha(alg, al, x)
            assert (ux @ u_alpha(alg, al, y)).eq(
                u_alpha(alg, al, R.add(x, y)))
            assert (ux @ u_alpha(alg, al, R.neg(x))).eq(one)
            factors.append((al, x))
        k = len(factors)
        for sub in (factors[: k // 2], factors[k // 2:][::-1], factors):
            g = root_product(alg, sub)
            assert (g @ g.inv()).eq(one) and g.inv().inv().eq(g)
    assert all(a.basis.ad is b.ad for a in algs)


def test_only_closed_form_inverses():
    # root_product carries its inverse; a product formed by @ and a
    # torus element have none, and inv refuses them
    d, b, alg = alg_for("A2", 7, 3)
    R = alg.ring
    rng = np.random.default_rng(11)
    one = identity(alg)
    al, be = d.positive_roots[0], d.positive_roots[1]
    x, y = R.random(rng), R.random(rng)
    uv = u_alpha(alg, al, x) @ u_alpha(alg, be, y)
    t = torus_elt(alg, [R.el(2), R.el(3)])
    for h in (uv, t):
        with pytest.raises(ChevGroupError, match="no closed-form inverse"):
            h.inv()
    g = root_product(alg, [(al, x), (be, y)])
    assert g.eq(uv)
    assert (g @ g.inv()).eq(one) and (g.inv() @ g).eq(one)
    assert g.inv().inv().eq(g)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["A2", "B2", "G2"]), st.sampled_from([1, 2]),
       st.lists(st.tuples(st.integers(0, 2), st.integers(1, 4)),
                max_size=6),
       st.integers(0, 2 ** 32 - 1))
def test_root_product_merges_runs_of_one_root(name, r, runs, seed):
    # runs of one root drawn from three roots, so neighbouring runs
    # often share their root (one longer run) or alternate
    d, b, alg = alg_for(name, 7, 3, r)
    R = alg.ring
    rng = np.random.default_rng(seed)
    pool = [d.roots[0], d.neg(d.roots[0]), d.roots[1]]
    factors = [(pool[i], R.random(rng)) for i, n in runs for _ in range(n)]
    want = R.mat_id(alg.dim)
    for beta, x in factors:
        want = R.mat_mul(want, u_alpha(alg, beta, x).mat)
    calls = []
    right = chevgroup.u_alpha
    chevgroup.u_alpha = lambda *args: calls.append(1) or right(*args)
    try:
        g = root_product(alg, factors)
    finally:
        chevgroup.u_alpha = right
    assert np.array_equal(g.mat, want)
    assert R.mat_eq(R.mat_mul(g.inv().mat, g.mat), R.mat_id(alg.dim))
    # one root element and its inverse per maximal run of one root
    merged = [beta for k, (beta, _) in enumerate(factors)
              if k == 0 or factors[k - 1][0] != beta]
    assert len(calls) == 2 * len(merged)


def test_basis_tables_are_integral_and_read_only():
    d, b = root_datum("G2")
    for p, m, r in RING_ORDER:
        alg = LieAlgebra(d, b, CoeffRing(p, m, r))
        u_alpha(alg, d.roots[0], alg.ring.el(1))
    assert not b.ad.flags.writeable
    assert b.ad is b.ad                                    # built once
    assert (b.ad < 0).any()      # kept over Z: entries not reduced mod q
    with pytest.raises(ValueError):
        b.ad[0, 0, 0] = 1
    negative = False
    for al in d.roots:
        i = b.root_basis_index(al)
        D = b.divided_powers(i)
        negative |= bool((D < 0).any())
        assert not D.flags.writeable
        assert D is b.divided_powers(i)
        # ad(X_alpha)^k / k! over the integers, k = 1 .. nilpotency - 1
        A = [[int(c) for c in row] for row in b.ad[i]]
        Ak = [[int(j == k) for k in range(d.dim)] for j in range(d.dim)]
        for k in range(1, len(D) + 2):
            Ak = [[sum(Ak[j][l] * A[l][c] for l in range(d.dim))
                   for c in range(d.dim)] for j in range(d.dim)]
            if k <= len(D):
                fk = math.factorial(k)
                assert all(v % fk == 0 for row in Ak for v in row)
                assert D[k - 1].tolist() == [[v // fk for v in row]
                                             for row in Ak]
            else:
                assert not any(v for row in Ak for v in row)
    assert negative


# -- the torus on the root lines: whole-table constructions against the
# scalar, root-by-root ones

TORUS_TYPES = ("A1", "A2", "B2", "G2", "A3", "B3")


def reference_torus_elt(alg, vals):
    """beta(t) = prod_i t_i^beta_i per root, one R.pow per coordinate."""
    R = alg.ring
    M = R.mat_id(alg.dim)
    for r in alg.datum.roots:
        c = R.one()
        for i, e in enumerate(r):
            if e:
                c = R.mul(c, R.pow(vals[i], e))
        k = alg.basis.root_basis_index(r)
        M[k, k] = c
    return M


def reference_coroot_torus(alg, alpha, s, b):
    """(1 + p b) alpha^vee(s) per root: s^<beta, alpha^vee> by R.pow
    times 1 + p sum_i b_i <beta, alpha_i^vee>."""
    R, d = alg.ring, alg.datum
    M = R.mat_id(alg.dim)
    for r in d.roots:
        val = R.pow(s, d.pair_root_coroot(r, alpha))
        bb = sum(int(b[i]) * d.pair_simple_coroot(r, i)
                 for i in range(d.rank)) % R.p
        k = alg.basis.root_basis_index(r)
        M[k, k] = R.mul(val, R.el(1 + R.p * bb))
    return M


def reference_ad_eigenvalues(alg, h):
    d = alg.datum
    out = [sum(d.pair_simple_coroot(r, i) * int(h[i, 0])
               for i in range(d.rank)) % alg.ring.q for r in d.roots]
    return sorted(out) + [0] * d.rank


def reference_frobenius_search(alg2, alpha, q, seed):
    """The scan of seeded candidates b one at a time; returns (b,
    report) or raises the exhaustion error."""
    R, d = alg2.ring, alg2.datum
    p = R.p
    c = (q - 1) // p % p
    half = pow(2, p - 2, p)

    def beta_of_b(beta, b):
        return sum(b[i] * d.pair_simple_coroot(beta, i)
                   for i in range(d.rank)) % p

    for k in np.random.default_rng(seed).permutation(p ** d.rank):
        b = [int(k) // p ** i % p for i in range(d.rank)]
        if beta_of_b(alpha, b):
            continue
        if all((beta_of_b(beta, b) + c * d.pair_root_coroot(beta, alpha)
                % p * half) % p for beta in phi_alpha(alg2.basis, alpha)):
            return b, {"seed": seed, "b": b, "alpha": list(alpha), "q": q}
    raise ChevGroupError("search space exhausted (p too small for %s)" %
                         (alpha,))


def test_torus_constructions_match_scalar_references():
    rng = np.random.default_rng(8)
    for name in TORUS_TYPES:
        for p in (5, 7, 13):
            for m in (2, 3, 4):
                for r in (1, 2, 3):
                    d, b, alg = alg_for(name, p, m, r)
                    R = alg.ring
                    vals = [R.random_unit(rng) for _ in range(d.rank)]
                    assert np.array_equal(torus_elt(alg, vals).mat,
                                          reference_torus_elt(alg, vals))
                    alpha = d.roots[int(rng.integers(len(d.roots)))]
                    s = R.random_unit(rng)
                    bvec = [int(x) for x in rng.integers(0, p, size=d.rank)]
                    for bb in (bvec, [0] * d.rank):
                        got = torus_from_coroot_data(alg, alpha, s, bb).mat
                        assert np.array_equal(
                            got, reference_coroot_torus(alg, alpha, s, bb))
                    h = alg.random_vec(rng)
                    assert ad_eigenvalues_on_roots(alg, h) == \
                        reference_ad_eigenvalues(alg, h)


def test_torus_root_values_negative_exponents_and_inverses(monkeypatch):
    rng = np.random.default_rng(9)
    for p, m, r in ((5, 2, 1), (7, 3, 2), (13, 4, 3), (5, 4, 3)):
        R = CoeffRing(p, m, r)
        calls = []
        inv = R.inv
        monkeypatch.setattr(R, "inv", lambda a: calls.append(1) or inv(a))
        for _ in range(10):
            k = int(rng.integers(1, 4))
            units = [R.random_unit(rng) for _ in range(k)]
            E = rng.integers(-4, 5, size=(int(rng.integers(1, 9)), k))
            calls.clear()
            got = torus_root_values(R, units, E)
            assert len(calls) == sum(bool((col < 0).any()) for col in E.T)
            for row, v in zip(E, got):
                want = R.one()
                for u, e in zip(units, row):
                    want = R.mul(want, R.pow(u, int(e)))
                assert np.array_equal(v, want)


def test_torus_constructors_invert_each_unit_once(monkeypatch):
    for name in ("A2", "G2", "B3"):
        d, b, alg = alg_for(name, 7, 3, 2)
        R = alg.ring
        calls = []
        inv = R.inv
        monkeypatch.setattr(R, "inv", lambda a: calls.append(1) or inv(a))
        torus_elt(alg, [R.el(2 + i) for i in range(d.rank)])
        assert len(calls) <= d.rank
        calls.clear()
        torus_from_coroot_data(alg, d.roots[0], R.el(3), [1] * d.rank)
        assert len(calls) <= 1


def test_frobenius_search_matches_scalar_scan():
    # G2 at p = 5 finds a witness for every root and seed; F4 at p = 5
    # exhausts the hyperplane complement
    cases = [(name, p, seeds) for name in ("A1", "A2", "B2", "G2")
             for p in (5, 7, 13) for seeds in [range(8)]]
    exhausted = 0
    for name, p, seeds in cases + [("F4", 5, range(2))]:
        d, b, alg2 = alg_for(name, p, 2)
        s = sqrt_one_mod_p(alg2.ring, alg2.ring.el(1 + p))
        for alpha in d.roots[:12]:
            for seed in seeds:
                try:
                    want = reference_frobenius_search(alg2, alpha, 1 + p, seed)
                except ChevGroupError as exc:
                    with pytest.raises(ChevGroupError) as got:
                        frobenius_torus(alg2, alpha, 1 + p, seed)
                    assert str(got.value) == str(exc)
                    exhausted += 1
                    continue
                t, bvec, rep = frobenius_torus(alg2, alpha, 1 + p, seed)
                assert (bvec, rep) == want
                assert np.array_equal(
                    t.mat, reference_coroot_torus(alg2, alpha, s, bvec))
    assert exhausted


# -- ad and u_alpha as one integer product


def top_precision(p, r, dim):
    """The largest m with GR(p^m, r) matrices of size dim exact in int64."""
    m = 1
    while int64_exact(p, m + 1, r, dim):
        m += 1
    return m


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_ad_and_u_alpha_match_the_einsum_reference(name, r):
    d, b = root_datum(name)
    alg = LieAlgebra(d, b, CoeffRing(5, top_precision(5, r, d.dim), r))
    R = alg.ring
    rng = np.random.default_rng(11)
    top = np.full((d.dim, r), R.q - 1, dtype=np.int64)
    sparse = alg.random_vec(rng)
    sparse[rng.random(d.dim) < 0.6] = 0
    for x in (alg.random_vec(rng), top, sparse, alg.root_vector(d.roots[0]),
              alg.zero_vec(), R.q + alg.random_vec(rng)):
        want = np.einsum("ijk,il->jkl", b.ad, x % R.q) % R.q
        got = alg.ad(x)
        assert got.dtype == np.int64 and np.array_equal(got, want)
    for al in d.roots:
        D = b.divided_powers(b.root_basis_index(al))
        for x in (R.random(rng), R.el([R.q - 1] * r), R.el(0), R.q - 1):
            xr = R.el(x)
            xk = [xr]
            while len(xk) < len(D):
                xk.append(R.mul(xk[-1], xr))
            want = (R.mat_id(d.dim)
                    + np.einsum("kij,kl->ijl", D, np.array(xk))) % R.q
            got = u_alpha(alg, al, x).mat
            assert got.dtype == np.int64 and np.array_equal(got, want)


# -- (1 + s ad x) v as a sum


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_perturb_is_the_product_with_one_plus_scale_ad(name, r):
    # for v = 1 mod p and s p = 0 mod q, v + s ad(x) is (1 + s ad x) v,
    # the reference product, up to the largest int64-exact q
    d, b = root_datum(name)
    p = 5
    alg = LieAlgebra(d, b, CoeffRing(p, top_precision(p, r, d.dim), r))
    R = alg.ring
    rng = np.random.default_rng(23)
    top = np.full((d.dim, r), R.q - 1, dtype=np.int64)
    edge = GroupElement(alg, R.mat_id(d.dim) + R.q - p)
    for v in (edge, identity(alg), GroupElement(alg, R.mat_id(d.dim) + p *
              rng.integers(0, R.q, size=(d.dim, d.dim, r)))):
        for s in (R.q // p, R.q - R.q // p, 0, R.q,
                  R.q // p * int(rng.integers(1, p))):
            for x in (alg.random_vec(rng), top, alg.root_vector(d.roots[0])):
                one_plus = R.add(R.mat_id(d.dim),
                                 R.scalar_mul(s, alg.ad(x)))
                want = GroupElement(alg, one_plus) @ v
                got = perturb(v, s, x)
                assert got.mat.dtype == np.int64
                assert np.array_equal(got.mat, want.mat)


def test_perturb_refuses_where_the_sum_is_not_the_product():
    d, b, alg = alg_for("B2", 7, 3)
    R = alg.ring
    x = alg.random_vec(np.random.default_rng(4))
    one = identity(alg)
    # s p != 0 mod q: the product keeps s p ad(x) w
    with pytest.raises(ChevGroupError, match="scale"):
        perturb(one, 7, x)
    # v != 1 mod p
    with pytest.raises(ChevGroupError, match="1 mod p"):
        perturb(u_alpha(alg, d.roots[0], R.el(1)), 49, x)
