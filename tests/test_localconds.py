import time
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab import chevgroup
from liftlab import fieldlinalg as fl
from liftlab import localconds as lc
from liftlab import modp
from liftlab.chevgroup import (GroupElement, GroupParameterError,
                               frobenius_b_search, identity, root_product,
                               torus_elt, torus_from_coroot_data, u_alpha)
from liftlab.coeffring import CoeffRing, CoeffRingError, ParameterError
from liftlab.rootdata import phi_alpha, root_datum

from conftest import reference_mat_inv


def tame(name, p=5, m=3, q=None):
    d, b = root_datum(name)
    return lc.TameLocalModel(d, b, p, m, q if q is not None else 1 + p)



def test_sqrt_q_is_computed_once_per_model(monkeypatch):
    calls = []
    sqrt = lc.sqrt_one_mod_p
    monkeypatch.setattr(lc, "sqrt_one_mod_p",
                        lambda R, q: calls.append(q) or sqrt(R, q))
    d, b = root_datum("A2")
    for r in (1, 2):
        model = lc.TameLocalModel(d, b, 7, 3, 8, r=r)
        al = model.datum.positive_roots[0]
        for seed in range(3):
            lc.frobenius_member(model, al, "ram2", seed=seed)
        R, s = model.ring, model.sqrt_q
        assert len(calls) == r
        assert R.eq(R.mul(s, s), R.el(8)) and R.eq(s, sqrt(R, 8))
        assert not s.flags.writeable

def test_at_precision_shares_one_model_per_place_and_precision(monkeypatch):
    monkeypatch.setattr(lc, "_MODELS", {})
    calls = []
    sqrt = lc.sqrt_one_mod_p
    monkeypatch.setattr(lc, "sqrt_one_mod_p",
                        lambda R, q: calls.append(q) or sqrt(R, q))
    d, b = root_datum("A2")
    model = lc.TameLocalModel(d, b, 7, 3, 8)
    up = model.at_precision(4)
    assert (up.ring.m, up.q, up.ring.r) == (4, 8, 1)
    assert model.at_precision(4) is up
    assert lc.TameLocalModel(d, b, 7, 2, 8).at_precision(4) is up
    for _ in range(3):
        model.at_precision(4).sqrt_q
    assert len(calls) == 1
    # another q or r is another model; a constructor builds its own
    others = [up, lc.TameLocalModel(d, b, 7, 3, 22).at_precision(4),
              lc.TameLocalModel(d, b, 7, 3, 8, r=2).at_precision(4),
              lc.TameLocalModel(d, b, 7, 4, 8)]
    assert len(set(map(id, others))) == 4

    chi = lc.find_regular_chi(d, 7, 1)
    om = lc.OrdinaryLocalModel(d, b, 7, 3, 1, chi)
    oup = om.at_precision(4)
    assert oup.chi == om.chi and oup.ring.m == 4
    # chi is compared by value, whatever its order
    reordered = dict(reversed(list(chi.items())))
    assert lc.OrdinaryLocalModel(d, b, 7, 2, 1, reordered) \
        .at_precision(4) is oup
    chi2 = dict(chi, u1=tuple(c + 7 for c in chi["u1"]))
    others = [oup, lc.OrdinaryLocalModel(d, b, 7, 3, 1, chi2).at_precision(4),
              lc.OrdinaryLocalModel(d, b, 7, 3, 1, chi, r=2).at_precision(4)]
    assert len(set(map(id, others))) == 3


def test_shared_model_tables_are_read_only(monkeypatch):
    monkeypatch.setattr(lc, "_MODELS", {})
    d, b = root_datum("B2")
    for r in (1, 2):
        up = lc.TameLocalModel(d, b, 7, 3, 8, r=r).at_precision(4)
        assert not up.sqrt_q.flags.writeable
        for alpha in up.datum.roots:
            assert not up.covee_sqrt_q(alpha).mat.flags.writeable
        with pytest.raises(ValueError):
            up.sqrt_q[0] = 0
        om = lc.OrdinaryLocalModel(d, b, 7, 3, 1, lc.find_regular_chi(d, 7, 1),
                                   r=r).at_precision(4)
        for g in om.generators:
            assert om.chi_tori[g] is om.chi_tori[g]
            assert not om.chi_tori[g].mat.flags.writeable
            assert om.chi_table(g) is om.chi_table(g)
            with pytest.raises(ValueError):
                om.chi_table(g, 49)[0] = 0


def test_q_conditions_enforced():
    d, b = root_datum("A1")
    with pytest.raises(lc.LocalCondError):
        lc.TameLocalModel(d, b, 5, 2, 7)      # q != 1 mod p
    with pytest.raises(lc.LocalCondError):
        lc.TameLocalModel(d, b, 5, 2, 26)     # q = 1 mod p^2


def test_membership_normal_forms():
    rng = np.random.default_rng(0)
    model = tame("A1", 5, 3, 6)
    al = model.datum.positive_roots[0]
    lift, _ = lc.sample_member(model, al, "plain", rng)
    assert lc.membership(lift, al, "plain")
    lift2, _ = lc.sample_member(model, al, "unr2", rng)
    assert lc.membership(lift2, al, "unr2")
    lift3, _ = lc.sample_member(model, al, "ram2", rng)
    assert lc.membership(lift3, al, "ram2")
    # frobenius-search member: tau = u_alpha(p), sigma = t_b
    lift4, rep = lc.frobenius_member(model, al, "ram2", seed=1)
    assert lc.membership(lift4, al, "ram2")


@pytest.mark.parametrize("name,p,m,q,r", [
    ("A1", 5, 3, 6, 1), ("A2", 7, 3, 8, 1), ("B2", 13, 4, 14, 1),
    ("G2", 7, 2, 57, 1), ("A2", 5, 3, 31, 2)])
def test_frobenius_member_matches_precision_two_search(name, p, m, q, r):
    # the reference path: the whole t_b built at precision 2, its b then
    # carried to the model's precision
    from liftlab.chevgroup import frobenius_b_search
    d, b = root_datum(name)
    model = lc.TameLocalModel(d, b, p, m, q, r=r)
    model2 = model.at_precision(2)
    for al in d.roots:
        for seed in range(2):
            lift, rep = lc.frobenius_member(model, al, "unr2", seed=seed)
            bb, want = frobenius_b_search(d, b, al, p, q % p ** 2, seed=seed)
            t2 = torus_from_coroot_data(model2.alg, al, model2.sqrt_q, bb)
            assert rep == want and rep["b"] == bb
            assert np.array_equal(lift.sigma.mat % p ** 2, t2.mat)
            sigma = torus_from_coroot_data(model.alg, al, model.sqrt_q, bb)
            assert np.array_equal(lift.sigma.mat, sigma.mat)


def test_sample_member_budget_exhaustion(monkeypatch):
    # A2 at p = 5, seed 7: the third unr2 draw is the first member
    model = tame("A2", 5, 3, 6)
    al = model.datum.positive_roots[0]
    lc.sample_member(model, al, "unr2", np.random.default_rng(7))
    monkeypatch.setattr(lc, "SAMPLE_MEMBER_TRIES", 2)
    with pytest.raises(lc.LocalCondError, match="could not sample a member"):
        lc.sample_member(model, al, "unr2", np.random.default_rng(7))


def test_membership_rejects_wrong_root_direction():
    model = tame("A2", 5, 3, 6)
    d = model.datum
    al = d.positive_roots[0]
    lift, _ = lc.frobenius_member(model, al, "ram2", seed=0)
    other = d.positive_roots[1]
    bad_tau = u_alpha(model.alg, other, model.ring.el(5))
    # tau in another root group: breaks either the relation or membership
    try:
        bad = lc.LocalLift(model, lift.sigma, bad_tau)
        assert not lc.membership(bad, al, "plain")
    except lc.InvalidLiftError:
        pass


def test_relation_violation_is_invalid_lift():
    model = tame("A1", 5, 3, 6)
    al = model.datum.positive_roots[0]
    lift, _ = lc.frobenius_member(model, al, "ram2", seed=0)
    bad_tau = lift.tau @ u_alpha(model.alg, model.datum.neg(al),
                                 model.ring.el(5))
    with pytest.raises(lc.InvalidLiftError):
        lc.LocalLift(model, lift.sigma, bad_tau)


def test_condition_space_dims_a1():
    model = tame("A1")
    al = model.datum.positive_roots[0]
    sp = lc.condition_spaces(model, al, "unr")
    # Cent_{sl2}(e) = span(e): linear-algebra oracle
    cent = lc.centralizer_of_root_space(model, al)
    assert cent.shape[0] == 1
    assert sp["tan"].dim == 2 and sp["s"].dim == 1
    assert sp["l"].dim == 3 and sp["l_perp"].dim == 3


def test_condition_space_dims_a2():
    model = tame("A2")
    al = model.datum.positive_roots[0]
    sp = lc.condition_spaces(model, al, "unr")
    assert sp["l"].dim == 8
    assert sp["s"].dim == len(phi_alpha(model.basis, al))


def test_s_dimension_is_phi_alpha_size():
    for name in ["A1", "A2", "B2", "G2"]:
        model = tame(name)
        for al in model.datum.roots:
            sp = lc.condition_spaces(model, al, "unr")
            assert sp["s"].dim == len(phi_alpha(model.basis, al))
            assert sp["tan"].dim + sp["s"].dim == model.datum.dim


def test_ram_spaces_and_degenerate_denominator():
    model = tame("A2", 7, 3, 8)
    al = model.datum.positive_roots[0]
    lift, _ = lc.frobenius_member(model, al, "ram2", seed=0)
    sp = lc.condition_spaces(model, al, "ram", rho2=lift.reduce(2))
    assert sp["l"].dim == 8
    # a lift with beta(rho_2(sigma)) = 1 mod p^2 on some beta in
    # Phi^alpha is rejected on entry to the ram construction
    R = model.ring
    s = model.sqrt_q
    sigma = torus_from_coroot_data(model.alg, al, s, [0] * model.datum.rank)
    tau = u_alpha(model.alg, al, R.el(7))
    bad = None
    for beta in phi_alpha(model.basis, al):
        i = model.alg.basis.root_basis_index(beta)
        if int(sigma.mat[i, i, 0]) % 49 == 1:
            bad = lc.LocalLift(model, sigma, tau)
            break
    if bad is not None:
        with pytest.raises(lc.LocalCondError):
            lc.condition_spaces(model, al, "ram", rho2=bad.reduce(2))


def test_duality_pairing_rules():
    model = tame("A1")
    K = model.residue
    n = model.datum.dim
    rng = np.random.default_rng(1)
    w = rng.integers(0, 5, size=(n, 1), dtype=np.int64)
    wstar = rng.integers(0, 5, size=(n, 1), dtype=np.int64)
    dot = K.el(0)
    for i in range(n):
        dot = K.add(dot, K.mul(w[i], wstar[i]))
    # rows are (c(sigma), c(tau)); phi and psi2 are unramified
    phi = np.concatenate([w, np.zeros_like(w)], axis=0)
    psi = np.concatenate([np.zeros_like(wstar), wstar], axis=0)
    phi2 = np.concatenate([np.zeros_like(w), w], axis=0)
    psi2 = np.concatenate([wstar, np.zeros_like(wstar)], axis=0)
    gram = lc.pairing_gram(K, np.stack([phi, phi2, np.zeros_like(phi)]),
                           np.stack([psi, psi2]))
    # phi unramified: inv = -<phi(sigma), psi(tau)>
    assert K.eq(gram[0, 0], K.neg(dot))
    # psi unramified: inv = +<phi(tau), psi(sigma)>
    assert K.eq(gram[1, 1], dot)
    # both unramified -> 0; zero arguments -> 0
    assert K.eq(gram[0, 1], K.el(0))
    assert K.eq(gram[2, 0], K.el(0))


def reference_duality_pairing(K, phi, psi):
    """The scalar loop pairing_gram's ring product replaced:
    <phi(tau), psi(sigma)> - <phi(sigma), psi(tau)>."""
    n = phi.shape[0] // 2
    acc = K.el(0)
    for i in range(n):
        acc = K.add(acc, K.mul(phi[n + i], psi[i]))
        acc = K.sub(acc, K.mul(phi[i], psi[n + i]))
    return acc


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([5, 7, 13]), st.integers(1, 3), st.sampled_from([1, 2, 3]),
       st.integers(1, 8), st.integers(0, 5), st.integers(0, 5),
       st.integers(0, 2 ** 32 - 1))
def test_pairing_gram_matches_scalar_loop(p, m, r, n, k1, k2, seed):
    K = CoeffRing(p, m, r)
    rng = np.random.default_rng(seed)
    b1 = rng.integers(0, K.q, size=(k1, 2 * n, r), dtype=np.int64)
    b2 = rng.integers(0, K.q, size=(k2, 2 * n, r), dtype=np.int64)
    gram = lc.pairing_gram(K, b1, b2)
    assert gram.shape == (k1, k2, r) and gram.dtype == np.int64
    for i in range(k1):
        for j in range(k2):
            want = reference_duality_pairing(K, b1[i], b2[j])
            assert np.array_equal(gram[i, j], want)


def test_duality_perfect():
    for name, p in [("A1", 5), ("A2", 7)]:
        model = tame(name, p)
        K = model.residue
        n = model.datum.dim
        full = lc.full_h1_basis(K, n)
        gram = lc.pairing_gram(K, full, full).reshape(2 * n, 2 * n, K.r)
        assert fl.rank_f(K, gram) == 2 * n


def test_perp_of_full_h1_is_zero():
    model = tame("A1")
    K = model.residue
    n = model.datum.dim
    space = lc.ConditionSpace("full", K, lc.full_h1_basis(K, n))
    assert lc.perp_space(model, space).dim == 0


def test_perp_of_empty_space_is_everything():
    for r in (1, 2):
        model = lc.TameLocalModel(*root_datum("A2"), 7, 2, 8, r=r)
        K = model.residue
        n = model.datum.dim
        empty = lc.ConditionSpace("empty", K, np.zeros((0, 2 * n, r)))
        perp = lc.perp_space(model, empty)
        assert perp.dim == 2 * n
        assert perp.same_space(lc.full_h1_basis(K, n))


def test_perp_matches_corollary_description():
    # computed annihilator of L^alpha equals the explicit description
    # (raises inside perp_space on mismatch); also dim = dim g
    for name, p in [("A1", 5), ("A2", 5), ("B2", 7), ("G2", 13)]:
        model = tame(name, p)
        for al in model.datum.roots:
            sp = lc.condition_spaces(model, al, "unr")
            assert sp["l_perp"].dim == model.datum.dim


def test_perp_of_unramified_is_unramified():
    model = tame("A1")
    K = model.residue
    n = model.datum.dim
    rows = np.zeros((n, 2 * n, 1), dtype=np.int64)
    for i in range(n):
        rows[i, i] = K.one()
    unr = lc.ConditionSpace("unr", K, rows)
    perp = lc.perp_space(model, unr)
    assert perp.dim == n
    for v in perp.basis:
        assert not np.any(v[n:])   # dual classes are unramified too


def test_stability_all_small_types():
    for name in ["A1", "A2", "B2", "G2"]:
        model = tame(name, 5, 3, 6)
        d, R = model.datum, model.ring
        al = d.positive_roots[0]
        for variant, vv in [("unr2", "unr"), ("ram2", "ram")]:
            lift, _ = lc.frobenius_member(model, al, variant, seed=0)
            for beta in phi_alpha(model.basis, al):
                g, c = lc.stability_check(lift, al, vv, {tuple(beta): 1})
                # every factor is u_beta(x p^(m-2)) with x a unit, so the
                # conjugator is 1 mod p^(m-2) and not mod p^(m-1)
                D = (g.mat - R.mat_id(model.alg.dim)) % R.q
                assert not np.any(D % R.p ** (R.m - 2))
                assert np.any(D % R.p ** (R.m - 1))
        # linear combination of basis cocycles
        lift, _ = lc.frobenius_member(model, al, "ram2", seed=0)
        pa = [tuple(x) for x in phi_alpha(model.basis, al)]
        combo = {pa[0]: 2}
        if len(pa) > 1:
            combo[pa[1]] = 3
        lc.stability_check(lift, al, "ram", combo)


def test_stability_zero_cocycle_gives_identity():
    model = tame("A1", 5, 3, 6)
    al = model.datum.positive_roots[0]
    lift, _ = lc.frobenius_member(model, al, "unr2", seed=0)
    g, c = lc.stability_check(lift, al, "unr", {})
    assert np.array_equal(g.mat, model.ring.mat_id(model.alg.dim))


def test_stability_needs_matching_variant():
    model = tame("A1", 5, 3, 6)
    al = model.datum.positive_roots[0]
    lift, _ = lc.frobenius_member(model, al, "unr2", seed=0)
    with pytest.raises(lc.InvalidLiftError):
        lc.stability_check(lift, al, "ram", {tuple(model.datum.neg(al)): 1})


def test_stability_m4():
    model = tame("A2", 7, 4, 8)
    al = model.datum.positive_roots[0]
    lift, _ = lc.frobenius_member(model, al, "ram2", seed=2)
    for beta in phi_alpha(model.basis, al):
        lc.stability_check(lift, al, "ram", {tuple(beta): 1})


def ordinary(name="A1", p=5, m=3, f=1, cu=2):
    d, b = root_datum(name)
    chi = {"s": tuple([1 + p] * d.rank)}
    for i in range(f):
        chi["u%d" % (i + 1)] = tuple([1 + (i + cu) * p] * d.rank)
    return lc.OrdinaryLocalModel(d, b, p, m, f, chi)


def test_ordinary_dims_a1():
    om = ordinary("A1", 5, 3, 1)
    sp = lc.ordinary_spaces(om)
    assert sp["tan"].dim == 3     # dim b + f dim n = 2 + 1
    assert sp["s"].dim == 1       # one per negative root
    assert sp["l"].dim == 4       # dim g + f dim n


def test_ordinary_dims_formula_f123():
    for name in ["A1", "A2", "B2"]:
        d, _ = root_datum(name)
        dim_n = len(d.positive_roots)
        dim_b = d.rank + dim_n
        for f in [1, 2, 3]:
            om = ordinary(name, 7, 3, f)
            sp = lc.ordinary_spaces(om)
            assert sp["tan"].dim == dim_b + f * dim_n
            assert sp["l"].dim == d.dim + f * dim_n


def test_ordinary_degenerate_chi_rejected():
    d, b = root_datum("A1")
    with pytest.raises(lc.LocalCondError):
        lc.OrdinaryLocalModel(d, b, 5, 3, 1,
                              {"s": (6,), "u1": (1,)}).check_regularity()


def test_ordinary_model_needs_precision_two():
    # its chi tables mod p^2 are read off the chi-torus at precision m
    d, b = root_datum("A1")
    with pytest.raises(lc.LocalCondParameterError, match="m >= 2"):
        lc.OrdinaryLocalModel(d, b, 5, 1, 1, {"s": (6,), "u1": (11,)})


def test_ordinary_extra_cocycles_need_chi_one_mod_p():
    # c_beta = (1 - beta(chi))/p X_beta needs beta(chi) = 1 mod p on
    # every generator; u1 = 2 gives beta(chi(u1)) = 2^-1 mod 25 at the
    # negative root of A1
    for name in ["A1", "A2"]:
        lc.ordinary_extra_cocycles(ordinary(name, 5, 3, 2))
    d, b = root_datum("A1")
    om = lc.OrdinaryLocalModel(d, b, 5, 3, 1, {"s": (6,), "u1": (2,)})
    with pytest.raises(lc.LocalCondError, match=r"chi\(u1\)\) is not 1 mod p"):
        lc.ordinary_extra_cocycles(om)


def test_ordinary_stability():
    om = ordinary("A2", 5, 3, 1)
    ol = lc.chi_torus_lift(om)
    d = om.datum
    for beta in d.roots:
        if not d._is_positive(beta):
            lc.ordinary_stability_check(ol, beta, lam=2)


def test_ordinary_membership():
    om = ordinary("A1", 5, 3, 1)
    ol = lc.chi_torus_lift(om)
    assert lc.membership_ordinary(ol)
    # breaking the Borel condition fails membership
    bad_vals = dict(ol.values)
    bad_vals["s"] = ol.values["s"] @ u_alpha(
        om.alg, om.datum.neg(om.datum.positive_roots[0]), om.ring.el(25))
    bad = lc.OrdinaryLift(om, bad_vals, check=False)
    assert not lc.membership_ordinary(bad)


def test_fixed_multiplier():
    model = tame("A2")
    al = model.datum.positive_roots[0]
    sp = lc.condition_spaces(model, al, "unr")
    # semisimple: identity operation
    assert lc.fixed_multiplier_restrict(sp["l"], 0) is sp["l"]
    # central augmentation: dims drop by exactly the a-contribution
    aug = lc.augment_with_center(sp["l"], 2)
    assert aug.dim == sp["l"].dim + 2
    res = lc.fixed_multiplier_restrict(aug, 2)
    assert res.dim == sp["l"].dim  # = dim g_mu


def test_smoothness_probes():
    rng = np.random.default_rng(5)
    for name, p in [("A1", 5), ("A1", 7), ("A2", 5), ("A2", 7)]:
        d, b = root_datum(name)
        al = d.positive_roots[0]
        for m in [2, 3]:
            model = lc.TameLocalModel(d, b, p, m, 1 + p)
            for variant in ["unr2", "ram2"]:
                n = lc.smoothness_probe(model, al, variant, 8, rng)
                assert n == 8


def test_smoothness_corrupt_path():
    # a probe's lifted member with tau pushed off U_alpha by a factor
    # u_{-alpha}(kp): the relation defect is u_{-alpha}((q^-1 - q) k p +
    # ...), of valuation 2 < m + 1, so some k breaks the relation, and
    # the lift is refused when it is built
    rng = np.random.default_rng(6)
    d, b = root_datum("A1")
    model = lc.TameLocalModel(d, b, 5, 3, 6)
    up_model = model.at_precision(4)
    al = d.positive_roots[0]
    for _ in range(3):
        lift, coords = lc.sample_member(model, al, "plain", rng)
        up = lc._assemble_member(up_model, al,
                                 lc.lift_coordinates(model, al, coords, rng))
        assert lc.membership(up, al, "plain")
        refused = 0
        for k in range(1, model.p):
            bad_tau = up.tau @ u_alpha(up_model.alg, d.neg(al),
                                       up_model.ring.el(k * model.p))
            try:
                lc.LocalLift(up_model, up.sigma, bad_tau)
            except lc.InvalidLiftError:
                refused += 1
        assert refused


def test_reduction_compatibility_of_spaces():
    # computing spaces from a mod-p^2 reduction matches the direct
    # computation at higher precision (they only depend on rho_2)
    model3 = tame("A2", 5, 3, 6)
    model2 = tame("A2", 5, 2, 6)
    al = model3.datum.positive_roots[0]
    lift3, _ = lc.frobenius_member(model3, al, "ram2", seed=4)
    sp3 = lc.condition_spaces(model3, al, "ram", rho2=lift3)
    sp2 = lc.condition_spaces(model2, al, "ram", rho2=lift3.reduce(2))
    assert sp3["l"].same_space(sp2["l"].basis)


def test_stability_m5():
    # the invariants hold through precision 5 as well
    model = tame("A1", 7, 5, 8)
    al = model.datum.positive_roots[0]
    for variant, vv in (("unr2", "unr"), ("ram2", "ram")):
        lift, _ = lc.frobenius_member(model, al, variant, seed=1)
        for beta in phi_alpha(model.basis, al):
            lc.stability_check(lift, al, vv, {tuple(beta): 1})


def test_conditions_over_unramified_extension():
    # r = 2: the residue field is F_25, so every condition space,
    # annihilator and Gram rank runs F_{p^r} elimination
    d, b = root_datum("A2")
    model = lc.TameLocalModel(d, b, 5, 3, 6, r=2)
    K = model.residue
    n = d.dim
    assert K.r == 2
    for al in d.roots:
        sp = lc.condition_spaces(model, al, "unr")
        assert sp["l"].dim == n and sp["l_perp"].dim == n
    full = lc.full_h1_basis(K, n)
    gram = lc.pairing_gram(K, full, full).reshape(2 * n, 2 * n, K.r)
    assert fl.rank_f(K, gram) == 2 * n
    al = d.positive_roots[0]
    lift, _ = lc.frobenius_member(model, al, "ram2", seed=0)
    beta = tuple(phi_alpha(b, al)[0])
    g, c = lc.stability_check(lift, al, "ram", {beta: 1})
    assert c.ramified and g.mat.shape == (n, n, 2)


def test_unramified_spaces_skip_the_regular_representation(monkeypatch):
    # every unr space is spanned by F_p rows (Chevalley structure
    # constants), so at r = 3 none is expanded to the regular
    # representation (9 times the cells); the ram cocycles
    # y/u_beta [X_beta, X_alpha] lie outside F_p and still are
    d, b = root_datum("A2")
    model = lc.TameLocalModel(d, b, 5, 3, 6, r=3)
    n = d.dim
    al = d.positive_roots[0]
    lift, _ = lc.sample_member(model, al, "ram2", np.random.default_rng(1))
    calls = []
    regular = CoeffRing.regular

    def counted(self, A):
        calls.append(A.shape)
        return regular(self, A)

    monkeypatch.setattr(CoeffRing, "regular", counted)
    for alpha in d.roots:
        sp = lc.condition_spaces(model, alpha, "unr")
        assert sp["l"].dim == n and sp["l_perp"].dim == n
    assert calls == []
    sp = lc.condition_spaces(model, al, "ram", rho2=lift)
    assert calls
    assert sp["l"].dim == n and sp["l_perp"].dim == n


# -- the inverse-free relation check and its invertibility guard


def reference_relation_holds(lift):
    """The tame relation as sigma tau sigma^-1 = tau^q, with the
    reference (test-side) inverse of sigma."""
    R = lift.model.ring
    sigma, tau = lift.sigma.mat, lift.tau.mat
    lhs = R.mat_mul(R.mat_mul(sigma, tau), reference_mat_inv(R, sigma))
    return R.mat_eq(lhs, R.mat_pow(tau, lift.model.q))


@lru_cache(maxsize=None)
def cached_tame(name, p, m):
    return tame(name, p, m)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["A1", "A2", "B2"]), st.sampled_from([5, 7, 13]),
       st.sampled_from([3, 4]), st.sampled_from(["plain", "unr2", "ram2"]),
       st.integers(0, 2 ** 32 - 1))
def test_relation_holds_matches_reference(name, p, m, variant, seed):
    model = cached_tame(name, p, m)
    rng = np.random.default_rng(seed)
    al = model.datum.positive_roots[0]
    lift, _ = lc.sample_member(model, al, variant, rng)
    R, alg = model.ring, model.alg
    neg = model.datum.neg(al)
    cases = [lift]
    # a u_{-alpha}(kp) factor on tau, or on sigma, breaks the relation
    # for some k and keeps it for others
    for k in range(1, p):
        bad = u_alpha(alg, neg, R.el(k * p))
        cases.append(lc.LocalLift(model, lift.sigma, lift.tau @ bad,
                                  check=False))
        cases.append(lc.LocalLift(model, lift.sigma @ bad, lift.tau,
                                  check=False))
    # sigma not = 1 mod p: a torus element with unit values
    t = torus_elt(alg, [R.random_unit(rng) for _ in range(model.datum.rank)])
    cases.append(lc.LocalLift(model, t, identity(alg), check=False))
    cases.append(lc.LocalLift(model, t, lift.tau, check=False))
    verdicts = [c.relation_holds() for c in cases]
    assert verdicts == [reference_relation_holds(c) for c in cases]
    assert verdicts[0] and verdicts[-2]
    assert not all(verdicts)


@pytest.mark.parametrize("name", ["A1", "B2"])
def test_sigma_singular_mod_p_is_refused(name):
    model = tame(name, 5, 3)
    R, alg = model.ring, model.alg
    n = alg.dim
    al = model.datum.positive_roots[0]
    tau = u_alpha(alg, al, R.el(5))
    zero = GroupElement(alg, np.zeros((n, n, 1), dtype=np.int64))
    # a unit everywhere except one diagonal entry divisible by p
    almost = R.mat_id(n)
    almost[0, 0, 0] = 5
    for sigma in (zero, GroupElement(alg, almost)):
        with pytest.raises(CoeffRingError, match="matrix not invertible mod p"):
            lc.LocalLift(model, sigma, tau)
        with pytest.raises(CoeffRingError, match="matrix not invertible mod p"):
            lc.LocalLift(model, sigma, identity(alg), check=False) \
                .relation_holds()


def test_invertibility_guard_paths(monkeypatch):
    # sigma = 1 mod p needs no elimination; any other sigma takes one
    # elimination mod p, of [sigma | 1]
    model = tame("A2", 7, 4, 8)
    R, alg = model.ring, model.alg
    calls = []
    rref = modp.rref

    def counted(A, p):
        calls.append(A.shape)
        return rref(A, p)

    monkeypatch.setattr(modp, "rref", counted)
    lift, _ = lc.frobenius_member(model, model.datum.positive_roots[0],
                                  "ram2", seed=0)
    assert lift.relation_holds() and calls == []
    t = torus_elt(alg, [R.el(2), R.el(3)])
    assert lc.LocalLift(model, t, identity(alg), check=False) \
        .relation_holds()
    assert calls == [(alg.dim, 2 * alg.dim)]


# -- falsification of the rewritten stability comparisons


def _spy_identity(monkeypatch):
    """Record each verdict of the one stability identity check."""
    seen, holds = [], lc.stability_holds
    monkeypatch.setattr(lc, "stability_holds", lambda values, c, g: (
        seen.append(holds(values, c, g)) or seen[-1]))
    return seen


def test_stability_check_catches_wrong_conjugator(monkeypatch):
    model = tame("A2", 5, 3, 6)
    al = model.datum.positive_roots[0]
    pa = [tuple(b) for b in phi_alpha(model.basis, al)]
    assert len(pa) >= 2
    seen = _spy_identity(monkeypatch)
    for variant, vv in (("unr2", "unr"), ("ram2", "ram")):
        lift, _ = lc.frobenius_member(model, al, variant, seed=0)
        lc.stability_check(lift, al, vv, {pa[0]: 1})
    assert seen == [True, True]
    right = lc.stability_conjugator
    wrongs = [
        # another lambda
        lambda alg, factors: right(
            alg, [(b, alg.ring.scalar_mul(2, x)) for b, x in factors]),
        # another root
        lambda alg, factors: right(alg, [(pa[1], x) for _, x in factors]),
    ]
    for wrong in wrongs:
        monkeypatch.setattr(lc, "stability_conjugator", wrong)
        for variant, vv in (("unr2", "unr"), ("ram2", "ram")):
            lift, _ = lc.frobenius_member(model, al, variant, seed=0)
            with pytest.raises(lc.LocalCondError, match="falsified"):
                lc.stability_check(lift, al, vv, {pa[0]: 1})
            assert seen[-1] is False


def test_ordinary_stability_check_catches_wrong_conjugator(monkeypatch):
    om = ordinary("A2", 5, 3, 1)
    ol = lc.chi_torus_lift(om)
    beta = om.datum.neg(om.datum.positive_roots[0])
    other = om.datum.neg(om.datum.positive_roots[1])
    seen = _spy_identity(monkeypatch)
    lc.ordinary_stability_check(ol, beta, lam=2)
    assert seen == [True]
    right = lc.stability_conjugator
    wrongs = [
        # g = u_beta(lambda' p^{m-2}) for a lambda' != lambda
        lambda alg, factors: right(
            alg, [(b, alg.ring.scalar_mul(3, x)) for b, x in factors]),
        # g on another negative root
        lambda alg, factors: right(alg, [(other, x) for _, x in factors]),
    ]
    for wrong in wrongs:
        monkeypatch.setattr(lc, "stability_conjugator", wrong)
        with pytest.raises(lc.LocalCondError, match="falsified"):
            lc.ordinary_stability_check(ol, beta, lam=2)
        assert seen[-1] is False


# -- torus values from the per-datum tables against the scalar,
# root-by-root constructions

def reference_beta_of_chi(values, beta, mod):
    val = 1
    for c, e in zip(values, beta):
        val = val * (pow(c % mod, e, mod) if e >= 0
                     else pow(pow(c, -1, mod), -e, mod)) % mod
    return val


def reference_find_regular_chi(datum, p, f, sigma_c=1):
    """The greedy cover, one candidate and one root at a time."""
    rank = datum.rank
    neg = [r for r in datum.roots if not datum._is_positive(r)]

    def covered(c, beta):
        return sum(c[i] * beta[i] for i in range(rank)) % p != 0

    cands = [[k // p ** i % p for i in range(rank)]
             for k in range(1, p ** rank)]
    remaining, chosen = list(neg), []
    for _ in range(f):
        best, bestcov = None, -1
        for c in cands:
            cov = sum(1 for b in remaining if covered(c, b))
            if cov > bestcov:
                best, bestcov = c, cov
        chosen.append(best)
        remaining = [b for b in remaining if not covered(best, b)]
        if not remaining:
            break
    if remaining:
        return None
    chosen += [chosen[0]] * (f - len(chosen))
    chi = {"s": tuple(1 + sigma_c * p for _ in range(rank))}
    for i, c in enumerate(chosen):
        chi["u%d" % (i + 1)] = tuple(1 + x * p for x in c)
    return chi


def test_torus_tables_match_scalar_references():
    rng = np.random.default_rng(11)
    for name in ("A1", "A2", "B2", "G2", "A3", "B3"):
        d, b = root_datum(name)
        for p in (5, 7, 13):
            for m in (2, 3, 4):
                for r in (1, 2, 3):
                    model = lc.TameLocalModel(d, b, p, m, 1 + p, r=r)
                    R = model.ring
                    alpha = d.roots[int(rng.integers(len(d.roots)))]
                    s = R.random_unit(rng)
                    want = R.mat_id(d.dim)
                    for rt in d.roots:
                        k = b.root_basis_index(rt)
                        want[k, k] = R.pow(s, d.pair_root_coroot(rt, alpha))
                    assert np.array_equal(torus_from_coroot_data(
                        model.alg, alpha, s, [0] * d.rank).mat, want)
                    chi = {g: tuple(1 + p * int(c) for c in
                                    rng.integers(0, p ** m, size=d.rank))
                           for g in ("s", "u1", "u2")}
                    om = lc.OrdinaryLocalModel(d, b, p, m, 2, chi, r=r)
                    for mod in (p * p, R.q):
                        for g in om.generators:
                            vals = [reference_beta_of_chi(chi[g], rt, mod)
                                    for rt in d.roots]
                            assert list(om.chi_table(g, mod)) == vals
                            M = lc._torus_matrix_from_chi(om, g, mod)
                            assert np.array_equal(
                                M[..., 0], np.diag([1] * d.rank + vals))
                            assert not M[..., 1:].any()


def test_covee_sqrt_q_is_built_once_per_root():
    model = tame("B2", 7, 3, 8)
    for alpha in model.datum.roots:
        t = model.covee_sqrt_q(alpha)
        assert model.covee_sqrt_q(alpha) is t and not t.mat.flags.writeable
        assert t.eq(torus_from_coroot_data(model.alg, alpha, model.sqrt_q,
                                           [0] * model.datum.rank))


def test_find_regular_chi_matches_greedy_reference():
    for name in ("A1", "A2", "B2", "G2", "A3", "B3"):
        d, _ = root_datum(name)
        for p in (5, 7, 13):
            for f in (1, 2, 3):
                assert lc.find_regular_chi(d, p, f) == \
                    reference_find_regular_chi(d, p, f)
    assert lc.find_regular_chi(root_datum("G2")[0], 5, 1) is None


def test_full_scans_past_the_cap_are_refused_before_they_run(monkeypatch):
    # E8 at p = 31: the arrays of all of F_31^8 would be terabytes
    d, b = root_datum("E8")
    alpha = d.positive_roots[0]
    start = time.perf_counter()
    with pytest.raises(lc.LocalCondParameterError, match="SCAN_MAX_CELLS"):
        lc.find_regular_chi(d, 31, 1)
    with pytest.raises(GroupParameterError, match="SCAN_MAX_CELLS"):
        frobenius_b_search(d, b, alpha, 31, 32)
    assert time.perf_counter() - start < 1
    # at the cap a scan runs, one cell past it is refused: A2 at p = 5
    # has 24 nonzero candidates times 3 negative roots, and 25 b's of
    # rank 2
    d, b = root_datum("A2")
    alpha = d.positive_roots[0]
    for cells, scan in ((72, lambda: lc.find_regular_chi(d, 5, 1)),
                        (50, lambda: frobenius_b_search(d, b, alpha, 5, 6))):
        monkeypatch.setattr(lc, "SCAN_MAX_CELLS", cells)
        monkeypatch.setattr(chevgroup, "SCAN_MAX_CELLS", cells)
        scan()
        monkeypatch.setattr(lc, "SCAN_MAX_CELLS", cells - 1)
        monkeypatch.setattr(chevgroup, "SCAN_MAX_CELLS", cells - 1)
        with pytest.raises(ParameterError, match="SCAN_MAX_CELLS"):
            scan()


# -- one relation check per lift


def _relation_calls(monkeypatch):
    """The lifts whose relation_holds runs, in call order."""
    calls = []
    holds = lc.LocalLift.relation_holds
    monkeypatch.setattr(lc.LocalLift, "relation_holds",
                        lambda self: calls.append(self) or holds(self))
    return calls


@pytest.mark.parametrize("variant", ["plain", "unr2", "ram2"])
def test_membership_rechecks_only_unverified_lifts(monkeypatch, variant):
    model = tame("A2", 7, 3, 8)
    al = model.datum.positive_roots[0]
    lift, _ = lc.sample_member(model, al, variant, np.random.default_rng(3))
    assert lift.verified
    calls = _relation_calls(monkeypatch)
    assert lc.membership(lift, al, variant) and calls == []
    copy = lc.LocalLift(model, lift.sigma, lift.tau, check=False)
    assert not copy.verified
    assert lc.membership(copy, al, variant) and calls == [copy]
    # conjugate() and reduce() build unverified lifts
    g = root_product(model.alg, [(model.datum.neg(al),
                                  model.ring.el(model.p))])
    conj = lift.conjugate(g)
    down = lift.reduce(2)
    assert not conj.verified and not down.verified
    assert lc.membership(conj, al, variant, conjugator=g.inv())
    assert lc.membership(down, al, variant)
    assert calls == [copy, conj, down]


def test_a_verified_lift_is_read_only():
    model = tame("B2", 5, 3)
    al = model.datum.positive_roots[0]
    lift, _ = lc.frobenius_member(model, al, "unr2", seed=0)
    for g in (lift.sigma, lift.tau):
        assert not g.mat.flags.writeable
        with pytest.raises(ValueError):
            g.mat[0, 0, 0] = 2
    # an unverified lift keeps the matrices it is given as they are
    alg = model.alg
    free = lc.LocalLift(model, GroupElement(alg, lift.sigma.mat),
                        GroupElement(alg, lift.tau.mat), check=False)
    assert free.sigma.mat.flags.writeable and free.tau.mat.flags.writeable


def test_membership_refuses_a_tampered_unverified_lift():
    model = tame("A1", 5, 3, 6)
    R, alg = model.ring, model.alg
    al = model.datum.positive_roots[0]
    lift, _ = lc.frobenius_member(model, al, "ram2", seed=0)
    free = lc.LocalLift(model, GroupElement(alg, lift.sigma.mat), lift.tau,
                        check=False)
    assert lc.membership(free, al, "ram2")
    # sigma u_{-alpha}(kp) breaks the relation for some k; written into
    # the unverified lift in place, membership must catch it
    for k in range(1, model.p):
        free.sigma.mat[...] = (lift.sigma @ u_alpha(
            alg, model.datum.neg(al), R.el(k * model.p))).mat
        if not reference_relation_holds(free):
            break
    else:
        pytest.fail("no u_{-alpha}(kp) factor breaks the relation")
    with pytest.raises(lc.InvalidLiftError, match="tame relation violated"):
        lc.membership(free, al, "ram2")


@pytest.mark.parametrize("variant", ["unr", "ram", "bogus"])
@pytest.mark.parametrize("call", ["sample_member", "smoothness_probe",
                                  "frobenius_member", "membership"])
def test_unknown_tame_variants_are_refused(call, variant):
    # a variant outside plain, unr2 and ram2 is refused before any
    # member is built or tested: "unr" once gave a ram2 member, and
    # membership returned False for a plain member
    model = tame("A2", 5, 3)
    al = model.datum.positive_roots[0]
    rng = np.random.default_rng(0)
    member, _ = lc.sample_member(model, al, "plain", rng)
    broken = lc.LocalLift(model, member.sigma, member.tau @ u_alpha(
        model.alg, model.datum.neg(al), model.ring.el(model.p)), check=False)
    calls = {
        "sample_member": [lambda: lc.sample_member(model, al, variant, rng)],
        "smoothness_probe": [
            lambda: lc.smoothness_probe(model, al, variant, 1, rng)],
        "frobenius_member": [
            lambda: lc.frobenius_member(model, al, variant, seed=0)],
        # a plain member, and a lift whose relation fails: the variant
        # is refused before the relation is checked
        "membership": [lambda: lc.membership(member, al, variant),
                       lambda: lc.membership(broken, al, variant)],
    }[call]
    for fn in calls:
        with pytest.raises(lc.LocalCondParameterError, match="tame variant"):
            fn()
