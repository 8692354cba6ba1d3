import hashlib
import json

import numpy as np
import pytest

from liftlab import liftdriver as ld
from liftlab import localconds as lc
from liftlab import modp
from liftlab import selmer as sm
from liftlab.chevgroup import u_alpha
from liftlab.coeffring import ParameterError
from liftlab.liftdriver import (DriverError, EndToEndModel,
                                OrdinaryPlaceState, lifting_driver)
from liftlab.rootdata import root_datum


def test_driver_m3():
    reports, e2e = lifting_driver("A1", p=5, max_precision=3, seed=0)
    assert [r["level"] for r in reports] == [3]
    assert all(pl["membership"] for r in reports for pl in r["places"])


def test_driver_m5_all_levels_verified():
    reports, e2e = lifting_driver("A1", p=5, max_precision=5, seed=1)
    assert [r["level"] for r in reports] == [3, 4, 5]
    for r in reports:
        variants = [pl["variant"] for pl in r["places"]]
        assert variants == ["unr2", "ram2", "ordinary"]
        assert all(pl["membership"] for pl in r["places"])


def test_driver_uses_extra_cocycles():
    reports, _ = lifting_driver("A1", p=5, max_precision=5, seed=3)
    assert any(pl["s_part"] for r in reports for pl in r["places"])


def test_driver_other_seed_and_p():
    reports, _ = lifting_driver("A1", p=7, max_precision=4, seed=2)
    assert [r["level"] for r in reports] == [3, 4]


def test_sabotaged_condition_dimension_detected():
    e2e = EndToEndModel("A1", 5, seed=0)
    # corrupting a local condition's dimension breaks the setup solver
    # (the Poitou-Tate correction matrix stops being bijective)
    bases = [e2e.places[0].L[:-1]] + [st.L for st in e2e.places[1:]]
    e2e.system = sm.SelmerSystem(e2e.global_model, bases)
    with pytest.raises(DriverError, match="not bijective"):
        e2e._setup_correction_solver()


def test_places_carry_their_global_place_and_condition():
    # each driver place is one record: the global model's places are the
    # states' own, in order, each Selmer condition spans the state's L
    # basis, and each place states dim L_v: dim g at a trivial prime and
    # dim g + f dim n at p
    e2e = EndToEndModel("A1", 5, seed=0)
    p, d = e2e.p, e2e.datum
    assert all(a is st.place for a, st in
               zip(e2e.global_model.places, e2e.places, strict=True))
    assert [st.place.kind for st in e2e.places] == \
        ["trivial", "trivial", "ordinary-explicit"]
    for st, Lv in zip(e2e.places, e2e.system.L, strict=True):
        assert np.array_equal(Lv, modp.echelon_basis(st.L, p))
    f = e2e.places[2].model.f
    dims = [d.dim, d.dim, d.dim + f * len(d.positive_roots)]
    assert [st.place.dim_l for st in e2e.places] == dims
    assert [len(st.L) for st in e2e.places] == dims


@pytest.mark.parametrize("place", [0, 1, 2])
def test_wrong_conjugator_in_correction_is_caught(monkeypatch, place):
    # one correction step compares G newmember with corrected G; a
    # conjugator off by u_beta(p^{m-2}) on a negative root must fail it
    e2e = EndToEndModel("A1", 5, seed=0)
    target = e2e.places[place]
    right = EndToEndModel._correct
    beta = e2e.datum.neg(e2e.datum.positive_roots[0])

    def patched(self, k, *args):
        st = self.places[k]
        if st is target:
            good, R = st.conjugator, st.model.ring
            st.conjugator = lambda: good() @ u_alpha(
                st.model.alg, beta, R.el(R.p ** (R.m - 2)))
        try:
            return right(self, k, *args)
        finally:
            vars(st).pop("conjugator", None)

    monkeypatch.setattr(EndToEndModel, "_correct", patched)
    with pytest.raises(DriverError, match="does not match"):
        e2e.step(np.random.default_rng(5))


def test_a_step_makes_no_elimination(monkeypatch):
    # the matrices a step solves against are factored when the model is
    # built, and the references are = 1 mod p, so a step eliminates
    # nothing
    e2e = EndToEndModel("A1", 5, seed=0)
    calls = []
    right = modp.rref
    monkeypatch.setattr(modp, "rref",
                        lambda *args: calls.append(1) or right(*args))
    rep = e2e.step(np.random.default_rng(5))
    assert rep["level"] == 3 and calls == []


def test_a_step_checks_each_tame_relation_once(monkeypatch):
    # at each trivial prime a step verifies four lifts, each once: the
    # lifted normal form, the perturbed and the corrected reference,
    # and the normal form with the tangent folded in; its one membership
    # test, of the new normal form, reads a verified lift and checks no
    # relation (the corrected lift's verdict is its conjugate's)
    e2e = EndToEndModel("A1", 5, seed=0)
    checked, tested = [], []
    holds, member = lc.LocalLift.relation_holds, lc.membership
    monkeypatch.setattr(lc.LocalLift, "relation_holds",
                        lambda self: checked.append(self) or holds(self))
    monkeypatch.setattr(lc, "membership", lambda lift, *a, **k: (
        tested.append(lift) or member(lift, *a, **k)))
    for level in (3, 4):
        del checked[:], tested[:]
        assert e2e.step(np.random.default_rng(level))["level"] == level
        assert len(checked) == 8 and len(set(map(id, checked))) == 8
        assert len(tested) == 2 and all(t.verified for t in tested)


def _conjugated_membership(st, lift, conjugator):
    """The membership test a step ran on the corrected lift before its
    verdict was read off the conjugate: the lift conjugated by the
    given element, then tested in the place's frame."""
    if isinstance(st, OrdinaryPlaceState):
        return lc.membership_ordinary(lift, conjugator=conjugator)
    return lc.membership(lift, st.alpha, st.variant, conjugator=conjugator)


def test_the_corrected_lift_is_the_conjugated_normal_form(monkeypatch):
    # at every place and levels 3-5: G^-1 corrected G is the new normal
    # form byte for byte, and the conjugated membership test the step
    # no longer runs passes
    e2e = EndToEndModel("A1", 5, seed=0)
    right, seen = EndToEndModel._correct, []

    def oracle(self, k, ref, ell, scale):
        rep = right(self, k, ref, ell, scale)
        st = self.places[k]
        corrected = ld._perturb(st.model, ref, scale, ell)
        G = st.conjugator()
        Ginv = G.inv()
        for v, c in zip(st.values, corrected, strict=True):
            assert np.array_equal((Ginv @ c @ G).mat, v.mat)
        assert _conjugated_membership(st, st.check_relation(corrected), Ginv)
        seen.append((st.m, k))
        return rep

    monkeypatch.setattr(EndToEndModel, "_correct", oracle)
    rng = np.random.default_rng(5)
    for level in (3, 4, 5):
        assert e2e.step(rng)["level"] == level
    assert seen == [(m, k) for m in (3, 4, 5) for k in range(3)]


# SHA-256 of the sorted-key JSON of lifting_driver's A1 reports at
# (p, max_precision, seed) the README does not run; any change to their
# bytes must be deliberate.
DRIVER_SHA256 = {
    (7, 6, 2):
        "13dca974d61f526b58b27552af71a33b3c601b993277b614a42465dc17e3b6b2",
    (13, 5, 3):
        "1f6f72515e68b0be34a3c12866b0979bdbaf3009b1c2f8289ac8006df6a308a2",
}


@pytest.mark.parametrize("p, top, seed", sorted(DRIVER_SHA256))
def test_driver_reports_are_pinned(p, top, seed):
    reports, _ = lifting_driver("A1", p=p, max_precision=top, seed=seed)
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        DRIVER_SHA256[p, top, seed]


def test_models_at_one_p_share_their_level_models(monkeypatch):
    # an empty cache of shared models, so the first run builds its own
    monkeypatch.setattr(lc, "_MODELS", {})

    def digest(reports):
        text = json.dumps(reports, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    cold, first = lifting_driver("A1", p=7, max_precision=6, seed=2)
    _, other = lifting_driver("A1", p=7, max_precision=6, seed=0)
    warm, again = lifting_driver("A1", p=7, max_precision=6, seed=2)
    for e2e in (other, again):
        assert all(a.model is b.model
                   for a, b in zip(first.places, e2e.places))
    assert digest(cold) == digest(warm) == DRIVER_SHA256[7, 6, 2]


def test_ordinary_extra_rows_are_the_cocycles(monkeypatch):
    # A2 at p = 5: the driver's extra row for beta = -a1-a2 is c_beta,
    # while the echelonized S basis of ordinary_spaces holds c_beta/2;
    # lambda read against c_beta/2 breaks the stability identity
    datum, basis = root_datum("A2")
    p, n = 5, datum.dim
    chi = {"s": (1 + p, 1 + p), "u1": (1 + 2 * p, 1 + 2 * p)}
    st = OrdinaryPlaceState(datum, basis, p, chi)
    beta = (-1, -1)
    ib, k = basis.root_basis_index(beta), datum.root_index[beta]
    c_beta = np.zeros(2 * n, dtype=np.int64)
    for slot, g in enumerate(st.model.generators):
        c_beta[slot * n + ib] = (1 - st.model.chi_table(g, p * p)[k]) // p % p
    row = st.extra.rows[st.extra.betas.index(beta), :, 0]
    assert np.array_equal(row, c_beta) and c_beta[ib] == 2
    echelon = lc.ordinary_spaces(st.model)["s"].basis[..., 0]
    half = echelon[echelon[:, ib] != 0]
    assert np.array_equal(half, [c_beta * pow(2, -1, p) % p])

    olift = lc.chi_torus_lift(st.model.at_precision(3))
    # the cocycle c_beta is 1 c_beta, or 2 (c_beta/2)
    lc.ordinary_stability_check(olift, beta, lam=1)
    right = lc.ordinary_extra_cocycles

    def halved(model, betas=None):
        extra = right(model, betas)
        return extra._replace(rows=extra.rows * pow(2, -1, p) % p)

    monkeypatch.setattr(lc, "ordinary_extra_cocycles", halved)
    with pytest.raises(lc.LocalCondError, match="falsified"):
        lc.ordinary_stability_check(olift, beta, lam=2)


@pytest.mark.parametrize("cartan_type", ["A2", "B2", "G2"])
def test_types_beyond_a1_are_refused(cartan_type):
    with pytest.raises(ParameterError, match="A1 only"):
        EndToEndModel(cartan_type, 7)


@pytest.mark.parametrize("p, top", [(5, 14), (7, 12), (13, 10)])
def test_precision_past_int64_is_refused_up_front(monkeypatch, p, top):
    def no_model(*args):
        raise AssertionError("model built")

    monkeypatch.setattr(EndToEndModel, "__init__", no_model)
    with pytest.raises(ParameterError, match="int64"):
        lifting_driver("A1", p=p, max_precision=top)


@pytest.mark.parametrize("top", [1, 2])
def test_precision_below_first_level_is_refused_up_front(monkeypatch, top):
    def no_model(*args):
        raise AssertionError("model built")

    monkeypatch.setattr(EndToEndModel, "__init__", no_model)
    with pytest.raises(ParameterError, match="below the first level"):
        lifting_driver("A1", p=5, max_precision=top)


def test_model_seed_budget_exhaustion(monkeypatch):
    # seed 0 at p = 5 reaches vanished Selmer groups at its second model
    EndToEndModel("A1", 5, seed=0)
    monkeypatch.setattr(ld, "MODEL_SEED_TRIES", 1)
    with pytest.raises(DriverError,
                       match="could not reach vanished Selmer groups"):
        EndToEndModel("A1", 5, seed=0)
