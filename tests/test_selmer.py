import numpy as np
import pytest

from liftlab import localconds as lc
from liftlab import modp
from liftlab import selmer as sm
from liftlab.coeffring import CoeffRing
from liftlab.chevgroup import LieAlgebra, exp_hat, principal_sl2
from liftlab.galoismod import MatrixModule, decompose
from liftlab.rootdata import root_datum


def coeffs_of(image, vec, p):
    """The coefficient row x with x image = vec (a reference for the
    coefficient rows the annihilation loop carries)."""
    sol = modp.solve(image.T % p, vec % p, p)
    assert sol is not None, "class not in the global image"
    return sol


def test_fp_toy_model_is_hyperbolic_line():
    model = sm.build_synthetic_model(5, [sm.TrivialPlace(1)], seed=1)
    assert model.total_dim == 2
    assert model.A.shape[0] == 1 and model.B.shape[0] == 1
    J = model.J
    assert not np.any(model.A @ J @ model.B.T % 5)


def test_sl2_two_primes_half_dimensional():
    d, b = root_datum("A1")
    model = sm.build_synthetic_model(
        7, [sm.TrivialPlace(3), sm.TrivialPlace(3)], seed=2, datum=d, basis=b)
    assert model.A.shape[0] == 6 and model.total_dim == 12


def test_nonisotropic_prescription_rejected():
    phi = np.array([0, 1], dtype=np.int64)   # ramified
    psi = np.array([1, 0], dtype=np.int64)   # pairing = 1
    with pytest.raises(sm.SelmerError):
        sm.build_synthetic_model(5, [sm.TrivialPlace(1)], prescribed_w=[phi],
                                 prescribed_wstar=[psi], seed=3)


def reference_completion(p, target, A0, allowed, seed):
    """The greedy isotropic completion that eliminates the growing A
    once per candidate (row_space_contains)."""
    rng = np.random.default_rng(seed)
    A = A0
    while A.shape[0] < target:
        v = rng.integers(0, p, size=allowed.shape[0], dtype=np.int64) \
            @ allowed % p
        if np.any(v) and (not A.shape[0]
                          or not modp.row_space_contains(A, v, p)):
            A = np.vstack([A, v])
    return A


def test_isotropic_completion_matches_reference():
    # the same candidates are kept, so A is the same array, row for row
    places = [sm.TrivialPlace(2), sm.LedgerPlace(3, 1, 1), sm.TrivialPlace(2)]
    for p in (3, 7):
        J = sm.build_synthetic_model(p, places).J
        for seed in range(6):
            B0 = np.random.default_rng(seed).integers(0, p, size=(seed % 3, 11))
            allowed = modp.kernel_basis(B0 @ J.T % p, p) if seed % 3 \
                else np.eye(11, dtype=np.int64)
            A0 = allowed[: seed % 2]
            model = sm.build_synthetic_model(p, places, prescribed_w=A0,
                                             prescribed_wstar=B0, seed=seed)
            want = reference_completion(p, 6, A0, allowed, seed)
            assert np.array_equal(model.A, want)


def test_model_consistency_guard():
    model = sm.build_synthetic_model(5, [sm.TrivialPlace(1)], seed=1)
    assert model.A.shape == (1, 2)
    # a repeated row: dim A + dim ker(A J) exceeds the local total
    with pytest.raises(sm.ModelInconsistencyError, match="half-dimensional"):
        sm.SyntheticGlobalModel(5, model.places, np.vstack([model.A] * 2), [])
    # a real place that the ledger does not account for
    with pytest.raises(sm.ModelInconsistencyError, match="ledger"):
        sm.SyntheticGlobalModel(5, model.places, model.A, [1])


def test_models_past_the_int64_range_are_refused():
    # 2 (p-1)^2 < 2^63 <= 4 (p-1)^2: one more trivial place, as a
    # witness search would install, pushes the model past the bound
    p = 2147483647
    model = sm.build_synthetic_model(p, [sm.TrivialPlace(1)], seed=1)
    places = model.places + [sm.TrivialPlace(1)]
    with pytest.raises(sm.SelmerParameterError, match="int64"):
        sm.SyntheticGlobalModel(p, places, model.A, [])
    with pytest.raises(sm.SelmerParameterError, match="int64"):
        sm.build_synthetic_model(p, places)


def test_prescribed_dual_class_loss_detected(monkeypatch):
    # an ambient for A that ignores the prescribed W*-class (identity in
    # place of its annihilator) makes the completion lose that class
    real = modp.kernel_basis
    calls = []

    def first_call_identity(A, p):
        calls.append(1)
        if len(calls) == 1:
            return np.eye(np.shape(A)[1], dtype=np.int64)
        return real(A, p)

    psi = np.array([1, 0, 0, 0], dtype=np.int64)
    places = [sm.TrivialPlace(1), sm.TrivialPlace(1)]
    sm.build_synthetic_model(5, places, prescribed_wstar=[psi], seed=3)
    monkeypatch.setattr(modp, "kernel_basis", first_call_identity)
    with pytest.raises(sm.SelmerError, match="prescribed dual class lost"):
        sm.build_synthetic_model(5, places, prescribed_wstar=[psi], seed=3)


def test_embedded_dual_class_loss_detected(monkeypatch):
    d, b = root_datum("A1")
    model = sm.attach_adjoint_eta(
        sm.build_balanced_model(d, b, 7, selmer_rank=1, seed=20))
    system = sm.standard_balanced_system(model)
    rng = np.random.default_rng(10)
    sel, dual, _ = sm.selmer_compute(model, system)
    witness = sm.splitcase_search(model, sel[0], dual[0], rng)
    witness["phi_coeffs"] = coeffs_of(model.A, sel[0], model.p)
    witness["psi_coeffs"] = coeffs_of(model.B, dual[0], model.p)
    state = rng.bit_generator.state
    sm.extend_model_at_witness(model, system, witness, rng)
    # the reciprocity solve (the only one with a matrix right-hand side)
    # answers a shifted right-hand side, so the new classes no longer
    # pair to zero with the embedded dual classes
    real = modp.solve

    def shifted(A, rhs, p):
        if np.ndim(rhs) == 2:
            rhs = np.asarray(rhs) + 1
        return real(A, rhs, p)

    monkeypatch.setattr(modp, "solve", shifted)
    rng.bit_generator.state = state
    with pytest.raises(sm.ModelInconsistencyError,
                       match="embedded dual classes lost"):
        sm.extend_model_at_witness(model, system, witness, rng)


def test_selmer_extremes():
    d, b = root_datum("A1")
    model = sm.build_balanced_model(d, b, 7, seed=4)
    full = [np.eye(pl.h1, dtype=np.int64) for pl in model.places]
    sel, dual, rep = sm.selmer_compute(model, sm.SelmerSystem(model, full))
    assert rep["h1_L"] == model.A.shape[0]   # no condition: everything
    assert rep["h1_L_perp"] == 0             # dual condition empty
    zero = [np.zeros((0, pl.h1), dtype=np.int64) for pl in model.places]
    sel, dual, rep = sm.selmer_compute(model, sm.SelmerSystem(model, zero))
    assert rep["h1_L"] == 0                  # restriction is injective


def test_balanced_ledger():
    d, b = root_datum("A1")
    for seed in range(5):
        model = sm.build_balanced_model(d, b, 7, selmer_rank=seed % 3,
                                        seed=seed)
        system = sm.standard_balanced_system(model)
        sel, dual, rep = sm.selmer_compute(model, system)
        assert rep["balanced"] and rep["ledger"] == 0
        assert rep["h1_L"] >= seed % 3


def test_eta_build_and_guards():
    rng = np.random.default_rng(5)
    p = 7
    d, b = root_datum("A1")
    from liftlab.chevgroup import u_alpha
    R = CoeffRing(p, 1, 1)
    alg = LieAlgebra(d, b, R)
    al = d.positive_roots[0]
    mod = MatrixModule(p, [u_alpha(alg, al, R.el(1)).mat[..., 0],
                           u_alpha(alg, d.neg(al), R.el(1)).mat[..., 0]])
    dec = decompose(mod, rng)
    eta = sm.eta_build(mod, dec, {0: 2})
    assert np.array_equal(eta, 2 * np.eye(3, dtype=np.int64))
    triv = MatrixModule(p, [np.eye(2, dtype=np.int64)])
    with pytest.raises(sm.SelmerError):
        sm.eta_build(triv, decompose(triv, rng), {0: 1})   # multiplicity 2


def _root_space_projection(d, b):
    """The eta killing the Cartan of A1 and fixing both root spaces."""
    P = np.zeros((3, 3), dtype=np.int64)
    for root in d.roots:
        i = b.root_basis_index(root)
        P[i, i] = 1
    return P


def test_splitcase_witness_bullets():
    rng = np.random.default_rng(8)
    d, b = root_datum("A1")
    model = sm.build_balanced_model(d, b, 13, selmer_rank=1, seed=8)
    model = sm.attach_adjoint_eta(model)
    system = sm.standard_balanced_system(model)
    sel, dual, rep = sm.selmer_compute(model, system)
    assert rep["h1_L"] >= 1
    phi, psi = sel[0], dual[0]
    w = sm.splitcase_search(model, phi, psi, rng)
    p = 13
    # (1) torus values regular on Phi^alpha
    from liftlab.rootdata import phi_alpha
    for beta in phi_alpha(b, w["alpha"]):
        assert w["rho2_torus_values"][tuple(beta)] % (p * p) != 1
    # (2) phi-value outside the frame subspace
    alg1 = LieAlgebra(d, b, CoeffRing(p, 1, 1))
    bad = lc.frame_subspace(b, w["g_mat"], w["alpha"], p)
    assert not modp.row_space_contains(bad, w["phi_value"], p)
    # (3) psi pairing with Ad(g) g_alpha nonzero
    Xa = np.zeros(3, dtype=np.int64)
    Xa[alg1.basis.root_basis_index(w["alpha"])] = 1
    assert int(w["psi_value"] @ (w["g_mat"] @ Xa % p) % p) != 0
    # alpha(t) = c
    arow = [d.pair_simple_coroot(w["alpha"], i) for i in range(d.rank)]
    assert sum(a * t for a, t in zip(arow, w["t"])) % p == w["c"]


def test_splitcase_budget_exhaustion(monkeypatch):
    # with eta killing the Cartan no root functional survives at g = 1:
    # the default budget reaches a conjugate frame, a budget of one
    # frame does not
    d, b = root_datum("A1")
    model = sm.build_balanced_model(d, b, 7, selmer_rank=1, seed=9)
    model.eta = _root_space_projection(d, b)
    sel, dual, _ = sm.selmer_compute(model,
                                     sm.standard_balanced_system(model))
    sm.splitcase_search(model, sel[0], dual[0], np.random.default_rng(1))
    monkeypatch.setattr(sm, "SPLITCASE_BUDGET", 1)
    with pytest.raises(sm.SelmerError,
                       match="splitcase search exhausted SPLITCASE_BUDGET"):
        sm.splitcase_search(model, sel[0], dual[0], np.random.default_rng(1))


def test_splitcase_guards():
    rng = np.random.default_rng(9)
    d, b = root_datum("A1")
    model = sm.build_balanced_model(d, b, 7, selmer_rank=1, seed=9)
    model = sm.attach_adjoint_eta(model)
    z = np.zeros(model.total_dim, dtype=np.int64)
    with pytest.raises(sm.SelmerError):
        sm.splitcase_search(model, z, z + 1, rng)
    with pytest.raises(sm.SelmerError):
        sm.splitcase_search(model, z + 1, z, rng)


def test_annihilation_loop_strict_decrease():
    rng = np.random.default_rng(10)
    d, b = root_datum("A1")
    for seed in range(6):
        model = sm.build_balanced_model(d, b, 7, selmer_rank=1 + seed % 3,
                                        seed=20 + seed)
        model = sm.attach_adjoint_eta(model)
        system = sm.standard_balanced_system(model)
        trace, m2, s2 = sm.annihilation_loop(model, system, rng)
        assert trace[-1] == (0, 0)
        for a, bb in zip(trace, trace[1:]):
            assert bb == (a[0] - 1, a[1] - 1)


def test_annihilation_loop_step_budget(monkeypatch):
    # a Selmer rank of two takes two witness places
    d, b = root_datum("A1")
    model = sm.attach_adjoint_eta(sm.build_balanced_model(
        d, b, 7, selmer_rank=2, seed=3))
    system = sm.standard_balanced_system(model)
    monkeypatch.setattr(sm, "ANNIHILATION_MAX_STEPS", 2)
    trace, _, _ = sm.annihilation_loop(model, system,
                                       np.random.default_rng(0))
    assert trace == [(2, 2), (1, 1), (0, 0)]
    monkeypatch.setattr(sm, "ANNIHILATION_MAX_STEPS", 1)
    with pytest.raises(sm.SelmerError, match="exceeded max steps"):
        sm.annihilation_loop(model, system, np.random.default_rng(0))


def test_annihilation_loop_a2():
    rng = np.random.default_rng(11)
    d, b = root_datum("A2")
    model = sm.build_balanced_model(d, b, 5, n_trivial=1, selmer_rank=1,
                                    seed=30)
    model = sm.attach_adjoint_eta(model)
    trace, _, _ = sm.annihilation_loop(model,
                                       sm.standard_balanced_system(model),
                                       rng)
    assert trace[-1] == (0, 0)


def test_doubling_image_case():
    rng = np.random.default_rng(12)
    dm = sm.DoublingModel(5, 1, [2], [[1, 0]], [
        {"Y": np.array([0, 1], dtype=np.int64),
         "X": np.array([1], dtype=np.int64), "kind": "gens"}])
    res = sm.doubling_solve(dm, np.array([3, 0], dtype=np.int64), rng,
                            exhaustive=True)
    assert res["Q_empty"] and res["verified"]


def test_doubling_exhaustive_toy():
    # one deficient direction: a single (v, v') pair suffices, found by
    # exhausting the finite sampler space
    rng = np.random.default_rng(13)
    dm = sm.DoublingModel(5, 1, [2], [[1, 0]], [
        {"Y": np.array([0, 1], dtype=np.int64),
         "X": np.array([1], dtype=np.int64), "kind": "gens"}])
    res = sm.doubling_solve(dm, np.array([2, 1], dtype=np.int64), rng,
                            exhaustive=True)
    assert res["verified"] and not res["Q_empty"]
    assert res["pairs"] == 1 and res["exhaustive"]


def test_doubling_cokernel_family_and_cap(monkeypatch):
    rng = np.random.default_rng(14)
    dm = sm.DoublingModel(5, 1, [2], [[1, 0]], [
        {"Y": np.array([0, 1], dtype=np.int64),
         "X": np.array([1], dtype=np.int64), "kind": "gens"},
        {"Y": np.array([0, 2], dtype=np.int64),
         "X": np.array([1], dtype=np.int64), "kind": "cokernel"}])
    res = sm.doubling_solve(dm, np.array([2, 3], dtype=np.int64), rng,
                            exhaustive=False)
    assert res["verified"]
    monkeypatch.setattr(sm, "DOUBLING_CAP", 1)
    with pytest.raises(sm.SelmerError) as exc:
        sm.doubling_solve(dm, np.array([2, 3], dtype=np.int64), rng,
                          exhaustive=False)
    assert "frequencies" in str(exc.value)


def test_doubling_h_t_always_exact():
    rng = np.random.default_rng(15)
    for p in [5, 7]:
        dm = sm.DoublingModel(p, 1, [2], [[1, 0]], [
            {"Y": np.array([0, 1], dtype=np.int64),
             "X": np.array([1], dtype=np.int64), "kind": "gens"}])
        for trial in range(6):
            # any z reachable after the gens subtraction keeps one active
            # family, so the exhaustive space stays tiny
            z = np.array([int(rng.integers(0, p)), 1], dtype=np.int64)
            res = sm.doubling_solve(dm, z, rng, exhaustive=True)
            assert res["verified"]
            assert not np.any((res["h_T"] - z) % p)


def test_doubling_infeasible_model_detected():
    rng = np.random.default_rng(17)
    dm = sm.DoublingModel(5, 1, [2], [[1, 0]], [
        {"Y": np.array([0, 1], dtype=np.int64),
         "X": np.array([1], dtype=np.int64), "kind": "gens"}])
    with pytest.raises(sm.SelmerError):
        sm.doubling_solve(dm, np.array([2, 3], dtype=np.int64), rng,
                          exhaustive=True)


# 0.99 quantiles of the chi-square distribution by degrees of freedom
# (chi2.ppf(0.99, dof), computed once and pinned to full precision)
CHI2_99 = {3: 11.344866730144373, 5: 15.08627246938899}


def sampler_uniformity_histogram(sampler, rng, n):
    """Histogram of the c-coordinate over n draws."""
    counts = np.zeros(sampler.p - 1, dtype=np.int64)
    for _ in range(n):
        counts[sampler.draw(rng)["c"] - 1] += 1
    return counts


def chi_square_uniform(counts):
    n = counts.sum()
    k = len(counts)
    expected = n / k
    return float(((counts - expected) ** 2 / expected).sum()), k - 1


def assert_sampler_uniform(sampler, seed, want_dof):
    rng = np.random.default_rng(seed)
    counts = sampler_uniformity_histogram(sampler, rng, 10000)
    stat, dof = chi_square_uniform(counts)
    assert dof == want_dof
    # 99% confidence: do not reject uniformity
    assert stat < CHI2_99[dof]


def test_sampler_uniformity_chi2():
    assert_sampler_uniform(sm.ChebotarevSampler(7, 3, 2, 2, 3), 16, 5)


def test_sampler_uniformity_packaged_test():
    assert_sampler_uniform(sm.ChebotarevSampler(5, 3, 1, 1, 3), 18, 3)


def test_spec_json_deterministic():
    d, b = root_datum("A1")
    m1 = sm.build_balanced_model(d, b, 7, seed=42)
    m2 = sm.build_balanced_model(d, b, 7, seed=42)
    assert m1.spec_json() == m2.spec_json()


def test_trivial_primes_only_balance():
    # dim L_v = h0_v at every place and no archimedean/p terms:
    # the spec's balanced display in its purest form
    from liftlab.rootdata import root_datum
    d, b = root_datum("A1")
    model = sm.build_balanced_model(d, b, 7, n_trivial=3, n_ledger=0,
                                    selmer_rank=1, seed=50)
    system = sm.standard_balanced_system(model)
    sel, dual, rep = sm.selmer_compute(model, system)
    assert rep["balanced"]
    assert all(Lv.shape[0] == pl.h0
               for Lv, pl in zip(system.L, model.places))


# -- each subspace of an annihilation step computed once, checked against
# the from-scratch computations it replaces

STEP_CASES = [(name, p) for name in ("A1", "A2", "B2") for p in (5, 7, 13)]


def _loop_model(name, p, seed):
    d, b = root_datum(name)
    model = sm.attach_adjoint_eta(sm.build_balanced_model(
        d, b, p, n_trivial=1, selmer_rank=2, seed=seed))
    return model, sm.standard_balanced_system(model)


@pytest.mark.parametrize("name,p", STEP_CASES)
def test_derived_b_is_the_kernel_of_a_j(name, p):
    model, _ = _loop_model(name, p, seed=40)
    M = model.A @ model.J % p
    assert np.array_equal(model.B, modp.kernel_basis(M, p))
    ledger = (model.arch_h0, model.h0_glob, model.h0_glob_star)
    assert np.array_equal(
        sm.SyntheticGlobalModel(p, model.places, model.A, *ledger).B,
        model.B)


@pytest.mark.parametrize("name,p", STEP_CASES)
def test_loop_steps_match_from_scratch(name, p, monkeypatch):
    # at every step of the loop: the reused coefficient rows are the
    # solutions coeffs_of finds, the carried-over system equals one
    # eliminated from scratch, and the installed place's frame subspace
    # is the one localconds.frame_subspace builds
    real = sm.extend_model_at_witness
    steps = []

    def checked(model, system, witness, rng):
        sel, dual, _ = sm.selmer_compute(model, system)
        assert np.array_equal(witness["phi_coeffs"],
                              coeffs_of(model.A, sel[0], p))
        assert np.array_equal(witness["psi_coeffs"],
                              coeffs_of(model.B, dual[0], p))
        gm, alpha = witness["g_mat"], witness["alpha"]
        frame = lc.frame_subspace(model.basis, gm, alpha, p)
        assert np.array_equal(witness["frame_subspace"], frame)
        model2, system2 = real(model, system, witness, rng)
        Lq = sm.l_alpha_in_frame(model.basis, gm, alpha, p, frame)
        scratch = sm.SelmerSystem(model2, system.L + [Lq])
        for attr in ("L", "L_perp", "ann_L", "ann_L_perp"):
            got, want = getattr(system2, attr), getattr(scratch, attr)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), attr
        assert system2.model is model2
        steps.append(1)
        return model2, system2

    monkeypatch.setattr(sm, "extend_model_at_witness", checked)
    model, system = _loop_model(name, p, seed=41)
    trace, _, _ = sm.annihilation_loop(model, system,
                                       np.random.default_rng(42))
    assert trace[-1] == (0, 0) and len(steps) == len(trace) - 1 >= 2


def test_annihilation_loop_with_principal_eta():
    # eta acts by 1 on Sym^10 and by 2 on Sym^2 of G2's principal sl2,
    # so g^-1 eta g depends on the frame g and the witness search reads
    # its Cartan block; the installed witnesses pin that reading
    p = 13
    d, b = root_datum("G2")
    alg = LieAlgebra(d, b, CoeffRing(p, 1, 1))
    e, _, f = principal_sl2(alg)
    mod = MatrixModule(p, [exp_hat(alg, x).mat[..., 0] for x in (e, f)])
    dec = decompose(mod, np.random.default_rng(0))
    model = sm.build_balanced_model(d, b, p, selmer_rank=2, seed=0)
    model.eta = sm.eta_build(mod, dec,
                             {i: i + 1 for i in range(len(dec.isotypic))})
    assert np.any((model.eta - np.eye(d.dim, dtype=np.int64)) % p)
    trace, model2, _ = sm.annihilation_loop(
        model, sm.standard_balanced_system(model), np.random.default_rng(0))
    assert trace == [(2, 2), (1, 1), (0, 0)]
    got = [(pl.frame["alpha"], pl.frame["t"].tolist(), pl.frame["c"])
           for pl in model2.places[len(model.places):]]
    assert got == [((0, 1), [10, 1], 11), ((0, 1), [0, 5], 10)]


def test_big_pairing_built_once_per_model(monkeypatch):
    real = sm._big_pairing
    calls = []

    def counted(places, p):
        calls.append(len(places))
        return real(places, p)

    model, system = _loop_model("A2", 7, seed=45)
    monkeypatch.setattr(sm, "_big_pairing", counted)
    trace, model2, _ = sm.annihilation_loop(model, system,
                                            np.random.default_rng(46))
    # one new model per step, each with one more place than the last
    n = len(model.places)
    assert len(trace) >= 3
    assert calls == list(range(n + 1, len(model2.places) + 1))


def test_big_pairing_built_once_per_built_model(monkeypatch):
    real = sm._big_pairing
    calls = []
    monkeypatch.setattr(sm, "_big_pairing", lambda places, p: (
        calls.append(len(places)) or real(places, p)))
    d, b = root_datum("A1")
    model = sm.build_balanced_model(d, b, 7, selmer_rank=1, seed=0)
    assert calls == [len(model.places)]
    assert np.array_equal(model.J, real(model.places, 7))


def test_with_place_requires_an_extension():
    model, system = _loop_model("A1", 7, seed=43)
    other, _ = _loop_model("A1", 7, seed=44)
    Lq = np.zeros((0, 6), dtype=np.int64)
    ledger = {"arch_h0": model.arch_h0, "seed": 1}
    ext = sm.build_synthetic_model(
        7, model.places + [sm.TrivialPlace(3)], **ledger)
    got = system.with_place(ext, Lq)
    want = sm.SelmerSystem(ext, system.L + [Lq])
    for attr in ("L", "L_perp", "ann_L", "ann_L_perp"):
        assert all(np.array_equal(g, w) for g, w in
                   zip(getattr(got, attr), getattr(want, attr)))
    not_ext = sm.build_synthetic_model(
        7, other.places + [sm.TrivialPlace(3)], **ledger)
    for model2 in (model, not_ext):
        with pytest.raises(sm.SelmerError, match="extend"):
            system.with_place(model2, Lq)
