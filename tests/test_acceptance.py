"""Acceptance suite: one test per criterion, exact tolerances, with a
pass/fail line printed per criterion (run pytest -s to see them)."""

import time

import numpy as np

from liftlab import localconds as lc
from liftlab import oddness as od
from liftlab import selmer as sm
from liftlab.chevgroup import (image_growth_check, levi_certificate_check,
                               matrix_identity_check)
from liftlab.liftdriver import lifting_driver
from liftlab.rootdata import levi_bound, phi_alpha, root_datum


def _report(num, label, passed, detail=""):
    line = "criterion %2d [%s] %s %s" % (num, "PASS" if passed else "FAIL",
                                         label, detail)
    print(line)
    assert passed, line


def test_criterion_1_matrix_identity():
    t0 = time.time()
    rng = np.random.default_rng(101)
    fails = 0
    for p in (5, 7, 13):
        for m in (3, 4, 5):
            n = int(rng.integers(2, 9))
            fails += matrix_identity_check(p, m, n, 1000, rng)
    dt = time.time() - t0
    _report(1, "matrix identity, 9000 instances", fails == 0 and dt < 10,
            "(%d failures, %.1fs)" % (fails, dt))


def test_criterion_2_stability():
    t0 = time.time()
    checks = 0
    for name in ("A1", "A2", "B2", "G2"):
        datum, basis = root_datum(name)
        for p in (5, 7, 13):
            for m in (3, 4):
                model = lc.TameLocalModel(datum, basis, p, m, 1 + p)
                for alpha in datum.roots:
                    for variant, vv in (("unr2", "unr"), ("ram2", "ram")):
                        lift, _ = lc.frobenius_member(model, alpha, variant,
                                                      seed=2)
                        for beta in phi_alpha(basis, alpha):
                            lc.stability_check(lift, alpha, vv,
                                               {tuple(beta): 1})
                            checks += 1
                omodel = lc.OrdinaryLocalModel(
                    datum, basis, p, m, 1,
                    {"s": tuple([1 + p] * datum.rank),
                     "u1": tuple([1 + 2 * p] * datum.rank)})
                olift = lc.chi_torus_lift(omodel)
                for beta in datum.roots:
                    if not datum._is_positive(beta):
                        lc.ordinary_stability_check(olift, beta)
                        checks += 1
    dt = time.time() - t0
    _report(2, "stability conjugators, %d checks" % checks, dt < 60,
            "(%.1fs)" % dt)


def test_criterion_3_dimension_formulas():
    bad = []
    skipped = []
    for name in ("A1", "A2", "B2", "G2"):
        datum, basis = root_datum(name)
        for p in (5, 7, 13):
            model = lc.TameLocalModel(datum, basis, p, 3, 1 + p)
            for alpha in datum.roots:
                sp = lc.condition_spaces(model, alpha, "unr")
                if sp["l"].dim != datum.dim:
                    bad.append((name, p, alpha, "L"))
                # fixed multiplier: semisimple g_mu = g; with a central
                # augmentation the dimension is dim g_mu again
                aug = lc.augment_with_center(sp["l"], 1)
                res = lc.fixed_multiplier_restrict(aug, 1)
                if res.dim != datum.dim:
                    bad.append((name, p, alpha, "L_mu"))
            dim_n = len(datum.positive_roots)
            dim_b = datum.rank + dim_n
            for f in (1, 2, 3):
                chi = lc.find_regular_chi(datum, p, f)
                if chi is None:
                    # proven infeasible at this small p (e.g. G2, p = 5,
                    # f = 1: the root directions exhaust the lines of
                    # F_5^2), not a formula failure
                    skipped.append((name, p, f))
                    continue
                om = lc.OrdinaryLocalModel(datum, basis, p, 3, f, chi)
                osp = lc.ordinary_spaces(om)
                if osp["tan"].dim != dim_b + f * dim_n:
                    bad.append((name, p, f, "tan"))
                if osp["l"].dim != datum.dim + f * dim_n:
                    bad.append((name, p, f, "L_ord"))
    _report(3, "dimension formulas (exact)", not bad,
            "%s (regularity-infeasible combos skipped: %s)"
            % (bad[:3], skipped))


def test_criterion_4_local_duality():
    from liftlab import fieldlinalg as fl
    bad = []
    for name in ("A1", "A2", "B2", "G2"):
        datum, basis = root_datum(name)
        for p in (5, 7, 13):
            model = lc.TameLocalModel(datum, basis, p, 3, 1 + p)
            K = model.residue
            n = datum.dim
            full = lc.full_h1_basis(K, n)
            gram = lc.pairing_gram(K, full, full).reshape(2 * n, 2 * n, K.r)
            if fl.rank_f(K, gram) != 2 * n:
                bad.append((name, p, "gram"))
            for alpha in datum.roots:
                try:
                    # perp_space raises if the annihilator does not equal
                    # the explicit description (set equality of subspaces)
                    sp = lc.condition_spaces(model, alpha, "unr")
                    if sp["l_perp"].dim != datum.dim:
                        bad.append((name, p, alpha))
                except lc.LocalCondError as exc:
                    bad.append((name, p, alpha, str(exc)))
    _report(4, "local duality perfect + annihilator description", not bad,
            str(bad[:3]))


def test_criterion_5_f4_example():
    t0 = time.time()
    reps = od.exceptional_pipeline(11)
    a6, psl = reps
    ok = (a6.trace_order2 == -4 and psl.trace_order2 == -4
          and a6.fixed_dim == 24 and a6.dim_flag == 24
          and a6.multiplicities == [0, 0, 0, 1, 3, 0, 2]
          and not a6.multiplicity_free and not psl.multiplicity_free
          and 2 in psl.multiplicities)
    dt = time.time() - t0
    _report(5, "F4 example exactness", ok and dt < 5, "(%.2fs)" % dt)


def test_criterion_6_principal_sl2():
    t0 = time.time()
    rng = np.random.default_rng(106)
    bad = []
    for name in ("A1", "A2", "A3", "B2", "G2", "D4"):
        datum, _ = root_datum(name)
        want = sorted(2 * m for m in datum.exponents())
        for p in (13, 17):
            r = od.sym_adjoint_decomposition(name, p, rng)
            if r["sym_weights"] != want:
                bad.append((name, p))
            if name == "D4" and r["multiplicity_free"]:
                bad.append((name, p, "mult-free"))
            if name != "D4" and not r["multiplicity_free"]:
                bad.append((name, p, "not mult-free"))
    dt = time.time() - t0
    _report(6, "principal-SL2 decompositions", not bad and dt < 120,
            "(%.1fs) %s" % (dt, bad[:2]))


def test_criterion_7_smoothness():
    rng = np.random.default_rng(107)
    total = 0
    ok = 0
    for name in ("A1", "A2"):
        datum, basis = root_datum(name)
        alpha = datum.positive_roots[0]
        for p in (5, 7):
            for m in (2, 3):
                model = lc.TameLocalModel(datum, basis, p, m, 1 + p)
                for variant in ("plain", "unr2", "ram2"):
                    got = lc.smoothness_probe(model, alpha, variant, 100, rng)
                    ok += got
                    total += 100
    _report(7, "smoothness probes %d/%d lift" % (ok, total), ok == total)


def test_criterion_8_selmer_engine():
    t0 = time.time()
    rng = np.random.default_rng(108)
    # >= 20 random balanced models, ranks up to A2, local dims <= 16
    models_run = 0
    for name, n_trivial in (("A1", 2), ("A1", 1), ("A2", 1), ("A2", 2)):
        datum, basis = root_datum(name)
        for seed in range(5):
            p = (5, 7, 13)[seed % 3]
            model = sm.build_balanced_model(datum, basis, p,
                                            n_trivial=n_trivial,
                                            selmer_rank=1 + seed % 2,
                                            seed=300 + seed)
            model = sm.attach_adjoint_eta(model)
            system = sm.standard_balanced_system(model)
            trace, _, _ = sm.annihilation_loop(model, system, rng)
            assert trace[-1] == (0, 0)
            for a, b in zip(trace, trace[1:]):
                assert b == (a[0] - 1, a[1] - 1)
            models_run += 1
    assert models_run >= 20
    # doubling exact on toys with the exhaustive sampler
    for p in (5, 7):
        dm = sm.DoublingModel(p, 1, [2], [[1, 0]], [
            {"Y": np.array([0, 1], dtype=np.int64),
             "X": np.array([1], dtype=np.int64), "kind": "gens"}])
        for t in range(3):
            z = np.array([t % p, 1], dtype=np.int64)
            res = sm.doubling_solve(dm, z, rng, exhaustive=True)
            assert res["verified"]
    # the A1 end-to-end lifting run to precision 5
    reports, _ = lifting_driver("A1", 5, max_precision=5, seed=108)
    assert [r["level"] for r in reports] == [3, 4, 5]
    assert all(pl["membership"] for r in reports for pl in r["places"])
    dt = time.time() - t0
    _report(8, "synthetic Selmer engine (%d models + doubling + driver)"
            % models_run, dt < 600, "(%.1fs)" % dt)


def test_criterion_9_image_growth():
    rng = np.random.default_rng(109)
    fails = 0
    for p in (5, 7):
        for n in (2, 3, 4):
            nm = int(rng.integers(2, 6))
            fails += image_growth_check(p, n, nm, 500, rng)
    _report(9, "image growth, 3000 instances", fails == 0,
            "(%d failures)" % fails)


def test_criterion_10_levi_bound():
    rng = np.random.default_rng(110)
    bad = []
    for name in ("A1", "A2", "B2"):
        datum, _ = root_datum(name)
        lb = levi_bound(datum)
        got = 0
        for q in (7, 31, 109, 113):
            got += levi_certificate_check(datum, lb["n_prime"], lb["m_g"],
                                          q, 50, rng)
        if got != 200:
            bad.append((name, got))
    _report(10, "Levi bound certificates (>= 200 samples/type)", not bad,
            str(bad))
