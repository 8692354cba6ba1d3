"""Inductive lifting driver on a synthetic global model.

The model keeps one honest local lift per explicit place (two trivial
primes, one ordinary place at p) plus the global Poitou-Tate stage with
vanished Selmer and dual Selmer.  Per precision level the driver:

  1. lifts each place's normal-form member by its coordinates (random
     top digits in the free coordinates),
  2. perturbs by an arbitrary cocycle (modeling an arbitrary global
     lift), measures the per-place discrepancy,
  3. solves for the unique global class hitting the discrepancies
     modulo the local condition spaces (the Selmer-group Poitou-Tate
     isomorphism, which is a bijection here because both Selmer groups
     vanish),
  4. corrects, and re-verifies: the corrected lift equals an explicit
     conjugate of a new normal-form member, the tame relation holds
     exactly, and the membership tests pass at every place.

Trivial residual action means cocycles are plain generator tuples and
no coboundary bookkeeping is needed.
"""

from __future__ import annotations

import numpy as np

from . import localconds as lc
from . import modp
from . import selmer as sm
from .coeffring import CoeffRing
from .chevgroup import GroupElement, LieAlgebra, one_plus, root_product
from .rootdata import root_datum


class DriverError(ValueError):
    pass


def _ad_solve_matrix(alg1):
    """Matrix of x -> vec(ad x) over F_p, for recovering x from 1 + p^m ad(x)."""
    n = alg1.dim
    return alg1._ad_int.reshape(n, n * n).T % alg1.ring.p


class TamePlaceState:
    """Normal-form member coordinates + accumulated conjugator factors."""

    def __init__(self, datum, basis, p, q, alpha, variant, rng, m=2):
        self.datum, self.basis = datum, basis
        self.p, self.q = p, q
        self.alpha = tuple(alpha)
        self.variant = variant          # "unr2" or "ram2"
        self.model = lc.TameLocalModel(datum, basis, p, m, q)
        lift, coords = lc.sample_member(self.model, self.alpha,
                                        variant, rng)
        self.coords = coords
        self.conj_factors = []          # (beta, integer value)
        self.m = m

    def member(self, m=None):
        model = self.model if m is None else self.model.at_precision(m)
        return lc._assemble_member(model, self.alpha, self.coords), model

    def conjugator(self, model):
        """prod u_beta(val) over conj_factors, carrying its inverse."""
        R = model.ring
        return root_product(model.alg, [(beta, R.el(val % R.q))
                                        for beta, val in self.conj_factors])

    def current_lift(self, m=None):
        member, model = self.member(m)
        g = self.conjugator(model)
        return member.conjugate(g), model

    def spaces(self):
        if self.variant == "unr2":
            return lc.condition_spaces(self.model, self.alpha, "unr")
        lift2, _ = self.member(2)
        return lc.condition_spaces(self.model, self.alpha, "ram",
                                   rho2=lift2)

    def lift_coords(self, rng, bump):
        j0 = self.alpha.index(1)
        newq = self.model.ring.q * self.p

        def up(x):
            return (np.asarray(x, dtype=np.int64)
                    + bump * rng.integers(0, self.p)) % newq

        self.coords = {
            "tvals": [v % newq if i == j0 else up(v)
                      for i, v in enumerate(self.coords["tvals"])],
            "cent": [(b, up(x)) for b, x in self.coords["cent"]],
            "xa": up(self.coords["xa"]),
            "xtau": up(self.coords["xtau"]),
        }

    def apply_tangent(self, tan_sigma, tan_tau, scale):
        """Merge exp(scale * tan) into the normal-form coordinates."""
        d = self.datum
        R = CoeffRing(self.p, self.m, 1)
        coords = self.coords
        # Cartan part scales the torus values; root parts join the
        # centralizer factors; the g_alpha parts shift xa and xtau
        tvals = list(coords["tvals"])
        for j in range(d.rank):
            pair = 0
            for i in range(d.rank):
                pair += int(tan_sigma[i]) * d.cartan[i][j]
            tvals[j] = (np.asarray(tvals[j]) * (1 + scale * pair)) % R.q
        cent = list(coords["cent"])
        alg_index = {r: self.basis.root_basis_index(r) for r in d.roots}
        xa = np.asarray(coords["xa"]) % R.q
        for r in d.roots:
            c = int(tan_sigma[alg_index[r]]) % self.p
            if c == 0:
                continue
            if tuple(r) == self.alpha:
                xa = (xa + scale * c) % R.q
            else:
                cent.append((tuple(r), np.array([scale * c % R.q],
                                                dtype=np.int64)))
        xtau = (np.asarray(coords["xtau"])
                + scale * int(tan_tau[alg_index[self.alpha]])) % R.q
        # tau-part of the tangent lies in g_alpha only
        self.coords = {"tvals": tvals, "cent": cent, "xa": xa, "xtau": xtau}


class OrdinaryPlaceState:
    """Normal-form ordinary lift as matrices; canonical-entry lifting
    with a diagonal chi-correction keeps the normal form at each level."""

    def __init__(self, datum, basis, p, chi, f=1, m=2):
        self.datum, self.basis = datum, basis
        self.p, self.f = p, f
        self.model = lc.OrdinaryLocalModel(datum, basis, p, m, f, chi)
        self.model.check_regularity()
        vals = {g: GroupElement(self.model.alg,
                                lc._torus_matrix_from_chi(self.model, g,
                                                          self.model.ring.q),
                                "torus")
                for g in self.model.generators}
        self.lift = lc.OrdinaryLift(self.model, vals)
        self.conj_factors = []
        self.m = m

    def spaces(self):
        return lc.ordinary_spaces(self.model)

    def conjugator(self, model):
        """prod u_beta(val) over conj_factors, carrying its inverse."""
        R = model.ring
        return root_product(model.alg, [(beta, R.el(val % R.q))
                                        for beta, val in self.conj_factors])

    def lift_normal_form(self):
        """Canonical-entry lift to precision m+1, with the inertia
        diagonals corrected back to chi."""
        model2 = self.model.at_precision(self.m + 1)
        R2 = model2.ring
        out = {}
        for gname in self.model.generators:
            M = self.lift.values[gname].mat % self.model.ring.q
            el = GroupElement(model2.alg, M % R2.q, "lift")
            # torus correction on the diagonal: target chi mod p^(m+1)
            tvals = []
            for i in range(self.datum.rank):
                simple = tuple(1 if k == i else 0
                               for k in range(self.datum.rank))
                ii = model2.alg.basis.root_basis_index(simple)
                want = model2.beta_of_chi(gname, simple)
                have = int(el.mat[ii, ii, 0]) % R2.q
                ratio = want * pow(have, -1, R2.q) % R2.q
                tvals.append(R2.el(ratio))
            from .chevgroup import torus_elt
            out[gname] = torus_elt(model2.alg, tvals) @ el
        self.model = model2
        self.m += 1
        self.lift = lc.OrdinaryLift(model2, out)
        if not lc.membership_ordinary(self.lift):
            raise DriverError("ordinary coordinate lift left the set (bug)")


class EndToEndModel:
    """Two trivial primes + one ordinary place over a simple type, with
    the matching global stage (vanished Selmer and dual Selmer)."""

    def __init__(self, cartan_type="A1", p=5, seed=0, max_seed_tries=50):
        datum, basis = root_datum(cartan_type)
        self.datum, self.basis = datum, basis
        self.p = p
        rng = np.random.default_rng(seed)
        w = datum.dim
        dim_n = len(datum.positive_roots)
        alpha = datum.positive_roots[0]
        self.places = [
            TamePlaceState(datum, basis, p, 1 + p, alpha, "unr2", rng),
            TamePlaceState(datum, basis, p, 1 + 2 * p, alpha, "ram2", rng),
            OrdinaryPlaceState(datum, basis, p,
                               {"s": tuple([1 + p] * datum.rank),
                                "u1": tuple([1 + 2 * p] * datum.rank)}),
        ]
        self.f = 1
        gplaces = [sm.TrivialPlace(w), sm.TrivialPlace(w),
                   sm.LedgerPlace((1 + self.f) * w, w, 0,
                                  dim_l=w + self.f * dim_n,
                                  kind="ordinary-explicit")]
        self.local_bases = self._local_condition_bases()
        for s in range(max_seed_tries):
            model = sm.build_synthetic_model(p, gplaces, arch_h0=[dim_n],
                                             seed=seed + 1000 + s,
                                             datum=datum, basis=basis)
            system = sm.SelmerSystem(model, self.local_bases)
            sel, dual, rep = sm.selmer_compute(model, system)
            if rep["h1_L"] == 0 and rep["h1_L_perp"] == 0:
                self.global_model = model
                self.system = system
                break
        else:
            raise DriverError("could not reach vanished Selmer groups")
        self._setup_correction_solver()

    def _local_condition_bases(self):
        """Raw (unechelonized) L bases: [tangent rows; extra rows], so a
        solved coefficient vector splits positionally."""
        out = []
        self.raw_bases = []
        self.space_meta = []
        for st in self.places[:2]:
            sp = st.spaces()
            tan = sp["tan"].basis[..., 0]
            ex = sp["s"].basis[..., 0]
            raw = np.vstack([tan, ex]) % self.p
            if modp.rank(raw, self.p) != raw.shape[0]:
                raise DriverError("L basis degenerate (bug)")
            if raw.shape[0] != st.datum.dim:
                raise DriverError("sabotaged L_v: dim %d != dim g %d"
                                  % (raw.shape[0], st.datum.dim))
            out.append(raw)
            self.raw_bases.append(raw)
            self.space_meta.append({"ntan": tan.shape[0],
                                    "betas": [tuple(bb) for bb in
                                              _phi_alpha_list(st)]})
        sp = self.places[2].spaces()
        tan = sp["tan"].basis[..., 0]
        ex = sp["s"].basis[..., 0]
        raw = np.vstack([tan, ex]) % self.p
        want = self.datum.dim + 1 * len(self.datum.positive_roots)
        if raw.shape[0] != want:
            raise DriverError("sabotaged ordinary L_v: dim %d != %d"
                              % (raw.shape[0], want))
        out.append(raw)
        self.raw_bases.append(raw)
        self.space_meta.append({"ntan": tan.shape[0],
                                "betas": [tuple(r) for r in self.datum.roots
                                          if not self.datum._is_positive(r)]})
        return out

    def _setup_correction_solver(self):
        p = self.p
        model = self.global_model
        rows = []
        for (a, b), Lv in zip(model.offsets(), self.local_bases):
            ann = modp.kernel_basis(np.atleast_2d(Lv) % p, p)
            block = model.A[:, a:b]
            rows.append(block @ ann.T % p)
        Q = np.concatenate(rows, axis=1).T % p   # (sum quotients) x dimA
        if Q.shape[0] != Q.shape[1] or modp.rank(Q, p) != Q.shape[0]:
            raise DriverError("Poitou-Tate solve matrix not bijective "
                              "(Selmer groups not vanished?)")
        self.Q = Q
        self.anns = []
        for Lv in self.local_bases:
            self.anns.append(modp.kernel_basis(np.atleast_2d(Lv) % p, p))

    # -- one level step

    def step(self, rng):
        """Lift every place from p^m to p^(m+1) with a global correction;
        returns the per-level report."""
        p = self.p
        m = self.places[0].m
        scale = p ** m
        # 1. coordinate lifts of the normal forms
        for st in self.places[:2]:
            st.lift_coords(rng, bump=p ** m)
            st.model = st.model.at_precision(m + 1)
            st.m += 1
        self.places[2].lift_normal_form()
        ref = []
        models = []
        for st in self.places[:2]:
            lift, model = st.current_lift()
            ref.append(lift)
            models.append(model)
        gord = self.places[2].conjugator(self.places[2].model)
        ordlift = self.places[2].lift.conjugate(gord)
        # 2. arbitrary perturbation + discrepancy
        zs = []
        tampered = []
        w = self.datum.dim
        for k, st in enumerate(self.places[:2]):
            z = rng.integers(0, p, size=2 * w, dtype=np.int64)
            zs.append(z)
            tam_sigma = one_plus(models[k].alg, scale,
                                 _vec(models[k], z[:w])) @ ref[k].sigma
            tam_tau = one_plus(models[k].alg, scale,
                               _vec(models[k], z[w:])) @ ref[k].tau
            tampered.append(lc.LocalLift(models[k], tam_sigma, tam_tau))
        z = rng.integers(0, p, size=(1 + self.f) * w, dtype=np.int64)
        zs.append(z)
        omodel = self.places[2].model
        tvals = {}
        for slot, gname in enumerate(omodel.generators):
            tvals[gname] = one_plus(omodel.alg, scale,
                                    _vec(omodel, z[slot * w:(slot + 1) * w])) \
                @ ordlift.values[gname]
        tampered.append(lc.OrdinaryLift(omodel, tvals, check=False))
        # 3. measured discrepancies must reproduce z (cross-check), then
        # solve for the global class
        targets = []
        for k in range(3):
            d = self._measure(tampered[k], ref[k] if k < 2 else ordlift,
                              models[k] if k < 2 else omodel, scale)
            if np.any((d - zs[k]) % p):
                raise DriverError("discrepancy measurement failed (bug)")
            targets.append(self.anns[k] @ d % p)
        rhs = np.concatenate(targets) % p
        coeffs = modp.solve(self.Q, rhs, p)
        if coeffs is None:
            raise DriverError("global correction solve failed")
        X = coeffs @ self.global_model.A % p
        # 4. correct and verify place by place
        level_report = {"level": m + 1, "places": []}
        offs = self.global_model.offsets()
        for k, st in enumerate(self.places[:2]):
            a, b = offs[k]
            ell = (zs[k] - X[a:b]) % p
            rep = self._correct_tame(st, ref[k], models[k], ell, scale)
            level_report["places"].append(rep)
        a, b = offs[2]
        ell = (zs[2] - X[a:b]) % p
        rep = self._correct_ordinary(self.places[2], ordlift, omodel, ell,
                                     scale)
        level_report["places"].append(rep)
        return level_report

    def _measure(self, tampered, ref, model, scale):
        """Recover the cocycle z from tampered = (1 + scale ad(z)) ref."""
        p = self.p
        alg1 = LieAlgebra(self.datum, self.basis, CoeffRing(p, 1, 1))
        admat = _ad_solve_matrix(alg1)
        out = []
        pairs = []
        if isinstance(tampered, lc.LocalLift):
            pairs = [(tampered.sigma, ref.sigma), (tampered.tau, ref.tau)]
        else:
            pairs = [(tampered.values[g], ref.values[g])
                     for g in model.generators]
        for t, r in pairs:
            # t r^-1 - 1 = (t - r) r^-1 with t - r divisible by scale, so
            # its top digit needs r^-1 only mod p
            D = (t.mat - r.mat)[..., 0] % (scale * p)
            if np.any(D % scale):
                raise DriverError("discrepancy not at top order (bug)")
            rinv = model.ring.mat_inv_modp(r.mat)[..., 0]
            Dv = (D // scale @ rinv % p).reshape(-1)
            x = modp.solve(admat, Dv, p)
            if x is None:
                raise DriverError("discrepancy not an ad image (bug)")
            out.append(x)
        return np.concatenate(out) % p

    def _correct_tame(self, st, ref, model, ell, scale):
        """Apply the in-L_v correction exp(p^m ell) to the reference lift
        and verify it equals the conjugated new normal form."""
        p = self.p
        w = self.datum.dim
        idx = self.places.index(st)
        raw = self.raw_bases[idx]
        coeff = modp.solve(raw.T % p, ell, p)
        if coeff is None:
            raise DriverError("correction not in L_v at place %d" % idx)
        meta = self.space_meta[idx]
        ntan = meta["ntan"]
        tan = coeff[:ntan] @ raw[:ntan] % p
        lam = {beta: int(c) for beta, c in
               zip(meta["betas"], coeff[ntan:]) if int(c) % p}
        corrected = lc.LocalLift(
            model,
            one_plus(model.alg, scale, _vec(model, ell[:w])) @ ref.sigma,
            one_plus(model.alg, scale, _vec(model, ell[w:])) @ ref.tau)
        # stability conjugator factors from the member's mod-p^2 data
        member, _ = st.member()
        if lam:
            sig2 = member.sigma.mat % (p * p)
            for beta, c in lam.items():
                if st.variant == "unr2" or st.variant == "ram2":
                    u = lc._beta_unit_quotient(model, sig2, beta)
                    zinv = pow(int(u[0]), p - 2, p)
                else:
                    zinv = 1
                st.conj_factors.append(
                    (tuple(beta),
                     int(zinv * c % p) * p ** (model.ring.m - 2)))
        st.apply_tangent(tan[:w], tan[w:], scale)
        newmember, _ = st.member()
        if not lc.membership(newmember, st.alpha, st.variant):
            raise DriverError("new normal form failed membership")
        # corrected = G newmember G^-1, checked as G newmember = corrected G
        G = st.conjugator(model)
        if not ((G @ newmember.sigma).eq(corrected.sigma @ G)
                and (G @ newmember.tau).eq(corrected.tau @ G)):
            raise DriverError("corrected lift does not match the conjugated "
                              "normal form (falsified)")
        if not lc.membership(corrected, st.alpha, st.variant,
                             conjugator=G.inv()):
            raise DriverError("corrected lift failed membership at place %d"
                              % idx)
        return {"variant": st.variant, "level": model.ring.m,
                "s_part": {str(k): v for k, v in lam.items()},
                "relation": True, "membership": True}

    def _correct_ordinary(self, st, ref, model, ell, scale):
        p = self.p
        w = self.datum.dim
        raw = self.raw_bases[2]
        coeff = modp.solve(raw.T % p, ell, p)
        if coeff is None:
            raise DriverError("correction not in L_v at the ordinary place")
        meta = self.space_meta[2]
        ntan = meta["ntan"]
        tanrow = coeff[:ntan] @ raw[:ntan] % p
        lam = {beta: int(c) for beta, c in
               zip(meta["betas"], coeff[ntan:]) if int(c) % p}
        corrected = {}
        for slot, gname in enumerate(model.generators):
            corrected[gname] = one_plus(
                model.alg, scale,
                _vec(model, ell[slot * w:(slot + 1) * w])) \
                @ ref.values[gname]
        corrected = lc.OrdinaryLift(model, corrected, check=False)
        # fold the tangent into the stored normal form; the extra part
        # becomes new conjugator factors
        newvals = {}
        for slot, gname in enumerate(model.generators):
            newvals[gname] = one_plus(
                model.alg, scale,
                _vec(model, tanrow[slot * w:(slot + 1) * w])) \
                @ st.lift.values[gname]
        st.lift = lc.OrdinaryLift(model, newvals, check=False)
        if lam:
            for beta, c in lam.items():
                st.conj_factors.append(
                    (tuple(beta), int(c) * p ** (model.ring.m - 2)))
        if not lc.membership_ordinary(st.lift):
            raise DriverError("ordinary normal form failed membership")
        G = st.conjugator(model)
        for gname in model.generators:
            if not (G @ st.lift.values[gname]).eq(corrected.values[gname] @ G):
                raise DriverError("ordinary corrected lift does not match "
                                  "the conjugated normal form (falsified)")
        if not lc.membership_ordinary(corrected, conjugator=G.inv()):
            raise DriverError("ordinary corrected lift failed membership")
        return {"variant": "ordinary", "level": model.ring.m,
                "s_part": {str(k): v for k, v in lam.items()},
                "membership": True}


def _vec(model, coords):
    v = np.zeros((model.alg.dim, model.ring.r), dtype=np.int64)
    v[:, 0] = np.asarray(coords, dtype=np.int64) % model.ring.q
    return v


def _phi_alpha_list(st):
    from .rootdata import phi_alpha
    return [tuple(b) for b in phi_alpha(st.basis, st.alpha)]


def lifting_driver(cartan_type="A1", p=5, max_precision=5, seed=0):
    """Run the inductive lifting loop to the requested precision;
    returns the per-level reports.  Every local membership and the tame
    relation are verified exactly at each level."""
    e2e = EndToEndModel(cartan_type, p, seed)
    rng = np.random.default_rng(seed + 5)
    reports = []
    while e2e.places[0].m < max_precision:
        reports.append(e2e.step(rng))
    return reports, e2e
