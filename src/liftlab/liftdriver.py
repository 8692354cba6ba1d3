"""Inductive lifting driver on a synthetic global model.

The model keeps one honest local lift per explicit place (two trivial
primes, one ordinary place at p) plus the global Poitou-Tate stage with
vanished Selmer and dual Selmer.  A place's lift is the list of its
generators' values in its local model's order: (sigma, tau) at a
trivial prime, (s, u_1, ..., u_f) at the ordinary place.  Per precision
level the driver runs each step once over all places:

  1. lifts each place's normal form one level (random top digits in
     the free coordinates at a trivial prime, canonical entries with a
     chi-corrected diagonal at p) and conjugates it to the reference
     lift,
  2. perturbs the reference by an arbitrary cocycle (modeling an
     arbitrary global lift), measures the per-place discrepancy,
  3. solves for the unique global class hitting the discrepancies
     modulo the local condition spaces (the Selmer-group Poitou-Tate
     isomorphism, which is a bijection here because both Selmer groups
     vanish),
  4. corrects, and re-verifies: the tame relation holds exactly on
     the corrected lift, the new normal form passes its membership
     test at every place, and the corrected lift equals its explicit
     conjugate G new G^-1 (checked as G new = corrected G).  The
     lifting sets are conjugation-stable, so the corrected lift's
     verdict is its conjugate's: the membership of G^-1 corrected G,
     which is new itself, is not tested a second time.

Every perturbation (1 + p^m ad z) v multiplies a value v = 1 mod p at
precision m+1, so it is formed as the sum v + p^m ad(z)
(chevgroup.perturb), with no ring product.

Trivial residual action means cocycles are plain generator tuples and
no coboundary bookkeeping is needed.  The matrices solved against in
every step are fixed once the model is built (the Poitou-Tate solve
matrix, the map x -> ad(x) and each place's L_v basis), so each is
factored once per model (modp.LeftSolver) and a step makes no
elimination.
"""

from __future__ import annotations

import numpy as np

from . import localconds as lc
from . import modp
from . import selmer as sm
from .chevgroup import GroupElement, perturb, root_product, torus_elt
from .coeffring import LiftlabError, ParameterError, int64_exact
from .rootdata import root_datum

START_M = 2             # every place starts at p^2; p^3 is lifted first
MODEL_SEED_TRIES = 50   # seeds tried for vanished Selmer groups


class DriverError(LiftlabError):
    pass


class DriverParameterError(DriverError, ParameterError):
    """A configuration the driver refuses before any level runs."""


class PlaceState:
    """One explicit place: its local model at the current precision, its
    global place, its condition L_v, and the factors of the conjugator
    carrying its normal form to the current lift.

    A kind passes its first-level model, the tangent rows of L_v, its
    extra cocycles c_beta with their units (`extra`) and its global
    place (a selmer place stating dim_l).  The base builds, once, `L`,
    the F_p basis [tangent rows; c_beta] of L_v, so that a solved
    coefficient vector splits positionally and its extra part is read
    against the c_beta themselves; `solver`, its modp.LeftSolver; and
    the check of dim L_v against `place.dim_l`.  A kind supplies
    `member` (the normal form as a local lift of its model), `values`
    (its generator values), `lift_up(rng)`, `check_relation(values)`
    (the local lift of the values, its relation verified where the
    model has one), `is_member(lift)` (the membership test of a lift
    in the place's normal-form frame; a step runs it on the new normal
    form only, since the corrected lift is proved its conjugate by
    `conjugator()`), `fold_tangent(tan, scale)` and `variant`; messages
    name the ordinary place by `label`.
    """

    label = ""

    def __init__(self, model, tangent, extra, place):
        self.model = model
        self.extra = extra
        self.place = place
        self.conj_factors = []          # (beta, integer value)
        p = model.p
        self.L = np.vstack([tangent[..., 0], extra.rows[..., 0]]) % p
        self.solver = _left_solver(self.L.T, p, "L basis degenerate (bug)")
        if len(self.L) != place.dim_l:
            raise DriverError("sabotaged %sL_v: dim %d != %d"
                              % (self.label, len(self.L), place.dim_l))

    @property
    def m(self):
        return self.model.ring.m

    def conjugator(self):
        """prod u_beta(val) over conj_factors, carrying its inverse."""
        R = self.model.ring
        return root_product(self.model.alg,
                            [(beta, R.el(val % R.q))
                             for beta, val in self.conj_factors])

    def current_lift(self):
        G = self.conjugator()
        Ginv = G.inv()
        return [G @ v @ Ginv for v in self.values]

    def report(self, lam):
        return {"variant": self.variant, "level": self.m,
                "s_part": {str(b): c for b, c in lam.items()},
                "membership": True}


class TamePlaceState(PlaceState):
    """A trivial prime: normal-form member coordinates, the member
    (sigma, tau) assembled, and its relation verified, once per change
    of coordinates."""

    def __init__(self, datum, basis, p, q, alpha, variant, rng):
        model = lc.TameLocalModel(datum, basis, p, START_M, q)
        self.alpha = tuple(alpha)
        self.variant = variant          # "unr2" or "ram2"
        self.member, self.coords = lc.sample_member(model, self.alpha,
                                                    variant, rng)
        tangent = lc.condition_spaces(model, self.alpha, variant[:3],
                                      rho2=self.member)["tan"].basis
        extra = lc.tame_extra_cocycles(model, self.alpha, variant[:3],
                                       self.member)
        super().__init__(model, tangent, extra, sm.TrivialPlace(datum.dim))

    @property
    def values(self):
        return [self.member.sigma, self.member.tau]

    def _assemble(self):
        self.member = lc._assemble_member(self.model, self.alpha, self.coords)

    def lift_up(self, rng):
        """Random top digits in the free coordinates, at precision m+1."""
        self.coords = lc.lift_coordinates(self.model, self.alpha, self.coords,
                                          rng)
        self.model = self.model.at_precision(self.m + 1)
        self._assemble()

    def check_relation(self, values):
        """The verified lift of (sigma, tau); InvalidLiftError when the
        tame relation fails."""
        return lc.LocalLift(self.model, *values)

    def is_member(self, lift):
        return lc.membership(lift, self.alpha, self.variant)

    def fold_tangent(self, tan, scale):
        """Merge exp(scale * tan) into the normal-form coordinates."""
        d = self.model.datum
        p, q = self.model.p, self.model.ring.q
        w = d.dim
        tan_sigma, tan_tau = tan[:w], tan[w:]
        coords = self.coords
        # Cartan part scales the torus values; root parts join the
        # centralizer factors; the g_alpha parts shift xa and xtau
        # alpha_j(h) for the Cartan part h of the tangent
        pairs = d.simple_pairings[d.simple_indices] @ np.asarray(
            tan_sigma[: d.rank], dtype=np.int64)
        tvals = [(np.asarray(v) * (1 + scale * int(pair))) % q
                 for v, pair in zip(coords["tvals"], pairs)]
        cent = list(coords["cent"])
        alg_index = {r: self.model.basis.root_basis_index(r)
                     for r in d.roots}
        xa = np.asarray(coords["xa"]) % q
        for r in d.roots:
            c = int(tan_sigma[alg_index[r]]) % p
            if c == 0:
                continue
            if tuple(r) == self.alpha:
                xa = (xa + scale * c) % q
            else:
                cent.append((tuple(r), np.array([scale * c % q],
                                                dtype=np.int64)))
        xtau = (np.asarray(coords["xtau"])
                + scale * int(tan_tau[alg_index[self.alpha]])) % q
        # tau-part of the tangent lies in g_alpha only
        self.coords = {"tvals": tvals, "cent": cent, "xa": xa, "xtau": xtau}
        self._assemble()

    def report(self, lam):
        return dict(super().report(lam), relation=True)


class OrdinaryPlaceState(PlaceState):
    """The ordinary place at p: the normal form as matrices, kept in
    normal form at each level by canonical-entry lifting with a diagonal
    chi-correction.  The local model is free, so there is no relation."""

    label = "ordinary "
    variant = "ordinary"

    def __init__(self, datum, basis, p, chi):
        model = lc.OrdinaryLocalModel(datum, basis, p, START_M, 1, chi)
        # ordinary_spaces refuses a degenerate chi before anything reads it
        tangent = lc.ordinary_spaces(model)["tan"].basis
        self.member = lc.chi_torus_lift(model)
        w, f = datum.dim, model.f
        super().__init__(model, tangent, lc.ordinary_extra_cocycles(model),
                         sm.LedgerPlace(
                             (1 + f) * w, w, 0,
                             dim_l=w + f * len(datum.positive_roots),
                             kind="ordinary-explicit"))

    @property
    def values(self):
        return [self.member.values[g] for g in self.model.generators]

    def lift_up(self, rng):
        """Canonical-entry lift to precision m+1, with the inertia
        diagonals corrected back to chi."""
        model2 = self.model.at_precision(self.m + 1)
        R2 = model2.ring
        d = model2.datum
        rows = d.simple_indices
        out = []
        for gname, v in zip(model2.generators, self.values):
            el = GroupElement(model2.alg, v.mat)
            # torus correction on the diagonal: chi mod p^(m+1), as Python ints
            chi = model2.chi_table(gname).tolist()
            have = el.mat[d.rank + rows, d.rank + rows, 0]
            tvals = [R2.el(chi[k] * pow(int(h), -1, R2.q) % R2.q)
                     for k, h in zip(rows.tolist(), have)]
            out.append(torus_elt(model2.alg, tvals) @ el)
        self.model = model2
        self.member = self.check_relation(out)
        if not self.is_member(self.member):
            raise DriverError("ordinary coordinate lift left the set (bug)")

    def check_relation(self, values):
        """The lift of the generator values: the free model has no
        relation to check."""
        return lc.OrdinaryLift(self.model,
                               dict(zip(self.model.generators, values)),
                               check=False)

    def is_member(self, lift):
        return lc.membership_ordinary(lift)

    def fold_tangent(self, tan, scale):
        self.member = self.check_relation(
            _perturb(self.model, self.values, scale, tan))


class EndToEndModel:
    """Two trivial primes + one ordinary place over a simple type, with
    the matching global stage (vanished Selmer and dual Selmer)."""

    def __init__(self, cartan_type="A1", p=5, seed=0):
        datum, basis = root_datum(cartan_type)
        if (datum.family, datum.rank) != ("A", 1):
            # beyond A1 the ordinary normal form is lifted entry by
            # entry, which leaves the torus, and membership_ordinary
            # checks only the simple-root lines
            raise DriverParameterError(
                "the lifting driver supports type A1 only, not %s%d"
                % (datum.family, datum.rank))
        self.datum = datum
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
        # x -> vec(ad x) over F_p, for recovering x from 1 + p^m ad(x)
        ad = basis.ad
        self.ad_solver = _left_solver(ad.reshape(w, w * w).T, p,
                                      "ad map not injective mod p (bug)")
        gplaces = [st.place for st in self.places]
        bases = [st.L for st in self.places]
        for s in range(MODEL_SEED_TRIES):
            model = sm.build_synthetic_model(p, gplaces, arch_h0=[dim_n],
                                             seed=seed + 1000 + s,
                                             datum=datum, basis=basis)
            system = sm.SelmerSystem(model, bases)
            sel, dual, rep = sm.selmer_compute(model, system)
            if rep["h1_L"] == 0 and rep["h1_L_perp"] == 0:
                self.global_model = model
                self.system = system
                break
        else:
            raise DriverError("could not reach vanished Selmer groups in "
                              "MODEL_SEED_TRIES = %d seeds" % MODEL_SEED_TRIES)
        self._setup_correction_solver()

    def _setup_correction_solver(self):
        """The Poitou-Tate solve matrix: the Selmer system's map from the
        global classes to the local quotients, one column per class."""
        p = self.p
        model = self.global_model
        self.anns = self.system.ann_L
        Q = sm.local_quotients(model, model.A, self.anns).T
        refusal = ("Poitou-Tate solve matrix not bijective "
                   "(Selmer groups not vanished?)")
        if Q.shape[0] != Q.shape[1]:
            raise DriverError(refusal)
        self.q_solver = _left_solver(Q, p, refusal)

    # -- one level step

    def step(self, rng):
        """Lift every place from p^m to p^(m+1) with a global correction;
        returns the per-level report."""
        p = self.p
        m = self.places[0].m
        scale = p ** m
        w = self.datum.dim
        # 1. lift the normal forms and conjugate them to the references
        refs = []
        for st in self.places:
            st.lift_up(rng)
            refs.append(st.current_lift())
        # 2. arbitrary perturbation; the measured discrepancy must
        # reproduce it (cross-check)
        zs, targets = [], []
        for k, (st, ref) in enumerate(zip(self.places, refs)):
            z = rng.integers(0, p, size=len(ref) * w, dtype=np.int64)
            tampered = _perturb(st.model, ref, scale, z)
            st.check_relation(tampered)
            d = self._measure(tampered, ref, scale)
            if ((d - z) % p).any():
                raise DriverError("discrepancy measurement failed (bug)")
            zs.append(z)
            targets.append(self.anns[k] @ d % p)
        # 3. solve for the global class
        coeffs = self.q_solver.solve(np.concatenate(targets))
        if coeffs is None:
            raise DriverError("global correction solve failed")
        X = coeffs @ self.global_model.A % p
        # 4. correct and verify place by place
        return {"level": m + 1,
                "places": [self._correct(k, refs[k], (zs[k] - X[a:b]) % p,
                                         scale)
                           for k, (a, b)
                           in enumerate(self.global_model.offsets())]}

    def _measure(self, tampered, ref, scale):
        """Recover the cocycle z from tampered = (1 + scale ad(z)) ref,
        one generator value per column of a single solve."""
        p = self.p
        cols = []
        for t, r in zip(tampered, ref):
            # t r^-1 - 1 = (t - r) r^-1 with r = 1 mod p: its top digit
            # is that of t - r, which scale divides
            D = (t.mat - r.mat)[..., 0] % (scale * p)
            if (D % scale).any():
                raise DriverError("discrepancy not at top order (bug)")
            cols.append((D // scale).reshape(-1))
        x = self.ad_solver.solve(np.stack(cols, axis=1))
        if x is None:
            raise DriverError("discrepancy not an ad image (bug)")
        return x.T.reshape(-1)

    def _correct(self, k, ref, ell, scale):
        """Apply the in-L_v correction exp(p^m ell) to the reference lift
        of place k and verify it equals the conjugated new normal form,
        whose membership verdict is then the corrected lift's (step 4 of
        the module docstring)."""
        p = self.p
        st = self.places[k]
        coeff = st.solver.solve(ell)
        if coeff is None:
            raise DriverError("correction not in L_v at place %d" % k)
        extra = st.extra
        ntan = len(st.L) - len(extra.betas)
        tan = coeff[:ntan] @ st.L[:ntan] % p
        corrected = _perturb(st.model, ref, scale, ell)
        st.check_relation(corrected)
        # the extra part lambda becomes stability conjugator factors
        # u_beta(lambda p^{m-2} / u_beta), the tangent part folds into
        # the normal form
        lam = {}
        for beta, c, u in zip(extra.betas, coeff[ntan:].tolist(),
                              extra.units):
            if c % p:
                lam[beta] = c
                st.conj_factors.append(
                    (beta, pow(int(u[0]), -1, p) * c % p * p ** (st.m - 2)))
        st.fold_tangent(tan, scale)
        if not st.is_member(st.member):
            raise DriverError("%snormal form failed membership"
                              % (st.label or "new "))
        # corrected = G new G^-1, checked as G new = corrected G
        G = st.conjugator()
        if not all((G @ v).eq(c @ G) for v, c in zip(st.values, corrected)):
            raise DriverError("%scorrected lift does not match the "
                              "conjugated normal form (falsified)" % st.label)
        return st.report(lam)


def _left_solver(A, p, refusal):
    """modp.LeftSolver of A, or DriverError(refusal) when it refuses A."""
    try:
        return modp.LeftSolver(A, p)
    except ValueError as exc:
        raise DriverError("%s: %s" % (refusal, exc)) from None


def _perturb(model, values, scale, z):
    """(1 + scale ad(z_i)) values[i], with z the concatenated slots z_i:
    every value is 1 mod p and scale p = 0 mod q, so each is the sum
    values[i] + scale ad(z_i) (chevgroup.perturb)."""
    x = np.zeros((len(values), model.alg.dim, model.ring.r), dtype=np.int64)
    x[..., 0] = np.reshape(z, x.shape[:2]) % model.ring.q
    return [perturb(v, scale, xi) for xi, v in zip(x, values)]


def lifting_driver(cartan_type="A1", p=5, max_precision=5, seed=0):
    """Run the inductive lifting loop to the requested precision;
    returns the per-level reports.  Every local membership and the tame
    relation are verified exactly at each level, a corrected lift's
    membership as that of the normal form it is proved conjugate to.  A
    max_precision below the first level lifted or past the int64 range
    is refused up front."""
    if max_precision <= START_M:
        raise DriverParameterError(
            "precision %d is below the first level lifted, %d"
            % (max_precision, START_M + 1))
    if not int64_exact(p, max_precision, n=root_datum(cartan_type)[0].dim):
        raise DriverParameterError(
            "precision %d at p = %d is past the exact int64 range"
            % (max_precision, p))
    e2e = EndToEndModel(cartan_type, p, seed)
    rng = np.random.default_rng(seed + 5)
    reports = []
    while e2e.places[0].m < max_precision:
        reports.append(e2e.step(rng))
    return reports, e2e
