"""Synthetic global Selmer engine.

The global stage is a finite-dimensional stand-in for the Poitou-Tate
exact sequences: per place a pair of local H^1 blocks (module side and
Tate-dual side) with a perfect local pairing, and global images A (for
W) and B (for W*) that are exact annihilators of each other under the
summed pairing -- so the combined global image is maximal isotropic,
which is the structure every argument here actually uses.  Chebotarev
sets are modeled as seeded uniform draws from independent coordinates
(one per linearly disjoint fixed field); density arguments become
bounded-budget searches with diagnostics.

At trivial-prime places the local blocks are honest: coordinates are
cocycle values (c(sigma), c(tau)) over F_p and the pairing is the tame
local duality.  p-adic and archimedean contributions enter through
dimension ledgers only.

Every place states its condition dimension dim_l.  The Greenberg-Wiles
ledger has no global H^0 terms: rho-bar is absolutely irreducible, so
neither the adjoint module W nor its Tate dual W* has Galois invariants.

Everything global is linear algebra over F_p (modp); exactness is an
invariant, not a tolerance.
"""

from __future__ import annotations

import copy
import json

import numpy as np

from . import modp
from .chevgroup import (GroupElement, LieAlgebra, exp_hat, root_product,
                        torus_elt)
from .coeffring import CoeffRing, LiftlabError, ParameterError, int64_exact
from .localconds import (corollary_in_frame, dual_rows, frame_subspace,
                         shared_model)
from .rootdata import phi_alpha

SPLITCASE_BUDGET = 200          # Cartan frames, and psi draws per frame
TORUS_WITNESS_TRIES = 400       # torus draws per root and frame
ANNIHILATION_MAX_STEPS = 64     # witness places
PRESCRIBED_CLASS_TRIES = 64     # draws per prescribed Selmer class


class SelmerError(LiftlabError):
    pass


class SelmerParameterError(SelmerError, ParameterError):
    pass


class ModelInconsistencyError(SelmerError):
    pass


# ---------------------------------------------------------------------------
# places


class TrivialPlace:
    """A trivial prime: local H^1 = W^2 on each side (sigma, tau blocks),
    tame duality pairing, a condition of dim_l = dim W = h0 (the
    balanced one), and an optional torus frame (g, alpha, t, c) fixed
    when the place was installed by a witness search."""

    def __init__(self, w, frame=None):
        self.kind = "trivial"
        self.dim_l = w
        self.h1 = 2 * w
        self.h0 = w
        self.h0_star = w
        self.frame = frame

    def pairing_matrix(self, p):
        # row i of J is the dual row of the i-th unit cocycle, so that
        # phi J psi^t is the tame pairing <phi, psi>
        return dual_rows(np.eye(self.h1, dtype=np.int64)) % p


class LedgerPlace:
    """A p-adic or other ledger place: abstract blocks of equal
    dimension h1 on both sides with the identity pairing; dim L and the
    h0 entries are data (those theories are inputs here, not
    computations)."""

    def __init__(self, h1, h0, h0_star, dim_l=None, kind="p-adic-ledger"):
        self.kind = kind
        self.h1 = h1
        self.h0 = h0
        self.h0_star = h0_star
        self.dim_l = h0 if dim_l is None else dim_l
        self.frame = None

    def pairing_matrix(self, p):
        return np.eye(self.h1, dtype=np.int64)


def _big_pairing(places, p):
    """The summed local pairing: each place's pairing matrix on the
    diagonal, in the order of the places' blocks.  Every model builds it
    before any product over F_p, so a model whose products of its total
    local dimension would leave the exact int64 range is refused here."""
    total = sum(pl.h1 for pl in places)
    if not int64_exact(p, 1, n=total):
        raise SelmerParameterError(
            "%d local coordinates over F_%d are past the exact int64 range"
            % (total, p))
    J = np.zeros((total, total), dtype=np.int64)
    pos = 0
    for pl in places:
        J[pos:pos + pl.h1, pos:pos + pl.h1] = pl.pairing_matrix(p)
        pos += pl.h1
    return J


# ---------------------------------------------------------------------------
# the model


class SyntheticGlobalModel:
    """Global H^1 models with restriction maps to each local block.

    A (rows = global W-classes, columns = concatenated local W-blocks)
    is given; B (same for W*) is kernel_basis(A J), exactly the
    annihilator of A under the summed local pairing J, from the
    elimination that check_consistency does.  The combined image is a
    maximal isotropic subspace -- the Poitou-Tate consistency invariant
    -- exactly when dim A + dim B is the total local dimension, which
    check_consistency checks with the ledger.  J is built once with the
    model, whose places never change, or passed in by a builder that
    has built it.
    eta, when set, is the matrix of eta on the adjoint module (entries
    in [0, p)) that the witness search reads.
    """

    def __init__(self, p, places, A, arch_h0, eta=None, datum=None,
                 basis=None, seed=None, J=None):
        self.p = p
        self.places = places
        self.A = A % p
        self.arch_h0 = list(arch_h0)
        self.eta = eta
        self.datum = datum
        self.basis = basis
        self.seed = seed
        self.J = _big_pairing(places, p) if J is None else J
        self.check_consistency()

    # -- block bookkeeping

    def offsets(self):
        out = []
        pos = 0
        for pl in self.places:
            out.append((pos, pos + pl.h1))
            pos += pl.h1
        return out

    @property
    def total_dim(self):
        return sum(pl.h1 for pl in self.places)

    def check_consistency(self):
        p = self.p
        # B is the full right kernel of A J
        self.B = modp.kernel_basis(modp.matmul(self.A, self.J, p), p) \
            if self.A.shape[0] else np.eye(self.total_dim, dtype=np.int64)
        # maximal isotropic: dim A + dim B = total
        if self.A.shape[0] + self.B.shape[0] != self.total_dim:
            raise ModelInconsistencyError("global image not half-dimensional")
        # ledger consistency: dim A matches the Euler-characteristic data
        want = _ledger([pl.h1 for pl in self.places], self.places,
                       self.arch_h0)
        if self.A.shape[0] != want:
            raise ModelInconsistencyError(
                "global dimension %d does not match the ledger %d"
                % (self.A.shape[0], want))

    def spec_json(self):
        return json.dumps({
            "p": self.p,
            "places": [{"kind": pl.kind, "h1": pl.h1, "h0": pl.h0,
                        "h0_star": pl.h0_star} for pl in self.places],
            "arch_h0": self.arch_h0,
            "dim_A": int(self.A.shape[0]),
            "dim_B": int(self.B.shape[0]),
            "seed": self.seed,
        }, sort_keys=True)


def build_synthetic_model(p, places, prescribed_w=None, prescribed_wstar=None,
                          arch_h0=(), seed=0, **extra):
    """Isotropic completion: a model whose global image contains the
    prescribed classes.

    The W-image starts from the prescribed classes, is extended inside
    the annihilator of the prescribed W*-classes to the target
    dimension (greedy extension by seeded random vectors), and the
    W*-image is then the exact annihilator.  Raises if the prescribed
    classes violate reciprocity (non-isotropic demand) or exceed the
    target dimension.
    """
    rng = np.random.default_rng(seed)
    J = _big_pairing(places, p)
    total = J.shape[0]
    target = _ledger([pl.h1 for pl in places], places, arch_h0)
    if target < 0 or target > total:
        raise SelmerParameterError("infeasible ledger: dim A = %d" % target)
    A0 = np.array(prescribed_w if prescribed_w is not None else [],
                  dtype=np.int64).reshape(-1, total) % p
    B0 = np.array(prescribed_wstar if prescribed_wstar is not None else [],
                  dtype=np.int64).reshape(-1, total) % p
    if A0.shape[0] and B0.shape[0]:
        if modp.matmul(modp.matmul(A0, J, p), B0.T, p).any():
            raise SelmerError("prescribed classes are not isotropic "
                              "(reciprocity violated)")
    span = modp.Echelon(total, p)
    if not all(span.add(v) for v in A0) or A0.shape[0] > target:
        raise SelmerError("prescribed classes not extendable")
    # allowed ambient for A: annihilator of B0 (v with v J B0^t = 0)
    if B0.shape[0]:
        allowed = modp.kernel_basis(modp.matmul(B0, J.T, p), p)
    else:
        allowed = np.eye(total, dtype=np.int64)
    rows = list(A0)
    guard = 0
    while len(rows) < target:
        guard += 1
        if guard > 200 * target + 200:
            raise SelmerError("isotropic completion stalled")
        coeffs = rng.integers(0, p, size=allowed.shape[0], dtype=np.int64)
        v = coeffs @ allowed % p
        if span.add(v):
            rows.append(v)
    A = np.array(rows, dtype=np.int64).reshape(-1, total)
    # the model's B is the full right kernel of A J, so B0 lies in it
    # exactly when A J B0^t = 0
    if modp.matmul(modp.matmul(A, J, p), B0.T, p).any():
        raise SelmerError("prescribed dual class lost (infeasible spec)")
    return SyntheticGlobalModel(p, list(places), A, list(arch_h0),
                                seed=seed, J=J, **extra)


def _ledger(dims_l, places, arch_h0):
    """The Greenberg-Wiles count sum_v (dim L_v - h0_v) - sum_inf h0_v
    of h1_L - h1_{L*}.  With every L_v = H^1_v the dual Selmer group is
    0, so this is also the dimension of the global image A."""
    return sum(d - pl.h0 for d, pl in zip(dims_l, places)) - sum(arch_h0)


# ---------------------------------------------------------------------------
# Selmer systems and computation


class SelmerSystem:
    """Per place a condition subspace of the W-block (rows in local
    coordinates); the dual system is derived as the pairing annihilator
    place by place.  ann_L and ann_L_perp hold, per place, the
    annihilators of L_v and L_v^perp that a Selmer computation tests
    local blocks against.

    A system belongs to one model, `model`, and its Selmer groups are
    those of that model only.  They are computed (eliminated and checked
    against the ledger) the first time they are read and kept: the
    system's model and tables never change after construction, so the
    kept groups cannot go stale."""

    def __init__(self, model, local_conditions):
        if len(local_conditions) != len(model.places):
            raise SelmerError("one condition per place required")
        self.model = model
        tables = [_place_tables(Lv, pl, model.p)
                  for Lv, pl in zip(local_conditions, model.places)]
        self.L, self.L_perp, self.ann_L, self.ann_L_perp = \
            [[t[k] for t in tables] for k in range(4)]
        self._groups = None

    def with_place(self, model2, Lq):
        """The system of model2, which is this system's model with one
        place appended, with condition Lq there.  The old places, their
        pairings and p are those of this system, so their tables are
        carried over and only the new place is eliminated.  The new
        system keeps no Selmer groups: they are computed when first
        read."""
        model = self.model
        if model2.p != model.p or \
                list(model2.places[:-1]) != list(model.places):
            raise SelmerError("model2 must extend the system's model "
                              "by one place")
        new = copy.copy(self)
        new.model = model2
        new._groups = None
        tables = _place_tables(Lq, model2.places[-1], model.p)
        new.L, new.L_perp, new.ann_L, new.ann_L_perp = \
            [old + [t] for old, t in zip(
                (self.L, self.L_perp, self.ann_L, self.ann_L_perp), tables)]
        return new

    def dims(self):
        return [int(Lv.shape[0]) for Lv in self.L]


def _place_tables(Lv, pl, p):
    """One place's (L_v, L_v^perp, annihilator of L_v, annihilator of
    L_v^perp) from condition rows Lv.  L_v and L_v^perp are kept as
    their RREFs, and each annihilator (rows spanning the right kernel,
    all of F_p^h1 for a zero space: a local block lies in the space
    exactly when these rows all kill it) is read off that RREF."""
    Lv = np.atleast_2d(np.asarray(Lv, dtype=np.int64)) % p \
        if np.asarray(Lv).size else np.zeros((0, pl.h1), dtype=np.int64)
    Lv, piv = _echelon(Lv, p)
    Pv, ppiv = _echelon(modp.kernel_basis(Lv @ pl.pairing_matrix(p) % p, p),
                        p)
    return Lv, Pv, modp.rref_kernel(Lv, piv, p), modp.rref_kernel(Pv, ppiv, p)


def _echelon(rows, p):
    """The RREF of `rows` without its zero rows, and its pivot columns."""
    R, piv = modp.rref(rows, p)
    return R[:len(piv)], piv


def local_quotients(model, image, annihilators):
    """The map from the row space of `image` to the local quotients
    H^1_v / L_v: row i holds, place by place, the local block of class
    i tested against that place's annihilator (SelmerSystem.ann_L or
    ann_L_perp), concatenated over the places.  The annihilators must
    be those of a system of `model` (one per place of it); a list of
    another length is refused, since pairing it with the model's blocks
    would drop places."""
    if len(annihilators) != len(model.places):
        raise SelmerError("%d annihilators for a model of %d places"
                          % (len(annihilators), len(model.places)))
    p = model.p
    return np.concatenate([modp.matmul(image[:, a:b], ann.T, p)
                           for (a, b), ann in zip(model.offsets(),
                                                  annihilators)], axis=1)


def _selmer_of(model, image, annihilators):
    """Classes in the row space of `image` whose every local block is
    killed by that place's annihilator: the kernel of the local-quotient
    map, as a coefficient basis."""
    M = local_quotients(model, image, annihilators)
    if not M.shape[1]:
        return np.eye(image.shape[0], dtype=np.int64)
    return modp.kernel_basis(M.T, model.p)


def selmer_compute(model, system):
    """(Selmer basis, dual Selmer basis, balance report).

    The report re-derives the Greenberg-Wiles ledger
    h1_L - h1_{L*} = sum_v (dim L_v - h0_v) - sum_inf h0_v
    and raises on mismatch (the synthetic model makes the identity a
    theorem, so a mismatch means corrupted data, never tolerance).
    `model` must be the system's own (system.model), or SelmerError is
    raised.  The groups are computed on the system's first read and
    kept; the bases are read-only and the report is a copy."""
    return _selmer_with_coeffs(model, system)[:3]


def _selmer_with_coeffs(model, system):
    """selmer_compute's (sel, dual, report) followed by the coefficient
    rows sel_coeff, dual_coeff with sel = sel_coeff A, dual = dual_coeff B,
    read from the system, which computes them on its first read."""
    if model is not system.model:
        raise SelmerError("the model is not the Selmer system's own")
    if system._groups is None:
        system._groups = _eliminate_groups(system)
    sel, dual, report, sel_coeff, dual_coeff = system._groups
    return (sel, dual, dict(report, dims_L=list(report["dims_L"])),
            sel_coeff, dual_coeff)


def _eliminate_groups(system):
    """The Selmer and dual Selmer groups of the system's model, checked
    against the ledger, with their arrays made read-only."""
    model = system.model
    p = model.p
    sel_coeff = _selmer_of(model, model.A, system.ann_L)
    dual_coeff = _selmer_of(model, model.B, system.ann_L_perp)
    sel = modp.matmul(sel_coeff, model.A, p) if sel_coeff.shape[0] else \
        np.zeros((0, model.total_dim), dtype=np.int64)
    dual = modp.matmul(dual_coeff, model.B, p) if dual_coeff.shape[0] else \
        np.zeros((0, model.total_dim), dtype=np.int64)
    h1l, h1ld = sel.shape[0], dual.shape[0]
    ledger = _ledger(system.dims(), model.places, model.arch_h0)
    if h1l - h1ld != ledger:
        raise ModelInconsistencyError(
            "balance report %d - %d does not match the ledger %d"
            % (h1l, h1ld, ledger))
    report = {
        "h1_L": h1l,
        "h1_L_perp": h1ld,
        "ledger": ledger,
        "dims_L": system.dims(),
        "balanced": h1l == h1ld,
    }
    for a in (sel, dual, sel_coeff, dual_coeff):
        a.flags.writeable = False
    return sel, dual, report, sel_coeff, dual_coeff


# ---------------------------------------------------------------------------
# eta maps and the Cartan search


def eta_build(module, decomposition, scalars):
    """The matrix (acting on column vectors, entries in [0, p)) of the
    equivariant eta acting by a scalar on each isotypic summand in
    `scalars`, zero elsewhere.  scalars maps isotypic indices to
    nonzero residues; each chosen class must have multiplicity 1 and
    endomorphism field F_p (the assumption the paper's argument needs;
    violating it is an error, mirroring the hypothesis)."""
    p = module.p
    n = module.dim
    for i in sorted(scalars):
        iso = decomposition.isotypic[i]
        if iso["multiplicity"] != 1:
            raise SelmerError("isotypic class %d has multiplicity %d > 1"
                              % (i, iso["multiplicity"]))
        if iso["endo_degree"] != 1:
            raise SelmerError("isotypic class %d has endo degree %d != 1"
                              % (i, iso["endo_degree"]))
    # change of basis: stack all summand bases; eta scales each block
    blocks = [b for b, ci in decomposition.summands]
    T = np.vstack(blocks) % p
    if modp.rank(T, p) != n:
        raise SelmerError("decomposition does not span (bug)")
    diag = np.concatenate([np.full(b.shape[0], scalars.get(ci, 0) % p,
                                   dtype=np.int64)
                           for b, ci in decomposition.summands])
    # row convention: v = coords . T, so eta(v) = (coords diag) . T and
    # the matrix acting on column vectors is T^t diag (T^t)^-1
    Tt_inv = modp.inverse(T.T % p, p)
    if Tt_inv is None:
        raise SelmerError("matrix not invertible mod p")
    M = T.T * diag % p @ Tt_inv % p
    for g in module.gens:
        if ((g @ M - M @ g) % p).any():
            raise SelmerError("eta not equivariant (bug)")
    return M


def random_group_element(alg, rng):
    """Seeded random constructor-built adjoint element over the residue
    field (a product of four root elements and a torus element), with
    its inverse in closed form: the root elements' inverses in reverse
    order after the torus element of the inverted units."""
    R = alg.ring
    roots = alg.datum.roots
    factors = []
    for _ in range(4):
        r = roots[int(rng.integers(len(roots)))]
        factors.append((r, R.el(int(rng.integers(0, R.q)))))
    u = root_product(alg, factors)
    units = [R.random_unit(rng) for _ in range(alg.datum.rank)]
    t = torus_elt(alg, units).mat
    tinv = torus_elt(alg, [R.inv(x) for x in units]).mat
    return GroupElement(alg, R.mat_mul(u.mat, t),
                        inverse_mat=R.mat_mul(tinv, u.inverse_mat))


def _lie_algebra(datum, basis, p, m):
    """The Lie algebra over Z/p^m, one per (datum, basis, p, m) for the
    life of the process."""
    return shared_model((LieAlgebra, datum, basis, p, m),
                        lambda: LieAlgebra(datum, basis, CoeffRing(p, m, 1)))


# ---------------------------------------------------------------------------
# Chebotarev sampler


class ChebotarevSampler:
    """Uniform seeded draws from a finite Galois-group model with
    independent coordinates (strong linear disjointness is a model
    assumption).  Coordinates: c (the unit (q-1)/p), t (an element of
    the Lie algebra over F_p, the exp-coordinate of rho_2(Frobenius)),
    one W-value per global W-class generator and one W*-value per dual
    generator."""

    def __init__(self, p, dim_g, n_w, n_wstar, w):
        self.p = p
        self.dim_g = dim_g
        self.n_w = n_w
        self.n_wstar = n_wstar
        self.w = w

    def draw(self, rng):
        p = self.p
        return {
            "c": int(rng.integers(1, p)),
            "t": rng.integers(0, p, size=self.dim_g, dtype=np.int64),
            "w_vals": rng.integers(0, p, size=(self.n_w, self.w),
                                   dtype=np.int64),
            "wstar_vals": rng.integers(0, p, size=(self.n_wstar, self.w),
                                       dtype=np.int64),
        }


# ---------------------------------------------------------------------------
# the splitcase witness search


def splitcase_search(model, phi, psi, rng):
    """Find (g, alpha, t, draw) as in the auxiliary-prime step:

    1. rho_2(sigma_q) = exp(p t_g) is torus-valued in the frame g with
       beta != 1 mod p^2 on Phi^alpha (i.e. beta(t) != 0);
    2. phi(sigma_q) = eta(Ad(g) t) lies outside
       Ad(g)(ker(alpha|t) + sum of root spaces);
    3. <psi(sigma_q), Ad(g) g_alpha> != 0 for a sampler draw.

    All three bullets are re-verified on the returned witness."""
    if not (phi % model.p).any():
        raise SelmerError("phi must be nonzero")
    if not (psi % model.p).any():
        raise SelmerError("psi must be nonzero")
    if model.datum is None or model.eta is None:
        raise SelmerError("model carries no module frame / eta data")
    p = model.p
    d = model.datum
    alg1 = _lie_algebra(d, model.basis, p, 1)
    rank = d.rank
    sampler = ChebotarevSampler(p, d.dim, model.A.shape[0], model.B.shape[0],
                                d.dim)
    c = sampler.draw(rng)["c"]
    # the Cartan frames: g is the identity at trial 0 and a
    # random_group_element draw after that, each with its inverse
    for trial in range(SPLITCASE_BUDGET):
        g = root_product(alg1, []) if trial == 0 else \
            random_group_element(alg1, rng)
        gm = g.mat[..., 0] % p
        gi = g.inv().mat[..., 0]
        eta_g = gi @ model.eta @ gm % p
        # row k: the functional t |-> alpha_k(p_t(eta_g t)) on the Cartan
        # block, for the k-th root alpha_k
        funcs = d.simple_pairings @ eta_g[:rank, :rank] % p
        for alpha, f_alpha in zip(d.roots, funcs):
            if not f_alpha.any():
                continue
            t = _find_torus_witness(d, alpha, c, f_alpha, p, rng)
            if t is None:
                continue
            witness = _finish_splitcase(model, g, gm, alpha, t, c, rng)
            if witness is not None:
                return witness
    raise SelmerError("splitcase search exhausted SPLITCASE_BUDGET = %d; "
                      "model may be infeasible at this p" % SPLITCASE_BUDGET)


def _find_torus_witness(d, alpha, c, f_alpha, p, rng):
    """t in the Cartan over F_p with alpha(t) = c and f_alpha(t) != 0.
    The Phi^alpha regularity conditions beta(t) != 0 are re-checked in
    _finish_splitcase, which retries on failure."""
    rank = d.rank
    arow = d.simple_pairings[d.root_index[tuple(alpha)]] % p
    for _ in range(TORUS_WITNESS_TRIES):
        t = rng.integers(0, p, size=rank, dtype=np.int64)
        if int(arow @ t % p) != c % p:
            continue
        if int(f_alpha @ t % p) == 0:
            continue
        return t
    return None


def _finish_splitcase(model, g, gm, alpha, t, c, rng):
    p = model.p
    d = model.datum
    basis = model.basis
    rank = d.rank
    # beta(t) != 0 for all beta in Phi^alpha
    rows = [d.root_index[b] for b in phi_alpha(basis, tuple(alpha))]
    if not (d.simple_pairings[rows] @ t % p).all():
        return None
    # t lies in the standard Cartan (the first rank coordinates); Ad(g)
    # moves it to the g-frame
    phival = model.eta @ (gm[:, :rank] @ t % p) % p
    # bullet 2: phival outside Ad(g)(ker(alpha|t) + all root spaces)
    bad = frame_subspace(basis, gm, alpha, p)
    if modp.row_space_contains(bad, phival, p):
        return None
    # bullet 3: draw psi value until it pairs nontrivially with Ad(g) X_alpha
    gXa = gm[:, basis.root_basis_index(tuple(alpha))]
    for _ in range(SPLITCASE_BUDGET):
        psival = rng.integers(0, p, size=d.dim, dtype=np.int64)
        if int(psival @ gXa % p):
            break
    else:
        return None
    # bullet 1 re-verification: exp(p t_g) is diagonal in the g-frame with
    # beta-values 1 + p beta(t) != 1 mod p^2
    alg2 = _lie_algebra(d, basis, p, 2)
    R2 = alg2.ring
    tvec2 = np.zeros((d.dim, 1), dtype=np.int64)
    tvec2[:rank, 0] = t
    rho2_frame = exp_hat(alg2, (p * tvec2) % R2.q)
    Mfr = rho2_frame.mat[..., 0]
    off = Mfr.copy()
    off[np.arange(d.dim), np.arange(d.dim)] = 0
    k = rank + np.array(rows, dtype=np.int64)
    if (off % (p * p)).any() or (Mfr[k, k] % (p * p) == 1).any():
        return None
    values = np.diagonal(Mfr)[rank:] % (p * p)     # ordered like d.roots
    return {
        "g": g, "g_mat": gm, "alpha": tuple(alpha), "t": t, "c": c,
        "frame_subspace": bad, "phi_value": phival, "psi_value": psival,
        "rho2_torus_values": {b: int(v) for b, v in zip(d.roots, values)},
    }


def l_alpha_in_frame(basis, gm, alpha, p, frame):
    """L^alpha at an installed place, in the g-frame: sigma-part
    anywhere in `frame` = Ad(g)(ker(alpha|t) + all root spaces) (as
    localconds.frame_subspace builds it), tau-part in Ad(g) g_alpha."""
    n = basis.datum.dim
    out = np.zeros((frame.shape[0] + 1, 2 * n), dtype=np.int64)
    out[:-1, :n] = frame
    out[-1, n:] = gm[:, basis.root_basis_index(tuple(alpha))] % p
    return out


# ---------------------------------------------------------------------------
# installing a witness place (model extension)


def extend_model_at_witness(model, system, witness, rng):
    """Extend the model by one trivial prime at the witness and install
    L^alpha there; returns (model', system').

    The old classes embed with unramified restriction (sigma-value from
    the witness draw / sampler); dim A grows by w with the new classes'
    tau-values spanning W, their old-block components solving the
    reciprocity constraints against B.  B' is recomputed as the exact
    annihilator and must contain the embedded B (checked).  The witness
    is a splitcase_search result with phi_coeffs and psi_coeffs added;
    its frame subspace is reused for L^alpha and its cross-check."""
    p = model.p
    w = model.datum.dim
    nA, nB = model.A.shape[0], model.B.shape[0]
    # evaluation maps: conditioned on the constrained classes
    evalA = _conditioned_eval(model.A, witness.get("phi_coeffs"),
                              witness["phi_value"], w, p, rng)
    evalB = _conditioned_eval(model.B, witness.get("psi_coeffs"),
                              witness["psi_value"], w, p, rng)
    A_embed = np.concatenate([model.A, evalA,
                              np.zeros((nA, w), dtype=np.int64)], axis=1)
    B_embed = np.concatenate([model.B, evalB,
                              np.zeros((nB, w), dtype=np.int64)], axis=1)
    # new classes: tau-part x (a basis of W), old part solving the
    # reciprocity constraint <y, b>_old = -x . b(sigma_q) for all b in B;
    # row b of M is the functional y -> <y, b>_old
    M = modp.matmul(model.B, model.J.T, p)
    # x runs over the unit vectors e_k, so column k of the right-hand
    # side is -evalB e_k and column k of Y is the old part of class k
    Y = modp.solve(M, -evalB % p, p)
    if Y is None:
        raise ModelInconsistencyError("reciprocity solve failed (bug)")
    new_rows = np.concatenate([Y.T, np.zeros((w, w), dtype=np.int64),
                               np.eye(w, dtype=np.int64)], axis=1)
    A2 = np.vstack([A_embed, new_rows]) % p
    place = TrivialPlace(w, frame={"g_mat": witness["g_mat"],
                                   "alpha": witness["alpha"],
                                   "t": witness["t"], "c": witness["c"]})
    model2 = SyntheticGlobalModel(p, list(model.places) + [place], A2,
                                  model.arch_h0, eta=model.eta,
                                  datum=model.datum, basis=model.basis,
                                  seed=model.seed)
    # model2's B is the full right kernel of A2 J2 (J2 = model2.J), so
    # the embedded classes lie in it exactly when A2 J2 B_embed^t = 0
    if modp.matmul(modp.matmul(A2, model2.J, p), B_embed.T, p).any():
        raise ModelInconsistencyError("embedded dual classes lost (bug)")
    gm, alpha = witness["g_mat"], witness["alpha"]
    frame = witness["frame_subspace"]
    Lq = l_alpha_in_frame(model.basis, gm, alpha, p, frame)
    system2 = system.with_place(model2, Lq)
    # cross-check: the installed dual condition equals the corollary
    # description in the g-frame (L_perp is kept as its RREF)
    desc = corollary_in_frame(model.basis, gm, alpha, p, frame)
    if not np.array_equal(system2.L_perp[-1], modp.echelon_basis(desc, p)):
        raise ModelInconsistencyError("installed dual condition does not "
                                      "match the explicit description")
    return model2, system2


def _conditioned_eval(image, coeffs, value, w, p, rng):
    """A (rows x w) evaluation matrix: uniform rows, except that the
    class with the given coefficient vector evaluates to `value`."""
    n = image.shape[0]
    E = rng.integers(0, p, size=(n, w), dtype=np.int64)
    if coeffs is None or not (coeffs % p).any():
        return E
    coeffs = np.asarray(coeffs, dtype=np.int64) % p
    # adjust one coordinate with nonzero coefficient
    j = int(np.nonzero(coeffs)[0][0])
    cur = coeffs @ E % p
    delta = (np.asarray(value, dtype=np.int64) - cur) % p
    cinv = pow(int(coeffs[j]), p - 2, p)
    E[j] = (E[j] + cinv * delta) % p
    return E


# ---------------------------------------------------------------------------
# the annihilation loop


def annihilation_loop(model, system, rng):
    """Kill the dual Selmer group by installing witness places.

    Per step the balance is re-verified and the dual dimension must
    strictly decrease (the witness guarantees the (-1, -1) step); a
    non-decreasing step is a hard error.  So the loop takes at most as
    many steps as the starting dual dimension, and a start above
    ANNIHILATION_MAX_STEPS is refused (SelmerParameterError) before any
    witness search.  `model` must be the system's own (system.model),
    or SelmerError is raised.  The starting groups are the system's
    kept ones, so a selmer_compute before the loop costs no second
    elimination; each installed place makes a new system, whose groups
    are eliminated and ledger-checked when the loop first reads them.
    Returns the trace of (h1_L, h1_L_perp) from the start to (0, 0)."""
    sel, dual, rep, sel_coeff, dual_coeff = _selmer_with_coeffs(model, system)
    trace = [(rep["h1_L"], rep["h1_L_perp"])]
    if rep["h1_L_perp"] > ANNIHILATION_MAX_STEPS:
        raise SelmerParameterError(
            "annihilation loop exceeded max steps (ANNIHILATION_MAX_STEPS "
            "= %d) before it ran: the dual Selmer dimension %d needs one "
            "witness place per class" % (ANNIHILATION_MAX_STEPS,
                                         rep["h1_L_perp"]))
    steps = 0
    while trace[-1][1] > 0:
        steps += 1
        if trace[-1][0] == 0:
            raise ModelInconsistencyError(
                "dual Selmer nonzero with zero Selmer in balanced model")
        # check_consistency makes A and B bases, so these are the only
        # coefficient rows of sel[0] and dual[0]
        witness = splitcase_search(model, sel[0], dual[0], rng)
        witness["phi_coeffs"] = sel_coeff[0]
        witness["psi_coeffs"] = dual_coeff[0]
        model, system = extend_model_at_witness(model, system, witness, rng)
        sel, dual, rep, sel_coeff, dual_coeff = \
            _selmer_with_coeffs(model, system)
        prev = trace[-1]
        cur = (rep["h1_L"], rep["h1_L_perp"])
        if not (cur[0] - prev[0] == cur[1] - prev[1]):
            raise ModelInconsistencyError("balance broken at step %d" % steps)
        if cur[1] >= prev[1]:
            raise ModelInconsistencyError(
                "dual Selmer did not decrease at step %d" % steps)
        trace.append(cur)
    return trace, model, system


# ---------------------------------------------------------------------------
# the doubling method


class DoublingModel:
    """Finite data for the mod-p^3 modification step.

    T-block: one coordinate block per place in T; im_psi_T is the image
    of the global restriction map; families are the auxiliary-prime
    class families: each draws primes v carrying a class h^(v) with a
    FIXED restriction to T (Y) and a fixed inertia value (X, a nonzero
    vector of W); values of any class at any other new prime are fresh
    uniform draws (linear disjointness).  The spanning property
    sum_n F_p[G] X_n = W is a construction input, mirrored here by
    requiring that the X_n span W over F_p."""

    def __init__(self, p, w, t_block_dims, im_psi_t, families):
        self.p = p
        self.w = w
        self.t_dims = list(t_block_dims)
        self.t_total = sum(t_block_dims)
        self.im = np.atleast_2d(np.asarray(im_psi_t, dtype=np.int64)) % p \
            if np.asarray(im_psi_t).size else \
            np.zeros((0, self.t_total), dtype=np.int64)
        self.families = families   # dicts: {"Y": vec, "X": vec, "kind": str}
        gens = np.array([f["X"] for f in families], dtype=np.int64)
        if families and modp.rank(gens, p) != w:
            raise SelmerError("family inertia values do not span W")


def doubling_solve(dmodel, z_t, rng, exhaustive):
    """Find tuples (v, v') and h = h_old - sum h^(v_n) + 2 sum h^(v'_n)
    with h|_T = z_T exactly and prescribed Frobenius sums
    sum_n h^(v'_n)(sigma_{v_m}) = C_m, sum_n h^(v_n)(sigma_{v'_m}) = C'_m.

    The restriction h|_T is exact by construction (the families' T-
    restrictions are draw-independent) and is re-verified.  The
    Frobenius values are the second tuple's draw: with exhaustive set,
    the first point of its whole draw space, enumerated in order, that
    meets the sums (a complete search, for toy models); otherwise one
    frobenius_draw, a uniform point of the solutions.  Either is checked
    by frobenius_sums_hold, and "draws" counts the points looked at."""
    p, w = dmodel.p, dmodel.w
    z_t = np.asarray(z_t, dtype=np.int64) % p
    fams = dmodel.families
    # first bullet: z_T may already lie in im(Psi_T) -- direct solve, no Q
    if dmodel.im.size:
        direct = modp.solve(dmodel.im.T % p, z_t, p)
        if direct is not None:
            h_T = (direct @ dmodel.im) % p
            return {"Q_empty": True, "h_T": h_T,
                    "verified": bool(not ((h_T - z_t) % p).any()),
                    "pairs": 0}
    # step 1: write z_T - sum_A Y_a = Psi(h_old) + sum_B c_b Y_b
    z2 = z_t.copy()
    active = []
    for f in fams:
        if f["kind"] == "gens":
            z2 = (z2 - f["Y"]) % p
            active.append((f, 1))
    bcands = [f for f in fams if f["kind"] == "cokernel"]
    stack = [row for row in dmodel.im]
    stack += [f["Y"] for f in bcands]
    Mt = np.array(stack, dtype=np.int64).T % p if stack else \
        np.zeros((dmodel.t_total, 0), dtype=np.int64)
    sol = modp.solve(Mt, z2, p)
    if sol is None:
        raise SelmerError("z_T not solvable against the cokernel basis "
                          "(infeasible model)")
    nim = dmodel.im.shape[0]
    h_old_t = (sol[:nim] @ dmodel.im) % p if nim else \
        np.zeros(dmodel.t_total, dtype=np.int64)
    for k, f in enumerate(bcands):
        c = int(sol[nim + k]) % p
        if c:
            active.append((f, c))
    if not active:
        # z_T already in im(Psi_T): empty Q, direct solve
        return {"Q_empty": True, "h_T": h_old_t, "verified": bool(
            not ((h_old_t - z_t) % p).any()), "pairs": 0}
    # restriction of h to T is already exact:
    h_T = h_old_t.copy()
    for f, c in active:
        h_T = (h_T + c * f["Y"]) % p
    if ((h_T - z_t) % p).any():
        raise SelmerError("h|_T != z_T (bug)")
    n_act = len(active)
    targets = {k: rng.integers(0, p, size=(n_act, w), dtype=np.int64)
               for k in ("C", "C_prime")}
    # draw the first tuple v (its identities carry no constraints yet)
    v_ids = ["v%d" % k for k in range(n_act)]
    if exhaustive:
        total_cells = 2 * n_act * n_act * w
        for code in range(p ** total_cells):
            vals = []
            cc = code
            for _ in range(total_cells):
                vals.append(cc % p)
                cc //= p
            arr = np.array(vals, dtype=np.int64).reshape(2, n_act, n_act, w)
            if frobenius_sums_hold(arr, targets, p):
                return _doubling_result(dmodel, z_t, h_T, active, targets,
                                        v_ids, draws=code + 1,
                                        exhaustive=True)
        raise SelmerError("exhaustive doubling search found no solution "
                          "(model spanning defect)")
    if not frobenius_sums_hold(frobenius_draw(targets, p, rng), targets, p):
        raise SelmerError("conditioned draw misses its Frobenius sums (bug)")
    return _doubling_result(dmodel, z_t, h_T, active, targets, v_ids,
                            draws=1, exhaustive=False)


def frobenius_draw(targets, p, rng):
    """A uniform point of the Frobenius values that meet the targets
    C and C_prime, (n, w) arrays: a (2, n, n, w) array whose [0][k, m]
    is h^(v_k)(sigma_{v'_m}) and [1][k, m] is h^(v'_k)(sigma_{v_m}).

    The whole array is drawn uniformly, then the last pair's values are
    set to each target minus the other pairs' sum.  Each sum has its own
    last value, so the free values determine exactly one solution and
    every solution arises from exactly one choice of them."""
    n, w = targets["C"].shape
    arr = rng.integers(0, p, size=(2, n, n, w), dtype=np.int64)
    arr[0, -1] = (targets["C_prime"] - arr[0, :-1].sum(axis=0)) % p
    arr[1, -1] = (targets["C"] - arr[1, :-1].sum(axis=0)) % p
    return arr


def frobenius_sums_hold(arr, targets, p):
    """Whether Frobenius values as frobenius_draw returns them meet the
    targets: sum_n h^(v'_n)(sigma_{v_m}) = C_m and
    sum_n h^(v_n)(sigma_{v'_m}) = C'_m for every m."""
    return not ((arr[1].sum(axis=0) - targets["C"]) % p).any() and \
        not ((arr[0].sum(axis=0) - targets["C_prime"]) % p).any()


def _doubling_result(dmodel, z_t, h_T, active, targets, v_ids, draws,
                     exhaustive):
    p = dmodel.p
    return {
        "Q_empty": False,
        "h_T": h_T,
        "verified": bool(not ((h_T - z_t) % p).any()),
        "pairs": len(active),
        "v_tuple": v_ids,
        "v_prime_tuple": ["v%d'" % k for k in range(len(active))],
        "inertia_values": [((f["X"] * c) % p).tolist() for f, c in active],
        "frobenius_sums": {
            "C": targets["C"].tolist(),
            "C_prime": targets["C_prime"].tolist(),
        },
        "draws": draws,
        "exhaustive": exhaustive,
    }


# ---------------------------------------------------------------------------
# random balanced models and the end-to-end lifting driver


def build_balanced_model(datum, basis, p, n_trivial=2, n_ledger=1,
                         selmer_rank=0, seed=0):
    """A random balanced synthetic model over the adjoint module of the
    given root datum: trivial primes contribute net zero, each p-adic
    ledger place (of degree f = 1) contributes +dim n, and the
    archimedean ledger subtracts the same total (odd h0 = dim Flag per
    real place).

    selmer_rank prescribes that many independent global classes inside
    the balanced Selmer condition on each side (unramified at trivial
    places, in L at ledger places), so the annihilation loop has work
    to do; such prescriptions are automatically isotropic.  The W-side
    condition classes span sum_v dim_l dimensions, so a larger
    selmer_rank is refused; a W-class that lies in the span of those
    drawn before it is drawn again, up to PRESCRIBED_CLASS_TRIES
    times."""
    rng = np.random.default_rng(seed + 77)
    w = datum.dim
    dim_n = len(datum.positive_roots)
    places = [TrivialPlace(w) for _ in range(n_trivial)]
    arch = []
    for _ in range(n_ledger):
        places.append(LedgerPlace(3 * w, w, w, dim_l=w + dim_n))
        arch.append(dim_n)
    total = sum(pl.h1 for pl in places)
    room = sum(pl.dim_l for pl in places)
    if selmer_rank > room:
        raise SelmerParameterError(
            "Selmer rank %d exceeds the %d dimensions of the condition "
            "classes" % (selmer_rank, room))

    def in_condition_class():
        v = np.zeros(total, dtype=np.int64)
        pos = 0
        for pl in places:
            v[pos:pos + pl.dim_l] = rng.integers(0, p, size=pl.dim_l)
            pos += pl.h1
        return v

    def in_perp_class():
        v = np.zeros(total, dtype=np.int64)
        pos = 0
        for pl in places:
            if pl.kind == "trivial":
                # unramified dual classes annihilate unramified classes
                v[pos:pos + pl.dim_l] = rng.integers(0, p, size=pl.dim_l)
            else:
                v[pos + pl.dim_l:pos + pl.h1] = \
                    rng.integers(0, p, size=pl.h1 - pl.dim_l)
            pos += pl.h1
        return v

    span = modp.Echelon(total, p)
    pres_w = []
    for _ in range(selmer_rank):
        for _ in range(PRESCRIBED_CLASS_TRIES):
            v = in_condition_class()
            if span.add(v):
                break
        else:
            raise SelmerError(
                "no independent prescribed class in PRESCRIBED_CLASS_TRIES "
                "= %d draws" % PRESCRIBED_CLASS_TRIES)
        pres_w.append(v)
    pres_ws = [in_perp_class() for _ in range(selmer_rank)]
    model = build_synthetic_model(p, places, prescribed_w=pres_w,
                                  prescribed_wstar=pres_ws,
                                  arch_h0=arch, seed=seed,
                                  datum=datum, basis=basis)
    return model


def attach_adjoint_eta(model):
    """The identity eta on the full adjoint module (the coupled field
    diagram with one irreducible constituent); enough for the simple
    types the engine runs on."""
    model.eta = np.eye(model.datum.dim, dtype=np.int64)
    return model


def standard_balanced_system(model):
    """The balanced Selmer system: the first dim_l coordinates at every
    place.  At a trivial place that is the sigma-block, the unramified
    condition of dim h0 = w (the annihilation loop installs honest
    L^alpha at new places)."""
    return SelmerSystem(model, [np.eye(pl.dim_l, pl.h1, dtype=np.int64)
                                for pl in model.places])
