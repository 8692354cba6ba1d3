"""Local deformation conditions at trivial primes and at p.

The tame local model is the two-generator group <sigma, tau |
sigma tau sigma^-1 = tau^q> with q = 1 mod p, q != 1 mod p^2, acting
through the adjoint Chevalley group; the ordinary model at p (residual
representation trivial, F_v not containing zeta_p) is the free pro-p
group on 1 + [F_v:Q_p] generators, so a lift is just a tuple of group
elements subject to normal-form conditions.

Residual representations here are trivial, so coboundaries vanish and
one-cocycles are plain homomorphisms: a cocycle is the tuple of its
generator values over the residue field.

Both models share one skeleton, LocalModel: the ring O/p^m, the residue
field and their Lie algebras.  A model is built for one precision;
at_precision(m2) returns the model of the same place at precision m2.
Those models are shared: every at_precision call with the same datum,
basis, p, m2, ring degree r and place data (q at a trivial prime; f and
chi at p) returns one model, kept for the life of the process with its
read-only tables (sqrt q, alpha^vee(sqrt q), the chi-tori, each a
torus_elt of chi(gen), and their root diagonals, the chi tables).  The
constructors always build a new model.  Both conditions satisfy one
stability identity, checked in one place, _stability.

Membership in the lifting sets is tested in a caller-supplied torus
frame (normal form); an explicitly known conjugator may be passed in,
which covers every construction in this package.  Full conjugacy
search is out of scope by design.  A tame lift's relation is checked
once: a LocalLift verified when it was built keeps read-only matrices,
and membership re-checks only lifts that were not.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import fieldlinalg as fl
from . import modp
from .coeffring import (CoeffRing, LiftlabError, ParameterError,
                        sqrt_one_mod_p)
from .chevgroup import (SCAN_MAX_CELLS, LieAlgebra,
                        frobenius_b_search, identity, perturb, torus_elt,
                        torus_from_coroot_data, u_alpha)
from .rootdata import phi_alpha

SAMPLE_MEMBER_TRIES = 200       # sample_member's draws
TAME_VARIANTS = ("plain", "unr2", "ram2")


# shared models, kept for the life of the process: at_precision's, keyed
# on the model class and the constructor's arguments (chi as a sorted
# tuple of its items), and the witness search's Lie algebras, keyed on
# (LieAlgebra, datum, basis, p, m)
_MODELS = {}


def shared_model(key, build):
    """The model stored under `key`, built by `build()` on first use."""
    model = _MODELS.get(key)
    if model is None:
        model = _MODELS[key] = build()
    return model


class LocalCondError(LiftlabError):
    pass


class LocalCondParameterError(LocalCondError, ParameterError):
    pass


class InvalidLiftError(LocalCondError):
    pass


def _check_variant(variant, allowed):
    if variant not in allowed:
        raise LocalCondParameterError(
            "unknown tame variant %r: not one of %s"
            % (variant, ", ".join(allowed)))


class LocalModel:
    """The ring O/p^m of degree r, the residue field and their Lie
    algebras; `place` holds a subclass constructor's arguments between m
    and r, which key at_precision's shared models with the others."""

    def __init__(self, datum, basis, p, m, r, place):
        self.datum, self.basis = datum, basis
        self.p, self.m = p, m
        self.ring = CoeffRing(p, m, r)
        self.alg = LieAlgebra(datum, basis, self.ring)
        self.residue = CoeffRing(p, 1, r)
        self.alg1 = LieAlgebra(datum, basis, self.residue)
        self._place = place

    def at_precision(self, m2):
        """The shared model of this place at precision m2."""
        key = (type(self), self.datum, self.basis, self.p, m2) \
            + self._place + (self.ring.r,)
        return shared_model(key, lambda: key[0](*key[1:]))


class TameLocalModel(LocalModel):
    """Frame data for one trivial prime: ring precision, q, algebra."""

    def __init__(self, datum, basis, p, m, q, r=1):
        if q % p != 1 or q % (p * p) == 1:
            raise LocalCondParameterError(
                "q must be 1 mod p and not 1 mod p^2")
        super().__init__(datum, basis, p, m, r, (q,))
        self.q = q
        self._covee = {}

    @cached_property
    def sqrt_q(self):
        """The square root of q that is 1 mod p, in the model's ring."""
        s = sqrt_one_mod_p(self.ring, self.ring.el(self.q))
        s.flags.writeable = False
        return s

    def covee_sqrt_q(self, alpha):
        """alpha^vee(sqrt q) as a diagonal element, built once per root."""
        alpha = tuple(alpha)
        t = self._covee.get(alpha)
        if t is None:
            t = self._covee[alpha] = torus_from_coroot_data(
                self.alg, alpha, self.sqrt_q, [0] * self.datum.rank)
            t.mat.flags.writeable = False
        return t


class LocalLift:
    """A pair (rho(sigma), rho(tau)) satisfying the tame relation.  Both
    reduce to 1 mod p, as lifts of the trivial representation do; any
    other pair is refused (InvalidLiftError), whatever `check` says.

    A lift built with check=True is verified once, here: its relation
    is checked (InvalidLiftError when it fails), `verified` records
    that, and the matrices of sigma and tau are made read-only.  Such a
    lift also records, in `verdicts`, the membership verdict of each
    (alpha, variant) that membership has tested without a conjugator,
    and in `tau_coordinates` the u_alpha coordinate of rho(tau) (x with
    rho(tau) = u_alpha(x), or None) for each alpha it was extracted
    and checked for (extract_u_alpha_coordinate).  No record can go
    stale: each is a function of the model and of the two matrices,
    the matrices cannot be written, and no library code rebinds
    `sigma`, `tau` or a `.mat` on a built lift.  A lift built with
    check=False, as conjugate() and reduce() build theirs, is not
    verified and records nothing, and membership checks its relation on
    every call.
    """

    def __init__(self, model, rho_sigma, rho_tau, check=True):
        eye = model.ring.mat_id(model.alg.dim)
        if ((rho_sigma.mat - eye) % model.p).any() or \
                ((rho_tau.mat - eye) % model.p).any():
            raise InvalidLiftError("lift does not reduce to 1 mod p")
        self.model = model
        self.sigma = rho_sigma
        self.tau = rho_tau
        self.verified = False
        self.verdicts = {}
        self.tau_coordinates = {}
        if check:
            if not self.relation_holds():
                raise InvalidLiftError("tame relation violated")
            rho_sigma.mat.flags.writeable = False
            rho_tau.mat.flags.writeable = False
            self.verified = True

    def relation_holds(self):
        """The tame relation sigma tau sigma^-1 = tau^q, checked as
        sigma tau = tau^q sigma: the two are equivalent because sigma
        is 1 mod p, hence invertible."""
        return (self.sigma @ self.tau).eq(
            self.tau.pow(self.model.q) @ self.sigma)

    def reduce(self, m2):
        return LocalLift(self.model.at_precision(m2), self.sigma.reduce(m2),
                         self.tau.reduce(m2), check=False)

    def conjugate(self, g):
        ginv = g.inv()
        return LocalLift(self.model, g @ self.sigma @ ginv,
                         g @ self.tau @ ginv, check=False)


class Cocycle:
    """Generator values over the residue field; trivial residual action,
    so any generator assignment respecting (q-1) c(tau) = 0 (automatic
    mod p) is a cocycle and coboundaries vanish."""

    __slots__ = ("sigma", "tau")

    def __init__(self, sigma, tau):
        self.sigma = np.asarray(sigma, dtype=np.int64)
        self.tau = np.asarray(tau, dtype=np.int64)

    @property
    def ramified(self):
        return bool(self.tau.any())


class ConditionSpace:
    """A subspace of H^1 with an echelonized cocycle basis.

    basis has shape (k, nslots*dim, r); slots are (sigma, tau) for the
    tame model and (sigma, u_1..u_f) for the ordinary model.
    """

    def __init__(self, K, basis, alpha=None):
        self.K = K
        self.basis = fl.echelon_f(K, np.asarray(basis, dtype=np.int64) % K.q) \
            if len(basis) else np.zeros((0, 0, K.r), dtype=np.int64)
        self.alpha = alpha

    @property
    def dim(self):
        return self.basis.shape[0]

    def same_space(self, other_basis):
        """Whether other_basis spans this space: the stored basis is
        already the space's RREF, which is unique, so it is compared
        with one echelon_f of the other basis.  Two rank-0 spaces are
        equal whatever the width of their arrays."""
        other = fl.echelon_f(self.K, np.asarray(other_basis) % self.K.q)
        return (len(self.basis) == len(other) == 0
                or np.array_equal(self.basis, other))


class ExtraCocycles(NamedTuple):
    """The extra cocycles c_beta of a local condition, one per root of
    `betas`: `rows` holds their concatenated generator values over the
    residue field, and `units` the units u_beta of their stability
    conjugators u_beta(lambda p^{m-2} / u_beta) (stability_conjugator)."""

    betas: list
    rows: np.ndarray
    units: list


# -- helpers


def extract_u_alpha_coordinate(model, g, alpha):
    """x with g = u_alpha(x), or None.  Reads the h_alpha-component of
    g X_{-alpha} and verifies exactly."""
    alg, R = model.alg, model.ring
    alpha = tuple(alpha)
    col = alg.basis.root_basis_index(model.datum.neg(alpha))
    cc = model.datum.coroot_coords(alpha)
    i0 = next(i for i, c in enumerate(cc) if c % R.p)
    x = R.div(g.mat[i0, col], R.el(cc[i0]))
    if g.eq(u_alpha(alg, alpha, x)):
        return x
    return None


def _tau_coordinate(lift, alpha):
    """extract_u_alpha_coordinate of the lift's rho(tau), extracted and
    checked once per alpha on a verified lift and read from
    `lift.tau_coordinates` after that; an unverified lift extracts on
    every call."""
    if not lift.verified:
        return extract_u_alpha_coordinate(lift.model, lift.tau, alpha)
    if alpha not in lift.tau_coordinates:
        x = extract_u_alpha_coordinate(lift.model, lift.tau, alpha)
        if x is not None:
            x.flags.writeable = False
        lift.tau_coordinates[alpha] = x
    return lift.tau_coordinates[alpha]


def is_torus_matrix(model, M):
    """Diagonal in the frame with identity Cartan block, mod p^2."""
    D = M % model.p ** 2
    k = np.arange(model.alg.dim)
    off = D.copy()
    off[k, k] = 0
    h = k[:model.datum.rank]
    return not off.any() and bool((D[h, h] == model.ring.one()).all())


def membership(lift, alpha, variant="plain", conjugator=None):
    """Normal-form membership of a LocalLift in the lifting sets.

    variant: plain (Frobenius in T Z(g_alpha) with alpha-image q, tame
    inertia in U_alpha), unr2 (additionally unramified mod p^2 with
    regular torus value on Phi^alpha), ram2 (inertia u_alpha(p y) with
    y a unit, same torus constraints).  A known conjugator may be
    supplied and is applied before testing (the sets are G-hat-stable);
    its inverse is the closed form when it was built by root_product.
    The tame relation of a lift is checked here unless the lift is
    verified (LocalLift): a violation raises InvalidLiftError.  Any
    other variant is refused before anything is tested.

    On a verified lift without a conjugator the verdict is computed in
    full once per (alpha, variant) and recorded in `lift.verdicts`;
    later calls return the record (LocalLift says why it cannot go
    stale).  A call with a conjugator, or on an unverified lift, is
    computed in full and not recorded.
    """
    _check_variant(variant, TAME_VARIANTS)
    alpha = tuple(alpha)
    if conjugator is not None or not lift.verified:
        return _membership(lift, alpha, variant, conjugator)
    key = (alpha, variant)
    verdict = lift.verdicts.get(key)
    if verdict is None:
        verdict = lift.verdicts[key] = _membership(lift, alpha, variant, None)
    return verdict


def _membership(lift, alpha, variant, conjugator):
    """The full membership test (membership), with nothing recorded."""
    model = lift.model
    R, alg = model.ring, model.alg
    if not lift.verified and not lift.relation_holds():
        raise InvalidLiftError("tame relation violated")
    if conjugator is not None:
        lift = lift.conjugate(conjugator)
    # sigma: in T Z(g_alpha) with alpha-image q  <=>  sigma X_alpha = q X_alpha
    Xa = alg.root_vector(alpha)
    if not np.array_equal(lift.sigma.apply(Xa), R.scalar_mul(model.q, Xa)):
        return False
    x = _tau_coordinate(lift, alpha)
    if x is None:
        return False
    if variant == "plain":
        return True
    # mod p^2 conditions
    if R.m < 2:
        raise LocalCondParameterError("variant %s needs precision >= 2"
                                      % variant)
    p2 = model.p ** 2
    s2 = lift.sigma.mat % p2
    if not is_torus_matrix(model, s2):
        return False
    # beta(sigma) != 1 mod p^2 for every beta in Phi^alpha
    k = [alg.basis.root_basis_index(b) for b in phi_alpha(model.basis, alpha)]
    if not ((s2[k, k] - R.one()) % p2).any(axis=-1).all():
        return False
    if variant == "unr2":
        return bool(((lift.tau.mat - R.mat_id(alg.dim)) % p2 == 0).all())
    return R.valuation(x) == 1


def centralizer_of_root_space(model, alpha):
    """Cent_g(g_alpha) over the residue field, from the bracket."""
    K = model.residue
    alg1 = model.alg1
    Xa = alg1.root_vector(tuple(alpha))
    # v with [v, X_alpha] = -ad(X_alpha) v = 0: right kernel of ad(X_alpha)
    return fl.kernel_f(K, alg1.ad(Xa))


def _beta_unit_quotient(model, sigma_mat_p2, beta):
    """(1 - beta(rho2(sigma)))/p as a residue-field element; raises if
    the valuation is not exactly 1 (degenerate denominator)."""
    p = model.p
    i = model.alg.basis.root_basis_index(tuple(beta))
    diff = (model.ring.one() - sigma_mat_p2[i, i]) % (p * p)
    u = (diff // p) % p
    if not u.any():
        raise LocalCondError("degenerate denominator: beta(rho2(sigma)) "
                             "= 1 mod p^2 at %s" % (beta,))
    return u


def tame_extra_cocycles(model, alpha, variant, lift=None, betas=None):
    """The extra cocycles of S^alpha for `betas` (all of Phi^alpha, in
    its order, by default) and their units.

    c_beta is (X_beta, 0) for variant "unr" and (X_beta, y/u_beta
    [X_beta, X_alpha]) for "ram", where rho(tau) = u_alpha(p y) and
    u_beta = (1 - beta(rho(sigma)))/p is read from rho(sigma) mod p^2.
    The units need the lift rho, a member of the unr2 or ram2 set;
    without one (only possible for "unr") they are None.
    """
    _check_variant(variant, ("unr", "ram"))
    K, alg1 = model.residue, model.alg1
    alpha = tuple(alpha)
    if betas is None:
        betas = phi_alpha(model.basis, alpha)
    betas = [tuple(b) for b in betas]
    n = alg1.dim
    rows = np.zeros((len(betas), 2 * n, K.r), dtype=np.int64)
    for row, beta in zip(rows, betas):
        row[alg1.basis.root_basis_index(beta), 0] = 1
    if lift is None:
        if variant == "ram":
            raise LocalCondParameterError("tame variant 'ram' needs rho2")
        return ExtraCocycles(betas, rows, None)
    sig2 = lift.sigma.mat % model.p ** 2
    units = [_beta_unit_quotient(model, sig2, beta) for beta in betas]
    if variant == "ram":
        x = _tau_coordinate(lift, alpha)
        y = (np.asarray(x, dtype=np.int64) // model.p) % model.p
        Xa = alg1.root_vector(alpha)
        for row, u in zip(rows, units):
            row[n:] = K.mul(K.mul(y, K.inv(u)), alg1.bracket(row[:n], Xa))
    return ExtraCocycles(betas, rows, units)


def condition_spaces(model, alpha, variant="unr", rho2=None):
    """Tan^alpha, S^alpha, L^alpha and the dual-side annihilator.

    S is spanned by the extra cocycles of tame_extra_cocycles, one per
    beta in Phi^alpha; variant "ram" needs rho2 in the ram2 set.  dim L
    = dim g is asserted.
    """
    K = model.residue
    alg1 = model.alg1
    d = model.datum
    alpha = tuple(alpha)

    def stack(sig, tau):
        return np.concatenate([sig, tau], axis=0)

    cent = centralizer_of_root_space(model, alpha)
    Xa = alg1.root_vector(alpha)
    tan_rows = [stack(v, np.zeros_like(v)) for v in cent]
    tan_rows.append(stack(np.zeros_like(Xa), Xa))
    tan = ConditionSpace(K, np.stack(tan_rows), alpha)

    lift2 = None
    if variant == "ram" and rho2 is not None:
        lift2 = rho2 if rho2.model.ring.m == 2 else rho2.reduce(2)
        if not membership(lift2, alpha, "ram2"):
            raise InvalidLiftError("rho2 not in the ram2 set")
    extra = tame_extra_cocycles(model, alpha, variant, lift2)
    s_space = ConditionSpace(K, extra.rows, alpha)

    L = ConditionSpace(K, np.concatenate([tan.basis, s_space.basis], axis=0),
                       alpha)
    if L.dim != d.dim:
        raise LocalCondError("dim L^alpha = %d != dim g = %d (bug)"
                             % (L.dim, d.dim))
    perp = perp_space(model, L, check_description=(variant == "unr"))
    return {"tan": tan, "s": s_space, "l": L, "l_perp": perp}


def dual_rows(basis):
    """(phi(tau), -phi(sigma)) for each row phi of a tame cocycle basis,
    so that <phi, psi> is the plain dot product of dual_rows(phi) with
    psi: the sign convention of the tame duality pairing."""
    n = basis.shape[1] // 2
    return np.concatenate([basis[:, n:], -basis[:, :n]], axis=1)


def pairing_gram(K, basis1, basis2):
    """The matrix of duality pairings <basis1[i], basis2[j]>."""
    return K.mat_mul(dual_rows(basis1), basis2.transpose(1, 0, 2))


def full_h1_basis(K, n):
    return K.mat_id(2 * n)


def perp_space(model, space, check_description=False):
    """Annihilator of a condition space under the duality pairing.

    For L^alpha of the unramified variant the result is compared with
    the explicit description corollary_in_frame in the standard frame
    (gm = 1): psi(sigma) annihilating g_alpha and psi(tau) annihilating
    ker(alpha|t) + sum of all root spaces; both must coincide (this
    also validates the bilinear extension of the pairing on the
    ramified-ramified block)."""
    K = model.residue
    n = model.alg1.dim
    # psi with  <phi(tau), psi(sigma)> - <phi(sigma), psi(tau)> = 0; an
    # empty space stores a (0, 0, r) basis, hence the reshape
    A = dual_rows(space.basis.reshape(-1, 2 * n, K.r))
    perp_basis = fl.kernel_f(K, A)
    out = ConditionSpace(K, perp_basis, space.alpha)
    if check_description and space.alpha is not None:
        gm = np.eye(n, dtype=np.int64)
        frame = frame_subspace(model.basis, gm, space.alpha, K.p)
        # the description is an F_p matrix, whose kernels keep their
        # dimension over F_{p^r}, so it spans the same space there
        desc = K.mat_from_int(corollary_in_frame(model.basis, gm, space.alpha,
                                                 K.p, frame))
        if out.dim != model.datum.dim or not out.same_space(desc):
            raise LocalCondError("annihilator disagrees with the explicit "
                                 "description (falsified)")
    return out


def frame_subspace(basis, gm, alpha, p):
    """Ad(g)(ker(alpha|t) + sum of all root spaces) as a row basis over
    F_p, for the Chevalley basis `basis` and gm = Ad(g) mod p."""
    d = basis.datum
    alpha = tuple(alpha)
    ker = modp.kernel_basis(d.simple_pairings[d.root_index[alpha]][None], p)
    k = ker.shape[0]
    M = np.zeros((k + len(d.roots), d.dim), dtype=np.int64)
    M[:k, :d.rank] = ker
    M[np.arange(k, len(M)), [basis.root_basis_index(r) for r in d.roots]] = 1
    return modp.echelon_basis(M @ gm.T % p, p)


def corollary_in_frame(basis, gm, alpha, p, frame):
    """The explicit L^alpha-perp in the frame of g, over F_p: the dual
    classes with sigma-part killing Ad(g) g_alpha and tau-part killing
    `frame` = frame_subspace(basis, gm, alpha, p)."""
    n = basis.datum.dim
    gXa = gm[:, basis.root_basis_index(tuple(alpha))] % p
    sigma = modp.kernel_basis(gXa[None], p)
    tau = modp.kernel_basis(frame, p)
    out = np.zeros((sigma.shape[0] + tau.shape[0], 2 * n), dtype=np.int64)
    out[:sigma.shape[0], :n] = sigma
    out[sigma.shape[0]:, n:] = tau
    return out


def stability_conjugator(alg, factors):
    """g = prod u_beta(x_beta p^{m-2}) over (beta, x_beta) in order, a
    plain product of root elements.  With x_beta = lambda_beta /
    u_beta for the units of the extra cocycles c_beta, exp(p^{m-1} sum
    lambda_beta c_beta) rho = g rho g^-1."""
    R = alg.ring
    scale = R.el(R.p ** (R.m - 2))
    g = None
    for beta, x in factors:
        u = u_alpha(alg, beta, R.mul(x, scale))
        g = u if g is None else g @ u
    return identity(alg) if g is None else g


def stability_holds(values, cocycle, g):
    """exp(p^{m-1} c) rho = g rho g^-1 for the generator values v_i of a
    lift and the concatenated cocycle values c_i, checked as (1 +
    p^{m-1} ad c_i) v_i g = g v_i: for m >= 3 that factor is the
    exponential, and g = 1 mod p is invertible.  Each v_i is 1 mod p,
    so the left factor is the sum perturb(v_i, p^{m-1}, c_i)."""
    alg = g.alg
    scale = alg.ring.p ** (alg.ring.m - 1)
    cs = np.reshape(cocycle, (len(values), alg.dim, alg.ring.r))
    return all((perturb(v, scale, c) @ g).eq(g @ v)
               for v, c in zip(values, cs))


def _stability(model, values, extra, lams):
    """exp(p^{m-1} c) rho = g rho g^-1 on a lift's generator values, for
    c = sum lambda_beta c_beta over the ExtraCocycles and g = prod
    u_beta(lambda_beta / u_beta p^{m-2}); returns (g, c).  A mismatch
    raises: this is a falsifiable theorem check."""
    R, K = model.ring, model.residue
    if R.m < 3:
        raise LocalCondParameterError("stability needs m >= 3")
    c = np.zeros(extra.rows.shape[1:], dtype=np.int64)
    for lam, row in zip(lams, extra.rows):
        c = K.add(c, K.mul(K.el(lam), row))
    g = stability_conjugator(model.alg, [
        (beta, R.mul(R.inv(R.el(u)), R.el(lam)))
        for beta, u, lam in zip(extra.betas, extra.units, lams)])
    if not stability_holds(values, c, g):
        raise LocalCondError("stability identity failed (falsified)")
    return g, c


def stability_check(lift, alpha, variant, coeffs):
    """The stability identity (_stability) for the cocycle sum_beta
    coeffs[beta] c_beta of S^alpha's extra cocycles; returns (g,
    cocycle)."""
    model = lift.model
    _check_variant(variant, ("unr", "ram"))
    alpha = tuple(alpha)
    if not membership(lift, alpha, variant + "2"):
        raise InvalidLiftError("lift not in the %s2 set" % variant)
    extra = tame_extra_cocycles(model, alpha, variant, lift, list(coeffs))
    g, c = _stability(model, [lift.sigma, lift.tau], extra,
                      list(coeffs.values()))
    return g, Cocycle(*np.split(c, 2))


# -- ordinary model at p


def _refuse_large_ordinary(datum, f, r):
    """Refuse an f whose ordinary condition spaces pass SCAN_MAX_CELLS:
    ordinary_spaces holds about 7 arrays of (rank + (1+f) dim n) x
    (1+f) dim g x r int64 cells at its peak."""
    cells = (datum.rank + (1 + f) * len(datum.positive_roots)) \
        * (1 + f) * datum.dim * r
    if 7 * cells > SCAN_MAX_CELLS:
        raise LocalCondParameterError(
            "at f = %d the ordinary spaces hold 7 arrays of %d int64 cells, "
            "past SCAN_MAX_CELLS = %d" % (f, cells, SCAN_MAX_CELLS))


class OrdinaryLocalModel(LocalModel):
    """Free local Galois model at p: generators sigma, u_1..u_f; the
    torus data chi (a dict or its sorted items) gives every generator an
    integer tuple of simple-root values, read mod p^m at each level."""

    def __init__(self, datum, basis, p, m, f, chi, r=1):
        if m < 2:
            raise LocalCondParameterError(
                "the ordinary normal form is read mod p^2: needs m >= 2")
        _refuse_large_ordinary(datum, f, r)
        self.f = f
        self.generators = ["s"] + ["u%d" % (i + 1) for i in range(f)]
        chi = dict(chi)
        self.chi = {g: tuple(int(c) for c in chi[g]) for g in self.generators}
        super().__init__(datum, basis, p, m, r,
                         (f, tuple(sorted(self.chi.items()))))
        self._chi_tables = {}

    @cached_property
    def chi_tori(self):
        """gen -> torus_elt of chi(gen) at the model's precision, read-only."""
        tori = {g: torus_elt(self.alg, self.chi[g]) for g in self.generators}
        for t in tori.values():
            t.mat.flags.writeable = False
        return tori

    def chi_table(self, gen, modulus=None):
        """beta(chi(gen)) for every root beta, ordered like datum.roots:
        the root diagonal of chi_tori[gen] mod p^m, or mod a modulus
        dividing p^m, as a read-only int64 array built once per
        (generator, modulus)."""
        mod = modulus if modulus is not None else self.ring.q
        table = self._chi_tables.get((gen, mod))
        if table is None:
            table = self._chi_tables[(gen, mod)] = np.diagonal(
                self.chi_tori[gen].mat[..., 0])[self.datum.rank:] % mod
            table.flags.writeable = False
        return table

    def check_regularity(self):
        """Every negative root must be nontrivial mod p^2 on inertia."""
        p2 = self.p ** 2
        inertia = [self.chi_table(g, p2) for g in self.generators[1:]]
        bad = [beta for k, beta in enumerate(self.datum.roots)
               if not self.datum._is_positive(beta)
               and all(t[k] == 1 for t in inertia)]
        if bad:
            raise LocalCondError("degenerate chi_T: beta(chi) = 1 mod p^2 "
                                 "on inertia for %s" % (bad,))


class OrdinaryLift:
    """Generator tuple of group elements; mod p^2 it must equal the
    torus values of chi (the favorable-reduction subset)."""

    def __init__(self, model, values, check=True):
        self.model = model
        self.values = dict(values)
        if check and not self.mod_p2_normal_form():
            raise InvalidLiftError("mod p^2 reduction is not the chi torus")

    def mod_p2_normal_form(self):
        p2 = self.model.p ** 2
        return not any(
            ((self.values[g].mat - self.model.chi_tori[g].mat) % p2).any()
            for g in self.model.generators)

    def conjugate(self, g):
        ginv = g.inv()
        return OrdinaryLift(self.model,
                            {k: g @ v @ ginv for k, v in self.values.items()},
                            check=False)


def chi_torus_lift(model):
    """The lift sending every generator to its chi-torus element at the
    model's precision."""
    return OrdinaryLift(model, {g: model.chi_tori[g]
                                for g in model.generators})


def _torus_matrix_from_chi(model, gen, modulus):
    return model.chi_tori[gen].mat % modulus


def borel_basis_indices(alg):
    return list(range(alg.rank)) + [alg.basis.root_basis_index(r)
                                    for r in alg.datum.positive_roots]


def membership_ordinary(lift, conjugator=None):
    """Normal-form ordinary membership: mod p^2 torus equals chi; every
    generator preserves the Borel subalgebra; the induced torus value of
    each inertia generator on the simple root lines equals chi."""
    model = lift.model
    if conjugator is not None:
        lift = lift.conjugate(conjugator)
    if not lift.mod_p2_normal_form():
        return False
    R = model.ring
    alg = model.alg
    bidx = borel_basis_indices(alg)
    off = np.ones(alg.dim, dtype=bool)
    off[bidx] = False
    for gname in model.generators:
        if (lift.values[gname].mat[off][:, bidx] % R.q).any():
            return False
    ii = model.datum.rank + model.datum.simple_indices
    for gname in model.generators[1:]:
        if (lift.values[gname].mat[ii, ii] % R.q
                != model.chi_tori[gname].mat[ii, ii]).any():
            return False
    return True


def ordinary_spaces(model):
    """Tangent, extra cocycles and L for the ordinary condition with
    residually trivial rho: explicit bases; tangent phi(u_i) in n,
    phi(sigma) in b, of dimension dim b + f dim n; the extra cocycles of
    ordinary_extra_cocycles, one per negative root; dim L = dim g + f
    dim n."""
    d = model.datum
    K = model.residue
    f = model.f
    dim_n = len(d.positive_roots)
    dim_b = d.rank + dim_n
    model.check_regularity()
    # phi(sigma) in b on slot 0, phi(u_i) in n on slot i
    n = d.dim
    bidx = borel_basis_indices(model.alg1)
    cols = bidx + [s * n + j for s in range(1, 1 + f) for j in bidx[d.rank:]]
    tan_rows = np.zeros((len(cols), (1 + f) * n, K.r), dtype=np.int64)
    tan_rows[np.arange(len(cols)), cols, 0] = 1
    tan = ConditionSpace(K, tan_rows)
    if tan.dim != dim_b + f * dim_n:
        raise LocalCondError("ordinary tangent dimension mismatch (bug)")

    extra = ConditionSpace(K, ordinary_extra_cocycles(model).rows)
    if extra.dim != dim_n:
        raise LocalCondError("ordinary extra-cocycle count != dim n")
    L = ConditionSpace(K, np.concatenate([tan.basis, extra.basis], axis=0))
    if L.dim != d.dim + f * dim_n:
        raise LocalCondError("dim L^chi != dim g + f dim n (bug)")
    return {"tan": tan, "s": extra, "l": L}


def ordinary_extra_cocycles(model, betas=None):
    """The extra cocycles of the ordinary condition for `betas` (every
    negative root, in root order, by default): c_beta(gen) = (1 -
    beta(chi(gen)))/p X_beta on every generator.  The stability
    conjugator of lambda c_beta is u_beta(lambda p^{m-2}), so every
    unit is 1."""
    d, K = model.datum, model.residue
    p, p2 = model.p, model.p ** 2
    if betas is None:
        betas = [r for r in d.roots if not d._is_positive(r)]
    betas = [tuple(b) for b in betas]
    n = d.dim
    rows = np.zeros((len(betas), len(model.generators) * n, K.r),
                    dtype=np.int64)
    for row, beta in zip(rows, betas):
        k = d.root_index[beta]
        ib = model.alg1.basis.root_basis_index(beta)
        for slot, gname in enumerate(model.generators):
            u = (1 - model.chi_table(gname, p2)[k]) % p2
            if u % p:
                raise LocalCondError("beta(chi(%s)) is not 1 mod p" % gname)
            row[slot * n + ib, 0] = u // p
    return ExtraCocycles(betas, rows, [K.one() for _ in betas])


def ordinary_stability_check(lift, beta, lam=1):
    """The stability identity (_stability) exp(p^{m-1} lambda c_beta)
    rho = u_beta(lambda p^{m-2}) rho u_beta(...)^{-1} over every
    generator, for the extra cocycle c_beta of ordinary_extra_cocycles,
    whose unit is 1; returns the conjugator."""
    model = lift.model
    return _stability(model, [lift.values[g] for g in model.generators],
                      ordinary_extra_cocycles(model, [tuple(beta)]), [lam])[0]


# -- fixed-multiplier (central augmentation) bookkeeping


def augment_with_center(space, adim):
    """View a condition space inside g + a (central summand a of
    dimension adim, trivial action): unramified central directions are
    added on the sigma slot of the first block."""
    K = space.K
    k, tot = space.basis.shape[0], space.basis.shape[1]
    n = tot // 2
    newtot = 2 * (n + adim)
    rows = np.zeros((k + adim, newtot, K.r), dtype=np.int64)
    rows[:k, :n] = space.basis[:, :n]
    rows[:k, n + adim: 2 * n + adim] = space.basis[:, n:]
    rows[k:, n: n + adim] = K.mat_id(adim)
    return ConditionSpace(K, rows, space.alpha)


def fixed_multiplier_restrict(space, adim):
    """L^{nu,alpha} = L^alpha intersected with H^1 of g_mu: {cB : cB = 0
    on the central columns}, [n, n + adim) in the sigma slot and [2n +
    adim, 2n + 2 adim) in the tau slot, for the basis B; the identity
    operation for semisimple g (adim = 0) and on the zero space."""
    if adim == 0 or space.dim == 0:
        return space
    K, B = space.K, space.basis
    n = B.shape[1] // 2 - adim
    central = np.r_[n: n + adim, 2 * n + adim: 2 * n + 2 * adim]
    c = fl.kernel_f(K, B[:, central].swapaxes(0, 1))
    return ConditionSpace(K, K.mat_mul(c, B), space.alpha)


# -- smoothness probes


def _assemble_member(model, alpha, coords):
    """Normal-form member from coordinates: sigma = alpha^vee(s) t'
    prod u_beta(x_beta) u_alpha(x_a), tau = u_alpha(x_tau), where t'
    is a torus element with alpha(t') = 1, the beta run outside
    Phi^alpha, and the relation holds automatically because every
    factor of sigma fixes X_alpha up to the scalar q."""
    R = model.ring
    alg = model.alg
    sigma = model.covee_sqrt_q(alpha) @ torus_elt(alg, coords["tvals"])
    for beta, x in coords["cent"]:
        sigma = sigma @ u_alpha(alg, beta, R.el(list(x)))
    sigma = sigma @ u_alpha(alg, alpha, R.el(list(coords["xa"])))
    tau = u_alpha(alg, alpha, R.el(list(coords["xtau"])))
    return LocalLift(model, sigma, tau)


def sample_member(model, alpha, variant, rng):
    """A random normal-form member of the lifting set (alpha simple,
    variant plain, unr2 or ram2); returns (lift, coords) with the
    generating coordinates."""
    _check_variant(variant, TAME_VARIANTS)
    R = model.ring
    d = model.datum
    alpha = tuple(alpha)
    if sum(alpha) != 1:
        raise LocalCondError("probe sampling uses simple alpha")
    j0 = alpha.index(1)
    pa = set(tuple(b) for b in phi_alpha(model.basis, alpha))
    # residually trivial: torus values 1 mod p, coordinates 0 mod p
    depth = R.p ** 2 if variant in ("unr2", "ram2") else R.p
    for _ in range(SAMPLE_MEMBER_TRIES):
        tvals = [R.one() if i == j0 else
                 R.add(R.one(), R.scalar_mul(R.p, R.random(rng)))
                 for i in range(d.rank)]
        cent = []
        for beta in d.roots:
            if tuple(beta) in pa or tuple(beta) == alpha:
                continue
            if rng.random() < 0.5:
                cent.append((tuple(beta), R.scalar_mul(depth, R.random(rng))))
        xa = R.scalar_mul(depth, R.random(rng))
        if variant == "ram2":
            xtau = R.scalar_mul(model.p, R.random_unit(rng))
        elif variant == "unr2":
            xtau = R.scalar_mul(model.p ** 2, R.random(rng))
        else:
            xtau = R.scalar_mul(model.p, R.random(rng))
        coords = {"tvals": tvals, "cent": cent, "xa": xa, "xtau": xtau}
        lift = _assemble_member(model, alpha, coords)
        if membership(lift, alpha, variant):
            return lift, coords
    raise LocalCondError("could not sample a member in SAMPLE_MEMBER_TRIES "
                         "= %d draws" % SAMPLE_MEMBER_TRIES)


def lift_coordinates(model, alpha, coords, rng):
    """Normal-form member coordinates at the model's precision p^m
    lifted to p^{m+1}: every free coordinate gets a random top digit,
    drawn in the order tvals, cent, xa, xtau; the pinned coordinate
    alpha(t') = 1 stays exact (the paper corrects it by alpha^vee(1 -
    i/2), which is the same normalization)."""
    p, q = model.p, model.ring.q
    j0 = tuple(alpha).index(1)

    def up(x):
        return (np.asarray(x, dtype=np.int64) + q * rng.integers(0, p)) \
            % (q * p)

    return {"tvals": [v % (q * p) if i == j0 else up(v)
                      for i, v in enumerate(coords["tvals"])],
            "cent": [(b, up(x)) for b, x in coords["cent"]],
            "xa": up(coords["xa"]),
            "xtau": up(coords["xtau"])}


def smoothness_probe(model, alpha, variant, samples, rng):
    """Sample members mod p^m and lift each to p^{m+1} by lifting its
    normal-form coordinates (t, centralizer factors, x) with random top
    digits; the relation and the membership are re-verified exactly at
    the higher precision.  variant is plain, unr2 or ram2.  Returns the
    success count (must equal samples); an unliftable sample raises."""
    _check_variant(variant, TAME_VARIANTS)
    model_up = model.at_precision(model.ring.m + 1)
    ok = 0
    for _ in range(samples):
        lift, coords = sample_member(model, alpha, variant, rng)
        up = _assemble_member(model_up, alpha,
                              lift_coordinates(model, alpha, coords, rng))
        if (up.sigma.mat % model.ring.q != lift.sigma.mat).any() or \
                (up.tau.mat % model.ring.q != lift.tau.mat).any():
            raise LocalCondError("coordinate lift does not reduce back (bug)")
        if not membership(up, alpha, variant):
            raise LocalCondError("lifted member failed membership")
        ok += 1
    return ok


def frobenius_member(model, alpha, variant, seed=0):
    """A normal-form member for any root alpha: sigma is the torus
    element (1 + p b) alpha^vee(q^{1/2}) found by the hyperplane-
    avoiding Frobenius search (so every Phi^alpha denominator is a
    unit), tau = 1 mod p^2 (unr2) or u_alpha(p) (plain and ram2)."""
    _check_variant(variant, TAME_VARIANTS)
    R = model.ring
    alpha = tuple(alpha)
    b, rep = frobenius_b_search(model.datum, model.basis, alpha, model.p,
                                model.q % (model.p ** 2), seed=seed)
    sigma = torus_from_coroot_data(model.alg, alpha, model.sqrt_q, b)
    x = R.el(0 if variant == "unr2" else model.p)
    tau = u_alpha(model.alg, alpha, x)
    lift = LocalLift(model, sigma, tau)
    if not membership(lift, alpha, variant):
        raise LocalCondError("frobenius member failed membership (bug)")
    return lift, rep


def find_regular_chi(datum, p, f):
    """Torus character data chi with beta(chi) != 1 mod p^2 on inertia
    for every negative root: chi(s) = (1 + p)_j and chi(u_i) = (1 +
    c_{i,j} p)_j with the covering condition that every beta pairs
    nontrivially with some inertia generator.

    Exhaustive over F_p^rank per generator, and refused
    (LocalCondParameterError) past chevgroup.SCAN_MAX_CELLS, as is a
    too large f, before the cover is padded to f generators.  Returns
    None when provably infeasible -- e.g. G2 at p = 5 with f = 1, where
    the six root directions are all six lines of F_5^2."""
    rank = datum.rank
    neg = [k for k, r in enumerate(datum.roots) if not datum._is_positive(r)]
    cells = (p ** rank - 1) * len(neg)
    if cells > SCAN_MAX_CELLS:
        raise LocalCondParameterError(
            "the scan of F_%d^%d over %d roots is %d int64 cells, past "
            "SCAN_MAX_CELLS = %d" % (p, rank, len(neg), cells, SCAN_MAX_CELLS))
    # every nonzero c in F_p^rank; covers[j, l]: c_j pairs nontrivially
    # with the l-th negative root, sum_i c_i beta_i != 0 mod p
    cands = np.arange(1, p ** rank)[:, None] // p ** np.arange(rank) % p
    # reduced in place, so that one int64 array of the scan's size exists
    covers = cands @ datum.root_matrix[neg].T
    covers %= p
    covers = covers != 0
    # greedy cover: each generator takes a candidate covering the most
    # of the still-uncovered negative roots
    remaining = np.ones(len(neg), dtype=bool)
    chosen = []
    for _ in range(f):
        best = int(np.argmax(covers[:, remaining].sum(axis=1)))
        chosen.append(cands[best].tolist())
        remaining &= ~covers[best]
        if not remaining.any():
            break
    if remaining.any():
        return None
    if len(chosen) < f:
        _refuse_large_ordinary(datum, f, 1)
        chosen += [chosen[0]] * (f - len(chosen))
    chi = {"s": tuple(1 + p for _ in range(rank))}
    for i, c in enumerate(chosen):
        chi["u%d" % (i + 1)] = tuple(1 + int(x) * p for x in c)
    return chi
