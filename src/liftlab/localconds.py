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

Membership in the lifting sets is tested in a caller-supplied torus
frame (normal form); an explicitly known conjugator may be passed in,
which covers every construction in this package.  Full conjugacy
search is out of scope by design.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import fieldlinalg as fl
from .coeffring import CoeffRing, sqrt_one_mod_p
from .chevgroup import (GroupElement, LieAlgebra, identity, one_plus,
                        torus_elt, torus_from_root_values, torus_root_values,
                        u_alpha)
from .rootdata import phi_alpha


class LocalCondError(ValueError):
    pass


class InvalidLiftError(LocalCondError):
    pass


def hensel_sqrt(R, q):
    return sqrt_one_mod_p(R, R.el(q))


class TameLocalModel:
    """Frame data for one trivial prime: ring precision, q, algebra.

    The tame inertia generator is normalized against the globally fixed
    p-th root of unity (zeta flag); no implemented check depends on the
    specific zeta, but the flag is carried for audit.
    """

    def __init__(self, datum, basis, p, m, q, r=1, zeta_normalized=True):
        if q % p != 1 or q % (p * p) == 1:
            raise LocalCondError("q must be 1 mod p and not 1 mod p^2")
        self.p, self.m, self.q = p, m, q
        self.ring = CoeffRing(p, m, r)
        self.alg = LieAlgebra(datum, basis, self.ring)
        self.residue = CoeffRing(p, 1, r)
        self.alg1 = LieAlgebra(datum, basis, self.residue)
        self.datum, self.basis = datum, basis
        self.zeta_normalized = zeta_normalized
        self._covee = {}

    @cached_property
    def sqrt_q(self):
        """The square root of q that is 1 mod p, in the model's ring."""
        s = hensel_sqrt(self.ring, self.q)
        s.flags.writeable = False
        return s

    def covee_sqrt_q(self, alpha):
        """alpha^vee(sqrt q) as a diagonal element, built once per root."""
        alpha = tuple(alpha)
        t = self._covee.get(alpha)
        if t is None:
            t = self._covee[alpha] = _alpha_covee(self, alpha, self.sqrt_q)
            t.mat.flags.writeable = False
        return t

    def at_precision(self, m2):
        return TameLocalModel(self.datum, self.basis, self.p, m2, self.q,
                              r=self.ring.r,
                              zeta_normalized=self.zeta_normalized)


class LocalLift:
    """A pair (rho(sigma), rho(tau)) satisfying the tame relation."""

    def __init__(self, model, rho_sigma, rho_tau, check=True):
        self.model = model
        self.sigma = rho_sigma
        self.tau = rho_tau
        if check and not self.relation_holds():
            raise InvalidLiftError("tame relation violated")

    def relation_holds(self):
        """The tame relation sigma tau sigma^-1 = tau^q, checked as
        sigma tau = tau^q sigma.

        The two are equivalent for invertible sigma, so sigma is checked
        first: a sigma = 1 mod p (every residually trivial lift) is
        invertible, any other takes one elimination mod p, and a sigma
        singular mod p is refused with CoeffRingError (the inverse in
        the relation does not exist).
        """
        self.sigma.check_invertible()
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
        return bool(np.any(self.tau))


class ConditionSpace:
    """A labeled subspace of H^1 with an echelonized cocycle basis.

    basis has shape (k, nslots*dim, r); slots are (sigma, tau) for the
    tame model and (sigma, u_1..u_f) for the ordinary model.
    """

    def __init__(self, label, K, basis, alpha=None, meta=None):
        self.label = label
        self.K = K
        self.basis = fl.echelon_f(K, np.asarray(basis, dtype=np.int64) % K.q) \
            if len(basis) else np.zeros((0, 0, K.r), dtype=np.int64)
        self.alpha = alpha
        self.meta = meta or {}

    @property
    def dim(self):
        return self.basis.shape[0]

    def same_space(self, other_basis):
        return fl.same_space_f(self.K, self.basis,
                               np.asarray(other_basis) % self.K.q)


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


def is_torus_matrix(model, M, upto=None):
    """Diagonal in the frame with identity Cartan block (mod p^upto)."""
    R = model.ring
    q = R.p ** (upto if upto is not None else R.m)
    n = model.alg.dim
    rank = model.datum.rank
    D = M % q
    off = D.copy()
    off[np.arange(n), np.arange(n)] = 0
    if np.any(off % q):
        return False
    return bool(np.all(D[np.arange(rank), np.arange(rank)] == R.one() % q))


def membership(lift, alpha, variant="plain", conjugator=None):
    """Normal-form membership of a LocalLift in the lifting sets.

    variant: plain (Frobenius in T Z(g_alpha) with alpha-image q, tame
    inertia in U_alpha), unr2 (additionally unramified mod p^2 with
    regular torus value on Phi^alpha), ram2 (inertia u_alpha(p y) with
    y a unit, same torus constraints).  A known conjugator may be
    supplied and is applied before testing (the sets are G-hat-stable);
    its inverse is the closed form when it was built by root_product.
    """
    model = lift.model
    R, alg = model.ring, model.alg
    alpha = tuple(alpha)
    if not lift.relation_holds():
        raise InvalidLiftError("tame relation violated")
    if conjugator is not None:
        lift = lift.conjugate(conjugator)
    # lifts of the trivial representation reduce to 1 mod p
    eye = R.mat_id(alg.dim)
    if np.any((lift.sigma.mat - eye) % model.p) or \
            np.any((lift.tau.mat - eye) % model.p):
        return False
    # sigma: in T Z(g_alpha) with alpha-image q  <=>  sigma X_alpha = q X_alpha
    Xa = alg.root_vector(alpha)
    if not np.array_equal(lift.sigma.apply(Xa), R.scalar_mul(model.q, Xa)):
        return False
    x = extract_u_alpha_coordinate(model, lift.tau, alpha)
    if x is None:
        return False
    if variant == "plain":
        return True
    # mod p^2 conditions
    if R.m < 2:
        raise LocalCondError("variant %s needs precision >= 2" % variant)
    p2 = model.p ** 2
    s2 = lift.sigma.mat % p2
    if not is_torus_matrix(model, s2, upto=2):
        return False
    # beta(sigma) != 1 mod p^2 for every beta in Phi^alpha
    k = [alg.basis.root_basis_index(b) for b in phi_alpha(model.basis, alpha)]
    if not np.all(np.any((s2[k, k] - R.one()) % p2, axis=-1)):
        return False
    if variant == "unr2":
        return bool(np.all((lift.tau.mat - R.mat_id(alg.dim)) % p2 == 0))
    if variant == "ram2":
        return R.valuation(x) == 1
    raise LocalCondError("unknown variant %r" % variant)


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
    val = sigma_mat_p2[i, i] % (p * p)
    one = np.zeros(model.ring.r, dtype=np.int64)
    one[0] = 1
    diff = (one - val) % (p * p)
    if np.any(diff % p):
        raise LocalCondError("beta(rho2(sigma)) not 1 mod p at %s" % (beta,))
    u = (diff // p) % p
    if not np.any(u):
        raise LocalCondError("degenerate denominator: beta(rho2(sigma)) "
                             "= 1 mod p^2 at %s" % (beta,))
    return u


def condition_spaces(model, alpha, variant="unr", rho2=None):
    """Tan^alpha, S^alpha, L^alpha and the dual-side annihilator.

    variant "unr": S has one unramified cocycle (X_beta, 0) per beta in
    Phi^alpha.  variant "ram": rho2 must lie in the ram2 set; S has
    basis c_beta = (X_beta, y/u_beta [X_beta, X_alpha]) with u_beta the
    unit (1 - beta(rho2(sigma)))/p.  dim L = dim g is asserted.
    """
    K = model.residue
    alg1 = model.alg1
    d = model.datum
    alpha = tuple(alpha)
    pa = phi_alpha(model.basis, alpha)

    def stack(sig, tau):
        return np.concatenate([sig, tau], axis=0)

    cent = centralizer_of_root_space(model, alpha)
    Xa = alg1.root_vector(alpha)
    tan_rows = [stack(v, np.zeros_like(v)) for v in cent]
    tan_rows.append(stack(np.zeros_like(Xa), Xa))
    tan = ConditionSpace("Tan^alpha", K, np.stack(tan_rows), alpha)

    s_rows = []
    y_u = {}
    if variant == "unr":
        for beta in pa:
            Xb = alg1.root_vector(beta)
            s_rows.append(stack(Xb, np.zeros_like(Xb)))
        label = "S^alpha_unr"
    elif variant == "ram":
        if rho2 is None:
            raise LocalCondError("ram variant needs rho2")
        lift2 = rho2 if rho2.model.ring.m == 2 else rho2.reduce(2)
        if not membership(lift2, alpha, "ram2"):
            raise InvalidLiftError("rho2 not in the ram2 set")
        xcoord = extract_u_alpha_coordinate(lift2.model, lift2.tau, alpha)
        y = (np.asarray(xcoord, dtype=np.int64) // model.p) % model.p
        s2 = lift2.sigma.mat
        for beta in pa:
            u = _beta_unit_quotient(model, s2, beta)
            w = K.mul(y, K.inv(u))
            y_u[tuple(beta)] = (u, w)
            Xb = alg1.root_vector(beta)
            s_rows.append(stack(Xb, K.mul(w, alg1.bracket(Xb, Xa))))
        label = "S^alpha_ram"
    else:
        raise LocalCondError("unknown variant %r" % variant)
    s_space = ConditionSpace(label, K, np.stack(s_rows), alpha,
                             meta={"y_u": y_u})

    L = ConditionSpace("L^alpha", K,
                       np.concatenate([tan.basis, s_space.basis], axis=0),
                       alpha, meta={"variant": variant, "y_u": y_u})
    if L.dim != d.dim:
        raise LocalCondError("dim L^alpha = %d != dim g = %d (bug)"
                             % (L.dim, d.dim))
    perp = perp_space(model, L, check_description=(variant == "unr"))
    return {"tan": tan, "s": s_space, "l": L, "l_perp": perp}


def _dual_rows(basis):
    """(phi(tau), -phi(sigma)) for each row phi of a tame cocycle basis,
    so that <phi, psi> is the plain dot product of _dual_rows(phi) with
    psi."""
    n = basis.shape[1] // 2
    return np.concatenate([basis[:, n:], -basis[:, :n]], axis=1)


def duality_pairing(K, phi, psi):
    """inv(phi cup psi) for the tame model with trivial coefficients:
    <phi(tau), psi(sigma)> - <phi(sigma), psi(tau)>, the bilinear
    extension of the two unramified rules of local duality."""
    return pairing_gram(K, phi[None], psi[None])[0, 0]


def pairing_gram(K, basis1, basis2):
    """The matrix of duality pairings <basis1[i], basis2[j]>."""
    return K.mat_mul(_dual_rows(basis1), basis2.transpose(1, 0, 2))


def full_h1_basis(K, n):
    out = np.zeros((2 * n, 2 * n, K.r), dtype=np.int64)
    for i in range(2 * n):
        out[i, i] = K.one()
    return out


def perp_space(model, space, check_description=False):
    """Annihilator of a condition space under the duality pairing.

    For L^alpha of the unramified variant the result is compared with
    the explicit description: psi(sigma) annihilating g_alpha and
    psi(tau) annihilating ker(alpha|t) + sum of all root spaces; both
    must coincide (this also validates the bilinear extension of the
    pairing on the ramified-ramified block)."""
    K = model.residue
    n = model.alg1.dim
    # psi with  <phi(tau), psi(sigma)> - <phi(sigma), psi(tau)> = 0; an
    # empty space stores a (0, 0, r) basis, hence the reshape
    A = _dual_rows(space.basis.reshape(-1, 2 * n, K.r))
    perp_basis = fl.kernel_f(K, A)
    out = ConditionSpace(space.label + "_perp", K, perp_basis, space.alpha)
    if check_description and space.alpha is not None:
        desc = _corollary_description(model, space.alpha)
        if out.dim != model.datum.dim or not out.same_space(desc):
            raise LocalCondError("annihilator disagrees with the explicit "
                                 "description (falsified)")
    return out


def _corollary_description(model, alpha):
    """Dual classes with psi(sigma) perp g_alpha and psi(tau) perp
    (ker(alpha|t) + all root spaces)."""
    K = model.residue
    alg1 = model.alg1
    d = model.datum
    n = alg1.dim
    alpha = tuple(alpha)
    ia = alg1.basis.root_basis_index(alpha)
    rows = []
    # sigma-part: coordinate dual vectors vanishing on X_alpha
    for i in range(n):
        if i == ia:
            continue
        v = np.zeros((2 * n, K.r), dtype=np.int64)
        v[i] = K.one()
        rows.append(v)
    # tau-part: annihilator of ker(alpha|t) + root spaces; that span has
    # annihilator spanned by the functional x -> <alpha-coefficient of t-part>
    span = []
    for v in _kernel_alpha_on_t(model, alpha):
        span.append(v)
    for r in d.roots:
        e = np.zeros((n, K.r), dtype=np.int64)
        e[alg1.basis.root_basis_index(r)] = K.one()
        span.append(e)
    ann = fl.kernel_f(K, np.stack(span))
    for a in ann:
        v = np.zeros((2 * n, K.r), dtype=np.int64)
        v[n:] = a
        rows.append(v)
    return np.stack(rows)


def _kernel_alpha_on_t(model, alpha):
    """Basis of ker(alpha) inside the Cartan, over the residue field."""
    K = model.residue
    d = model.datum
    n = model.alg1.dim
    row = np.zeros((1, d.rank, K.r), dtype=np.int64)
    row[0, :, 0] = d.simple_pairings[d.root_index[tuple(alpha)]] % K.q
    ker = fl.kernel_f(K, row)
    out = []
    for v in ker:
        e = np.zeros((n, K.r), dtype=np.int64)
        e[: d.rank] = v
        out.append(e)
    return out


def stability_conjugator(model, alpha, variant, coeffs, sigma_mat_p2,
                         chi=None):
    """The explicit conjugator for exp(p^{m-1} c) rho ~ rho.

    coeffs maps beta in Phi^alpha (or Phi^- for the ordinary variant)
    to the scalar multiplying the basis cocycle c_beta.  For unr/ram,
    g = prod u_beta(z_beta lambda_beta p^{m-2}) with z_beta the inverse
    of the unit (1 - beta(rho2(sigma)))/p; for ord, g = prod
    u_beta(lambda_beta p^{m-2})."""
    R = model.ring
    alg = model.alg
    g = identity(alg)
    scale = R.p ** (R.m - 2)
    for beta, lam in coeffs.items():
        if variant in ("unr", "ram"):
            u = _beta_unit_quotient(model, sigma_mat_p2, beta)
            z = R.inv(R.el(list(u)))
        else:
            z = R.one()
        lam_el = R.el(int(lam)) if np.isscalar(lam) else R.el(list(lam))
        val = R.mul(R.mul(z, lam_el), R.el(scale))
        g = g @ u_alpha(alg, tuple(beta), val)
    return g


def stability_check(lift, alpha, variant, coeffs, spaces=None, chi=None):
    """Verify exp(p^{m-1} c) rho = g rho g^{-1} exactly, for the cocycle
    c = sum_beta lambda_beta c_beta of the basis of S^alpha (or the
    ordinary extra cocycles).  Returns (g, cocycle); mismatch raises,
    since this is a falsifiable theorem check.

    The identity is checked as lhs g = g rho for rho(sigma) and
    rho(tau), with lhs = (1 + p^{m-1} ad c) rho: the conjugator g is a
    product of u_beta(p^{m-2} ...) with m >= 3, hence = 1 mod p and
    invertible, so the two forms are equivalent.
    """
    model = lift.model
    R = model.ring
    K = model.residue
    alg = model.alg
    m = R.m
    if m < 3:
        raise LocalCondError("stability needs m >= 3")
    alpha = tuple(alpha)
    p2 = model.p ** 2
    sig2 = lift.sigma.mat % p2
    if variant == "unr":
        if not membership(lift, alpha, "unr2"):
            raise InvalidLiftError("lift not in the unr2 set")
    elif variant == "ram":
        if not membership(lift, alpha, "ram2"):
            raise InvalidLiftError("lift not in the ram2 set")
    else:
        raise LocalCondError("variant must be unr or ram here")
    # assemble the cocycle
    n = alg.dim
    csig = np.zeros((n, K.r), dtype=np.int64)
    ctau = np.zeros((n, K.r), dtype=np.int64)
    if variant == "ram":
        lift2 = lift.reduce(2)
        xcoord = extract_u_alpha_coordinate(lift2.model, lift2.tau, alpha)
        y = (np.asarray(xcoord, dtype=np.int64) // model.p) % model.p
    for beta, lam in coeffs.items():
        ib = alg.basis.root_basis_index(tuple(beta))
        lam_el = K.el(int(lam)) if np.isscalar(lam) else K.el(list(lam))
        csig[ib] = K.add(csig[ib], lam_el)
        if variant == "ram":
            u = _beta_unit_quotient(model, sig2, beta)
            w = K.mul(y, K.inv(u))
            br = model.alg1.bracket(model.alg1.root_vector(tuple(beta)),
                                    model.alg1.root_vector(alpha))
            ctau = K.add(ctau, K.mul(K.mul(lam_el, w), br))
    g = stability_conjugator(model, alpha, variant, coeffs, sig2)
    scale = R.p ** (m - 1)
    lhs_sigma = one_plus(alg, scale, _lift_vec(R, csig)) @ lift.sigma
    lhs_tau = one_plus(alg, scale, _lift_vec(R, ctau)) @ lift.tau
    if not ((lhs_sigma @ g).eq(g @ lift.sigma)
            and (lhs_tau @ g).eq(g @ lift.tau)):
        raise LocalCondError("stability identity failed (falsified)")
    return g, Cocycle(csig, ctau)


def _lift_vec(R, v):
    return np.asarray(v, dtype=np.int64) % R.q


# -- ordinary model at p


class OrdinaryLocalModel:
    """Free local Galois model at p: generators sigma, u_1..u_f; the
    fixed torus cocharacter data chi assigns every generator an integer
    tuple of simple-root values (interpreted mod p^m at each level)."""

    def __init__(self, datum, basis, p, m, f, chi, r=1):
        self.datum, self.basis = datum, basis
        self.p, self.m, self.f = p, m, f
        self.ring = CoeffRing(p, m, r)
        self.alg = LieAlgebra(datum, basis, self.ring)
        self.residue = CoeffRing(p, 1, r)
        self.alg1 = LieAlgebra(datum, basis, self.residue)
        self.generators = ["s"] + ["u%d" % (i + 1) for i in range(f)]
        self.chi = {g: tuple(int(c) for c in chi[g]) for g in self.generators}
        self._chi_tables = {}

    def at_precision(self, m2):
        return OrdinaryLocalModel(self.datum, self.basis, self.p, m2, self.f,
                                  self.chi, r=self.ring.r)

    def chi_table(self, gen, modulus=None):
        """beta(chi(gen)) mod p^m (or a given modulus) for every root
        beta, ordered like datum.roots, as Python ints; built once per
        (generator, modulus)."""
        mod = modulus if modulus is not None else self.ring.q
        table = self._chi_tables.get((gen, mod))
        if table is None:
            units = [c % mod for c in self.chi[gen]]
            invs = [pow(c, -1, mod) for c in units]
            table = []
            for row in self.datum.root_matrix.tolist():
                val = 1
                for c, ci, e in zip(units, invs, row):
                    val = val * pow(c if e >= 0 else ci, abs(e), mod) % mod
                table.append(val)
            table = self._chi_tables[(gen, mod)] = tuple(table)
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
        for g in self.model.generators:
            tor = _torus_matrix_from_chi(self.model, g, p2)
            if np.any((self.values[g].mat - tor) % p2):
                return False
        return True

    def conjugate(self, g):
        ginv = g.inv()
        return OrdinaryLift(self.model,
                            {k: g @ v @ ginv for k, v in self.values.items()},
                            check=False)


def chi_torus_lift(model):
    """The lift sending every generator to its chi-torus element at the
    model's precision."""
    return OrdinaryLift(model, {
        g: GroupElement(model.alg,
                        _torus_matrix_from_chi(model, g, model.ring.q),
                        "torus") for g in model.generators})


def _torus_matrix_from_chi(model, gen, modulus):
    n = model.alg.dim
    M = np.zeros((n, n, model.ring.r), dtype=np.int64)
    M[np.arange(n), np.arange(n), 0] = \
        (1,) * model.datum.rank + model.chi_table(gen, modulus)
    return M % modulus


def borel_basis_indices(alg):
    d = alg.datum
    idx = list(range(d.rank))
    for r in d.positive_roots:
        idx.append(alg.basis.root_basis_index(r))
    return idx


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
        if np.any(lift.values[gname].mat[off][:, bidx] % R.q):
            return False
    rows = model.datum.simple_indices
    ii = model.datum.rank + rows
    for gname in model.generators[1:]:
        M = lift.values[gname].mat
        want = np.array(model.chi_table(gname), dtype=np.int64)[rows]
        if np.any(M[ii, ii, 0] % R.q != want) or np.any(M[ii, ii, 1:] % R.q):
            return False
    return True


def ordinary_spaces(model, variant="trivial", h0=None):
    """Tangent, extra cocycles and L for the ordinary condition.

    trivial variant (residually trivial rho): explicit bases; tangent
    phi(u_i) in n, phi(sigma) in b, of dimension dim b + f dim n; one
    extra cocycle c_beta per negative root, c_beta(gen) =
    (1 - beta(chi(gen)))/p X_beta; dim L = dim g + f dim n.

    reg variant: only the dimension ledger h0 + f dim n is produced
    (the representable REG/REG* case is cited, not re-derived).
    """
    d = model.datum
    K = model.residue
    f = model.f
    npos = len(d.positive_roots)
    dim_n = npos
    dim_b = d.rank + npos
    if variant == "reg":
        if h0 is None:
            raise LocalCondError("reg variant needs the h0 ledger input")
        return {"dim_tan": h0 + f * dim_n, "dim_l": h0 + f * dim_n,
                "ledger_only": True}
    model.check_regularity()
    n = d.dim
    nslots = 1 + f
    alg1 = model.alg1

    def slot_vec(slot, v):
        out = np.zeros((nslots * n, K.r), dtype=np.int64)
        out[slot * n:(slot + 1) * n] = v
        return out

    tan_rows = []
    bidx = borel_basis_indices(alg1)
    for j in bidx:
        e = np.zeros((n, K.r), dtype=np.int64)
        e[j] = K.one()
        tan_rows.append(slot_vec(0, e))
    for s in range(1, nslots):
        for r in d.positive_roots:
            e = np.zeros((n, K.r), dtype=np.int64)
            e[alg1.basis.root_basis_index(r)] = K.one()
            tan_rows.append(slot_vec(s, e))
    tan = ConditionSpace("Tan^chi", K, np.stack(tan_rows))
    if tan.dim != dim_b + f * dim_n:
        raise LocalCondError("ordinary tangent dimension mismatch (bug)")

    extra_rows = []
    p2 = model.p ** 2
    tables = [model.chi_table(gname, p2) for gname in model.generators]
    for k, beta in enumerate(d.roots):
        if d._is_positive(beta):
            continue
        row = np.zeros((nslots * n, K.r), dtype=np.int64)
        ib = alg1.basis.root_basis_index(beta)
        for slot, table in enumerate(tables):
            u = ((1 - table[k]) % p2)
            if u % model.p:
                raise LocalCondError("beta(chi) not 1 mod p (bug)")
            row[slot * n + ib, 0] = (u // model.p) % model.p
        extra_rows.append(row)
    extra = ConditionSpace("S^chi_ord", K, np.stack(extra_rows))
    if extra.dim != dim_n:
        raise LocalCondError("ordinary extra-cocycle count != dim n")
    L = ConditionSpace("L^chi_ord", K,
                       np.concatenate([tan.basis, extra.basis], axis=0))
    if L.dim != d.dim + f * dim_n:
        raise LocalCondError("dim L^chi != dim g + f dim n (bug)")
    return {"tan": tan, "s": extra, "l": L}


def ordinary_cocycle_homomorphism_check(model):
    """The extra cocycles are homomorphisms: the defect
    c(gh) - c(g) - c(h) = -(1-beta(chi(g)))(beta(chi(h))-1)/p must
    vanish mod p for all generator pairs; exact check."""
    p2 = model.p ** 2
    tables = [model.chi_table(gname, p2) for gname in model.generators]
    for k, beta in enumerate(model.datum.roots):
        if model.datum._is_positive(beta):
            continue
        for tg in tables:
            for th in tables:
                a = (1 - tg[k]) % p2
                b = (th[k] - 1) % p2
                if a % model.p or b % model.p:
                    return False
                if ((a * b) // model.p) % model.p:
                    return False
    return True


def ordinary_stability_check(lift, beta, lam=1):
    """exp(p^{m-1} lambda c_beta) rho = u_beta(lambda p^{m-2}) rho
    u_beta(...)^{-1}, componentwise over every generator.

    Checked as lhs g = g rho(gen) with g = u_beta(lambda p^{m-2}): for
    m >= 3 that is = 1 mod p and invertible, so the forms agree."""
    model = lift.model
    R = model.ring
    if R.m < 3:
        raise LocalCondError("stability needs m >= 3")
    beta = tuple(beta)
    alg = model.alg
    K = model.residue
    n = alg.dim
    p2 = model.p ** 2
    g = u_alpha(alg, beta, R.el(lam * R.p ** (R.m - 2)))
    scale = R.p ** (R.m - 1)
    k = model.datum.root_index[beta]
    for gname in model.generators:
        c = ((1 - model.chi_table(gname, p2)[k]) % p2)
        cK = (c // model.p) % model.p
        cb = np.zeros((n, R.r), dtype=np.int64)
        cb[alg.basis.root_basis_index(beta), 0] = cK * lam % model.p
        lhs = one_plus(alg, scale, cb) @ lift.values[gname]
        if not (lhs @ g).eq(g @ lift.values[gname]):
            raise LocalCondError("ordinary stability failed (falsified)")
    return g


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
    for i in range(k):
        rows[i, : n] = space.basis[i, : n]
        rows[i, n + adim: 2 * n + adim] = space.basis[i, n:]
    for j in range(adim):
        rows[k + j, n + j] = K.one()
    return ConditionSpace(space.label + "+a", K, rows, space.alpha,
                          dict(space.meta, adim=adim))


def fixed_multiplier_restrict(space, adim):
    """L^{nu,alpha} = L^alpha intersected with H^1 of g_mu: kills the
    central directions; for semisimple g (adim = 0) this is the
    identity operation."""
    if adim == 0:
        return space
    K = space.K
    tot = space.basis.shape[1]
    n = tot // 2 - adim
    keep = []
    for i in list(range(n)) + list(range(n + adim, 2 * n + adim)):
        keep.append(i)
    sub = np.zeros((2 * n, tot, K.r), dtype=np.int64)
    for row, i in enumerate(keep):
        sub[row, i] = K.one()
    inter = fl.intersect_f(K, space.basis, sub)
    return ConditionSpace(space.label + "|mu", K, inter, space.alpha,
                          dict(space.meta))


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


def sample_member(model, alpha, variant, rng, max_tries=200):
    """A random normal-form member of the lifting set (alpha simple);
    returns (lift, coords) with the generating coordinates."""
    R = model.ring
    d = model.datum
    alpha = tuple(alpha)
    if sum(alpha) != 1:
        raise LocalCondError("probe sampling uses simple alpha")
    j0 = alpha.index(1)
    pa = set(tuple(b) for b in phi_alpha(model.basis, alpha))
    # residually trivial: torus values 1 mod p, coordinates 0 mod p
    depth = R.p ** 2 if variant in ("unr2", "ram2") else R.p
    for _ in range(max_tries):
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
        want = variant if variant in ("unr2", "ram2") else "plain"
        if membership(lift, alpha, want):
            return lift, coords
    raise LocalCondError("could not sample a member (degenerate torus draws)")


def _alpha_covee(model, alpha, s):
    """alpha^vee(s) as a diagonal element."""
    pairings = model.datum.coroot_pairings(tuple(alpha))
    return torus_from_root_values(
        model.alg, torus_root_values(model.ring, [s], pairings[:, None]))


def smoothness_probe(model, alpha, variant, samples, rng, corrupt=False):
    """Sample members mod p^m and lift each to p^{m+1} by lifting its
    normal-form coordinates (t, centralizer factors, x) with random top
    digits; the relation and the membership are re-verified exactly at
    the higher precision.  Returns the success count (must equal
    samples); an unliftable sample raises."""
    model_up = model.at_precision(model.ring.m + 1)
    R_up = model_up.ring
    bump = model.ring.q
    ok = 0
    for _ in range(samples):
        lift, coords = sample_member(model, alpha, variant, rng)

        def up_el(x):
            return (np.asarray(x, dtype=np.int64)
                    + bump * rng.integers(0, model.p)) % R_up.q

        # free coordinates get random top digits; the pinned coordinate
        # alpha(t') = 1 stays exact (the paper corrects it by
        # alpha^vee(1 - i/2), which is the same normalization)
        j0 = tuple(alpha).index(1)
        coords_up = {
            "tvals": [v % R_up.q if i == j0 else up_el(v)
                      for i, v in enumerate(coords["tvals"])],
            "cent": [(b, up_el(x)) for b, x in coords["cent"]],
            "xa": up_el(coords["xa"]),
            "xtau": up_el(coords["xtau"]),
        }
        up = _assemble_member(model_up, alpha, coords_up)
        if np.any(up.sigma.mat % model.ring.q != lift.sigma.mat) or \
                np.any(up.tau.mat % model.ring.q != lift.tau.mat):
            raise LocalCondError("coordinate lift does not reduce back (bug)")
        if corrupt:
            # push tau off U_alpha: a u_{-alpha}(kp) factor changes the
            # relation defect by u_{-alpha}((q^{-1}-q) k p + ...) which
            # has valuation 2 < m+1, so some k breaks the relation
            caught = False
            for k in range(1, model.p):
                bad_tau = up.tau @ u_alpha(model_up.alg, model.datum.neg(alpha),
                                           R_up.el(k * model.p))
                try:
                    LocalLift(model_up, up.sigma, bad_tau)
                except InvalidLiftError:
                    caught = True
                    break
            if not caught:
                raise LocalCondError("corrupted relation went undetected")
            ok += 1
            continue
        want = variant if variant in ("unr2", "ram2") else "plain"
        if not membership(up, alpha, want):
            raise LocalCondError("lifted member failed membership")
        ok += 1
    return ok


def frobenius_member(model, alpha, variant, seed=0, y=1):
    """A normal-form member for any root alpha: sigma is the torus
    element (1 + p b) alpha^vee(q^{1/2}) found by the hyperplane-
    avoiding Frobenius search (so every Phi^alpha denominator is a
    unit), tau = 1 mod p^2 (unr2) or u_alpha(p y) (ram2)."""
    from .chevgroup import frobenius_b_search, torus_from_coroot_data
    R = model.ring
    alpha = tuple(alpha)
    b, rep = frobenius_b_search(model.datum, model.basis, alpha, model.p,
                                model.q % (model.p ** 2), seed=seed)
    sigma = torus_from_coroot_data(model.alg, alpha, model.sqrt_q, b)
    x = R.el(0) if variant == "unr2" else R.scalar_mul(model.p, R.el(y))
    tau = u_alpha(model.alg, alpha, x)
    lift = LocalLift(model, sigma, tau)
    want = variant if variant in ("unr2", "ram2") else "plain"
    if not membership(lift, alpha, want):
        raise LocalCondError("frobenius member failed membership (bug)")
    return lift, rep


def find_regular_chi(datum, p, f, sigma_c=1):
    """Torus character data chi with beta(chi) != 1 mod p^2 on inertia
    for every negative root: chi(u_i) = (1 + c_{i,j} p)_j with the
    covering condition that every beta pairs nontrivially with some
    inertia generator.

    Exhaustive over F_p^rank per generator (desk ranks only).  Returns
    None when provably infeasible -- e.g. G2 at p = 5 with f = 1, where
    the six root directions are all six lines of F_5^2."""
    rank = datum.rank
    neg = [k for k, r in enumerate(datum.roots) if not datum._is_positive(r)]
    # every nonzero c in F_p^rank; covers[j, l]: c_j pairs nontrivially
    # with the l-th negative root, sum_i c_i beta_i != 0 mod p
    cands = np.arange(1, p ** rank)[:, None] // p ** np.arange(rank) % p
    covers = cands @ datum.root_matrix[neg].T % p != 0
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
    while len(chosen) < f:
        chosen.append(chosen[0])
    chi = {"s": tuple(1 + sigma_c * p for _ in range(rank))}
    for i, c in enumerate(chosen):
        chi["u%d" % (i + 1)] = tuple(1 + int(x) * p for x in c)
    return chi


def write_local_ledger(path, entries):
    """Local-ledger text format: one line `PLACE kind dimL h0 h0star`
    per place, consumed by the global Selmer engine."""
    with open(path, "w") as fh:
        for e in entries:
            fh.write("%s %s %d %d %d\n" % (e["place"], e["kind"], e["dim_l"],
                                           e["h0"], e["h0star"]))


def read_local_ledger(path):
    out = []
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            place, kind, dim_l, h0, h0star = ln.split()
            out.append({"place": place, "kind": kind, "dim_l": int(dim_l),
                        "h0": int(h0), "h0star": int(h0star)})
    return out
