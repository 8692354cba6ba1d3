"""The adjoint Chevalley group over a truncated Witt coefficient ring.

Group elements are invertible operators on g tensor R in the Chevalley
basis, stored as (dim x dim x r) int64 arrays.
The center is invisible in the adjoint representation; central and
similitude directions are tracked as formal direct-sum data by the
local-condition and Selmer modules.

All constructors are exact: root elements are exponentials with
integral divided powers ad(X_alpha)^k / k! computed over Z, so no ring
division occurs there; exp of any other ad-nilpotent element divides
by k! up to the first vanishing power ad(x)^k and therefore needs that
k <= p, which holds for every p-divisible x when m <= p.

The integral tables (ad matrices of the basis vectors, the divided
powers of each root vector) are owned by the rootdata.ChevalleyBasis,
which builds each once on first use; every LieAlgebra on that basis
reads them, read-only and never reduced mod q, whatever its ring.  The
bracket is [x, y] = ad(x) y, one ring matrix-vector product on those
tables.

Torus elements are built from their values on the root lines:
torus_root_values evaluates prod_i t_i^(E[k, i]) for every root k from
units t_i on a character basis and an integer exponent table E read from
the root datum (root_matrix for values on the simple roots, a column of
coroot pairings for alpha^vee(s)), inverting each unit at most once, and
torus_from_root_values puts the values on the diagonal.  torus_elt takes
the values on the simple roots (an ordinary local model's chi-torus is
one); torus_from_coroot_data builds (1 + p b) alpha^vee(s), the
trivial-Frobenius torus once frobenius_b_search has found b.

Inverses: u_alpha(x)^-1 = u_alpha(-x) exactly, so root_product builds
a product of root elements together with its inverse, the reversed
product of negated factors, and GroupElement.inv returns it; adjacent
factors on one root are merged first by u_alpha(x) u_alpha(y) =
u_alpha(x + y), also exact, so a run of one root costs one factor.
No other element is inverted: GroupElement.inv refuses one without a
closed form.  The verification identities are checked without inverses
(sigma tau = tau^q sigma, lhs g = g rho, t u = u' t), which is
equivalent for invertible elements; GroupElement.check_invertible
decides invertibility mod p.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import modp
from .coeffring import CoeffRing, LiftlabError, ParameterError, int64_exact
from .intlinalg import in_rational_span
from .rootdata import phi_alpha

# int64 cells (2 GiB) a full scan of F_p^rank may build: frobenius_b_search
# and localconds.find_regular_chi refuse a larger scan before building it.
# Both reduce their scan mod p in place, so each holds one int64 array of
# that size at a time: find_regular_chi's product and a bool copy, at E6,
# p = 13 (1.7e8 cells, 1.33 GB), peak at 1.74 GB RSS in a fresh process;
# frobenius_b_search's digits of every b (2.9e7 cells, 232 MB) at 366 MB
SCAN_MAX_CELLS = 2 ** 28


class ChevGroupError(LiftlabError):
    pass


class GroupParameterError(ChevGroupError, ParameterError):
    pass


class LieAlgebra:
    """A Chevalley Lie algebra over a fixed CoeffRing.

    Wraps (datum, basis, ring); Lie elements are (dim, r) int64 arrays
    of ring coordinates in the Chevalley basis, group elements are
    GroupElement instances.  Immutable and shareable.
    """

    def __init__(self, datum, basis, ring):
        if ring.p < 5:
            raise GroupParameterError("p >= 5 required (very good prime)")
        if datum.family == "A" and (datum.rank + 1) % ring.p == 0:
            raise GroupParameterError("p | n+1 is not very good for A_n")
        if not int64_exact(ring.p, ring.m, ring.r, datum.dim):
            raise GroupParameterError(
                "%s%d over %r is past the exact int64 range"
                % (datum.family, datum.rank, ring))
        self.datum = datum
        self.basis = basis
        self.ring = ring
        self.dim = datum.dim
        self.rank = datum.rank

    # -- elements

    def zero_vec(self):
        return np.zeros((self.dim, self.ring.r), dtype=np.int64)

    def root_vector(self, alpha):
        """X_alpha as a coordinate vector."""
        out = self.zero_vec()
        out[self.basis.root_basis_index(alpha), 0] = 1
        return out

    def random_vec(self, rng):
        return rng.integers(0, self.ring.q, size=(self.dim, self.ring.r),
                            dtype=np.int64)

    def bracket(self, x, y):
        """[x, y] = ad(x) y over the ring."""
        return self.ring.mat_vec(self.ad(x), y)

    def ad(self, x):
        """ad(x) = sum_i x_i ad(basis vector i) as a ring matrix: one
        integer product of x's nonzero rows with the same rows of the
        structure-constant table, flattened to (dim, dim^2).  An integer
        matrix scales every coordinate of x_i alike, and the int64 sums
        are those of the ring's matrix product, so they are exact.  The
        nonzero filter keeps a root vector at dim^2 products, not dim^3."""
        q, n = self.ring.q, self.dim
        x = x % q
        nz = x.any(axis=-1).nonzero()[0]
        A = x[nz].T @ self.basis.ad.reshape(n, n * n)[nz]
        return A.T.reshape(n, n, self.ring.r) % q


class GroupElement:
    """Adjoint operator.

    inverse_mat is the inverse matrix when the constructor knows it in
    closed form (root_product), else None.  A third positional argument
    is accepted and ignored: the benchmark's workloads still pass a
    constructor name there."""

    __slots__ = ("alg", "mat", "inverse_mat")

    def __init__(self, alg, mat, tag=None, inverse_mat=None):
        self.alg = alg
        self.mat = mat % alg.ring.q
        self.inverse_mat = None if inverse_mat is None \
            else inverse_mat % alg.ring.q

    def __matmul__(self, other):
        # mat_mul's result is reduced mod q already, so the product is
        # built without __init__, which would reduce it again
        g = object.__new__(GroupElement)
        g.alg = self.alg
        g.mat = self.alg.ring.mat_mul(self.mat, other.mat)
        g.inverse_mat = None
        return g

    def inv(self):
        """The inverse in closed form, as its constructor (root_product)
        built it; raises ChevGroupError for an element without one,
        such as a product formed by @."""
        if self.inverse_mat is None:
            raise ChevGroupError("no closed-form inverse for this element")
        return GroupElement(self.alg, self.inverse_mat, inverse_mat=self.mat)

    def check_invertible(self):
        """Raise CoeffRingError unless the operator is invertible.

        Over O/p^m that is decided mod p, by CoeffRing.mat_inv_modp: an
        operator = 1 mod p takes no elimination, any other one."""
        self.alg.ring.mat_inv_modp(self.mat)

    def pow(self, e):
        return GroupElement(self.alg, self.alg.ring.mat_pow(self.mat, e))

    def apply(self, vec):
        return self.alg.ring.mat_vec(self.mat, vec)

    def eq(self, other):
        return self.alg.ring.mat_eq(self.mat, other.mat)

    def reduce(self, m2):
        alg2 = LieAlgebra(self.alg.datum, self.alg.basis,
                          CoeffRing(self.alg.ring.p, m2, self.alg.ring.r))
        return GroupElement(alg2, self.mat, inverse_mat=self.inverse_mat)


def identity(alg):
    return GroupElement(alg, alg.ring.mat_id(alg.dim))


def u_alpha(alg, alpha, x):
    """Root group element exp(ad(x X_alpha)) = 1 + sum_k x^k D_k.

    The divided powers D_k = ad(X_alpha)^k / k! are integer matrices,
    computed and checked integral over Z once per Chevalley basis, so
    this is defined at every p, no ring division occurs, and
    u_alpha(x) u_alpha(y) = u_alpha(x+y) holds exactly; in particular
    u_alpha(x)^-1 = u_alpha(-x).  The sum is one integer product of
    the powers x^k with the table of the D_k flattened to (K, dim^2).
    """
    R = alg.ring
    D = alg.basis.divided_powers(alg.basis.root_basis_index(tuple(alpha)))
    x = R.el(x) if isinstance(x, (int, np.integer)) \
        else np.asarray(x, dtype=np.int64) % R.q
    xk = [x]                          # x^k for k = 1 .. len(D)
    while len(xk) < len(D):
        xk.append(R.mul(xk[-1], x))
    K, n = D.shape[:2]
    S = np.array(xk).T @ D.reshape(K, n * n)
    return GroupElement(alg, R.mat_id(n) + S.T.reshape(n, n, R.r))


def root_product(alg, factors):
    """prod u_beta(x) over (beta, x) in factors, in order, carrying its
    inverse prod u_beta(-x) in reverse order (exact over Z, since
    u_beta(x) u_beta(-x) = 1).

    Adjacent factors on one root are merged first, u_beta(x) u_beta(y)
    = u_beta(x + y), so a run of one root costs one root element and
    its inverse; the product starts from the first merged factor, and
    no factors give the identity."""
    R = alg.ring
    g = ginv = None
    for beta, run in itertools.groupby(factors, lambda f: tuple(f[0])):
        x = sum(x for _, x in run) % R.q
        u = u_alpha(alg, beta, x).mat
        uinv = u_alpha(alg, beta, R.neg(x)).mat
        g = u if g is None else R.mat_mul(g, u)
        ginv = uinv if ginv is None else R.mat_mul(uinv, ginv)
    if g is None:
        g = ginv = R.mat_id(alg.dim)
    return GroupElement(alg, g, inverse_mat=ginv)


def torus_root_values(R, units, exponents):
    """The values on every root line of a torus element, as an
    (nroots, r) array: row k is prod_i units[i]^exponents[k, i].

    `units` are the element's values on a character basis and
    `exponents` pairs each root with that basis, e.g. datum.root_matrix
    for values on the simple roots, or datum.coroot_pairings(alpha)[:,
    None] for alpha^vee(s).  Each unit's powers are built once by
    repeated multiplication, so each unit with a negative exponent is
    inverted once.
    """
    E = np.asarray(exponents, dtype=np.int64)
    out = np.zeros((E.shape[0], R.r), dtype=np.int64)
    out[:, 0] = 1
    for u, col in zip(units, E.T.tolist()):
        lo, hi = min(min(col), 0), max(max(col), 0)
        powers = [R.one()]                     # u^lo .. u^hi
        for _ in range(hi):
            powers.append(R.mul(powers[-1], u))
        if lo < 0:
            v = R.inv(u)
            for _ in range(-lo):
                powers.insert(0, R.mul(powers[0], v))
        out = R.mul(out, np.array([powers[e - lo] for e in col]))
    return out


def torus_from_root_values(alg, values):
    """The diagonal group element acting on g_beta by values[k] for
    beta = roots[k] and trivially on the Cartan."""
    M = alg.ring.mat_id(alg.dim)
    k = alg.rank + np.arange(len(alg.datum.roots))
    M[k, k] = values
    return GroupElement(alg, M)


def torus_elt(alg, values):
    """Diagonal torus element from unit values on the simple roots.

    Acts on g_beta by beta(t) computed multiplicatively and trivially
    on the Cartan; in the adjoint group any tuple of units occurs.
    """
    R = alg.ring
    vals = [R.el(v) if isinstance(v, (int, np.integer)) else v
            for v in values]
    for v in vals:
        if not R.is_unit(v):
            raise ChevGroupError("torus values must be units")
    return torus_from_root_values(
        alg, torus_root_values(R, vals, alg.datum.root_matrix))


def root_value_of_torus(alg, t, beta):
    """beta(t) for a torus-like (diagonal) element."""
    i = alg.basis.root_basis_index(tuple(beta))
    return t.mat[i, i].copy()


def exp_hat(alg, x):
    """exp(ad x) for ad-nilpotent x: the sum of ad(x)^k / k! up to the
    first zero term.

    Dividing by k! needs k < p, so a nonzero term at k >= p is refused.
    A p-divisible x has ad(x)^m = 0, so it passes whenever m <= p; a
    root vector or the principal e and f of an sl2 pass at any m once p
    exceeds their nilpotency degree.
    """
    R = alg.ring
    A = alg.ad(x)
    M = R.mat_id(alg.dim)
    term = M
    for k in itertools.count(1):
        term = R.mat_mul(term, A)
        if not term.any():
            break
        if k >= R.p:
            raise ChevGroupError("exp_hat needs ad(x)^k = 0 for some k <= p")
        # 1/k! is an integer mod q because k < p
        M = R.add(M, R.scalar_mul(pow(math.factorial(k), -1, R.q), term))
    return GroupElement(alg, M)


def one_plus(alg, scale, x):
    """1 + scale * ad(x) as an operator (no exp series)."""
    R = alg.ring
    M = R.add(R.mat_id(alg.dim), R.scalar_mul(scale, alg.ad(x)))
    return GroupElement(alg, M)


def matrix_identity_check(p, m, n, samples, rng):
    """The mod-p^m operator identity behind the stability lemmas:

        (1 + p^{m-2} X)(1 + pA + p^2 B)(1 - p^{m-2} X + p^{2m-4} X^2)
            = (1 + p^{m-1} [X, A])(1 + pA + p^2 B)

    for any n x n integer matrices X, A, B and m >= 3.  Returns the
    number of failures among `samples` random instances (0 expected;
    a failure would falsify the ring arithmetic).
    """
    if m < 3:
        raise GroupParameterError("identity requires m >= 3")
    if not int64_exact(p, m, n=n):
        raise GroupParameterError("%d x %d matrices mod %d^%d are past the "
                                  "exact int64 range" % (n, n, p, m))
    q = p ** m
    fails = 0
    for _ in range(samples):
        X = rng.integers(0, q, size=(n, n), dtype=np.int64)
        A = rng.integers(0, q, size=(n, n), dtype=np.int64)
        B = rng.integers(0, q, size=(n, n), dtype=np.int64)
        one = np.eye(n, dtype=np.int64)
        mid = (one + p * A + p * p * B) % q
        sq = (X @ X) % q if 2 * m - 4 < m else np.zeros_like(X)
        left = (one + p ** (m - 2) * X) % q
        right = (one - p ** (m - 2) * X + p ** (2 * m - 4) % q * sq) % q
        lhs = (left @ mid % q) @ right % q
        comm = (X @ A - A @ X) % q
        rhs = ((one + p ** (m - 1) * comm) % q) @ mid % q
        if ((lhs - rhs) % q).any():
            fails += 1
    return fails


def image_growth_check(p, n, nmat, samples, rng):
    """(1 + p^{n-1} X + p^n Y)^p = 1 + p^n X mod p^{n+1} on random
    integer matrices; the step that propagates fullness of the image
    from level 2 to all levels.  Returns failure count."""
    if n < 2:
        raise ChevGroupError("requires n >= 2")
    q = p ** (n + 1)
    R = CoeffRing(p, n + 1, 1)
    fails = 0
    for _ in range(samples):
        X = rng.integers(0, q, size=(nmat, nmat), dtype=np.int64)
        Y = rng.integers(0, q, size=(nmat, nmat), dtype=np.int64)
        A = (np.eye(nmat, dtype=np.int64) + p ** (n - 1) * X + p ** n * Y) % q
        P = R.mat_pow(A[:, :, None], p)[:, :, 0]
        tgt = (np.eye(nmat, dtype=np.int64) + p ** n * X) % q
        if ((P - tgt) % q).any():
            fails += 1
    return fails


def principal_sl2(alg):
    """The principal sl2 triple (e, h, f) with h = sum of positive
    coroots, e = sum of simple root vectors, f determined by h.

    Requires p > Coxeter number so that the weights 2 m_i stay
    distinct and nonzero mod p.  All three bracket relations are
    verified exactly before returning.
    """
    d = alg.datum
    hcox = d.coxeter_number()
    if alg.ring.p <= hcox:
        raise GroupParameterError(
            "principal sl2 needs p > Coxeter number %d" % hcox)
    R = alg.ring
    h = alg.zero_vec()
    for r in d.positive_roots:
        cc = d.coroot_coords(r)
        for i in range(d.rank):
            h[i] = R.add(h[i], R.el(cc[i]))
    e = alg.zero_vec()
    f = alg.zero_vec()
    hc = [int(h[i, 0]) for i in range(d.rank)]
    for i in range(d.rank):
        simple = tuple(1 if j == i else 0 for j in range(d.rank))
        e[alg.basis.root_basis_index(simple)] = R.one()
        f[alg.basis.root_basis_index(d.neg(simple))] = R.el(hc[i])
    if not (np.array_equal(alg.bracket(h, e), R.scalar_mul(2, e))
            and np.array_equal(alg.bracket(h, f), R.scalar_mul(-2, f) % R.q)
            and np.array_equal(alg.bracket(e, f), h)):
        raise ChevGroupError("principal sl2 relations failed (bug)")
    return e, h, f


def ad_eigenvalues_on_roots(alg, h):
    """Eigenvalues of ad(h) for h in the Cartan: <beta, h> per root,
    plus rank zeros."""
    d = alg.datum
    vals = d.simple_pairings @ h[: d.rank, 0] % alg.ring.q
    return sorted(vals.tolist()) + [0] * d.rank


def frobenius_b_search(datum, basis, alpha, p, q, seed=0):
    """The b of a trivial-Frobenius torus element t_b = (1 + p b)
    alpha^vee(q^(1/2)), which has alpha(t_b) = q and beta(t_b) != 1 mod
    p^2 for every beta in Phi^alpha, from the datum's tables, p and q
    alone; torus_from_coroot_data builds t_b at any precision, as
    localconds.frobenius_member does.  b runs over ker(alpha) in the
    F_p-points of the span of the simple coroots, acting by beta(b) =
    sum_i b_i <beta, alpha_i^vee>; the search is a deterministic scan in
    seed order, refused past SCAN_MAX_CELLS, and raises if the
    hyperplane complement is empty (tiny p only).  Returns (b, report).
    """
    d = datum
    alpha = tuple(alpha)
    c = (int(q) - 1) // p % p
    if c % p == 0 or (int(q) - 1) % p != 0:
        raise ChevGroupError("q must be 1 mod p and not 1 mod p^2")
    cells = p ** d.rank * d.rank
    if cells > SCAN_MAX_CELLS:
        raise GroupParameterError(
            "the scan of F_%d^%d is %d int64 cells, past SCAN_MAX_CELLS = %d"
            % (p, d.rank, cells, SCAN_MAX_CELLS))
    rows = [d.root_index[beta] for beta in phi_alpha(basis, alpha)]
    # every b in F_p^rank, in seeded order, then those in ker(alpha)
    order = np.random.default_rng(seed).permutation(p ** d.rank)
    B = order[:, None] // p ** np.arange(d.rank)
    B %= p
    B = B[B @ d.simple_pairings[d.root_index[alpha]] % p == 0]
    # beta(t_b) = (1 + p beta(b)) q^{m/2} with m = <beta, alpha^vee> is
    # != 1 mod p^2 iff beta(b) + c m / 2 != 0 mod p
    shift = c * d.coroot_pairings(alpha)[rows] % p * pow(2, p - 2, p)
    hits = np.flatnonzero(
        ((B @ d.simple_pairings[rows].T + shift) % p).all(axis=1))
    if not len(hits):
        raise ChevGroupError("search space exhausted (p too small for %s)" %
                             (alpha,))
    b = [int(x) for x in B[hits[0]]]
    report = {"seed": seed, "b": list(b), "alpha": list(alpha), "q": int(q)}
    return b, report


def torus_from_coroot_data(alg2, alpha, s, b):
    """(1 + p b) alpha^vee(s) as a diagonal group element over O/p^m."""
    R = alg2.ring
    d = alg2.datum
    vals = torus_root_values(R, [s], d.coroot_pairings(tuple(alpha))[:, None])
    bb = d.simple_pairings @ np.asarray(b, dtype=np.int64) % R.p
    return torus_from_root_values(
        alg2, vals * ((1 + R.p * bb) % R.q)[:, None] % R.q)


def levi_certificate_check(datum, n_prime, m_g, q, samples, rng):
    """Certificate for the Levi bound at the Lie-algebra level.

    For random semisimple s in T(F_q) (unit values on the simple roots)
    there must be some n = n_prime^j with j <= m_g such that the
    vanishing-root subsystem Psi = {beta : beta(s)^n = 1} is rationally
    closed (Psi = Phi intersect Q-span(Psi)) -- then the centralizer
    subalgebra of s^n, computed as the kernel of Ad(s^n) - 1 over F_q,
    equals the Levi subalgebra of Psi; both are compared exactly.  q
    must be an odd prime (F_q = Z/q).  Returns the number of successes
    (must equal samples)."""
    ok = 0
    dim = datum.dim
    rank = datum.rank
    Fq = CoeffRing(q, 1)
    for _ in range(samples):
        tvals = [int(rng.integers(1, q)) for _ in range(rank)]
        svals = torus_root_values(Fq, [Fq.el(t) for t in tvals],
                                  datum.root_matrix)[:, 0].tolist()
        found = False
        for j in range(m_g + 1):
            n = pow(n_prime, j, q - 1) if n_prime > 1 else 1
            # beta(s^n) on every root line; Psi is where it is 1
            vals = [pow(v, n, q) for v in svals]
            psi = [r for r, v in zip(datum.roots, vals) if v == 1]
            if psi and not all(
                    (r in psi) == in_rational_span([list(x) for x in psi],
                                                   list(r))
                    for r in datum.roots):
                continue
            # centralizer subalgebra of s^n via the kernel of Ad - 1
            M = np.diag(np.array([1] * rank + vals, dtype=np.int64))
            ker = modp.kernel_basis((M - np.eye(dim, dtype=np.int64)) % q, q)
            levi = np.zeros((rank + len(psi), dim), dtype=np.int64)
            for i in range(rank):
                levi[i, i] = 1
            for k, r in enumerate(psi):
                levi[rank + k, rank + datum.root_index[r]] = 1
            if ker.shape[0] == levi.shape[0] and \
                    modp.rank(np.vstack([ker, levi]), q) == ker.shape[0]:
                found = True
                break
        if not found:
            raise ChevGroupError("no divisor of n_G yields a Levi "
                                 "centralizer for s = %r" % (tvals,))
        ok += 1
    return ok
