"""Modules over finite groups: MeatAxe decomposition, homomorphism
spaces and endomorphism fields.

Groups enter as one matrix per generator over the prime field F_p;
extension residue fields only appear as computed endomorphism fields.

Irreducibility is certified by Norton's criterion, never by heuristics:
for a singular algebra element z, the module is irreducible iff one
nonzero kernel vector of z spins to the whole space and every vector in
a basis of ker(z^T) spins to the whole space under the transposed
action; each failure exhibits an explicit submodule.

Homomorphism spaces are solved by spinning, not by the Kronecker
system: a map out of a module is fixed by the images of the few seeds
of a spun standard basis (one seed for an irreducible module), so the
linear system has k * dim(target) unknowns instead of dim1 * dim2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import modp
from .coeffring import LiftlabError


class GaloisModError(LiftlabError):
    pass


class MatrixModule:
    """F_p[G]-module given by one invertible matrix per generator."""

    def __init__(self, p, gens):
        self.p = p
        self.gens = [np.asarray(g, dtype=np.int64) % p for g in gens]
        self.dim = self.gens[0].shape[0] if self.gens else 0

    def transpose_module(self):
        return MatrixModule(self.p, [g.T % self.p for g in self.gens])

    def restrict(self, basis):
        """Module induced on the row space of `basis` (must be stable)."""
        p = self.p
        B = modp.echelon_basis(np.asarray(basis, dtype=np.int64) % p, p)
        # column i of g B^t is the image of basis vector i; its
        # coordinates in B are column i of the solution, and every
        # generator's images are solved in one elimination
        X = modp.solve(B.T, np.hstack([g @ B.T % p for g in self.gens]), p)
        if X is None:
            raise GaloisModError("basis does not span a submodule")
        return MatrixModule(p, np.hsplit(X, len(self.gens)))


def spin(module, vectors):
    """Smallest submodule (echelon row basis) containing the vectors.

    Built on one `modp.Echelon`: each round reduces only the images of
    the rows kept in the round before, and the result is the span's
    RREF, which is unique, so it does not depend on the order in which
    images were added."""
    p = module.p
    V = np.atleast_2d(np.asarray(vectors)) % p
    span = modp.Echelon(V.shape[1], p)
    new = [v for v in V if span.add(v)]
    while new:
        F = np.array(new)
        new = [w for g in module.gens for w in F @ g.T % p if span.add(w)]
    return span.basis()


def _random_algebra_element(module, rng):
    p = module.p
    n = module.dim
    out = np.zeros((n, n), dtype=np.int64)
    for _ in range(3):                          # three random words
        w = np.eye(n, dtype=np.int64)
        for _ in range(int(rng.integers(1, 4))):    # of length 1 to 3
            w = w @ module.gens[int(rng.integers(len(module.gens)))] % p
        out = (out + int(rng.integers(1, p)) * w) % p
    return out


def find_proper_submodule(module, rng):
    """Either a proper nonzero submodule basis, or None with a Norton
    certificate of irreducibility, from one random algebra element."""
    p = module.p
    n = module.dim
    if n == 0:
        return None
    trans = module.transpose_module()
    z = _random_algebra_element(module, rng)
    mp = modp.min_poly(z, p, rng)
    # f divides the minimal polynomial of z, so f(z) is singular and the
    # first factor decides
    f = next(modp.squarefree_factors(mp, p))
    zf = modp.poly_eval_matrix(f, z, p)
    K = modp.kernel_basis(zf, p)
    U = spin(module, K[0])
    if U.shape[0] < n:
        return U
    for w in modp.kernel_basis(zf.T % p, p):
        W = spin(trans, w)
        if W.shape[0] < n:
            # perp of a transposed submodule is a submodule
            return modp.kernel_basis(W, p)
    # Norton: irreducible
    return None


def irreducible_submodule(module, rng):
    """Basis (in ambient coordinates) of an irreducible submodule."""
    B = np.eye(module.dim, dtype=np.int64)
    cur = module
    while True:
        U = find_proper_submodule(cur, rng)
        if U is None:
            return B
        B = modp.echelon_basis(U @ B % module.p, module.p)
        cur = module.restrict(B)


def _standard_basis(module):
    """A basis of the module spun from unit vectors, with its words.

    Seeds are the unit vectors e_j outside the span so far, in order of
    j, so an irreducible module needs one.  Each seed is spun level by
    level: the generators are applied to the vectors of the last level
    and each image outside the span of those before it is kept.
    The span is kept in one `modp.Echelon`.
    Returns (B, origin, k): the rows of B are the basis in spin order;
    origin[i] is (-1, s) if row i is the s-th seed and (j, g) if it is
    gens[g] applied to row j; k is the number of seeds.
    """
    p, d = module.p, module.dim
    eye = np.eye(d, dtype=np.int64)
    span = modp.Echelon(d, p)
    rows, origin, level = [], [], []
    k = 0
    while len(rows) < d:
        if level:
            cand = [(rows[i] @ g.T % p, (i, gi))
                    for gi, g in enumerate(module.gens) for i in level]
        else:
            # the first unit vector with a nonzero residue mod the span
            j = int(np.flatnonzero(span.reduce(eye).any(axis=1))[0])
            cand = [(eye[j], (-1, k))]
            k += 1
        level = []
        for v, o in cand:
            if span.add(v):
                level.append(len(rows))
                rows.append(v)
                origin.append(o)
    return np.array(rows, dtype=np.int64).reshape(d, d), origin, k


def _hom_by_spin(src, spun, tgt):
    """Basis of Hom(src, tgt) as an (h, dim tgt, dim src) array, from
    the standard basis `spun` of src.

    phi is fixed by the images X of the k seeds: phi(b_i) = Q_i X with
    Q_i the word of b_i evaluated in tgt's generators.  Writing
    g b_i = sum_l C_g[l, i] b_l, phi is equivariant iff
    g Q_i X = sum_l C_g[l, i] Q_l X for every generator g and i, a
    system in k * dim(tgt) unknowns; then phi = (Q X) (B^T)^-1.
    """
    p = src.p
    B, origin, k = spun
    d1, d2 = src.dim, tgt.dim
    Q = np.zeros((d1, d2, k * d2), dtype=np.int64)
    for i, (j, g) in enumerate(origin):
        if j < 0:
            Q[i, :, g * d2:(g + 1) * d2] = np.eye(d2, dtype=np.int64)
        else:
            Q[i] = tgt.gens[g] @ Q[j] % p
    BT = B.T
    BTinv = modp.inverse(BT, p)
    blocks = []
    for g1, g2 in zip(src.gens, tgt.gens):
        C = BTinv @ (g1 @ BT % p) % p
        blocks.append((g2 @ Q - np.einsum("li,lak->iak", C, Q)) % p)
    A = np.concatenate(blocks).reshape(-1, k * d2)
    # the relations g b_i = b_l met while spinning hold identically
    X = modp.kernel_basis(A[A.any(axis=1)], p)
    return np.einsum("iak,hk->hai", Q, X) % p @ BTinv % p


def hom_space(m1, m2):
    """Basis of Hom_{F_p[G]}(V1, V2) as (dim2 x dim1) matrices; the
    generator lists must be aligned.

    Solved by spinning (Parker's MeatAxe; Lux-Szoke): a homomorphism is
    fixed by the images of the seeds of a standard basis of V1, so the
    system has k * dim2 unknowns for k seeds instead of the dim1 * dim2
    of the Kronecker system.  If V1 needs many seeds, Hom(V2^T, V1^T)
    is solved instead when its seeds give fewer unknowns: psi = phi^T
    satisfies psi g2^T = g1^T psi.  The returned basis is the one the
    Kronecker system's kernel_basis gives (identity on its free
    coordinates of the flattened phi), so it does not depend on the
    method: the free coordinates are determined by the space itself.
    """
    p = m1.p
    d1, d2 = m1.dim, m2.dim
    if d1 == 0 or d2 == 0:
        return []
    spun = _standard_basis(m1)
    H = None
    if spun[2] * d2 > d1:
        # one seed of V2^T gives d1 unknowns: spin it and compare
        t2 = m2.transpose_module()
        spun_t = _standard_basis(t2)
        if spun_t[2] * d1 < spun[2] * d2:
            H = _hom_by_spin(t2, spun_t, m1.transpose_module())
            H = H.transpose(0, 2, 1)
    if H is None:
        H = _hom_by_spin(m1, spun, m2)
    if not len(H):
        return []
    # free coordinates = last nonzero positions of the space's vectors:
    # the pivots of the column-reversed RREF
    R, _ = modp.rref(H.reshape(len(H), d2 * d1)[:, ::-1], p)
    return list(np.ascontiguousarray(R[::-1, ::-1]).reshape(-1, d2, d1))


def modules_isomorphic(m1, m2):
    """For irreducibles, isomorphic iff a nonzero equivariant map exists."""
    if m1.dim != m2.dim:
        return False
    return len(hom_space(m1, m2)) > 0


@dataclass
class Decomposition:
    summands: list            # (basis in ambient coords, class index)
    isotypic: list            # dicts: class module, multiplicity, endo_degree
    semisimple: bool
    multiplicity_free: bool
    contains_trivial: bool


def _endo_field_degree(module, p):
    """dim_Fp End(W) for irreducible W, with a check that the algebra is
    a field: commutative and without zero divisors on a spanning set."""
    E = hom_space(module, module)
    d = len(E)
    for i, a in enumerate(E):
        for b in E[i:]:
            if ((a @ b - b @ a) % p).any():
                raise GaloisModError("endo algebra not commutative")
            if not a.any() or not b.any():
                continue
            if not (a @ b % p).any():
                raise GaloisModError("zero divisor in endo algebra")
    return d


def decompose(module, rng=None):
    """Full isotypic decomposition of a (desk-scale) module.

    Splits off irreducible summands with explicit complements; if some
    irreducible submodule admits no complement the module is flagged
    non-semisimple (and so not multiplicity-free) and splitting stops:
    the summands are those split off before it.

    The direct sum of the claimed summand bases is verified to equal
    the module exactly (change of basis has full rank).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    p = module.p
    n = module.dim
    pieces = []
    semisimple = True
    remaining = np.eye(n, dtype=np.int64)
    while remaining.shape[0]:
        cur = module.restrict(remaining)
        W = irreducible_submodule(cur, rng)
        Wamb = modp.echelon_basis(W @ remaining % p, p)
        Wmod = module.restrict(Wamb)
        H = hom_space(cur, Wmod)
        # want phi with phi|_W = id: solve in the coefficient space
        Wcur = W  # basis of W inside cur coordinates
        rest = [h @ Wcur.T % p for h in H]  # each in End(W)-matrix form
        dW = Wmod.dim
        A = np.array([r.reshape(-1) for r in rest], dtype=np.int64).T % p
        target = np.eye(dW, dtype=np.int64).reshape(-1)
        sol = modp.solve(A, target, p)
        if sol is None:
            # no equivariant projection: not semisimple along W
            semisimple = False
            break
        phi = np.zeros((dW, cur.dim), dtype=np.int64)
        for c, h in zip(sol, H):
            phi = (phi + int(c) * h) % p
        C = modp.kernel_basis(phi, p)  # complement inside cur coords
        pieces.append(Wamb)
        remaining = modp.echelon_basis(C @ remaining % p, p)
    # group into isotypic classes
    mods = [module.restrict(b) for b in pieces]
    classes = []
    assign = []
    for i, m in enumerate(mods):
        placed = None
        for ci, (rep_idx, members) in enumerate(classes):
            if modules_isomorphic(mods[rep_idx], m):
                members.append(i)
                placed = ci
                break
        if placed is None:
            classes.append((i, [i]))
            placed = len(classes) - 1
        assign.append(placed)
    isotypic = []
    contains_trivial = False
    for rep_idx, members in classes:
        W = mods[rep_idx]
        endo = _endo_field_degree(W, p)
        trivial = W.dim == 1 and all(int(g[0, 0]) % p == 1 for g in W.gens)
        contains_trivial = contains_trivial or trivial
        isotypic.append({
            "module": W,
            "basis": pieces[rep_idx],
            "dim": W.dim,
            "multiplicity": len(members),
            "endo_degree": endo,
            "members": list(members),
            "trivial": trivial,
        })
    multiplicity_free = all(c["multiplicity"] == 1 for c in isotypic)
    dec = Decomposition(
        summands=[(b, assign[i]) for i, b in enumerate(pieces)],
        isotypic=isotypic,
        semisimple=semisimple,
        multiplicity_free=multiplicity_free and semisimple,
        contains_trivial=contains_trivial,
    )
    if semisimple:
        total = np.vstack([b for b, _ in dec.summands]) if pieces else \
            np.zeros((0, n), dtype=np.int64)
        if modp.rank(total, p) != n:
            raise GaloisModError("summands do not reassemble (bug)")
    return dec

