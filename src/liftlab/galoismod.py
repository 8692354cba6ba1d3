"""Modules over finite groups: MeatAxe decomposition, homomorphism
spaces and endomorphism fields.

Groups enter as one matrix per generator over the prime field F_p;
extension residue fields only appear as computed endomorphism fields.

Irreducibility is certified by Norton's criterion in the form of Holt
and Rees ("Testing modules for irreducibility", 1994), never by
heuristics: for an irreducible factor f of the characteristic
polynomial of an algebra element z whose kernel ker f(z) has dimension
deg f (a single F_p[z]-line), the module is irreducible iff one nonzero
vector of ker f(z) spins to the whole space and one nonzero vector of
ker f(z)^T spins to the whole space under the transposed action.  f is
taken from the Krylov polynomial of z at one random nonzero vector (the
minimal polynomial of z at it, which divides the characteristic
polynomial), a root x - lam when F_p has one.  Each failure exhibits an
explicit submodule; a z whose kernel is larger certifies nothing, and
another z is drawn, at most NORTON_TRIES of them.

Homomorphism spaces are solved by spinning, not by the Kronecker
system: a map out of a module is fixed by the images of the few seeds
of a spun standard basis (one seed for an irreducible module), so the
linear system has k * dim(target) unknowns instead of dim1 * dim2.
The smaller side is spun: Hom(V1, V2) is solved from V1 when
dim V1 <= dim V2, and as Hom(V2^T, V1^T) from V2^T otherwise.

End(W) of an irreducible W comes from its certificate when it can:
ker f(z) is a vector space over the division algebra End(W) (Schur),
so dim End(W) divides deg f, and a certificate with deg f = 1 proves
End(W) = F_p.  Any other End(W) is computed as Hom(W, W) and checked
to be a field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import modp
from .coeffring import LiftlabError


NORTON_TRIES = 64       # algebra elements drawn per find_proper_submodule


class GaloisModError(LiftlabError):
    pass


class MatrixModule:
    """F_p[G]-module given by one invertible matrix per generator.

    The generators are a tuple of read-only arrays, so what is computed
    from them once and kept on the module cannot go stale: its standard
    basis (`_spun`), and `norton_degree`, deg f of the Norton
    certificate `find_proper_submodule` found for it (None until one is
    found), which dim End(W) divides (`_endo_field_degree`)."""

    def __init__(self, p, gens):
        self.p = p
        self.gens = tuple(np.asarray(g, dtype=np.int64) % p for g in gens)
        for g in self.gens:
            g.flags.writeable = False
        self.dim = self.gens[0].shape[0] if self.gens else 0
        self._spun = None
        self.norton_degree = None

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

    Built on one `modp.Echelon`: each round takes the images of the rows
    kept in the round before, reduces them against the span in one
    product and offers only those outside it to `Echelon.add` (a row in
    the span at the start of the round stays in it).  The result is the
    span's RREF, which is unique, so it does not depend on the order in
    which images were added."""
    p = module.p
    V = np.atleast_2d(np.asarray(vectors)) % p
    span = modp.Echelon(V.shape[1], p)
    new = [v for v in V if span.add(v)]
    while new:
        F = np.array(new)
        imgs = np.concatenate([F @ g.T % p for g in module.gens])
        new = [w for w in imgs[span.reduce(imgs).any(axis=1)] if span.add(w)]
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
    certificate of irreducibility.

    Each draw takes a random algebra element z, a random nonzero vector
    v (drawn again while zero) and an irreducible factor f of the Krylov
    polynomial of z at v (`modp.irreducible_factor`: x - lam for its
    smallest root lam when F_p is scanned and has one).  f divides the
    minimal polynomial of z, so f(z) is singular.  One vector of ker f(z)
    is spun, then vectors of ker f(z)^T under the transposed action.
    When nullity f(z) = deg f (Holt-Rees), ker f(z)^T is one
    F_p[z]-line and every nonzero vector of it spins to the same
    submodule, so one vector is spun; if both spins fill the space, the
    module is irreducible.  A larger kernel certifies nothing: each
    vector of a basis of ker f(z)^T is spun, and if none gives a
    submodule another z is drawn.  After NORTON_TRIES draws without a
    verdict, GaloisModError is raised.  A certified module records
    deg f as its `norton_degree`."""
    p = module.p
    n = module.dim
    if n == 0:
        return None
    trans = module.transpose_module()
    for _ in range(NORTON_TRIES):
        z = _random_algebra_element(module, rng)
        v = rng.integers(0, p, size=n, dtype=np.int64)
        while not v.any():
            v = rng.integers(0, p, size=n, dtype=np.int64)
        f = modp.irreducible_factor(modp.krylov_poly(z, v, p), p)
        zf = modp.poly_eval_matrix(f, z, p)
        K = modp.kernel_basis(zf, p)
        U = spin(module, K[0])
        if U.shape[0] < n:
            return U
        one_line = len(K) == len(f) - 1
        for w in modp.kernel_basis(zf.T % p, p)[:1 if one_line else None]:
            W = spin(trans, w)
            if W.shape[0] < n:
                # perp of a transposed submodule is a submodule
                return modp.kernel_basis(W, p)
        if one_line:
            # Norton, with the Holt-Rees condition: irreducible
            module.norton_degree = len(f) - 1
            return None
    raise GaloisModError("no Norton certificate or submodule in "
                         "NORTON_TRIES = %d algebra elements" % NORTON_TRIES)


def irreducible_submodule(module, rng):
    """(B, W): the echelon basis B (in the module's coordinates) of an
    irreducible submodule, and W = module.restrict(B), which is the
    module itself when it is irreducible."""
    B = np.eye(module.dim, dtype=np.int64)
    cur = module
    while True:
        U = find_proper_submodule(cur, rng)
        if U is None:
            return B, cur
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


def _spun(module):
    """(B, origin, k, BTinv, C): the standard basis of the module
    (`_standard_basis`), the inverse of B^T, and per generator g the
    matrix C_g of g in that basis (g b_i = sum_l C_g[l, i] b_l).
    Computed on first use and kept on the module, so every Hom space out
    of it shares them."""
    if module._spun is None:
        p = module.p
        B, origin, k = _standard_basis(module)
        BT = B.T
        BTinv = modp.inverse(BT, p)
        C = [BTinv @ (g @ BT % p) % p for g in module.gens]
        module._spun = B, origin, k, BTinv, C
    return module._spun


def _hom_by_spin(src, spun, tgt):
    """Basis of Hom(src, tgt) as an (h, dim tgt, dim src) array, from
    `_spun(src)`.

    phi is fixed by the images X of the k seeds: phi(b_i) = Q_i X with
    Q_i the word of b_i evaluated in tgt's generators.  Writing
    g b_i = sum_l C_g[l, i] b_l, phi is equivariant iff
    g Q_i X = sum_l C_g[l, i] Q_l X for every generator g and i, a
    system in k * dim(tgt) unknowns; then phi = (Q X) (B^T)^-1.
    """
    p = src.p
    _, origin, k, BTinv, Cs = spun
    d1, d2 = src.dim, tgt.dim
    Q = np.zeros((d1, d2, k * d2), dtype=np.int64)
    for i, (j, g) in enumerate(origin):
        if j < 0:
            Q[i, :, g * d2:(g + 1) * d2] = np.eye(d2, dtype=np.int64)
        else:
            Q[i] = tgt.gens[g] @ Q[j] % p
    blocks = []
    for C, g2 in zip(Cs, tgt.gens):
        blocks.append((g2 @ Q - np.einsum("li,lak->iak", C, Q)) % p)
    A = np.concatenate(blocks).reshape(-1, k * d2)
    # the relations g b_i = b_l met while spinning hold identically
    X = modp.kernel_basis(A[A.any(axis=1)], p)
    return np.einsum("iak,hk->hai", Q, X) % p @ BTinv % p


def hom_space(m1, m2):
    """Basis of Hom_{F_p[G]}(V1, V2) as (dim2 x dim1) matrices.  The two
    modules must be over the same prime with aligned generator lists of
    the same length; otherwise GaloisModError is raised.

    Solved by spinning (Parker's MeatAxe; Lux-Szoke): a homomorphism is
    fixed by the images of the seeds of a standard basis of its source,
    so the system has k * dim(target) unknowns for k seeds instead of
    the dim1 * dim2 of the Kronecker system.  The smaller side is spun:
    V1 when dim V1 <= dim V2, and otherwise V2^T, solving
    Hom(V2^T, V1^T), since psi = phi^T satisfies psi g2^T = g1^T psi.
    The returned basis is the one the Kronecker system's kernel_basis
    gives (identity on its free coordinates of the flattened phi), so
    it does not depend on the side spun: the free coordinates are
    determined by the space itself.  A source's standard basis, the
    inverse of its transpose and its generators in that basis are
    computed once and kept on the module (`_spun`), so every Hom space
    out of one module shares them.
    """
    if m1.p != m2.p or len(m1.gens) != len(m2.gens):
        raise GaloisModError(
            "Hom needs modules over one prime with as many generators: "
            "p = %d with %d generators, p = %d with %d"
            % (m1.p, len(m1.gens), m2.p, len(m2.gens)))
    p = m1.p
    d1, d2 = m1.dim, m2.dim
    if d1 == 0 or d2 == 0:
        return []
    if d2 < d1:
        t2 = m2.transpose_module()
        H = _hom_by_spin(t2, _spun(t2), m1.transpose_module())
        H = H.transpose(0, 2, 1)
    else:
        H = _hom_by_spin(m1, _spun(m1), m2)
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
    """dim_Fp End(W) for irreducible W.

    A Norton certificate with deg f = 1 (`module.norton_degree`) proves
    End(W) = F_p: ker f(z) is a vector space over the division algebra
    End(W), so dim End(W) divides deg f.  Otherwise End(W) = Hom(W, W)
    is computed, with a check that the algebra is a field: commutative
    and without zero divisors on a spanning set."""
    if module.norton_degree == 1:
        return 1
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

    Each piece is computed once.  The first remainder is the module
    itself.  A summand is restricted once, by `irreducible_submodule`
    inside the remainder, and that module is the one the isotypic
    grouping compares: for echelon bases W (of the summand, in the
    remainder's coordinates) and R (of the remainder), W R is in
    echelon form and the generators in it are those of the remainder's
    in W.  A remainder that is irreducible (Norton, with the Holt-Rees
    condition of `find_proper_submodule`) is the last summand as it
    stands, with no projection onto it.

    The direct sum of the claimed summand bases is verified to equal
    the module exactly (change of basis has full rank).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    p = module.p
    n = module.dim
    pieces, mods = [], []
    semisimple = True
    remaining = np.eye(n, dtype=np.int64)
    cur = module
    while remaining.shape[0]:
        W, Wmod = irreducible_submodule(cur, rng)
        if Wmod is cur:
            # cur is irreducible: the last summand, its complement zero
            pieces.append(remaining)
            mods.append(cur)
            break
        Wamb = W @ remaining % p
        H = hom_space(cur, Wmod)
        # want phi with phi|_W = id: solve in the coefficient space
        rest = [h @ W.T % p for h in H]  # each in End(W)-matrix form
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
        mods.append(Wmod)
        remaining = modp.echelon_basis(C @ remaining % p, p)
        cur = module.restrict(remaining)
    # group into isotypic classes
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

