"""Modules over finite groups: MeatAxe decomposition, presentation
cohomology in degrees 0 and 1, and abelianization.

Groups enter as matrix generators plus a presentation; we never compute
presentations from matrices (the groups of interest are explicitly
known).  The matrix path works over the prime field F_p; extension
residue fields only appear as computed endomorphism fields.

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

from dataclasses import dataclass, field

import numpy as np

from . import modp
from .intlinalg import lattice_torsion


class GaloisModError(ValueError):
    pass


@dataclass(frozen=True)
class GroupPresentation:
    """Generators 1..n; relations are words in signed generator indices
    (+i for g_i, -i for its inverse)."""
    ngens: int
    relations: tuple

    def __post_init__(self):
        for rel in self.relations:
            for s in rel:
                if s == 0 or abs(s) > self.ngens:
                    raise GaloisModError("bad letter %d" % s)


def free_presentation(ngens):
    return GroupPresentation(ngens, tuple())


class MatrixModule:
    """F_p[G]-module given by one invertible matrix per generator."""

    def __init__(self, p, gens, presentation=None, check=True):
        self.p = p
        self.gens = [np.asarray(g, dtype=np.int64) % p for g in gens]
        self.dim = self.gens[0].shape[0] if self.gens else 0
        self.presentation = presentation
        if check and presentation is not None:
            for rel in presentation.relations:
                if np.any((word_matrix(self, rel)
                           - np.eye(self.dim, dtype=np.int64)) % p):
                    raise GaloisModError("generators violate a relation")

    def transpose_module(self):
        return MatrixModule(self.p, [g.T % self.p for g in self.gens],
                            check=False)

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
        sub = np.hsplit(X, len(self.gens))
        M = MatrixModule(p, sub, check=False)
        M.embedding = B
        return M

    def quotient(self, basis):
        """Module induced on V / row-space(basis)."""
        p = self.p
        B = modp.echelon_basis(np.asarray(basis, dtype=np.int64) % p, p)
        piv = [int(np.nonzero(row)[0][0]) for row in B]
        comp = [j for j in range(self.dim) if j not in piv]
        # column j of g reduced modulo the rows of B (RREF: subtract
        # g[pv, j] times the row with pivot pv), read on the complement
        quots = [(g[np.ix_(comp, comp)] - B[:, comp].T @ g[np.ix_(piv, comp)])
                 % p for g in self.gens]
        M = MatrixModule(p, quots, check=False)
        M.lifted_coords = comp
        return M


def word_matrix(module, word):
    p = module.p
    M = np.eye(module.dim, dtype=np.int64)
    for s in word:
        g = module.gens[abs(s) - 1]
        if s < 0:
            g = modp.inverse(g, p)
            if g is None:
                raise GaloisModError("generator not invertible")
        M = M @ g % p
    return M


def spin(module, vectors, p=None):
    """Smallest submodule (echelon row basis) containing the vectors."""
    p = module.p if p is None else p
    B = modp.echelon_basis(np.atleast_2d(np.asarray(vectors)) % p, p)
    while True:
        dim = B.shape[0]
        for g in module.gens:
            B = modp.echelon_basis(np.vstack([B, B @ g.T % p]), p)
        # the RREF basis of a row space is unique, so the result does not
        # depend on the order in which images were added
        if B.shape[0] == dim:
            return B


def _random_algebra_element(module, rng, nwords=3, maxlen=3):
    p = module.p
    n = module.dim
    out = np.zeros((n, n), dtype=np.int64)
    for _ in range(nwords):
        w = np.eye(n, dtype=np.int64)
        for _ in range(int(rng.integers(1, maxlen + 1))):
            w = w @ module.gens[int(rng.integers(len(module.gens)))] % p
        out = (out + int(rng.integers(1, p)) * w) % p
    return out


def find_proper_submodule(module, rng, attempts=60):
    """Either a proper nonzero submodule basis, or None with a Norton
    certificate of irreducibility."""
    p = module.p
    n = module.dim
    if n == 0:
        return None
    trans = module.transpose_module()
    for _ in range(attempts):
        z = _random_algebra_element(module, rng)
        mp = modp.min_poly(z, p, rng)
        # f divides the minimal polynomial of z, so f(z) is singular and
        # the first factor decides
        f = next(modp.squarefree_factors(mp, p))
        zf = modp.poly_eval_matrix(f, z, p)
        K = modp.kernel_basis(zf, p)
        U = spin(module, K[0])
        if U.shape[0] < n:
            return U
        KT = modp.kernel_basis(zf.T % p, p)
        for w in KT:
            W = spin(trans, w)
            if W.shape[0] < n:
                # perp of a transposed submodule is a submodule
                return modp.kernel_basis(W, p)
        # Norton: irreducible
        return None
    raise GaloisModError("could not certify (ir)reducibility in budget")


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
    Returns (B, origin, k): the rows of B are the basis in spin order;
    origin[i] is (-1, s) if row i is the s-th seed and (j, g) if it is
    gens[g] applied to row j; k is the number of seeds.
    """
    p, d = module.p, module.dim
    eye = np.eye(d, dtype=np.int64)
    rows, origin = [], []
    E = np.zeros((d, d), dtype=np.int64)   # rows :n are the span's RREF
    piv = []
    level = []
    k = 0
    while len(rows) < d:
        if level:
            cand = [(rows[i] @ g.T % p, (i, gi))
                    for gi, g in enumerate(module.gens) for i in level]
        else:
            # the first unit vector with a nonzero residue mod the span
            res = (eye - eye[:, piv] @ E[:len(piv)]) % p
            j = int(np.flatnonzero(np.any(res, axis=1))[0])
            cand = [(eye[j], (-1, k))]
            k += 1
        level = []
        for v, o in cand:
            n = len(piv)
            r = (v - v[piv] @ E[:n]) % p
            nz = np.flatnonzero(r)
            if not nz.size:
                continue
            c = int(nz[0])
            r = r * pow(int(r[c]), p - 2, p) % p
            E[:n] = (E[:n] - np.outer(E[:n, c], r)) % p
            E[n] = r
            piv.append(c)
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
    X = modp.kernel_basis(A[np.any(A, axis=1)], p)
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
    composition_factors: list = field(default_factory=list)


def _endo_field_degree(module, p):
    """dim_Fp End(W) for irreducible W, with a check that the algebra is
    a field: commutative and without zero divisors on a spanning set."""
    E = hom_space(module, module)
    d = len(E)
    for i, a in enumerate(E):
        for b in E[i:]:
            if np.any((a @ b - b @ a) % p):
                raise GaloisModError("endo algebra not commutative")
            if not np.any(a) or not np.any(b):
                continue
            if not np.any(a @ b % p):
                raise GaloisModError("zero divisor in endo algebra")
    return d


def decompose(module, rng=None, seed=0):
    """Full isotypic decomposition of a (desk-scale) module.

    Splits off irreducible summands with explicit complements; if some
    irreducible submodule admits no complement the module is flagged
    non-semisimple and composition factors are reported instead of a
    direct-sum decomposition for the remaining part.

    The direct sum of the claimed summand bases is verified to equal
    the module exactly (change of basis has full rank).
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    p = module.p
    n = module.dim
    pieces = []
    comp_factors = []
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
            # no equivariant projection: not semisimple along W; report
            # composition factors for what is left and stop splitting
            semisimple = False
            comp_factors.extend(composition_factor_modules(cur, rng))
            remaining = np.zeros((0, n), dtype=np.int64)
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
        composition_factors=comp_factors,
    )
    if semisimple:
        total = np.vstack([b for b, _ in dec.summands]) if pieces else \
            np.zeros((0, n), dtype=np.int64)
        if modp.rank(total, p) != n:
            raise GaloisModError("summands do not reassemble (bug)")
    return dec


def composition_factor_modules(module, rng=None, seed=0):
    """Composition factors (as modules) regardless of semisimplicity."""
    if rng is None:
        rng = np.random.default_rng(seed)
    out = []
    cur = module
    while cur.dim:
        W = irreducible_submodule(cur, rng)
        out.append(cur.restrict(W))
        cur = cur.quotient(W)
    return out


def common_subquotient(m1, m2, rng=None):
    """True iff some composition factor of m1 is isomorphic to one of
    m2 (as F_p[G]-modules, generator lists aligned)."""
    if rng is None:
        rng = np.random.default_rng(0)
    f1 = composition_factor_modules(m1, rng)
    f2 = composition_factor_modules(m2, rng)
    for a in f1:
        for b in f2:
            if modules_isomorphic(a, b):
                return True
    return False


# -- presentation cohomology (degrees 0 and 1, Fox calculus)


def h0(module):
    """Fixed space: intersection of ker(g - 1)."""
    p = module.p
    rows = [((g - np.eye(module.dim, dtype=np.int64)) % p) for g in module.gens]
    A = np.vstack(rows) % p
    return modp.kernel_basis(A, p)


def _relation_block(module, rel):
    """Linear map (x_1..x_g) -> phi(rel) from the cocycle rule
    phi(uv) = phi(u) + u phi(v), phi(g^-1) = -g^-1 phi(g)."""
    p = module.p
    d = module.dim
    g = len(module.gens)
    block = np.zeros((d, g * d), dtype=np.int64)
    prefix = np.eye(d, dtype=np.int64)
    for s in rel:
        i = abs(s) - 1
        if s > 0:
            block[:, i * d:(i + 1) * d] = (block[:, i * d:(i + 1) * d]
                                           + prefix) % p
            prefix = prefix @ module.gens[i] % p
        else:
            gi = modp.inverse(module.gens[i], p)
            if gi is None:
                raise GaloisModError("generator not invertible")
            block[:, i * d:(i + 1) * d] = (block[:, i * d:(i + 1) * d]
                                           - prefix @ gi) % p
            prefix = prefix @ gi % p
    return block


def cocycle_space(pres, module):
    """Z^1 as tuples of generator values (rows of length ngens*dim)."""
    p = module.p
    d = module.dim
    if not pres.relations:
        return np.eye(pres.ngens * d, dtype=np.int64)
    A = np.vstack([_relation_block(module, rel) for rel in pres.relations]) % p
    return modp.kernel_basis(A, p)


def coboundary_space(pres, module):
    p = module.p
    d = module.dim
    rows = []
    for k in range(d):
        w = np.zeros(d, dtype=np.int64)
        w[k] = 1
        rows.append(np.concatenate([(g @ w - w) % p for g in module.gens]))
    return modp.echelon_basis(np.array(rows, dtype=np.int64), p)


def cohomology(pres, module, degree):
    """(dimension, basis) of H^degree(G, module) for degree in {0, 1}.

    H^1 comes from the relation-derived linear system on generator
    values; basis vectors are cocycles (coset representatives mod
    coboundaries) and each is re-verified against every relation.
    """
    if degree == 0:
        K = h0(module)
        return K.shape[0], K
    if degree != 1:
        raise GaloisModError("only degrees 0 and 1 are supported")
    p = module.p
    Z = cocycle_space(pres, module)
    B = coboundary_space(pres, module)
    dimh1 = Z.shape[0] - B.shape[0]
    # choose Z-vectors extending a basis of B: a pivot column of
    # [B^t | Z^t] is independent of every column to its left, so the
    # Z-part pivots are the rows a greedy left-to-right extension picks
    _, piv = modp.rref(np.concatenate([B.T, Z.T], axis=1), p)
    nb = B.shape[0]
    basis = [Z[c - nb] for c in piv if c >= nb][:dimh1]
    for z in basis:
        for rel in pres.relations:
            val = _relation_block(module, rel) @ z % p
            if np.any(val):
                raise GaloisModError("cocycle violates a relation (bug)")
    return dimh1, np.array(basis, dtype=np.int64) if basis else \
        np.zeros((0, pres.ngens * module.dim), dtype=np.int64)


def abelianization(pres):
    """Invariant factors of the abelianization (0 denotes a Z factor)."""
    g = pres.ngens
    cols = []
    for rel in pres.relations:
        v = [0] * g
        for s in rel:
            v[abs(s) - 1] += 1 if s > 0 else -1
        cols.append(v)
    if not cols:
        return [0] * g
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(g)]
    return lattice_torsion(mat)


def extension_splitting_probe(pres, defects, action_gens, p):
    """Decide splitting of 1 -> W -> E -> G -> 1 from relation defects.

    defects[rel] is the W-valued defect of the lifted relation; the
    extension splits iff the inhomogeneous Fox system
    sum_i d(rel)/d(x_i) u_i = -defect(rel) has a solution (then the
    corrected lifts generate a complement).  Returns True/False.
    """
    module = MatrixModule(p, action_gens, check=False)
    blocks = [_relation_block(module, rel) for rel in pres.relations]
    A = np.vstack(blocks) % p
    b = np.concatenate([(-np.asarray(d)) % p for d in defects])
    return modp.solve(A, b, p) is not None


def coset_enumeration(pres, max_cosets=100000):
    """Order of the presented group by HLT coset enumeration over the
    trivial subgroup.  Raises if the coset table exceeds max_cosets
    (infinite or too-large group)."""
    ngens = pres.ngens
    ncols = 2 * ngens

    def col(s):
        return (s - 1) if s > 0 else (ngens + (-s) - 1)

    def inv_col(c):
        return c + ngens if c < ngens else c - ngens

    table = [[0] * ncols for _ in range(2)]  # row 0 unused; cosets 1-based
    rep = [0, 1]

    def find(x):
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    pending = []

    def merge(x, y):
        x, y = find(x), find(y)
        if x != y:
            if x > y:
                x, y = y, x
            rep[y] = x
            pending.append(y)

    def define(x, c):
        nonlocal table
        if len(table) > max_cosets:
            raise GaloisModError("coset enumeration exceeded %d cosets"
                                 % max_cosets)
        table.append([0] * ncols)
        rep.append(len(table) - 1)
        y = len(table) - 1
        table[x][c] = y
        table[y][inv_col(c)] = x
        return y

    def scan(x, word):
        # forward
        f = x
        i = 0
        n = len(word)
        while i < n:
            c = col(word[i])
            nxt = table[find(f)][c]
            if nxt == 0:
                break
            f = find(nxt)
            i += 1
        if i == n:
            merge(f, x)
            return
        # backward
        b = x
        j = n
        while j > i:
            c = inv_col(col(word[j - 1]))
            nxt = table[find(b)][c]
            if nxt == 0:
                break
            b = find(nxt)
            j -= 1
        if j == i:
            merge(f, b)
        elif j == i + 1:
            # deduction: f . word[i] = b
            c = col(word[i])
            fb, bb = find(f), find(b)
            table[fb][c] = bb
            table[bb][inv_col(c)] = fb
        else:
            # define one and rescan later
            c = col(word[i])
            define(find(f), c)

    def process_coincidences():
        while pending:
            y = pending.pop()
            row = table[y]
            for c in range(ncols):
                z = row[c]
                if z:
                    # transfer edge y -c-> z to rep(y)
                    x = find(y)
                    zz = find(z)
                    cur = table[x][c]
                    if cur == 0:
                        table[x][c] = zz
                        table[zz][inv_col(c)] = x
                    else:
                        merge(cur, zz)

    changed = True
    passes = 0
    while changed:
        passes += 1
        if passes > 4 * max_cosets:
            raise GaloisModError("coset enumeration did not close")
        changed = False
        live = [x for x in range(1, len(table)) if find(x) == x]
        for x in live:
            for rel in pres.relations:
                scan(find(x), rel)
                process_coincidences()
            for c in range(ncols):
                if table[find(x)][c] == 0:
                    define(find(x), c)
                    changed = True
        # closure check: all entries defined and all relators close
        if not changed:
            ok = True
            live = [x for x in range(1, len(table)) if find(x) == x]
            for x in live:
                for c in range(ncols):
                    if table[x][c] == 0 or find(table[x][c]) != table[x][c]:
                        if table[x][c] and find(table[x][c]) != table[x][c]:
                            table[x][c] = find(table[x][c])
                        else:
                            ok = False
            if not ok:
                changed = True
    return len([x for x in range(1, len(table)) if find(x) == x])
