"""Root data, Weyl combinatorics and signed Chevalley structure constants.

Roots are kept as integer coordinate tuples in the simple-root basis.
The Cartan matrix convention is a[i][j] = <alpha_j, alpha_i^vee>, so
the simple reflection acts by s_i(x) = x - <x, alpha_i^vee> alpha_i
with <alpha_j, alpha_i^vee> = a[i][j].

Every RootDatum also holds its roots as integer tables, ordered like
`roots`, for the code that acts on all root lines at once:
`root_matrix` (row k is roots[k] in simple-root coordinates),
`simple_pairings` = root_matrix a^T (row k holds <roots[k], alpha_i^vee>)
and `simple_indices` (the position of alpha_i in `roots`).  A torus
element with values t_i on the simple roots acts on g_beta by
prod t_i^(beta_i), read from root_matrix; the cocharacter alpha^vee(s)
acts by s^<beta, alpha^vee>, read from coroot_pairings(alpha).

Structure constant signs follow the extraspecial-pair convention: for
each non-simple positive root g, the extraspecial pair (e, g - e) with
e minimal in a fixed total order (height, then coordinate lex) gets
N_{e, g-e} = +(p+1).  All other constants are forced by antisymmetry,
N_{-x,-y} = -N_{x,y}, the cyclic identity
N_{x,y}/(z,z) = N_{y,z}/(x,x) for x+y+z = 0, and the Jacobi quadruple
identity; the recursion below computes them exactly over Q and checks
integrality and |N_{a,b}| = p_{a,b} + 1.

RootDatum/ChevalleyBasis instances are immutable after construction
and safe to share between threads, except that a ChevalleyBasis builds
its integral tables (ad, divided_powers) on first use; two
threads that race to build one build equal read-only arrays.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from .coeffring import LiftlabError, ParameterError
from .intlinalg import torsion_exponent


class RootDataError(LiftlabError):
    pass


class RootDataParameterError(RootDataError, ParameterError):
    """A refused Cartan type: an unknown family, or a rank the family
    or this package does not support."""


_WEYL_ORDER = {
    "A": lambda n: math.factorial(n + 1),
    "B": lambda n: 2 ** n * math.factorial(n),
    "C": lambda n: 2 ** n * math.factorial(n),
    "D": lambda n: 2 ** (n - 1) * math.factorial(n),
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
}


def cartan_matrix(family, rank):
    """Bourbaki Cartan matrix, a[i][j] = <alpha_j, alpha_i^vee>."""
    if family == "A":
        if rank < 1:
            raise RootDataParameterError("A_n needs n >= 1")
        edges = [(i, i + 1, 1, 1) for i in range(rank - 1)]
    elif family == "B":
        if rank < 2:
            raise RootDataParameterError("B_n needs n >= 2")
        edges = [(i, i + 1, 1, 1) for i in range(rank - 2)]
        edges.append((rank - 2, rank - 1, 1, 2))  # alpha_n short
    elif family == "C":
        if rank < 2:
            raise RootDataParameterError("C_n needs n >= 2")
        edges = [(i, i + 1, 1, 1) for i in range(rank - 2)]
        edges.append((rank - 2, rank - 1, 2, 1))  # alpha_n long
    elif family == "D":
        if rank < 3:
            raise RootDataParameterError("D_n needs n >= 3")
        edges = [(i, i + 1, 1, 1) for i in range(rank - 2)]
        edges.append((rank - 3, rank - 1, 1, 1))
    elif family == "E":
        if rank not in (6, 7, 8):
            raise RootDataParameterError("E_n needs n in {6,7,8}")
        # Bourbaki: chain 1-3-4-5-6(-7)(-8), node 2 attached to 4
        chain = [(0, 2), (2, 3), (3, 4), (4, 5)] + \
                ([(5, 6)] if rank >= 7 else []) + ([(6, 7)] if rank == 8 else [])
        edges = [(i, j, 1, 1) for i, j in chain] + [(1, 3, 1, 1)]
    elif family == "F":
        if rank != 4:
            raise RootDataParameterError("F_n needs n = 4")
        edges = [(0, 1, 1, 1), (1, 2, 1, 2), (2, 3, 1, 1)]
    elif family == "G":
        if rank != 2:
            raise RootDataParameterError("G_n needs n = 2")
        edges = [(0, 1, 3, 1)]  # alpha_1 short: <alpha_2, alpha_1^vee> = -3
    else:
        raise RootDataParameterError("unknown family %r" % family)
    a = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        a[i][i] = 2
    for i, j, down, up in edges:
        a[i][j] = -down
        a[j][i] = -up
    return a


def _root_norms(family, rank):
    """(alpha_i, alpha_i) per simple root, short roots normalized to 2
    in simply-laced types; 2/4 in B,C,F; 2/6 in G2."""
    if family in ("A", "D", "E"):
        return [2] * rank
    if family == "B":
        return [4] * (rank - 1) + [2]
    if family == "C":
        return [2] * (rank - 1) + [4]
    if family == "F":
        return [4, 4, 2, 2]
    if family == "G":
        return [2, 6]
    raise RootDataError(family)


class RootDatum:
    """Root system plus lattice data of the adjoint group of one type.

    The group is adjoint, so X^bullet(T) is the root lattice, with the
    simple roots as its basis: a root's simple-root coordinates are its
    coordinates in X^bullet(T).
    """

    def __init__(self, family, rank):
        self.family = family
        self.rank = rank
        self.cartan = cartan_matrix(family, rank)
        self.norms = _root_norms(family, rank)
        # symmetrized form (alpha_i, alpha_j) = a[i][j] d_i / 2
        self.bilinear = [[self.cartan[i][j] * self.norms[i] // 2
                          for j in range(rank)] for i in range(rank)]
        for i in range(rank):
            for j in range(rank):
                if self.bilinear[i][j] != self.bilinear[j][i]:
                    raise RootDataError("asymmetric form (bug)")
        self.roots = self._generate_roots()
        self.positive_roots = sorted(
            (r for r in self.roots if self._is_positive(r)),
            key=lambda r: (sum(r), r))
        self.nroots = len(self.roots)
        self.root_index = {}
        ordered = list(self.positive_roots) + \
            [tuple(-c for c in r) for r in self.positive_roots]
        self.roots = ordered
        for i, r in enumerate(ordered):
            self.root_index[r] = i
        self.weyl_order = _WEYL_ORDER[family](rank)
        self.dim = rank + self.nroots
        self.root_matrix = np.array(ordered, dtype=np.int64)
        self.simple_pairings = self.root_matrix @ np.array(
            self.cartan, dtype=np.int64).T
        self.simple_indices = np.array(
            [self.root_index[tuple(int(i == j) for j in range(rank))]
             for i in range(rank)], dtype=np.int64)
        for table in (self.root_matrix, self.simple_pairings,
                      self.simple_indices):
            table.flags.writeable = False

    # -- basic combinatorics

    def _generate_roots(self):
        simple = [tuple(1 if j == i else 0 for j in range(self.rank))
                  for i in range(self.rank)]
        seen = set(simple) | set(tuple(-c for c in r) for r in simple)
        frontier = list(seen)
        while frontier:
            new = []
            for r in frontier:
                for i in range(self.rank):
                    k = self.pair_simple_coroot(r, i)
                    s = tuple(r[j] - k * (1 if j == i else 0) for j in range(self.rank))
                    if s not in seen:
                        seen.add(s)
                        new.append(s)
            frontier = new
        return sorted(seen)

    @staticmethod
    def _is_positive(r):
        for c in r:
            if c > 0:
                return True
            if c < 0:
                return False
        return False

    def pair_simple_coroot(self, x, i):
        """<x, alpha_i^vee> for x in simple-root coordinates."""
        return sum(x[j] * self.cartan[i][j] for j in range(self.rank))

    def norm2(self, x):
        return sum(x[i] * x[j] * self.bilinear[i][j]
                   for i in range(self.rank) for j in range(self.rank))

    def coroot_coords(self, g):
        """gamma^vee in the basis of simple coroots (integer coefficients)."""
        n2 = self.norm2(g)
        out = []
        for i in range(self.rank):
            num = g[i] * self.norms[i]
            if num % n2:
                raise RootDataError("non-integral coroot (bug)")
            out.append(num // n2)
        return tuple(out)

    def coroot_pairings(self, g):
        """<beta, gamma^vee> for every root beta, ordered like `roots`."""
        return self.simple_pairings @ np.array(self.coroot_coords(g),
                                               dtype=np.int64)

    def pair_root_coroot(self, x, g):
        """<x, gamma^vee> for a root gamma and any lattice vector x in
        simple-root coordinates."""
        cc = self.coroot_coords(g)
        return sum(cc[i] * self.pair_simple_coroot(x, i) for i in range(self.rank))

    def is_root(self, r):
        return tuple(r) in self.root_index

    def add_roots(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def exponents(self):
        """Exponents as the conjugate partition of the height counts."""
        counts = {}
        for r in self.positive_roots:
            counts[sum(r)] = counts.get(sum(r), 0) + 1
        out = []
        k = 1
        while True:
            n = sum(1 for h, c in counts.items() if c >= k)
            if n == 0:
                break
            # heights h with multiplicity >= k contribute one exponent = max h
            hs = sorted(h for h, c in counts.items() if c >= k)
            out.append(hs[-1])
            k += 1
        return sorted(out)

    def coxeter_number(self):
        return max(sum(r) for r in self.positive_roots) + 1

    def __repr__(self):
        return "RootDatum(%s%d)" % (self.family, self.rank)


class ChevalleyBasis:
    """Signed structure constants and the integral tables of the basis.

    Basis order: h_1..h_rank (simple coroots), then e_beta for beta in
    the fixed root order (positives by (height, lex), then negatives in
    the mirrored order).  This basis owns its integral tables, the ad
    matrices and the divided powers of the root vectors, which every
    LieAlgebra on it reads whatever its ring; they are int64 over Z,
    read-only, never reduced, and built on first use, since ad alone
    takes dim^3 entries (122 MB at E8).
    """

    def __init__(self, datum):
        self.datum = datum
        d = datum
        self._order = {r: i for i, r in enumerate(d.positive_roots)}
        self._espec = {}
        for g in d.positive_roots:
            if sum(g) == 1:
                continue
            for e in d.positive_roots:  # ordered by (height, lex)
                rem = tuple(a - b for a, b in zip(g, e))
                if rem in self._order:
                    self._espec[g] = (e, rem)
                    break
        self._Nfrac = {}
        self._N = {}
        for x in d.roots:
            for y in d.roots:
                s = d.add_roots(x, y)
                if s != tuple([0] * d.rank) and d.is_root(s):
                    v = self._Nrec(x, y)
                    if v.denominator != 1:
                        raise RootDataError("non-integral constant (bug)")
                    self._N[(x, y)] = int(v)
        self._check_chain_lengths()
        self.dim = d.dim
        self.idx_root = {r: d.rank + i for i, r in enumerate(d.roots)}
        self._divided = {}
        self._phi = {}

    # -- recursive determination of the constants

    def _p_chain(self, a, b):
        d = self.datum
        k = 0
        cur = tuple(x - y for x, y in zip(b, a))
        while d.is_root(cur):
            k += 1
            cur = tuple(x - y for x, y in zip(cur, a))
        return k

    def _lt(self, a, b):
        return (sum(a), a) < (sum(b), b)

    def _Nrec(self, x, y):
        key = (x, y)
        if key in self._Nfrac:
            return self._Nfrac[key]
        d = self.datum
        s = d.add_roots(x, y)
        if not (d.is_root(x) and d.is_root(y)) or not d.is_root(s):
            v = Fraction(0)
        else:
            xpos, ypos = d._is_positive(x), d._is_positive(y)
            if xpos and ypos:
                if self._lt(y, x):
                    v = -self._Nrec(y, x)
                elif self._espec[s] == (x, y):
                    v = Fraction(self._p_chain(x, y) + 1)
                else:
                    e, h = self._espec[s]
                    # quadruple (a,b,c) = (h, -x, -y), d = e:
                    #   N_{x,y} N_{-s,h} = N_{h,-x} N_{h-x,-y} + N_{-y,h} N_{h-y,-x}
                    t1 = self._nz(h, d.neg(x)) * self._nz(
                        tuple(a - b for a, b in zip(h, x)), d.neg(y))
                    t2 = self._nz(d.neg(y), h) * self._nz(
                        tuple(a - b for a, b in zip(h, y)), d.neg(x))
                    den = self._nz(d.neg(s), h)
                    if den == 0:
                        raise RootDataError("degenerate extraspecial pair (bug)")
                    v = (t1 + t2) / den
            elif not xpos and not ypos:
                v = -self._Nrec(d.neg(x), d.neg(y))
            elif not xpos:
                v = -self._Nrec(y, x)
            else:
                # x positive, y negative
                if d._is_positive(s):
                    # cyclic rule on (x, y, -s): N_{x,y} = N_{y,-s} (s,s)/(x,x)
                    inner = -self._Nrec(d.neg(y), s)
                    v = inner * Fraction(d.norm2(s), d.norm2(x))
                else:
                    v = -self._Nrec(d.neg(x), d.neg(y))
        self._Nfrac[key] = v
        return v

    def _nz(self, a, b):
        d = self.datum
        if not (d.is_root(a) and d.is_root(b)):
            return Fraction(0)
        s = d.add_roots(a, b)
        if s == tuple([0] * d.rank) or not d.is_root(s):
            return Fraction(0)
        return self._Nrec(a, b)

    def _check_chain_lengths(self):
        for (x, y), v in self._N.items():
            p = self._p_chain(x, y)
            if abs(v) != p + 1:
                raise RootDataError(
                    "constant %d at %s,%s violates chain length %d" % (v, x, y, p))

    # -- integral tables of the basis, built on first use

    @functools.cached_property
    def ad(self):
        """ad of every basis vector, a read-only (dim, dim, dim) int64
        array with ad[i][:, j] = [b_i, b_j]: [h_j, e_r] = <r, alpha_j^vee>
        e_r, [e_r, e_-r] = h_r in simple coroots, and [e_r, e_s] =
        N_{r,s} e_{r+s}."""
        d = self.datum
        rank, idx = d.rank, self.idx_root
        ad = np.zeros((self.dim,) * 3, dtype=np.int64)
        k = rank + np.arange(d.nroots)
        ad[:rank, k, k] = d.simple_pairings.T
        ad[k, k, :rank] = -d.simple_pairings
        for r in d.roots:
            ad[idx[r], :rank, idx[d.neg(r)]] = d.coroot_coords(r)
        for (r, s), n in self._N.items():
            ad[idx[r], idx[d.add_roots(r, s)], idx[s]] = n
        ad.flags.writeable = False
        return ad

    def divided_powers(self, i):
        """ad(b_i)^k / k! for k >= 1 up to the last non-zero power,
        stacked as a read-only (K, dim, dim) int64 array and checked
        integral over Z; built once per basis index i (a root vector's,
        as ad(b_i) must be nilpotent)."""
        D = self._divided.get(i)
        if D is None:
            A = self.ad[i]
            Ak = np.eye(self.dim, dtype=np.int64)
            terms = []
            for k in itertools.count(1):
                Ak = Ak @ A
                if not Ak.any():
                    break
                if (Ak % math.factorial(k)).any():
                    raise RootDataError("divided power not integral (bug)")
                terms.append(Ak // math.factorial(k))
            D = np.stack(terms)      # ad(X_alpha) != 0, so k = 1 occurs
            D.flags.writeable = False
            self._divided[i] = D
        return D

    def N(self, a, b):
        return self._N.get((tuple(a), tuple(b)), 0)

    def root_basis_index(self, r):
        return self.idx_root[tuple(r)]

    def verify_jacobi(self):
        """Jacobi identity on every basis triple, from the dense ad
        table: it is antisymmetric and ad([b_i, b_j]) = ad(b_i) ad(b_j)
        - ad(b_j) ad(b_i) for i < j, which together are Jacobi on every
        basis triple."""
        dim = self.dim
        ad = self.ad
        if not np.array_equal(ad, -ad.transpose(2, 1, 0)):
            return False
        flat = ad.reshape(dim, dim * dim)
        for i in range(dim - 1):
            A, rest = ad[i], ad[i + 1:]
            lhs = (A[:, i + 1:].T @ flat).reshape(rest.shape)
            if not np.array_equal(lhs, A @ rest - rest @ A):
                return False
        return True


_CACHE = {}


def root_datum(cartan_type):
    """Build (RootDatum, ChevalleyBasis) for one simple type.

    cartan_type is a string like "F4" or a (family, rank) pair.  Rank
    is capped at 8.  Results are cached per type; the construction is
    deterministic so regeneration always agrees.
    """
    if isinstance(cartan_type, str):
        family, rank = cartan_type[0].upper(), int(cartan_type[1:])
    else:
        family, rank = cartan_type[0].upper(), int(cartan_type[1])
    if rank > 8:
        raise RootDataParameterError("rank %d > 8 unsupported" % rank)
    key = (family, rank)
    if key not in _CACHE:
        datum = RootDatum(family, rank)
        basis = ChevalleyBasis(datum)
        _CACHE[key] = (datum, basis)
    return _CACHE[key]


def phi_alpha(basis, alpha):
    """Phi^alpha: roots beta with [g_alpha, g_beta] != 0, from the
    structure constants (the negative -alpha enters through
    [X_alpha, X_-alpha] = h_alpha).

    The scan runs once per (basis, alpha) and is kept as a tuple in
    `basis._phi`; each call returns a fresh list of it.  A non-root is
    refused on every call."""
    alpha = tuple(alpha)
    phi = basis._phi.get(alpha)
    if phi is None:
        d = basis.datum
        if not d.is_root(alpha):
            raise RootDataError("%r is not a root" % (alpha,))
        phi = basis._phi[alpha] = tuple(
            b for b in d.roots
            if b == d.neg(alpha) or basis.N(alpha, b) != 0)
    return list(phi)


# -- Levi bound (lcm-of-torsion certificate)


def closed_symmetric_subsystems(datum):
    """All additively closed, symmetric subsystems of Phi, enumerated as
    closures of generator sets of size <= rank.  Returned as sorted
    tuples of root indices (positive and negative roots both listed);
    includes the empty system."""
    d = datum
    roots = d.roots
    n = len(roots)
    idx = d.root_index
    addtab = [[-1] * n for _ in range(n)]
    negtab = [idx[d.neg(r)] for r in roots]
    for i, a in enumerate(roots):
        for j, b in enumerate(roots):
            s = d.add_roots(a, b)
            if s in idx:
                addtab[i][j] = idx[s]

    def closure(gens):
        mask = set()
        for g in gens:
            mask.add(g)
            mask.add(negtab[g])
        frontier = list(mask)
        while frontier:
            new = []
            cur = list(mask)
            for a in frontier:
                for b in cur:
                    s = addtab[a][b]
                    if s >= 0 and s not in mask:
                        mask.add(s)
                        new.append(s)
                        mask.add(negtab[s])
                        if negtab[s] not in new:
                            new.append(negtab[s])
            frontier = new
        return tuple(sorted(mask))

    pos_idx = [idx[r] for r in d.positive_roots]
    out = {tuple()}
    for k in range(1, d.rank + 1):
        for gens in itertools.combinations(pos_idx, k):
            out.add(closure(gens))
    return sorted(out)


def levi_bound(datum):
    """The integer n_G = (n'_G)^{m_G} with m_G = |W| + |Phi|.

    n'_G is the lcm, over pairs of a reflection-closed subsystem (the
    candidate for the reflections in a stabilizer W(t)) and a closed
    subsystem (the candidate for Phi(t)), of the exponent of the
    torsion subgroup of X^bullet(T) / (Z Psi + sum_w (w-1) X^bullet(T)),
    each quotient computed by Smith normal form.  Enumerating all pairs
    over-approximates the realizable (W(t), Phi(t)), which only makes
    n_G more divisible, hence still sound.

    Returns a dict with n_g, n_prime, m_g and certificate bookkeeping.
    """
    d = datum
    if d.rank > 4:
        raise RootDataParameterError("levi_bound: rank %d > 4 unsupported "
                                     "(exhaustive pair enumeration)" % d.rank)
    systems = closed_symmetric_subsystems(d)
    roots = d.roots
    rank = d.rank
    # g_beta = gcd over the simple roots, the lattice basis, of
    # <alpha_j, beta^vee>
    gb = {}
    for r in roots:
        g = math.gcd(*d.coroot_pairings(r)[d.simple_indices].tolist())
        gb[r] = g if g else 1

    def lattice_columns(sys_w, sys_l):
        cols = []
        for i in sys_l:
            cols.append(roots[i])
        for i in sys_w:
            r = roots[i]
            if d._is_positive(r):
                cols.append(tuple(gb[r] * c for c in r))
        return cols

    n_prime = 1
    npairs = 0
    seen = {}
    for sw in systems:
        for sl in systems:
            cols = lattice_columns(sw, sl)
            key = tuple(sorted(cols))
            if key in seen:
                t = seen[key]
            else:
                if not cols:
                    t = 1
                else:
                    mat = [[c[i] for c in cols] for i in range(rank)]
                    t = torsion_exponent(mat)
                seen[key] = t
            n_prime = n_prime * t // math.gcd(n_prime, t)
            npairs += 1
    m_g = d.weyl_order + d.nroots
    return {
        "n_prime": n_prime,
        "m_g": m_g,
        "n_g": n_prime ** m_g,
        "pairs_enumerated": npairs,
        "subsystems": len(systems),
    }
