"""Oddness checks and the three example families.

An involution theta of the adjoint module is odd when its fixed space
has the minimum possible dimension, dim Flag = |Phi^+|; for any
involution the fixed dimension is at least that.  The principal-SL2 and
torus-normalizer families are realized concretely and cross-checked
against the MeatAxe; the F4 pipeline is character-theoretic (the
relevant prime never divides the group orders, so ordinary character
theory computes the Brauer decompositions).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import modp
from .chartable import CharacterTable, CharTableError, brauer_restrict
from .coeffring import CoeffRing, LiftlabError, ParameterError
from .chevgroup import (LieAlgebra, exp_hat, identity, principal_sl2,
                        torus_elt, u_alpha)
from .galoismod import MatrixModule, decompose
from .rootdata import root_datum


class OddnessError(LiftlabError):
    pass


class OddnessParameterError(OddnessError, ParameterError):
    pass


@dataclass
class InvolutionReport:
    description: str
    fixed_dim: int
    n_positive_roots: int
    odd: bool


def odd_check(theta, datum):
    """Exact fixed-space dimension of an involution acting on g; odd
    iff it equals |Phi^+| (the minimum any involution can have)."""
    alg = theta.alg
    R = alg.ring
    if R.m != 1:
        raise OddnessError("odd check works over the residue field")
    if not (theta @ theta).eq(identity(alg)):
        raise OddnessError("theta^2 != 1")
    M = (theta.mat[..., 0] - np.eye(alg.dim, dtype=np.int64)) % R.p
    fixed = modp.kernel_basis(M, R.p).shape[0]
    npos = len(datum.positive_roots)
    if fixed < npos:
        raise OddnessError("fixed dim below the flag bound (impossible)")
    return InvolutionReport("involution", fixed, npos, fixed == npos)


def _minus_one_in_weyl(datum):
    # -1 belongs to W exactly in types A1, B, C, D_{2n}, G2, F4, E7, E8
    fam, n = datum.family, datum.rank
    if fam in ("B", "C", "G", "F"):
        return True
    if fam == "A":
        return n == 1
    if fam == "D":
        return n % 2 == 0
    if fam == "E":
        return n in (7, 8)
    return False


def principal_involution_check(datum, basis, p):
    """theta = the image of diag(-1, 1) under the principal homomorphism:
    the torus element acting by (-1)^height; its fixed space must have
    dimension exactly |Phi^+|.

    This inner element is odd exactly when -1 lies in the Weyl group;
    otherwise oddness needs the outer opposition involution in
    G x Out(G), which the adjoint-inner model here does not carry."""
    if not _minus_one_in_weyl(datum):
        raise OddnessParameterError(
            "-1 not in W(%s%d): the odd involution is outer"
            % (datum.family, datum.rank))
    R = CoeffRing(p, 1, 1)
    alg = LieAlgebra(datum, basis, R)
    principal_sl2(alg)  # enforces p > Coxeter number
    theta = torus_elt(alg, [R.el(p - 1)] * datum.rank)
    rep = odd_check(theta, datum)
    rep.description = "principal diag(-1,1)"
    if not rep.odd:
        raise OddnessError("principal involution not odd (bug)")
    return rep


def sym_adjoint_decomposition(cartan_type, p, rng=None):
    """Adjoint decomposition under a principal SL2 two ways.

    Symbolic: the summands are Sym^{2 m_i} over the exponents m_i.
    Computational: the MeatAxe decomposition of g as a module over the
    group generated by exp(ad e) and exp(ad f).  The two multisets of
    dimensions must agree exactly; requires p > 2 max(m_i) + 1 so the
    symmetric powers stay irreducible.  The isotypic classes are
    reported as sorted (dim, multiplicity) pairs, so the report does not
    depend on the order in which the MeatAxe's draws found them."""
    datum, basis = root_datum(cartan_type)
    exps = datum.exponents()
    if p <= 2 * max(exps) + 1:
        raise OddnessParameterError("p must exceed 2 max exponent + 1 = %d"
                                    % (2 * max(exps) + 1))
    symbolic = sorted(2 * m for m in exps)
    R = CoeffRing(p, 1, 1)
    alg = LieAlgebra(datum, basis, R)
    e, h, f = principal_sl2(alg)
    module = MatrixModule(p, [exp_hat(alg, x).mat[..., 0] for x in (e, f)])
    dec = decompose(module, rng or np.random.default_rng(0))
    if not dec.semisimple:
        raise OddnessError("principal module not semisimple (p too small?)")
    computational = sorted(b.shape[0] - 1 for b, _ in dec.summands)
    if symbolic != computational:
        raise OddnessError("symbolic %r != computational %r"
                           % (symbolic, computational))
    return {
        "exponents": exps,
        "sym_weights": symbolic,
        "multiplicity_free": dec.multiplicity_free,
        "isotypic": sorted((c["dim"], c["multiplicity"])
                           for c in dec.isotypic),
    }


def normalizer_decomposition(cartan_type, p, rng=None):
    """The torus-normalizer module: g decomposes under N(T)(F_p) into
    the Cartan plus one summand per root length (two constituents in
    the simply-laced case, three otherwise), each absolutely
    irreducible and pairwise non-isomorphic."""
    datum, basis = root_datum(cartan_type)
    if datum.weyl_order % p == 0:
        raise OddnessParameterError("p divides |W|")
    R = CoeffRing(p, 1, 1)
    alg = LieAlgebra(datum, basis, R)
    gens = []
    gpow = _primitive_root(p)
    for i in range(datum.rank):
        vals = [R.el(1)] * datum.rank
        vals[i] = R.el(gpow)
        gens.append(torus_elt(alg, vals).mat[..., 0])
    for i in range(datum.rank):
        simple = tuple(1 if j == i else 0 for j in range(datum.rank))
        w = (u_alpha(alg, simple, R.el(1))
             @ u_alpha(alg, datum.neg(simple), R.el(p - 1))
             @ u_alpha(alg, simple, R.el(1)))
        gens.append(w.mat[..., 0])
    module = MatrixModule(p, gens)
    dec = decompose(module, rng or np.random.default_rng(0))
    lengths = sorted({datum.norm2(r) for r in datum.roots})
    expected = 1 + len(lengths)
    dims = sorted(c["dim"] for c in dec.isotypic)
    if len(dec.isotypic) != expected:
        raise OddnessError("expected %d summands, found %d"
                           % (expected, len(dec.isotypic)))
    if not dec.multiplicity_free:
        raise OddnessError("normalizer module not multiplicity-free")
    return {"dims": dims, "count": len(dec.isotypic),
            "simply_laced": len(lengths) == 1}


def _primitive_root(p):
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise OddnessError("no primitive root (p not prime?)")


# ---------------------------------------------------------------------------
# the exceptional F4 pipeline


@dataclass
class ExamplePipelineReport:
    group: str
    multiplicities: list
    degrees: list
    multiplicity_free: bool
    trace_order2: int
    fixed_dim: int
    dim_flag: int
    odd: bool
    h0: int
    brauer_valid: bool
    ambiguity: str = ""
    checklist: dict = field(default_factory=dict)


def legendre(a, p):
    """Legendre symbol (a/p) for odd prime p."""
    a = a % p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def default_data_dir():
    return os.path.join(os.path.dirname(__file__), "data", "atlas")


def load_class_functions(path, table):
    out = {}
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln or ln.startswith("#") or ln.startswith("TABLE"):
                continue
            parts = ln.split()
            out[parts[0]] = table.parse_class_function(parts[1:])
    return out


def exceptional_pipeline(p, data_dir=None):
    """The two exceptional subgroups of the 52-dimensional algebra.

    For each group, the adjoint class function of the ambient
    78-dimensional algebra and the 27-dimensional minuscule class
    function are data (validated, not trusted); the pipeline derives
    the 52-dimensional restriction as adjoint - minuscule + 1,
    decomposes it by inner products, and checks the headline numbers:
    trace -4 at the unique order-2 class, fixed dimension 24 = dim Flag,
    A6 multiplicities (1, 3, 2), a multiplicity-2 constituent for the
    second group, and the multiplicity-free verdict false for both.
    """
    data_dir = data_dir or default_data_dir()
    datum, _ = root_datum("F4")
    dim_flag = len(datum.positive_roots)
    out = []
    for name, tbl_file, cf_file in [
            ("A6", "a6.tbl", "f4_embedding_a6.cf"),
            ("PSL2_13", "psl2_13.tbl", "f4_embedding_psl2_13.cf")]:
        table = CharacterTable.load(os.path.join(data_dir, tbl_file))
        table.validate()
        cfs = load_class_functions(os.path.join(data_dir, cf_file), table)
        ctx = table.ctx
        vmin, adj = cfs["VMIN"], cfs["ADJ"]
        if table.class_function_degree(vmin) != 27 or \
                table.class_function_degree(adj) != 78:
            raise CharTableError("embedding degrees corrupted")
        lie52 = [ctx.add(ctx.sub(a, v), ctx.integer(1))
                 for a, v in zip(adj, vmin)]
        mults = brauer_restrict(table, lie52)
        if any(m < 0 for m in mults):
            raise CharTableError("negative multiplicity (inconsistent data)")
        if sum(m * d for m, d in zip(mults, table.degrees)) != 52:
            raise CharTableError("decomposition does not sum to 52")
        order2 = table.class_orders.index(2)
        trace = ctx.rational_value(lie52[order2])
        fixed = (52 + trace) // 2
        h0 = mults[table.degrees.index(1)] if 1 in table.degrees else 0
        rep = ExamplePipelineReport(
            group=name,
            multiplicities=mults,
            degrees=table.degrees,
            multiplicity_free=all(m <= 1 for m in mults),
            trace_order2=trace,
            fixed_dim=fixed,
            dim_flag=dim_flag,
            odd=fixed == dim_flag,
            h0=h0,
            brauer_valid=table.order % p != 0,
        )
        if name == "PSL2_13":
            twelves = [i for i, d in enumerate(table.degrees)
                       if d == 12 and mults[i] == 1]
            rep.ambiguity = ("the single-multiplicity 12-dimensional "
                             "constituents are chi_%s; which of chi_5/chi_6 "
                             "occurs is a labeling convention"
                             % "/".join(str(i + 1) for i in twelves))
        rep.checklist = {
            "legendre_2_13": legendre(2, 13),
            "odd": rep.odd,
            "no_trivial_constituent": rep.h0 == 0,
            "multiplicity_free": rep.multiplicity_free,
            "brauer_valid_at_p": rep.brauer_valid,
            "satisfies_all_but_multiplicity_free":
                rep.odd and rep.h0 == 0 and not rep.multiplicity_free,
        }
        out.append(rep)
    return out
