"""Finite-group modules and the three example families: MeatAxe
decomposition with certified irreducibility, and the exceptional
52-dimensional pipeline from character data."""

import numpy as np

from liftlab import oddness as od
from liftlab.coeffring import CoeffRing
from liftlab.chevgroup import LieAlgebra, u_alpha
from liftlab.galoismod import MatrixModule, decompose
from liftlab.rootdata import root_datum

rng = np.random.default_rng(3)

# --- MeatAxe on the adjoint module ------------------------------------------

datum, basis = root_datum("A1")
p = 7
R = CoeffRing(p, 1, 1)
alg = LieAlgebra(datum, basis, R)
alpha = datum.positive_roots[0]
mod = MatrixModule(p, [u_alpha(alg, alpha, R.el(1)).mat[..., 0],
                       u_alpha(alg, datum.neg(alpha), R.el(1)).mat[..., 0]])
dec = decompose(mod, rng)
print("sl2 adjoint over F_7: irreducible =", len(dec.isotypic) == 1,
      " endo field degree =", dec.isotypic[0]["endo_degree"])

# --- the principal-SL2 and normalizer families ------------------------------

for name in ("G2", "D4"):
    r = od.sym_adjoint_decomposition(name, 13, rng)
    print("%s adjoint under a principal SL2: Sym weights %s, "
          "multiplicity-free: %s" % (name, r["sym_weights"],
                                     r["multiplicity_free"]))

r = od.normalizer_decomposition("G2", 7, rng)
print("G2 under the torus normalizer: summand dims", r["dims"])

# --- the exceptional pipeline ------------------------------------------------

for rep in od.exceptional_pipeline(11):
    print("\n%s inside the 52-dimensional algebra:" % rep.group)
    print("  multiplicities", rep.multiplicities, "on degrees", rep.degrees)
    print("  trace of the order-2 class:", rep.trace_order2,
          " fixed dim:", rep.fixed_dim, "= dim Flag:", rep.dim_flag)
    print("  checklist:", rep.checklist)
    if rep.ambiguity:
        print("  note:", rep.ambiguity)
