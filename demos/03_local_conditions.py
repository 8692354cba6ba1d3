"""The tame local model at a trivial prime and the ordinary model at p:
membership, condition spaces, local duality and the stability
conjugators (the computational heart of the lifting method)."""

import numpy as np

from liftlab import localconds as lc
from liftlab.rootdata import phi_alpha, root_datum

rng = np.random.default_rng(2)

datum, basis = root_datum("A2")
p, m, q = 5, 3, 6            # q = 1 mod 5 but not mod 25
model = lc.TameLocalModel(datum, basis, p, m, q)
alpha = datum.positive_roots[0]

# a normal-form member: Frobenius = hyperplane-avoiding torus element,
# tame inertia = u_alpha(p)
lift, report = lc.frobenius_member(model, alpha, "ram2", seed=0)
print("ram2 membership:", lc.membership(lift, alpha, "ram2"), report)

# condition spaces: Tan + S = L of dimension dim g = 8
spaces = lc.condition_spaces(model, alpha, "ram", rho2=lift.reduce(2))
print("dims: Tan =", spaces["tan"].dim, " S =", spaces["s"].dim,
      " L =", spaces["l"].dim, " L_perp =", spaces["l_perp"].dim)

# local duality: phi unramified pairs by -<phi(sigma), psi(tau)>; the
# full Gram matrix is nondegenerate
K = model.residue
n = datum.dim
full = lc.full_h1_basis(K, n)
from liftlab import fieldlinalg as fl
gram = lc.pairing_gram(K, full, full).reshape(2 * n, 2 * n, K.r)
print("duality Gram rank:", fl.rank_f(K, gram), "of", 2 * n)

# the stability theorem, verified exactly: exp(p^{m-1} c_beta) rho is
# the explicit conjugate u_beta(z p^{m-2}) rho u_beta(...)^{-1}
for beta in phi_alpha(basis, alpha):
    g, cocycle = lc.stability_check(lift, alpha, "ram", {tuple(beta): 1})
    print("  stability at beta =", beta, ": conjugator", g.tag,
          "ramified cocycle:", cocycle.ramified)

# smoothness: members lift from p^m to p^{m+1} by lifting coordinates
hits = lc.smoothness_probe(model, alpha, "ram2", 100, rng)
print("smoothness probe:", hits, "/ 100 members lift")

# the ordinary model at p: free local Galois group on 1 + f generators
chi = lc.find_regular_chi(datum, p, 1)
om = lc.OrdinaryLocalModel(datum, basis, p, m, 1, chi)
osp = lc.ordinary_spaces(om)
print("ordinary dims: Tan =", osp["tan"].dim, "(= dim b + f dim n)",
      " L =", osp["l"].dim, "(= dim g + f dim n)")
