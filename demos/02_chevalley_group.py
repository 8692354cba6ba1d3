"""The adjoint Chevalley group over O/p^m: root elements, torus
elements, truncated exponentials, and the two operator identities the
lifting argument leans on."""

import numpy as np

from liftlab.coeffring import CoeffRing
from liftlab.chevgroup import (LieAlgebra, ad_eigenvalues_on_roots, exp_hat,
                               image_growth_check, matrix_identity_check,
                               principal_sl2, root_value_of_torus, torus_elt,
                               u_alpha)
from liftlab.localconds import TameLocalModel, frobenius_member
from liftlab.rootdata import phi_alpha, root_datum

rng = np.random.default_rng(1)

datum, basis = root_datum("A2")
R = CoeffRing(7, 3, 1)
alg = LieAlgebra(datum, basis, R)
alpha = datum.positive_roots[0]

# root elements are one-parameter: u(x) u(y) = u(x + y), exactly
u2, u5 = u_alpha(alg, alpha, R.el(2)), u_alpha(alg, alpha, R.el(5))
print("u(2) u(5) = u(7):", (u2 @ u5).eq(u_alpha(alg, alpha, R.el(7))))

# torus conjugation scales the parameter by alpha(t), checked as
# t u(x) = u(alpha(t) x) t, without an inverse
t = torus_elt(alg, [R.el(2), R.el(3)])
rhs = u_alpha(alg, alpha, R.mul(root_value_of_torus(alg, t, alpha), R.el(2)))
print("t u(x) t^-1 = u(alpha(t) x):", (t @ u2).eq(rhs @ t))

# exp of a p-divisible element truncates: mod p^2 it is 1 + ad
R2 = CoeffRing(7, 2, 1)
alg2 = LieAlgebra(datum, basis, R2)
X = (7 * alg2.random_vec(rng)) % R2.q
print("exp(pX) = 1 + p ad(X) mod p^2:",
      np.array_equal(exp_hat(alg2, X).mat,
                     (R2.mat_id(alg2.dim) + alg2.ad(X)) % R2.q))

# the mod-p^m operator identity behind the stability lemmas
fails = matrix_identity_check(5, 3, 8, 1000, rng)
print("matrix identity, 1000 random 8x8 instances mod 5^3:",
      "all pass" if fails == 0 else "%d failures" % fails)

# the p-th power step that grows the image level by level
fails = image_growth_check(5, 2, 4, 500, rng)
print("(1 + p X + p^2 Y)^p = 1 + p^2 X mod p^3:",
      "all pass" if fails == 0 else "%d failures" % fails)

# the principal sl2 and its weight structure (2 x root heights)
datum, basis = root_datum("G2")
alg = LieAlgebra(datum, basis, CoeffRing(13, 1, 1))
e, h, f = principal_sl2(alg)
print("G2 principal ad(h) eigenvalues:", sorted(
    v if v <= 6 else v - 13 for v in ad_eigenvalues_on_roots(alg, h)))

# the hyperplane-avoiding torus search for trivial Frobenius elements:
# the Frobenius sigma = t_b of a tame member over O/13^2
datum, basis = root_datum("A2")
model = TameLocalModel(datum, basis, 13, 2, 14)
alpha = datum.positive_roots[0]
lift, report = frobenius_member(model, alpha, "unr2", seed=3)
print("t_b with alpha(t_b) = 14 and beta(t_b) != 1 mod 169 on Phi^alpha:",
      report)
for beta in phi_alpha(basis, alpha):
    assert int(root_value_of_torus(model.alg, lift.sigma, beta)[0]) % 169 != 1
print("all Phi^alpha inequations verified")
