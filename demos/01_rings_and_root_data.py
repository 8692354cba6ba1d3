"""Coefficient rings and root data: the combinatorial backbone.

Walks through Galois-ring arithmetic in GR(p^m, r), the deterministic
Chevalley structure constants, and the Jacobi check that pins the sign
conventions down.
"""

import numpy as np

from liftlab.coeffring import CoeffRing, sqrt_one_mod_p
from liftlab.rootdata import levi_bound, phi_alpha, root_datum

# --- Galois rings ----------------------------------------------------------

R = CoeffRing(7, 3, 2)
print("the ring:", R, "with", R.q ** R.r, "elements")
print("modulus over F_7:", R.modulus)

rng = np.random.default_rng(0)
a, b = R.random(rng), R.random(rng)
print("a =", R.format_el(a), " b =", R.format_el(b))
print("a*b =", R.format_el(R.mul(a, b)))
print("valuation of 49*a:", R.valuation(R.scalar_mul(49, a)))

# square roots of units congruent to 1 mod p, the q^(1/2) of the torus
# constructions: s = 16 is the unique root of 6 with s = 1 mod 5
R25 = CoeffRing(5, 2, 1)
s = sqrt_one_mod_p(R25, 6)
print("sqrt(6) in Z/25 with s = 1 mod 5:", int(s[0]))

# --- root data -------------------------------------------------------------

for name in ("A2", "G2", "F4"):
    datum, basis = root_datum(name)
    print("\n%s: dim g = %d, |Phi^+| = %d, |W| = %d, exponents %s"
          % (name, datum.dim, len(datum.positive_roots), datum.weyl_order,
             datum.exponents()))
    alpha = datum.positive_roots[0]
    print("  Phi^alpha for the first simple root has size",
          len(phi_alpha(basis, alpha)))

# the Jacobi identity holds exactly over Z: this is what certifies the
# extraspecial-pair sign choices
datum, basis = root_datum("G2")
print("\nG2 Jacobi identity, exhaustive over the 14^3 basis triples:",
      basis.verify_jacobi())

# --- the Levi bound --------------------------------------------------------

for name in ("A1", "A2", "B2"):
    datum, _ = root_datum(name)
    lb = levi_bound(datum)
    print("%s: n'_G = %d, m_G = %d (n_G = n'^m has %d digits)"
          % (name, lb["n_prime"], lb["m_g"], len(str(lb["n_g"]))))
