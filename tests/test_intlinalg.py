import random
from fractions import Fraction

from liftlab.intlinalg import (in_rational_span, lattice_torsion,
                               rational_rank, smith_normal_form,
                               torsion_exponent)


def det_oracle(A):
    n = len(A)
    M = [[Fraction(x) for x in row] for row in A]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
        det *= M[c][c]
        for r in range(c + 1, n):
            f = M[r][c] / M[c][c]
            M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return abs(det)


def test_examples():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 0], [0, 4]]) == [2, 4]
    assert smith_normal_form([[2, 1], [0, 3]]) == [1, 6]
    assert lattice_torsion([[2], [0]]) == [2, 0]
    assert torsion_exponent([[2], [0]]) == 2


def test_snf_against_determinant():
    random.seed(7)
    for _ in range(400):
        n = random.randint(1, 4)
        A = [[random.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        d = smith_normal_form([row[:] for row in A])
        nz = [x for x in d if x]
        det = det_oracle(A)
        if det == 0:
            assert len(nz) < n
        else:
            prod = 1
            for x in nz:
                prod *= x
            assert prod == det and len(nz) == n
        for i in range(len(nz) - 1):
            assert nz[i + 1] % nz[i] == 0


def test_rational_helpers():
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert in_rational_span([[1, 0], [0, 1]], [3, 4])
    assert not in_rational_span([[1, 0]], [0, 1])
