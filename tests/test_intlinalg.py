import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab.intlinalg import (in_rational_span, smith_normal_form,
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


def rank_oracle(A):
    """Rank over Q by Gaussian elimination over Fraction."""
    M = [[Fraction(x) for x in row] for row in A]
    rank = 0
    for c in range(len(M[0]) if M else 0):
        piv = next((r for r in range(rank, len(M)) if M[r][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for r in range(rank + 1, len(M)):
            f = M[r][c] / M[rank][c]
            M[r] = [x - f * y for x, y in zip(M[r], M[rank])]
        rank += 1
    return rank


def test_examples():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 0], [0, 4]]) == [2, 4]
    assert smith_normal_form([[2, 1], [0, 3]]) == [1, 6]
    assert smith_normal_form([[2], [0]]) == [2]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert torsion_exponent([[2], [0]]) == 2
    assert torsion_exponent([[1, 0], [0, 0]]) == 1


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
    assert in_rational_span([[1, 2], [2, 4]], [3, 6])
    assert not in_rational_span([[1, 2], [2, 4]], [1, 0])
    assert in_rational_span([[2, 0]], [1, 0])      # the Q-span, not Z
    assert in_rational_span([[1, 0], [0, 1]], [3, 4])
    assert not in_rational_span([[1, 0]], [0, 1])
    assert in_rational_span([], [0, 0])
    assert not in_rational_span([], [0, 1])


@st.composite
def span_cases(draw):
    """Up to five integer rows of up to four entries in [-3, 3], some
    replaced by integer combinations of earlier rows, and a vector v
    that is either such a combination of all rows or drawn freely."""
    cols = draw(st.integers(1, 4))
    row = st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)
    coef = st.integers(-2, 2)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    for k in range(1, len(rows)):
        if draw(st.booleans()):
            i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            a, b = draw(coef), draw(coef)
            rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    combination = draw(st.booleans())
    if combination:
        cs = draw(st.lists(coef, min_size=len(rows), max_size=len(rows)))
        v = [sum(c * r[t] for c, r in zip(cs, rows)) for t in range(cols)]
    else:
        v = draw(row)
    return rows, v, combination


@settings(max_examples=300, deadline=None, derandomize=True)
@given(span_cases())
def test_in_rational_span_matches_rank_oracle(case):
    rows, v, combination = case
    assert len(smith_normal_form(rows)) == rank_oracle(rows)
    want = rank_oracle(rows) == rank_oracle(rows + [v])
    assert in_rational_span(rows, v) == want
    assert want or not combination
