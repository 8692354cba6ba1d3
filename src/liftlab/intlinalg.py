"""Exact integer linear algebra: Smith normal form and lattice quotients.

Everything here works on Python-int matrices (lists of lists or numpy
object/int64 arrays coerced to lists), so there is no overflow.  The
entries are not kept small, though: smith_normal_form reduces by plain
row and column operations.  On six random 12 x 8 matrices with
entries in {-2, ..., 3} (numpy seeds 0-5) the largest entry had 35 to
116105 bits at the seventh pivot, and one matrix, at 466 bits after
six pivots, was still running after 20 s.  Its callers stay far
below that: levi_bound refuses rank > 4, so its matrices have at most
4 rows and in_rational_span's, root sets of the same types, at most 4
columns.
"""

from __future__ import annotations

import math


def smith_normal_form(mat):
    """Invariant factors of an integer matrix.

    Returns the nonzero diagonal entries of the Smith normal form,
    positive integers d_1 | d_2 | ..., so their number is the rank
    over Q.  Row/column operations only; no transform matrices are
    kept.
    """
    A = [[int(x) for x in row] for row in mat]
    if not A or not A[0]:
        return []
    rows, cols = len(A), len(A[0])
    diag = []
    s = 0
    while s < min(rows, cols):
        # find smallest nonzero entry in the remaining block
        piv = None
        best = None
        for i in range(s, rows):
            for j in range(s, cols):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < best):
                    best = abs(A[i][j])
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        A[s], A[i] = A[i], A[s]
        for row in A:
            row[s], row[j] = row[j], row[s]
        # clear the edging; restart if a reduction creates a smaller pivot
        while True:
            done = True
            for i in range(s + 1, rows):
                if A[i][s] % A[s][s] != 0:
                    q = A[i][s] // A[s][s]
                    A[i] = [x - q * y for x, y in zip(A[i], A[s])]
                    A[s], A[i] = A[i], A[s]
                    done = False
                elif A[i][s] != 0:
                    q = A[i][s] // A[s][s]
                    A[i] = [x - q * y for x, y in zip(A[i], A[s])]
            for j in range(s + 1, cols):
                if A[s][j] % A[s][s] != 0:
                    q = A[s][j] // A[s][s]
                    for row in A:
                        row[j] -= q * row[s]
                    for row in A:
                        row[s], row[j] = row[j], row[s]
                    done = False
                elif A[s][j] != 0:
                    q = A[s][j] // A[s][s]
                    for row in A:
                        row[j] -= q * row[s]
            if done:
                break
        # divisibility sweep: pivot must divide the rest of the block
        fixed = True
        for i in range(s + 1, rows):
            for j in range(s + 1, cols):
                if A[i][j] % A[s][s] != 0:
                    A[s] = [x + y for x, y in zip(A[s], A[i])]
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        diag.append(abs(A[s][s]))
        s += 1
    # normalize divisibility chain (paranoia; the sweep should ensure it)
    for k in range(len(diag) - 1):
        if diag[k] and diag[k + 1] % diag[k] != 0:
            g = math.gcd(diag[k], diag[k + 1])
            l = diag[k] * diag[k + 1] // g
            diag[k], diag[k + 1] = g, l
    return diag


def torsion_exponent(mat):
    """Exponent of the torsion subgroup of Z^n / column-span(mat)."""
    return math.lcm(*smith_normal_form(mat))


def in_rational_span(vectors, v):
    """True iff v lies in the Q-span of the given integer vectors."""
    if not vectors:
        return all(x == 0 for x in v)
    base = [list(u) for u in vectors]
    rank = len(smith_normal_form(base))
    return len(smith_normal_form(base + [list(v)])) == rank
