import itertools

import numpy as np
import pytest

from liftlab import modp
from liftlab.coeffring import (CoeffRing, CoeffRingError, _find_modulus,
                               int64_exact, sqrt_one_mod_p)


def test_prime_field_and_z25():
    assert CoeffRing(5, 1, 1).q == 5
    assert CoeffRing(5, 2, 1).q == 25


def test_rejects_bad_parameters():
    # the last three are past the exact int64 range, by (q - 1)^2 or,
    # at r = 2, by r^2 (q - 1)^2
    for bad in [(2, 2, 1), (4, 1, 1), (9, 1, 1), (5, 14, 1),
                (2147483647, 2, 1), (1163, 3, 2)]:
        with pytest.raises(CoeffRingError):
            CoeffRing(*bad)
    assert CoeffRing(5, 13, 1).q == 5 ** 13 and CoeffRing(1163, 3, 1).m == 3
    with pytest.raises(CoeffRingError):
        CoeffRing(5, 0, 1)
    with pytest.raises(CoeffRingError):
        CoeffRing(5, 1, 0)


def test_gr_7_3_2_reduction_fibers():
    # |GR(7^3, 2)| = 7^6 and reduction to GR(7^2, 2) is surjective with
    # kernel of size 7^2 per fiber: enumerate everything
    G = CoeffRing(7, 3, 2)
    G2 = CoeffRing(7, 2, 2)
    a0, a1 = np.meshgrid(np.arange(G.q), np.arange(G.q), indexing="ij")
    reduced = (np.stack([a0, a1], axis=-1) % G2.q).reshape(-1, 2)
    pairs, counts = np.unique(reduced, axis=0, return_counts=True)
    assert pairs.shape[0] == 7 ** 4          # surjective
    assert np.all(counts == 7 ** 2)          # kernel size per fiber


def test_sqrt_one_mod_p_examples():
    R = CoeffRing(5, 2, 1)
    assert int(sqrt_one_mod_p(R, 1)[0]) == 1
    s = sqrt_one_mod_p(R, 6)
    assert int(s[0]) == 16 and (16 * 16) % 25 == 6
    # exhaustive oracle: the unique root congruent to 1 mod 5
    roots = [x for x in range(25) if x % 5 == 1 and x * x % 25 == 6]
    assert roots == [16]
    R7 = CoeffRing(7, 2, 1)
    s = sqrt_one_mod_p(R7, 8)
    assert int(s[0]) % 7 == 1 and int(s[0]) ** 2 % 49 == 8
    roots = [x for x in range(49) if x % 7 == 1 and x * x % 49 == 8]
    assert roots == [int(s[0])]


def test_sqrt_rejects_non_one_mod_p():
    with pytest.raises(CoeffRingError):
        sqrt_one_mod_p(CoeffRing(5, 2, 1), 7)


def test_sqrt_minus_one_has_positive_valuation():
    R = CoeffRing(13, 2, 1)
    s = sqrt_one_mod_p(R, 1 + 13)
    assert R.valuation(R.sub(s, R.one())) >= 1


@pytest.mark.parametrize("p", [5, 7, 13])
def test_sqrt_newton_stops_at_precision(monkeypatch, p):
    # the root = 1 mod p is unique, so the short iteration must give
    # what m + 1 steps gave; it takes one inverse for 1/2 and one per
    # step, ceil(log2 m) steps
    inv = CoeffRing.inv
    calls = []

    def counted(self, a):
        calls.append(1)
        return inv(self, a)

    for m in range(1, 9):          # 2 q^2 < 2^63: exact products
        for r in (1, 2):
            R = CoeffRing(p, m, r)
            for c in range(p):
                q = R.add(R.one(), R.scalar_mul(p, R.el([c, 1][:r])))
                s = R.one()
                half = R.inv(R.el(2))
                for _ in range(m + 1):
                    s = R.mul(half, R.add(s, R.mul(q, R.inv(s))))
                monkeypatch.setattr(CoeffRing, "inv", counted)
                calls.clear()
                got = sqrt_one_mod_p(R, q)
                monkeypatch.setattr(CoeffRing, "inv", inv)
                assert np.array_equal(got, s)
                assert len(calls) == 1 + (m - 1).bit_length()


def test_reduction_is_ring_homomorphism():
    rng = np.random.default_rng(0)
    G = CoeffRing(7, 3, 2)
    G2 = CoeffRing(7, 2, 2)
    for _ in range(300):
        a, b = G.random(rng), G.random(rng)
        assert np.array_equal(G.mul(a, b) % 7 ** 2,
                              G2.mul(a % 7 ** 2, b % 7 ** 2))
        assert np.array_equal(G.add(a, b) % 7 ** 2,
                              G2.add(a % 7 ** 2, b % 7 ** 2))


def test_units_and_inverses():
    rng = np.random.default_rng(1)
    for (p, m, r) in [(5, 3, 1), (7, 2, 2), (13, 4, 1)]:
        R = CoeffRing(p, m, r)
        for _ in range(100):
            x = R.random(rng)
            if R.is_unit(x):
                assert R.eq(R.mul(x, R.inv(x)), R.one())
            else:
                with pytest.raises(CoeffRingError):
                    R.inv(x)


def test_unit_group_order_small():
    # |R^x| = p^((m-1) r) (p^r - 1)
    for (p, m, r) in [(5, 1, 1), (5, 2, 1), (5, 1, 2), (3, 2, 1)]:
        if p == 3:
            continue
        R = CoeffRing(p, m, r)
        count = 0
        for k in range(R.q ** r):
            coeffs = []
            kk = k
            for _ in range(r):
                coeffs.append(kk % R.q)
                kk //= R.q
            if R.is_unit(np.array(coeffs, dtype=np.int64)):
                count += 1
        assert count == p ** ((m - 1) * r) * (p ** r - 1)


def test_valuation():
    R = CoeffRing(5, 3, 1)
    assert R.valuation(R.el(0)) == 3
    assert R.valuation(R.el(25)) == 2
    assert R.valuation(R.el(10)) == 1
    assert R.valuation(R.el(3)) == 0


def test_matrix_inverse_and_reduction():
    rng = np.random.default_rng(2)
    R = CoeffRing(7, 3, 2)
    n = 4
    done = 0
    while done < 5:
        A = rng.integers(0, R.q, size=(n, n, R.r), dtype=np.int64)
        try:
            Ai = R.mat_inv_modp(A)
        except CoeffRingError:
            continue
        assert R.mat_eq(R.mat_mul(A, Ai) % 7, R.mat_id(n))
        # reduction of a product is the product of reductions
        B = rng.integers(0, R.q, size=(n, n, R.r), dtype=np.int64)
        R2 = CoeffRing(7, 2, 2)
        assert np.array_equal(R.mat_mul(A, B) % 7 ** 2,
                              R2.mat_mul(A % 7 ** 2, B % 7 ** 2))
        done += 1


def test_mat_pow_refuses_a_negative_exponent():
    # no matrix is inverted over O/p^m, so there is no negative power
    R = CoeffRing(7, 3, 2)
    A = np.random.default_rng(5).integers(0, R.q, size=(3, 3, R.r),
                                          dtype=np.int64)
    assert np.array_equal(R.mat_pow(A, 0), R.mat_id(3))
    assert R.mat_eq(R.mat_pow(A, 3), R.mat_mul(R.mat_mul(A, A), A))
    with pytest.raises(CoeffRingError, match="negative matrix power"):
        R.mat_pow(A, -1)


@pytest.mark.parametrize("r", [1, 3])
def test_mat_id_is_a_fresh_writable_identity(r):
    R = CoeffRing(7, 3, r)
    want = np.zeros((4, 4, r), dtype=np.int64)
    want[np.arange(4), np.arange(4), 0] = 1
    first = R.mat_id(4)
    assert first.flags.writeable and np.array_equal(first, want)
    first[0, 1] = 5
    first[2, 2] = 0
    second = R.mat_id(4)
    assert second is not first and np.array_equal(second, want)
    second += 1
    assert np.array_equal(R.mat_id(4), want)
    assert R.mat_id(2).shape == (2, 2, r)


def test_residually_trivial_inverse_takes_no_elimination(monkeypatch):
    # A = 1 mod p is its own inverse mod p, at r = 2 as at r = 1
    R = CoeffRing(7, 3, 2)
    rng = np.random.default_rng(4)
    n = 5
    A = R.mat_id(n) + 7 * rng.integers(0, R.q, size=(n, n, R.r))
    B = R.mat_id(n) + rng.integers(0, R.q, size=(n, n, R.r))
    Binv = R.mat_inv_modp(B)                    # eliminates

    def no_elimination(*args):
        raise AssertionError("eliminated")

    # every elimination of mat_inv_modp is a modp.rref, through
    # fieldlinalg.rref_f
    monkeypatch.setattr(modp, "rref", no_elimination)
    assert np.array_equal(R.mat_inv_modp(A), R.mat_id(n))
    with pytest.raises(AssertionError, match="eliminated"):
        R.mat_inv_modp(B)
    assert R.mat_eq(R.mat_mul(B, Binv) % 7, R.mat_id(n))


def test_serialization_roundtrip():
    # the display names the ring and every coordinate of the element
    rng = np.random.default_rng(3)
    R = CoeffRing(7, 3, 2)
    x = R.random(rng)
    head, _, body = R.format_el(x).partition(":")
    assert head == "GR(7^3,2)"
    assert R.eq(R.el([int(t) for t in body.strip("[]").split(",")]), x)


def test_int64_exact_bound():
    # max(n, r^2) (q - 1)^2 < 2^63, at its edge for n = 3 (type A1)
    assert int64_exact(5, 13, n=3) and not int64_exact(5, 14, n=3)
    assert int64_exact(13, 8, n=3) and not int64_exact(13, 9, n=3)
    # the r > 1 fold sums r^2 products, more than n = 3 at r = 2
    assert int64_exact(1163, 3, r=1, n=3)
    assert not int64_exact(1163, 3, r=2, n=3)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("r", [2, 3])
def test_modulus_is_smallest_rootless_monic(p, r):
    # below degree 4 a monic polynomial is irreducible iff it has no
    # root in F_p; candidates are compared from the top coefficient down
    for top_first in itertools.product(range(p), repeat=r):
        f = list(reversed(top_first)) + [1]
        if all(sum(c * x ** i for i, c in enumerate(f)) % p
               for x in range(p)):
            break
    assert _find_modulus(p, r) == tuple(f)
    assert CoeffRing(p, 2, r).modulus == f
