"""The shared kernels against the loops they replaced: the scalar
Gauss-Jordan loops and the extended Euclid inverse that CoeffRing and
fieldlinalg used before every residue field went through modp.rref
(the matrix loop and the Euclid inverse live in conftest, which other
tests share), and the r x r coefficient convolution with its reduction
by the modulus that CoeffRing's products used before the x^(k+l)
table."""

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab import fieldlinalg as fl
from liftlab import modp
from liftlab.coeffring import CoeffRing
from liftlab.localconds import ConditionSpace, fixed_multiplier_restrict

from conftest import reference_inv_modp


def reference_inv(R, a):
    """The reference scalar inverse, Newton-lifted as in CoeffRing.inv."""
    x = reference_inv_modp(R, a)
    prec = 1
    while prec < R.m:
        ax = R.mul(a, x)
        x = R.mul(x, (2 * np.eye(1, R.r, 0, dtype=np.int64)[0] - ax) % R.q)
        prec *= 2
    return x


def reference_rref_f(K, A):
    """The scalar Gauss-Jordan loop of fieldlinalg.rref_f for r > 1."""
    A = np.array(A, dtype=np.int64) % K.q
    rows, cols = A.shape[0], A.shape[1]
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = None
        for i in range(r, rows):
            if K.is_unit(A[i, c]):
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        A[r] = K.mul(A[r], reference_inv_modp(K, A[r, c])[None, :])
        for i in range(rows):
            if i != r and np.any(A[i, c]):
                A[i] = K.sub(A[i], K.mul(A[i, c][None, :], A[r]))
        pivots.append(c)
        r += 1
    return A, pivots


def _reduction_rows(R):
    """x^k mod (modulus, q) for k = r .. 2r - 2, one row each."""
    r = R.r
    red = np.zeros((max(r - 1, 1), r), dtype=np.int64)
    if r > 1:
        cur = np.array([(-c) % R.q for c in R.modulus[:r]], dtype=np.int64)
        red[0] = cur
        for k in range(1, r - 1):
            nxt = np.zeros(r, dtype=np.int64)
            nxt[1:] = cur[:-1]
            nxt = (nxt + cur[-1] * red[0]) % R.q
            red[k] = nxt
            cur = nxt
    return red


def reference_reduce_poly(R, conv):
    """A polynomial of degree <= 2r - 2 in x (coefficients in the last
    axis) reduced mod (modulus, q)."""
    red = _reduction_rows(R)
    out = conv[..., : R.r] % R.q
    for k in range(R.r, conv.shape[-1]):
        c = conv[..., k]
        out = (out + c[..., None] * red[k - R.r]) % R.q
    return out


def reference_mul(R, a, b):
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    conv = np.zeros(shape + (2 * R.r - 1,), dtype=np.int64)
    for i in range(R.r):
        for j in range(R.r):
            conv[..., i + j] = (conv[..., i + j] + a[..., i] * b[..., j]) % R.q
    return reference_reduce_poly(R, conv)


def reference_mat_mul(R, A, B):
    conv = np.zeros((A.shape[0], B.shape[1], 2 * R.r - 1), dtype=np.int64)
    for a in range(R.r):
        for b in range(R.r):
            conv[:, :, a + b] = (conv[:, :, a + b]
                                 + A[:, :, a] @ B[:, :, b]) % R.q
    return reference_reduce_poly(R, conv)


def reference_mat_vec(R, A, v):
    conv = np.zeros((A.shape[0], 2 * R.r - 1), dtype=np.int64)
    for a in range(R.r):
        for b in range(R.r):
            conv[:, a + b] = (conv[:, a + b] + A[:, :, a] @ v[:, b]) % R.q
    return reference_reduce_poly(R, conv)


ring = lru_cache(maxsize=None)(CoeffRing)

ext_rings = st.tuples(st.sampled_from([5, 7, 13]), st.sampled_from([1, 2, 3]),
                      st.sampled_from([2, 3]))
rings = st.tuples(st.sampled_from([5, 7, 13]), st.sampled_from([1, 2, 3]),
                  st.sampled_from([1, 2, 3]))
seeds = st.integers(0, 2 ** 32 - 1)
# how the coordinates past 0 of a drawn input are set (_with_planes)
kinds = st.sampled_from(["any", "rational", "p-multiple", "one-entry"])


def regular_calls(f, *args):
    """f(*args) and the number of CoeffRing.regular calls it made."""
    with mock.patch.object(CoeffRing, "regular", autospec=True,
                           side_effect=CoeffRing.regular) as reg:
        out = f(*args)
    return out, reg.call_count


def _with_planes(K, rng, A, kind):
    """A with its coordinates past 0 replaced according to kind:
    "rational" zeroes them, "p-multiple" draws multiples of p (F_p data
    mod p that at m > 1 are not in Z/q), and "one-entry" zeroes them
    except coordinate 1 of one entry, which is a unit; "any" keeps A."""
    if kind == "any":
        return A
    A = A.copy()
    A[..., 1:] = 0
    if kind == "p-multiple":
        A[..., 1:] = K.p * rng.integers(0, K.q // K.p, size=A[..., 1:].shape)
    elif kind == "one-entry" and A.size and K.r > 1:
        at = tuple(int(rng.integers(0, s)) for s in A.shape[:-1])
        A[at + (1,)] = rng.integers(1, K.p)
    return A


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([5, 7, 13]), st.integers(0, 6), st.integers(1, 8),
       st.integers(0, 4), seeds)
def test_rref_f_at_r1_is_modp_rref(p, rows, cols, k, seed):
    # rank at most k, so pivot-free columns and zero rows occur
    rng = np.random.default_rng(seed)
    A = rng.integers(0, p, size=(rows, k)) @ rng.integers(0, p, size=(k, cols)) % p
    R, piv = modp.rref(A, p)
    Rf, pivf = fl.rref_f(ring(p, 1, 1), A[..., None])
    assert pivf == piv
    assert Rf.shape == R.shape + (1,) and np.array_equal(Rf[..., 0], R)


def _low_rank(K, rng, rows, cols, k, kind="any"):
    """A rows x cols matrix over K of rank at most k mod p (k + 1 for
    kind "one-entry"), with one zero column if it has columns, so zero
    rows and pivot-free columns occur; any kind but "any" is a product
    of F_p matrices with its coordinates past 0 set by _with_planes."""
    L = rng.integers(0, K.p, size=(rows, k, K.r), dtype=np.int64)
    M = rng.integers(0, K.p, size=(k, cols, K.r), dtype=np.int64)
    if kind != "any":
        L[..., 1:] = M[..., 1:] = 0
    A = K.mat_mul(L, M) if k else np.zeros((rows, cols, K.r), dtype=np.int64)
    if cols:
        A[:, rng.integers(0, cols)] = 0
    return _with_planes(K, rng, A, kind)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.sampled_from([5, 7, 13]), st.sampled_from([1, 2, 3]),
       st.sampled_from([2, 3]), st.integers(0, 6), st.integers(0, 8),
       st.integers(0, 4), kinds, seeds)
def test_rref_f_matches_reference(p, m, r, rows, cols, k, kind, seed):
    # rref_f reads A mod p at every m: the reference is the loop over
    # F_{p^r} on A mod p
    K = ring(p, m, r)
    A = _low_rank(K, np.random.default_rng(seed), rows, cols, k, kind)
    want, wpiv = reference_rref_f(ring(p, 1, r), A % p)
    (R, piv), calls = regular_calls(fl.rref_f, K, A)
    assert piv == wpiv
    assert R.shape == want.shape == A.shape and R.dtype == want.dtype
    assert np.array_equal(R, want)
    # F_p data mod p are reduced over F_p, without the regular
    # representation
    assert calls == int(bool(np.any(A[..., 1:] % p)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ext_rings, kinds, seeds)
def test_inv_matches_reference(prm, kind, seed):
    R = ring(*prm)
    rng = np.random.default_rng(seed)
    a = _with_planes(R, rng, R.random(rng), kind)
    while not R.is_unit(a):
        a = _with_planes(R, rng, R.random(rng), kind)
    with mock.patch.object(modp, "rref", side_effect=AssertionError(
            "eliminated")):
        x, calls = regular_calls(R.inv, a)
    assert x.dtype == np.int64 and np.array_equal(x, reference_inv(R, a))
    assert R.eq(R.mul(a, x), R.one())
    # a unit of Z/q is inverted mod q directly, a0 + p y (F_p data mod
    # p) starts its Hensel lift from pow(a0, -1, p) and any other unit
    # from a^(p^r - 2): no unit is eliminated
    assert calls == 0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rings, st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), seeds)
def test_regular_is_ring_homomorphism(prm, n, k, cols, seed):
    R = ring(*prm)
    rng = np.random.default_rng(seed)
    A = rng.integers(0, R.q, size=(n, k, R.r), dtype=np.int64)
    B = rng.integers(0, R.q, size=(k, cols, R.r), dtype=np.int64)
    M = R.regular(A)
    assert M.shape == (n * R.r, k * R.r)
    assert M.min() >= 0 and M.max() < R.p
    assert not np.shares_memory(M, A)
    assert np.array_equal(R.regular(R.mat_mul(A, B)),
                          M @ R.regular(B) % R.p)
    assert np.array_equal(R.regular(R.mat_id(n)), np.eye(n * R.r, dtype=np.int64))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([5, 7, 13, 101]), st.integers(1, 4),
       st.sampled_from([1, 2, 3]), st.integers(1, 14), st.integers(1, 14),
       st.integers(1, 14), st.booleans(), seeds)
def test_products_match_reference_convolution(p, m, r, n, k, cols, top, seed):
    # p = 101, m = 4 nears the int64 limit max(n, r^2) (q - 1)^2 < 2^63
    R = ring(p, m, r)
    rng = np.random.default_rng(seed)

    def draw(*shape):
        # top: every coefficient q - 1, the largest products int64 holds
        if top:
            return np.full(shape + (r,), R.q - 1, dtype=np.int64)
        return rng.integers(0, R.q, size=shape + (r,), dtype=np.int64)

    A, B, A2, v, c = draw(n, k), draw(k, cols), draw(n, k), draw(k), draw()
    for got, want in [
            (R.mat_mul(A, B), reference_mat_mul(R, A, B)),
            (R.mat_vec(A, v), reference_mat_vec(R, A, v)),
            (R.mul(A, A2), reference_mul(R, A, A2)),
            (R.mul(v, v[0]), reference_mul(R, v, v[0])),
            # a scalar broadcast to a matrix's shape
            (R.mul(np.broadcast_to(c, A.shape), A), reference_mul(R, c, A)),
            (R.mul(c, A), reference_mul(R, c, A))]:
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)


def reference_kernel_f(K, A):
    """kernel_f's rows filled one (free column, pivot) entry at a time."""
    R, piv = fl.rref_f(K, A)
    cols = A.shape[1]
    free = [c for c in range(cols) if c not in piv]
    out = np.zeros((len(free), cols, K.r), dtype=np.int64)
    for k, fc in enumerate(free):
        out[k, fc] = K.one()
        for i, pc in enumerate(piv):
            out[k, pc] = K.neg(R[i, fc])
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rings, st.integers(0, 6), st.integers(1, 8), st.integers(0, 4), seeds)
def test_kernel_f_matches_reference(prm, rows, cols, k, seed):
    K = ring(*prm)
    A = _low_rank(K, np.random.default_rng(seed), rows, cols, k)
    got = fl.kernel_f(K, A)
    want = reference_kernel_f(K, A)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert not np.any(K.mat_mul(A, got.transpose(1, 0, 2)) % K.p)


def reference_moveaxis_mat_mul(R, A, B):
    """mat_mul at r > 1 with the coefficient axis moved to the front."""
    P = np.moveaxis(A, -1, 0)[:, None] @ np.moveaxis(B, -1, 0)[None]
    return R._fold(np.moveaxis(P, (0, 1), (-2, -1)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(ext_rings, st.sampled_from([(), (1,), (3,), (2, 2)]), st.integers(1, 5),
       st.integers(1, 5), st.integers(1, 5), seeds)
def test_mat_mul_matches_moveaxis_reference(prm, batch, n, k, cols, seed):
    # batched leading axes, as for stacks of operators
    R = ring(*prm)
    rng = np.random.default_rng(seed)
    A = rng.integers(0, R.q, size=batch + (n, k, R.r), dtype=np.int64)
    B = rng.integers(0, R.q, size=batch + (k, cols, R.r), dtype=np.int64)
    v = rng.integers(0, R.q, size=batch + (k, R.r), dtype=np.int64)
    got = R.mat_mul(A, B)
    assert np.array_equal(got, reference_moveaxis_mat_mul(R, A, B))
    assert got.shape == batch + (n, cols, R.r)
    want_v = reference_moveaxis_mat_mul(R, A, v[..., None, :])[..., 0, :]
    assert np.array_equal(R.mat_vec(A, v), want_v)


def reference_same_space(K, B1, B2):
    if fl.rank_f(K, B1) != fl.rank_f(K, B2):
        return False
    return (fl.rank_f(K, np.concatenate([B1, B2], axis=0))
            == fl.rank_f(K, B1))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ext_rings | rings, st.integers(1, 4), st.integers(0, 3), seeds)
def test_same_space_matches_reference(prm, k, extra, seed):
    K = ring(*prm)
    rng = np.random.default_rng(seed)
    n = k + 1 + extra

    def unitriangular():
        C = rng.integers(0, K.q, size=(k, k, K.r), dtype=np.int64)
        C[np.triu_indices(k)] = 0
        return C + K.mat_id(k)

    # B1 = C [I | X] with C invertible: a basis of a rank-k space
    E = np.zeros((k, n, K.r), dtype=np.int64)
    E[np.arange(k), np.arange(k), 0] = 1
    E[:, k:] = rng.integers(0, K.q, size=(k, n - k, K.r))
    C = unitriangular()
    perm = rng.permutation(n)
    B1 = K.mat_mul(C, E)[:, perm]
    # the same space: other row combinations, shuffled, with a zero row
    same = np.concatenate([K.mat_mul(unitriangular(), B1)[rng.permutation(k)],
                           np.zeros((1, n, K.r), dtype=np.int64)])
    # equal rank, other space: the last row of [I | X] moved off it
    F = E.copy()
    F[k - 1, k, 0] = (F[k - 1, k, 0] + 1) % K.q
    other = K.mat_mul(C, F)[:, perm]
    empty = np.zeros((0, n, K.r), dtype=np.int64)
    zero = np.zeros((2, n, K.r), dtype=np.int64)
    for B2, want in [(same, True), (B1[:-1], False), (other, False),
                     (empty, False), (zero, False)]:
        for X, Y in [(B1, B2), (B2, B1)]:
            assert ConditionSpace(K, X).same_space(Y) is want
            assert reference_same_space(K, X, Y) is want
    for X, Y in [(empty, empty), (empty, zero), (zero, empty)]:
        assert ConditionSpace(K, X).same_space(Y) is True
        assert reference_same_space(K, X, Y) is True


def reference_intersect(K, B1, B2):
    """Zassenhaus intersection of row spaces: the RREF of [B1 | B1]
    over [B2 | 0] has rows [0 | v], and those v span the intersection."""
    n = B1.shape[1]
    if B1.shape[0] == 0 or B2.shape[0] == 0:
        return np.zeros((0, n, K.r), dtype=np.int64)
    top = np.concatenate([B1, B1], axis=1)
    bot = np.concatenate([B2, np.zeros_like(B2)], axis=1)
    R, _ = fl.rref_f(K, np.concatenate([top, bot], axis=0))
    out = [R[i, n:] for i in range(R.shape[0])
           if not R[i, :n].any() and R[i, n:].any()]
    if not out:
        return np.zeros((0, n, K.r), dtype=np.int64)
    return np.stack(out)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([5, 7, 13]), st.sampled_from([1, 2, 3]),
       st.sampled_from([1, 2]), st.integers(1, 4), st.integers(1, 6), seeds)
def test_fixed_multiplier_restrict_matches_zassenhaus(p, r, adim, n, k, seed):
    # L intersected with the span of the non-central coordinates, on
    # general F_{p^r} bases whose central columns are nonzero in both
    # the sigma slot [n, n + adim) and the tau slot [2n + adim, 2n +
    # 2 adim)
    K = ring(p, 1, r)
    rng = np.random.default_rng(seed)
    tot = 2 * (n + adim)
    central = list(range(n, n + adim)) + \
        list(range(2 * n + adim, 2 * n + 2 * adim))
    keep = [c for c in range(tot) if c not in central]
    B = rng.integers(0, p, size=(k, tot, r), dtype=np.int64)
    C = rng.integers(0, p, size=(k, 2 * adim, r), dtype=np.int64)
    C[~C.any(axis=-1), 0] = 1
    B[:, central] = C
    space = ConditionSpace(K, B)
    got = fixed_multiplier_restrict(space, adim)
    sub = np.zeros((len(keep), tot, r), dtype=np.int64)
    sub[np.arange(len(keep)), keep, 0] = 1
    want = ConditionSpace(K, reference_intersect(K, space.basis, sub))
    assert got.dim == want.dim and np.array_equal(got.basis, want.basis)
    assert got.dim == 0 or not got.basis[:, central].any()
    # an empty space stays empty, and so does one of central directions
    # only
    empty = ConditionSpace(K, np.zeros((0, tot, r), dtype=np.int64))
    assert fixed_multiplier_restrict(empty, adim).dim == 0
    only = np.zeros((2 * adim, tot, r), dtype=np.int64)
    only[np.arange(2 * adim), central] = K.random_unit(rng)
    assert fixed_multiplier_restrict(ConditionSpace(K, only),
                                     adim).dim == 0
