import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftlab import chartable
from liftlab.chartable import (CharacterTable, CharTableError, _parse_value,
                               brauer_restrict)
from liftlab.cyclotomic import CycloContext, cyclotomic_polynomial
from liftlab.oddness import default_data_dir


def load(name):
    return CharacterTable.load(os.path.join(default_data_dir(), name))


def table_text(name):
    with open(os.path.join(default_data_dir(), name)) as fh:
        return fh.read()


def corrupted_a6_text():
    return table_text("a6.tbl").replace("10 -2 1 1 0 0 0", "10 -2 1 1 0 1 0")


# -- the list implementation of Z[zeta_N], kept as the reference


def ref_cyclotomic_polynomial(n):
    """Phi_n as an integer coefficient list (low degree first)."""
    f = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            g = ref_cyclotomic_polynomial(d) if d > 1 else [-1, 1]
            f = _ref_exact_div(f, g)
    return f


def _ref_exact_div(f, g):
    f = list(f)
    out = [0] * (len(f) - len(g) + 1)
    while len(f) >= len(g) and any(f):
        while f and f[-1] == 0:
            f.pop()
        if len(f) < len(g):
            break
        c = f[-1] // g[-1]
        k = len(f) - len(g)
        out[k] = c
        for i in range(len(g)):
            f[k + i] -= c * g[i]
    if any(f):
        raise ValueError("non-exact cyclotomic division (bug)")
    return out


class RefCycloContext:
    """Fixed-N context on Python lists: multiplication, Galois maps and
    power tables."""

    def __init__(self, n):
        self.n = n
        self.phi = ref_cyclotomic_polynomial(n)
        self.deg = len(self.phi) - 1
        # x^k for k = deg .. 2 deg - 2 as reduced vectors
        red = []
        top = [-c for c in self.phi[: self.deg]]  # x^deg
        cur = list(top)
        red.append(list(cur))
        for _ in range(self.deg - 2):
            cur = self._shift_reduce(cur, top)
            red.append(list(cur))
        self._red = red
        # zeta^j for all j mod n
        pows = []
        v = [0] * self.deg
        v[0] = 1
        for _ in range(n):
            pows.append(list(v))
            v = self._shift_reduce(v, top)
        self._pow = pows

    def _shift_reduce(self, v, top):
        out = [0] + list(v[:-1])
        lead = v[-1]
        if lead:
            out = [a + lead * b for a, b in zip(out, top)]
        return out

    def zero(self):
        return [0] * self.deg

    def zeta(self, k=1):
        return list(self._pow[k % self.n])

    def add(self, a, b):
        return [x + y for x, y in zip(a, b)]

    def scal(self, c, a):
        return [int(c) * x for x in a]

    def mul(self, a, b):
        conv = [0] * (2 * self.deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        out = conv[: self.deg]
        for k in range(self.deg, len(conv)):
            c = conv[k]
            if c:
                row = self._red[k - self.deg]
                out = [u + c * v for u, v in zip(out, row)]
        return out

    def galois(self, a, s):
        out = [0] * self.deg
        for j, c in enumerate(a):
            if c:
                row = self._pow[(j * s) % self.n]
                out = [u + c * v for u, v in zip(out, row)]
        return out

    def conj(self, a):
        return self.galois(a, self.n - 1)


_REF = {}


def ref_context(n):
    if n not in _REF:
        _REF[n] = RefCycloContext(n)
    return _REF[n]


def ref_sum(ctx, sizes, f, g):
    """sum |C| f(C) conj(g(C)), one list product per class."""
    acc = ctx.zero()
    for size, fv, gv in zip(sizes, f, g):
        acc = ctx.add(acc, ctx.scal(size, ctx.mul(fv, ctx.conj(gv))))
    return acc


def ref_inner_product(t, f, g):
    """<f, g> by the per-pair list loop, with its checks and messages."""
    acc = ref_sum(ref_context(t.exponent), t.class_sizes, f, g)
    if any(acc[1:]):
        raise CharTableError("non-rational inner product "
                             "(inconsistent data)")
    if acc[0] % t.order:
        raise CharTableError("non-integral inner product "
                             "(inconsistent data): %d/%d"
                             % (acc[0], t.order))
    return acc[0] // t.order


def ref_outcome(fn):
    try:
        return fn()
    except CharTableError as exc:
        return "raises: %s" % exc


def ref_validate(t):
    chars = t.chars.tolist()
    for i in range(len(chars)):
        for j in range(i, len(chars)):
            ip = ref_inner_product(t, chars[i], chars[j])
            if ip != (1 if i == j else 0):
                raise CharTableError(
                    "orthogonality fails at (%d, %d): %d" % (i, j, ip))
    return True


def ref_restrict(t, f):
    return [ref_inner_product(t, np.asarray(f).tolist(), ch)
            for ch in t.chars.tolist()]


def assert_gram_matches_reference(t, F, H):
    G = t.ctx.gram(F, H, t.class_sizes)
    ctx = ref_context(t.exponent)
    want = [[ref_sum(ctx, t.class_sizes, f, h) for h in np.asarray(H).tolist()]
            for f in np.asarray(F).tolist()]
    assert G.tolist() == want


# -- the array implementation


def test_cyclotomic_polynomials():
    assert np.array_equal(cyclotomic_polynomial(1), [-1, 1])
    assert np.array_equal(cyclotomic_polynomial(2), [1, 1])
    assert np.array_equal(cyclotomic_polynomial(4), [1, 0, 1])
    assert np.array_equal(cyclotomic_polynomial(5), [1, 1, 1, 1, 1])
    assert np.array_equal(cyclotomic_polynomial(12), [1, 0, -1, 0, 1])
    # 105 is the first n with a coefficient outside {-1, 0, 1}
    for n in range(1, 61):
        assert cyclotomic_polynomial(n).tolist() == \
            ref_cyclotomic_polynomial(n), n
    assert cyclotomic_polynomial(105).tolist() == \
        ref_cyclotomic_polynomial(105)


def test_cyclotomic_arithmetic():
    ctx = CycloContext(5)
    s = ctx.zero()
    for k in range(5):
        s = ctx.add(s, ctx.zeta(k))
    assert ctx.is_rational(s) and ctx.rational_value(s) == 0
    b5 = ctx.zero()
    for a in (1, 4):
        b5 = ctx.add(b5, ctx.zeta(a))
    # conjugation fixes the real b5
    assert np.array_equal(ctx.galois(b5, ctx.n - 1), b5)


def test_galois_requires_s_coprime_to_n():
    ctx = CycloContext(5)
    with pytest.raises(ValueError, match="not coprime"):
        ctx.galois(ctx.zeta(1), 5)
    ctx = CycloContext(12)
    for s in (0, 2, 3, 4, 6, 8, 9, 10, 12, -3):
        with pytest.raises(ValueError, match="not coprime"):
            ctx.galois(ctx.zeta(1), s)
    for s in (1, 5, 7, 11, -1, 13):
        assert np.array_equal(ctx.galois(ctx.zeta(1), s), ctx.zeta(s))


@st.composite
def cyclo_case(draw):
    n = draw(st.sampled_from([5, 12, 60, 91, 546]))
    deg = len(ref_cyclotomic_polynomial(n)) - 1
    bound = draw(st.sampled_from([1, 3, 1000, 2 ** 20]))

    def element():
        # a few (index, value) terms, or every coefficient random
        if draw(st.booleans()):
            out = [0] * deg
            for i, v in draw(st.lists(st.tuples(
                    st.integers(0, deg - 1), st.integers(-bound, bound)),
                    max_size=6)):
                out[i] = v
            return out
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        return rng.integers(-bound, bound + 1, size=deg).tolist()
    units = [s for s in range(-n, 2 * n) if math.gcd(s, n) == 1]
    return (n, element(), element(), draw(st.sampled_from(units)),
            draw(st.integers(-2 * n, 2 * n)))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(cyclo_case())
def test_array_arithmetic_matches_list_reference(case):
    n, a, b, s, j = case
    ctx, ref = CycloContext(n), ref_context(n)
    assert ctx.deg == ref.deg
    A, B = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    assert ctx.galois(A, s).tolist() == ref.galois(a, s)
    assert ctx.galois(B, n - 1).tolist() == ref.conj(b)
    assert ctx.zeta(j).tolist() == ref.zeta(j)
    # the Gram of two one-class functions is a weighted product
    G = ctx.gram(A[None, None], B[None, None], [7])
    assert G[0, 0].tolist() == ref.scal(7, ref.mul(a, ref.conj(b)))


# -- character tables


def test_tables_validate():
    load("a6.tbl").validate()
    load("psl2_13.tbl").validate()


@pytest.mark.parametrize("text", [
    table_text("a6.tbl"), table_text("psl2_13.tbl"), corrupted_a6_text(),
    # chi_2 replaced by chi_1: integral, but <chi_1, chi_2> = 1
    table_text("a6.tbl").replace("5 1 -1 2 -1 0 0", "5 1 2 -1 -1 0 0")],
    ids=["a6", "psl2_13", "a6-corrupted", "a6-repeated-row"])
def test_gram_matches_reference_inner_products(text):
    t = CharacterTable.parse(text)
    assert_gram_matches_reference(t, t.chars, t.chars)
    assert ref_outcome(t.validate) == ref_outcome(lambda: ref_validate(t))
    for ch in t.chars:
        assert ref_outcome(lambda: brauer_restrict(t, ch)) == \
            ref_outcome(lambda: ref_restrict(t, ch))
    name = "a6" if t.nclasses == 7 else "psl2_13"
    for line in table_text("f4_embedding_%s.cf" % name).splitlines():
        if line.split()[0] in ("VMIN", "ADJ"):
            f = t.parse_class_function(line.split()[1:])
            assert_gram_matches_reference(t, f[None], t.chars)
            assert ref_outcome(lambda: brauer_restrict(t, f)) == \
                ref_outcome(lambda: ref_restrict(t, f))


def test_gram_past_the_int64_bound_is_exact():
    # -10^12 z5 in a character value: its products reach 10^24, past
    # int64, so the Gram runs in Python integers and must still equal
    # the list reference exactly (and refuse the table as it does)
    text = table_text("a6.tbl").replace("9 1 0 0 1 -1 -1",
                                        "9 1 0 0 1 -1 -1000000000000z5")
    t = CharacterTable.parse(text)
    assert t.ctx.gram(t.chars, t.chars, t.class_sizes).dtype == object
    assert_gram_matches_reference(t, t.chars, t.chars)
    with pytest.raises(CharTableError) as exc:
        t.validate()
    assert str(exc.value) == ref_outcome(lambda: ref_validate(t))[8:]
    # a class function with huge values, decomposed exactly
    t = load("a6.tbl")
    big = 10 ** 15
    reg = np.zeros((7, t.ctx.deg), dtype=np.int64)
    reg[0, 0] = 360 * big
    assert t.ctx.gram(reg[None], t.chars, t.class_sizes).dtype == object
    assert brauer_restrict(t, reg) == [big * d for d in t.degrees]


def test_value_outside_int64_is_refused():
    text = table_text("a6.tbl").replace("9 1 0 0 1 -1 -1",
                                        "9 1 0 0 1 -1 10000000000000000000z5")
    with pytest.raises(CharTableError, match="int64"):
        CharacterTable.parse(text)
    t = load("a6.tbl")
    with pytest.raises(CharTableError, match="int64"):
        t.parse_class_function(["1"] * 6 + ["4611686018427387904z5+"
                                            "4611686018427387904z5"])
    # x^144 mod Phi_546 has a coefficient 2, so 2^62 zeta_546^144 does
    # not fit
    t = load("psl2_13.tbl")
    with pytest.raises(CharTableError, match="int64"):
        t.parse_class_function(["1"] * 8 + ["4611686018427387904z546^144"])


def test_truncated_table_is_refused():
    text = "\n".join(table_text("a6.tbl").splitlines()[:-2])
    with pytest.raises(CharTableError, match="line 10"):
        CharacterTable.parse(text)
    with pytest.raises(CharTableError, match="truncated"):
        CharacterTable.parse("A6 360 7\n1 2 3 3 4 5 5\n")


def test_non_integer_header_is_refused():
    text = table_text("a6.tbl").replace("A6 360 7", "A6 3x0 7")
    with pytest.raises(CharTableError, match="line 3: .*'3x0 7'"):
        CharacterTable.parse(text)
    text = table_text("a6.tbl").replace("1 45 40 40 90 72 72",
                                        "1 45 40 40 90 72 7.2")
    with pytest.raises(CharTableError, match="line 5: class sizes"):
        CharacterTable.parse(text)
    text = table_text("a6.tbl").replace("1 2 3 3 4 5 5", "1 2 3 3 4 5 0")
    with pytest.raises(CharTableError, match="line 4: class orders"):
        CharacterTable.parse(text)


def a6_with(old, new):
    text = table_text("a6.tbl")
    assert text.count(old) == 1
    return text.replace(old, new)


@pytest.mark.parametrize("text,match", [
    ("", "empty character table"),
    ("# a comment only\n\n", "empty character table"),
    (a6_with("A6 360 7", "A6 360"), "line 3: expected `GROUP ORDER NCLASSES`"),
    (a6_with("A6 360 7", "A6 360 7 1"), "expected `GROUP ORDER NCLASSES`"),
    (a6_with("1 2 3 3 4 5 5", "1 2 3 3 4 5"), "class line length mismatch"),
    (a6_with("1 45 40 40 90 72 72", "1 45 40 40 90 72 72 1"),
     "class line length mismatch"),
    (a6_with("10 -2 1 1 0 0 0", "10 -2 1 1 0 0"),
     "character row length mismatch"),
    (a6_with("9 1 0 0 1 -1 -1", "9 1 0 0 1 -1 +"), "empty value"),
    # the A6 table's field is Q(zeta_60)
    (a6_with("9 1 0 0 1 -1 -1", "9 1 0 0 1 -1 z7"),
     r"z7 outside Q\(zeta_60\)"),
    (a6_with("9 1 0 0 1 -1 -1", "9 1 0 0 1 -1 b7"),
     r"b7 outside Q\(zeta_60\)"),
    (a6_with("9 1 0 0 1 -1 -1", "9 1 0 0 1 -1 c7_1"),
     r"c7 outside Q\(zeta_60\)"),
], ids=["empty", "comment-only", "header-2-fields", "header-4-fields",
        "short-class-orders", "long-class-sizes", "short-character-row",
        "sign-only", "z-outside", "b-outside", "c-outside"])
def test_malformed_tables_are_refused(text, match):
    with pytest.raises(CharTableError, match=match):
        CharacterTable.parse(text)


def test_gauss_period_sums_over_the_nonzero_squares():
    # at composite n the nonzero squares mod n are not the residues
    # Euler's criterion picks: {1, 4} mod 8 and {1, 4, 6, 9, 10} mod 15
    ctx = CycloContext(120)
    for n, squares in ((8, (1, 4)), (15, (1, 4, 6, 9, 10)), (5, (1, 4))):
        want = ctx.zero()
        for a in squares:
            want = ctx.add(want, ctx.zeta(120 // n * a))
        assert np.array_equal(_parse_value(ctx, "b%d" % n), want), n
        terms = "+".join("z%d^%d" % (n, a) for a in squares)
        assert np.array_equal(_parse_value(ctx, terms), want), n


def test_huge_exponent_is_refused_before_its_power_table(monkeypatch):
    # class orders with lcm 510510 = 2.3.5.7.11.13.17 would need a power
    # table of about 4.7e10 entries; the header alone is refused
    def no_context(n):
        raise AssertionError("CycloContext(%d) built" % n)

    monkeypatch.setattr(chartable, "CycloContext", no_context)
    orders = [1, 2, 3, 5, 7, 11, 13, 17]
    text = "\n".join(["BIG 510510 8", " ".join(map(str, orders)),
                      " ".join(["1"] * 8)] + [" ".join(["1"] * 8)] * 8)
    with pytest.raises(CharTableError, match="exponent 510510"):
        CharacterTable.parse(text)


def test_root_of_order_zero_is_refused():
    t = load("a6.tbl")
    for v in ("z0", "2z0^3", "b0", "c0_1"):
        with pytest.raises(CharTableError, match="bad token"):
            t.parse_class_function(["1"] * 6 + [v])


def test_regular_character():
    t = load("a6.tbl")
    ctx = t.ctx
    reg = [ctx.integer(360)] + [ctx.zero()] * 6
    assert brauer_restrict(t, reg, p=7) == t.degrees


def test_irreducibles_restrict_to_unit_vectors():
    t = load("psl2_13.tbl")
    for i, ch in enumerate(t.chars):
        m = brauer_restrict(t, ch)
        assert m == [1 if j == i else 0 for j in range(t.nclasses)]


def test_additivity():
    t = load("a6.tbl")
    mult = [1, 0, 2, 0, 0, 1, 0]
    ctx = t.ctx
    s = [ctx.zero() for _ in range(t.nclasses)]
    for m, ch in zip(mult, t.chars):
        s = [ctx.add(a, ctx.scal(m, b)) for a, b in zip(s, ch)]
    assert brauer_restrict(t, s) == mult


def test_p_divides_order_guard():
    t = load("psl2_13.tbl")
    with pytest.raises(CharTableError):
        brauer_restrict(t, t.chars[0], p=7)   # 7 | 1092


def test_inconsistent_class_function_rejected():
    t = load("a6.tbl")
    ctx = t.ctx
    bad = [ctx.integer(3)] + [ctx.zero()] * 6   # norm 9/360 not integral
    with pytest.raises(CharTableError):
        brauer_restrict(t, bad)


def test_corrupted_table_fails_validation():
    t = CharacterTable.parse(corrupted_a6_text())
    with pytest.raises(CharTableError):
        t.validate()
