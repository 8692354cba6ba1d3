import pytest

from liftlab.chartable import (CharacterTable, CharTableError,
                               brauer_restrict, character_sum)
from liftlab.cyclotomic import CycloContext, cyclotomic_polynomial
from liftlab.oddness import default_data_dir

import os


def load(name):
    return CharacterTable.load(os.path.join(default_data_dir(), name))


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(5) == [1, 1, 1, 1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_cyclotomic_arithmetic():
    ctx = CycloContext(5)
    z = ctx.zeta(1)
    s = ctx.zero()
    for k in range(5):
        s = ctx.add(s, ctx.zeta(k))
    assert ctx.is_rational(s) and ctx.rational_value(s) == 0
    # b5 * (1 + b5) = gold ratio identity: x^2 + x - 1 = 0 for b5
    b5 = ctx.zero()
    for a in (1, 4):
        b5 = ctx.add(b5, ctx.zeta(a))
    prod = ctx.mul(b5, ctx.add(b5, ctx.one()))
    assert prod == ctx.one()
    # conjugation fixes the real b5
    assert ctx.conj(b5) == b5


def test_tables_validate():
    load("a6.tbl").validate()
    load("psl2_13.tbl").validate()


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
    s = character_sum(t, [1, 0, 2, 0, 0, 1, 0])
    assert brauer_restrict(t, s) == [1, 0, 2, 0, 0, 1, 0]


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
    import os
    path = os.path.join(default_data_dir(), "a6.tbl")
    with open(path) as fh:
        text = fh.read().replace("10 -2 1 1 0 0 0", "10 -2 1 1 0 1 0")
    t = CharacterTable.parse(text)
    with pytest.raises(CharTableError):
        t.validate()
