"""ATLAS-style character tables and Brauer restriction for p coprime
to the group order.

Text format: line 1 `GROUP ORDER NCLASSES`, line 2 class orders,
line 3 class sizes, then one line per character.  Values are sums of
terms: integers, `z<n>` / `z<n>^k` (a primitive n-th root of unity),
`b<n>` (the quadratic Gauss period, sum of zeta_n^a over the nonzero
squares a mod n), and `c<n>_<k>` (zeta_n^k + zeta_n^{-k}); a term may
carry an integer coefficient as in `2c7_1` or `-3z5^2`.

Since p does not divide the group order, ordinary character theory
computes the Brauer decomposition; inner products are evaluated in
exact cyclotomic integer arithmetic and must come out integral.
"""

from __future__ import annotations

import math
import re

from .cyclotomic import CycloContext


class CharTableError(ValueError):
    pass


_TERM = re.compile(r"([+-]?\d*)(z(\d+)(?:\^(\d+))?|b(\d+)|c(\d+)_(\d+))?$")


def _parse_value(ctx, text):
    """One value as a cyclotomic integer vector."""
    out = ctx.zero()
    # split into signed terms
    toks = re.findall(r"[+-]?[^+-]+", text.replace(" ", ""))
    if not toks:
        raise CharTableError("empty value")
    for tok in toks:
        m = _TERM.match(tok)
        if not m:
            raise CharTableError("bad token %r" % tok)
        coef_s, sym = m.group(1), m.group(2)
        if coef_s in ("", "+"):
            coef = 1
        elif coef_s == "-":
            coef = -1
        else:
            coef = int(coef_s)
        if sym is None:
            out = ctx.add(out, ctx.integer(coef))
            continue
        if sym.startswith("z"):
            n, k = int(m.group(3)), int(m.group(4) or 1)
            if ctx.n % n:
                raise CharTableError("z%d outside Q(zeta_%d)" % (n, ctx.n))
            val = ctx.zeta((ctx.n // n) * k)
        elif sym.startswith("b"):
            n = int(m.group(5))
            if ctx.n % n:
                raise CharTableError("b%d outside Q(zeta_%d)" % (n, ctx.n))
            val = ctx.zero()
            for a in range(1, n):
                if pow(a, (n - 1) // 2, n) == 1:
                    val = ctx.add(val, ctx.zeta((ctx.n // n) * a))
        else:
            n, k = int(m.group(6)), int(m.group(7))
            if ctx.n % n:
                raise CharTableError("c%d outside Q(zeta_%d)" % (n, ctx.n))
            val = ctx.add(ctx.zeta((ctx.n // n) * k),
                          ctx.zeta((ctx.n // n) * ((n - k) % n)))
        out = ctx.add(out, ctx.scal(coef, val))
    return out


class CharacterTable:
    def __init__(self, name, order, class_orders, class_sizes, char_rows):
        self.name = name
        self.order = order
        self.nclasses = len(class_orders)
        self.class_orders = list(class_orders)
        self.class_sizes = list(class_sizes)
        n = 1
        for o in class_orders:
            n = n * o // math.gcd(n, o)
        self.exponent = n
        self.ctx = CycloContext(n)
        self.chars = [[_parse_value(self.ctx, v) for v in row]
                      for row in char_rows]
        self.degrees = [self.ctx.rational_value(ch[0]) for ch in self.chars]

    @classmethod
    def parse(cls, text):
        lines = [ln.strip() for ln in text.splitlines()
                 if ln.strip() and not ln.strip().startswith("#")]
        name, order, nclasses = lines[0].split()
        order, nclasses = int(order), int(nclasses)
        class_orders = [int(x) for x in lines[1].split()]
        class_sizes = [int(x) for x in lines[2].split()]
        if len(class_orders) != nclasses or len(class_sizes) != nclasses:
            raise CharTableError("class line length mismatch")
        rows = [lines[3 + i].split() for i in range(nclasses)]
        for row in rows:
            if len(row) != nclasses:
                raise CharTableError("character row length mismatch")
        return cls(name, order, class_orders, class_sizes, rows)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.parse(fh.read())

    def parse_class_function(self, values):
        """A class function from a list of value strings."""
        if len(values) != self.nclasses:
            raise CharTableError("class function length mismatch")
        return [_parse_value(self.ctx, v) for v in values]

    def inner_product(self, f, g):
        """<f, g> = |G|^-1 sum |C| f(C) conj(g(C)); must be an integer."""
        ctx = self.ctx
        acc = ctx.zero()
        for size, fv, gv in zip(self.class_sizes, f, g):
            acc = ctx.add(acc, ctx.scal(size, ctx.mul(fv, ctx.conj(gv))))
        if not ctx.is_rational(acc):
            raise CharTableError("non-rational inner product "
                                 "(inconsistent data)")
        num = ctx.rational_value(acc)
        if num % self.order:
            raise CharTableError("non-integral inner product "
                                 "(inconsistent data): %d/%d" %
                                 (num, self.order))
        return num // self.order

    def validate(self):
        """Orthogonality, degree and size checks; raises on failure."""
        if sum(self.class_sizes) != self.order:
            raise CharTableError("class sizes do not sum to the order")
        if sum(d * d for d in self.degrees) != self.order:
            raise CharTableError("sum of squared degrees != order")
        for i in range(self.nclasses):
            for j in range(i, self.nclasses):
                ip = self.inner_product(self.chars[i], self.chars[j])
                if ip != (1 if i == j else 0):
                    raise CharTableError(
                        "orthogonality fails at (%d, %d): %d" % (i, j, ip))
        return True

    def class_function_degree(self, f):
        return self.ctx.rational_value(f[0])


def brauer_restrict(table, classfunction, p=None):
    """Multiplicity of each irreducible in a class function.

    Valid as a Brauer decomposition whenever p does not divide |G|
    (ordinary = modular there); pass p to enforce that check.
    """
    if p is not None and table.order % p == 0:
        raise CharTableError("p divides the group order")
    return [table.inner_product(classfunction, ch) for ch in table.chars]
