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
exact cyclotomic integer arithmetic and must come out integral.  All
of them at once: validation is the class-size-weighted Gram of the
table with itself, and a Brauer restriction is its 1 x k case.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .coeffring import LiftlabError
from .cyclotomic import CycloContext, _prime_factors

# Largest power table (x^k mod Phi_N for k < max(N, 2 phi(N) - 1), phi(N)
# int64 coefficients per row) a table may ask for: 2^22 entries, 32 MiB.
# The shipped tables need 960 (A6, N = 60) and 78,624 (PSL(2,13),
# N = 546).
MAX_POWER_TABLE = 1 << 22


class CharTableError(LiftlabError):
    pass


_TERM = re.compile(r"([+-]?\d*)(z([1-9]\d*)(?:\^(\d+))?|b([1-9]\d*)"
                   r"|c([1-9]\d*)_(\d+))?$")


def _parse_value(ctx, text):
    """One value as a cyclotomic integer vector.

    Refused when its coefficients could leave int64: the sum over its
    terms of |coefficient| times the largest coefficient of the term's
    vector bounds every partial sum.
    """
    out = ctx.zero()
    height = 0
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
            val = ctx.one()
        elif sym.startswith("z"):
            n, k = int(m.group(3)), int(m.group(4) or 1)
            if ctx.n % n:
                raise CharTableError("z%d outside Q(zeta_%d)" % (n, ctx.n))
            val = ctx.zeta((ctx.n // n) * k)
        elif sym.startswith("b"):
            n = int(m.group(5))
            if ctx.n % n:
                raise CharTableError("b%d outside Q(zeta_%d)" % (n, ctx.n))
            val = ctx.zero()
            for a in {x * x % n for x in range(1, n)} - {0}:
                val = ctx.add(val, ctx.zeta((ctx.n // n) * a))
        else:
            n, k = int(m.group(6)), int(m.group(7))
            if ctx.n % n:
                raise CharTableError("c%d outside Q(zeta_%d)" % (n, ctx.n))
            val = ctx.add(ctx.zeta((ctx.n // n) * k),
                          ctx.zeta((ctx.n // n) * ((n - k) % n)))
        height += abs(coef) * int(max(val.max(), -val.min()))
        if height >= 2 ** 63:
            raise CharTableError("value %r leaves the int64 range" % text)
        out = ctx.add(out, ctx.scal(coef, val))
    return out


def _positive_ints(lineno, text, what):
    try:
        vals = [int(x) for x in text.split()]
    except ValueError:
        vals = None
    if vals is None or any(v <= 0 for v in vals):
        raise CharTableError("line %d: %s must be positive integers, "
                             "not %r" % (lineno, what, text))
    return vals


class CharacterTable:
    def __init__(self, name, order, class_orders, class_sizes, char_rows):
        self.name = name
        self.order = order
        self.nclasses = len(class_orders)
        self.class_orders = list(class_orders)
        self.class_sizes = list(class_sizes)
        n = math.lcm(*class_orders)
        phi = n
        for q in _prime_factors(n):
            phi = phi // q * (q - 1)
        entries = max(n, 2 * phi - 1) * phi
        if entries > MAX_POWER_TABLE:
            raise CharTableError("exponent %d of %s needs a power table of "
                                 "%d entries, more than %d"
                                 % (n, name, entries, MAX_POWER_TABLE))
        self.exponent = n
        self.ctx = CycloContext(n)
        self.chars = np.array([[_parse_value(self.ctx, v) for v in row]
                               for row in char_rows], dtype=np.int64
                              ).reshape(len(char_rows), self.nclasses,
                                        self.ctx.deg)
        self.degrees = []
        for row, ch in zip(char_rows, self.chars):
            if not self.ctx.is_rational(ch[0]):
                raise CharTableError("%s: the degree %r of a character is "
                                     "not rational" % (name, row[0]))
            self.degrees.append(int(ch[0, 0]))

    @classmethod
    def parse(cls, text):
        lines = [(no, ln.strip())
                 for no, ln in enumerate(text.splitlines(), 1)
                 if ln.strip() and not ln.strip().startswith("#")]
        if not lines:
            raise CharTableError("empty character table")
        no, header = lines[0]
        fields = header.split()
        if len(fields) != 3:
            raise CharTableError("line %d: expected `GROUP ORDER NCLASSES`, "
                                 "not %r" % (no, header))
        order, nclasses = _positive_ints(no, " ".join(fields[1:]),
                                         "the order and class count")
        if len(lines) < 3 + nclasses:
            raise CharTableError(
                "truncated table: it ends at line %d, but the header on "
                "line %d announces %d classes, so class orders, class "
                "sizes and %d characters must follow"
                % (lines[-1][0], no, nclasses, nclasses))
        class_orders = _positive_ints(*lines[1], "class orders")
        class_sizes = _positive_ints(*lines[2], "class sizes")
        if len(class_orders) != nclasses or len(class_sizes) != nclasses:
            raise CharTableError("class line length mismatch")
        rows = [ln.split() for _, ln in lines[3:3 + nclasses]]
        for row in rows:
            if len(row) != nclasses:
                raise CharTableError("character row length mismatch")
        return cls(fields[0], order, class_orders, class_sizes, rows)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.parse(fh.read())

    def parse_class_function(self, values):
        """A class function from a list of value strings."""
        if len(values) != self.nclasses:
            raise CharTableError("class function length mismatch")
        return np.array([_parse_value(self.ctx, v) for v in values],
                        dtype=np.int64).reshape(self.nclasses, self.ctx.deg)

    def inner_products(self, F, H, expect=None):
        """<f, h> = |G|^-1 sum |C| f(C) conj(h(C)) for every row f of F
        and h of H, as lists of ints, from one class-size-weighted Gram.
        Every entry must be rational and divisible by |G| and, given
        `expect`, equal to it; the first entry in row-major order that
        is not raises."""
        G = self.ctx.gram(F, H, self.class_sizes)
        num = G[..., 0]
        rational = ~(G[..., 1:] != 0).any(axis=-1)
        integral = rational & (num % self.order == 0)
        ip = np.where(integral, num // self.order, 0)
        bad = ~integral if expect is None else ~integral | (ip != expect)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            if not rational[i, j]:
                raise CharTableError("non-rational inner product "
                                     "(inconsistent data)")
            if not integral[i, j]:
                raise CharTableError("non-integral inner product "
                                     "(inconsistent data): %d/%d" %
                                     (num[i, j], self.order))
            raise CharTableError(
                "orthogonality fails at (%d, %d): %d" % (i, j, ip[i, j]))
        return ip.tolist()

    def validate(self):
        """Orthogonality, degree and size checks; raises on failure."""
        if sum(self.class_sizes) != self.order:
            raise CharTableError("class sizes do not sum to the order")
        if sum(d * d for d in self.degrees) != self.order:
            raise CharTableError("sum of squared degrees != order")
        # the Gram is Hermitian, so its first failing entry in row-major
        # order is the first failing pair i <= j
        self.inner_products(self.chars, self.chars,
                            np.eye(len(self.chars), dtype=np.int64))
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
    return table.inner_products(np.asarray(classfunction)[None],
                                table.chars)[0]
