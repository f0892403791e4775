"""Shared test helpers: exact Gaussian rationals and the evaluation of
polynomials and point expressions over them, polynomial builders and random
generators, sympy conversion, and the reference division and S-polynomial
that engine results are checked against, and a reference first elimination
through one product Rabinowitsch generator."""

from __future__ import annotations

import random
from fractions import Fraction
from operator import add

from cni_prover.algebra_core import (
    Add,
    AlgebraError,
    Block,
    Const,
    Div,
    Expr,
    GrevLex,
    MonomialOrder,
    Mul,
    PointRef,
    Polynomial,
    Pow,
    Sub,
    VarTable,
)
from cni_prover.groebner import groebner_basis


class Qi:
    """Gaussian rational a + b*i. Field operations are exact, which lets
    polynomial and expression evaluation run over the complex rationals."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __add__(self, other):
        o = _qi(other)
        return Qi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _qi(other)
        return Qi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return _qi(other) - self

    def __mul__(self, other):
        o = _qi(other)
        return Qi(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _qi(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return Qi((self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        return _qi(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return Qi(1) / self ** (-k)
        out = Qi(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __neg__(self):
        return Qi(-self.re, -self.im)

    def __eq__(self, other):
        try:
            o = _qi(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"Qi({self.re}, {self.im})"


def _qi(x) -> Qi:
    if isinstance(x, Qi):
        return x
    if isinstance(x, (int, Fraction)):
        return Qi(x)
    raise TypeError(f"cannot coerce {x!r} to Qi")


I = Qi(0, 1)


def make_table(*names: str) -> VarTable:
    table = VarTable()
    for n in names:
        table.add(n)
    return table


def evaluate(p: Polynomial, assignment):
    """p at a full assignment {variable: value}. Values only need ring
    operations, so Fractions and Gaussian rationals both work."""
    total = Fraction(0)
    for m, c in p.terms.items():
        term = c
        for v, e in enumerate(m):
            if e:
                term = assignment[v] ** e * term
        total = term + total
    return total


def expr_evaluate(e: Expr, assignment):
    """A point expression at concrete values {point: value}, in any field
    (Fractions, or Gaussian rationals)."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, PointRef):
        return assignment[e.index]
    if isinstance(e, Pow):
        return expr_evaluate(e.base, assignment) ** e.exponent
    left = expr_evaluate(e.left, assignment)
    right = expr_evaluate(e.right, assignment)
    if isinstance(e, Add):
        return left + right
    if isinstance(e, Sub):
        return left - right
    if isinstance(e, Mul):
        return left * right
    if isinstance(e, Div):
        return left / right
    raise AlgebraError(f"unknown expression node {e!r}")


def monic(p: Polynomial, order: MonomialOrder) -> Polynomial:
    """p scaled to leading coefficient 1 under `order`; zero stays zero."""
    if p.is_zero:
        return p
    return p.scale(1 / p.leading_coefficient(order))


def mono(table: VarTable, exps: dict[int, int]) -> tuple[int, ...]:
    """Exponent tuple over `table` from a sparse {variable: exponent} map."""
    out = [0] * len(table)
    for v, e in exps.items():
        out[v] = e
    return tuple(out)


def poly(table: VarTable, terms) -> Polynomial:
    """Polynomial from (sparse exponent map, coefficient) pairs."""
    return Polynomial(table, {mono(table, m): Fraction(c) for m, c in terms})


def random_polynomial(
    rng: random.Random,
    table: VarTable,
    variables,
    max_degree: int = 3,
    max_terms: int = 4,
) -> Polynomial:
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
        exps: dict[int, int] = {}
        for _ in range(rng.randint(0, max_degree)):
            v = rng.choice(variables)
            exps[v] = exps.get(v, 0) + 1
        c = Fraction(rng.randint(-5, 5))
        if not c:
            continue
        m = mono(table, exps)
        nc = terms.get(m, Fraction(0)) + c
        if nc:
            terms[m] = nc
        else:
            terms.pop(m, None)
    return Polynomial(table, terms)


def to_sympy(p: Polynomial, symbols):
    """Convert to a sympy expression; symbols[i] stands for variable i."""
    import sympy

    total = sympy.Integer(0)
    for m, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in enumerate(m):
            term *= symbols[v] ** e
        total += term
    return total


def from_sympy(expr, table: VarTable, symbols) -> Polynomial:
    """Convert a sympy polynomial expression back; inverse of to_sympy."""
    import sympy

    index = {s: i for i, s in enumerate(symbols)}
    poly = sympy.Poly(sympy.expand(expr), *symbols)
    terms: dict[tuple[int, ...], Fraction] = {}
    for monom, coeff in poly.terms():
        c = sympy.Rational(coeff)
        frac = Fraction(int(c.p), int(c.q))
        terms[mono(table, {index[s]: e for s, e in zip(symbols, monom)})] = frac
    return Polynomial(table, terms)


# ---------------------------------------------------------------------------
# Reference division over the rationals, independent of the groebner engine.


def mono_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, a, b))


def mono_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(max, a, b))


def mono_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...] | None:
    """a / b, or None when b does not divide a."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def normal_form(f: Polynomial, G, order: MonomialOrder) -> Polynomial:
    """Remainder of f under multivariate division by G: no monomial of the
    result is divisible by any leading monomial of G, and f minus the result
    lies in the ideal generated by G."""
    reducers = []
    for g in G:
        if g.is_zero:
            raise AlgebraError("normal_form requires nonzero divisors")
        reducers.append((g.leading_monomial(order), g.leading_coefficient(order), g))
    work = dict(f.terms)
    rem: dict[tuple[int, ...], Fraction] = {}
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        hit = None
        for lm, lc, g in reducers:
            q = mono_div(m, lm)
            if q is not None:
                hit = (q, c / lc, g)
                break
        if hit is None:
            rem[m] = c
            continue
        q, scale, g = hit
        for mg, cg in g.terms.items():
            mm = mono_mul(q, mg)
            if mm == m:
                continue  # the head term cancels exactly
            nc = work.get(mm, Fraction(0)) - scale * cg
            if nc:
                work[mm] = nc
            else:
                work.pop(mm, None)
    return Polynomial(f.table, rem)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """S(f, g) = (lcm/lt(f)) * f - (lcm/lt(g)) * g; the leading terms cancel."""
    if f.is_zero or g.is_zero:
        raise AlgebraError("S-polynomial of a zero polynomial")
    lmf = f.leading_monomial(order)
    lmg = g.leading_monomial(order)
    l = mono_lcm(lmf, lmg)
    tf = Polynomial(f.table, {mono_div(l, lmf): 1 / f.terms[lmf]})
    tg = Polynomial(g.table, {mono_div(l, lmg): 1 / g.terms[lmg]})
    return tf * f - tg * g


def in_ideal(f: Polynomial, basis, order: MonomialOrder | None = None) -> bool:
    """Membership of f in the ideal of a GroebnerBasis, whose generators are
    a reduced basis under its order, or of an EliminationResult, whose
    generators are one under `order`, grevlex on its kept variables."""
    return normal_form(f, basis.generators, order or basis.order).is_zero


def eliminate_by_product(hyps, factors, points) -> tuple[Polynomial, ...]:
    """Reference for the first elimination: ideal(hyps) saturated by the
    product of `factors` through one generator d_1*...*d_m*u - 1, u a
    variable appended to a copy of the table, then intersected with the ring
    without `points` and u. Each step keeps the elements free of its block
    from groebner_basis under Block(GrevLex(block), GrevLex(rest)): u's
    block, then the points'. The result is the reduced monic basis under
    grevlex on the remaining variables, sorted by leading monomial."""
    table = hyps[0].table
    ext = make_table(*table.names())
    u = ext.add("u_product")

    def lift(p):
        return Polynomial(ext, {m + (0,): c for m, c in p.terms.items()})

    prod = Polynomial.constant(ext, 1)
    for d in factors:
        prod = prod * lift(d)
    gens = [lift(h) for h in hyps]
    gens.append(prod * Polynomial.variable(ext, u) - Polynomial.constant(ext, 1))

    def block_free(gens, block):
        rest = tuple(v for v in range(len(ext)) if v not in block)
        basis = groebner_basis(gens, Block(GrevLex(block), GrevLex(rest)))
        return [g for g in basis.generators if not any(g.contains_var(v) for v in block)]

    kept = block_free(block_free(gens, (u,)), tuple(points))
    return tuple(Polynomial(table, {m[:-1]: c for m, c in g.terms.items()}) for g in kept)
