"""Shared test helpers: exact Gaussian rationals and the evaluation of
polynomials and point expressions over them, polynomial builders and random
generators, sympy conversion, the sort keys of the monomial orders and the
leading terms under them, and the reference division and S-polynomial
that engine results are checked against, a reference first elimination
through one product Rabinowitsch generator, the reference clearing of
denominators on Polynomial arithmetic, and the reference pinned system
that clears the relations again with two points replaced by constants."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
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
    ZeroDenominatorError,
    clear_relations,
    expr_substitute,
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


def order_key(order: MonomialOrder, m: tuple[int, ...]):
    """The sort key of monomial m under a GrevLex or Block order: a larger
    key is a larger monomial. It reads the orders' fields, not their
    blocks(), so it is a reference for the packed monomials."""
    if isinstance(order, Block):
        return (order_key(order.first, m), order_key(order.second, m))
    exps = [m[i] for i in order.perm]
    return (sum(exps), tuple(-e for e in reversed(exps)))


def leading_monomial(p: Polynomial, order: MonomialOrder) -> tuple[int, ...]:
    if p.is_zero:
        raise AlgebraError("the zero polynomial has no leading monomial")
    return max(p.terms, key=lambda m: order_key(order, m))


def leading_coefficient(p: Polynomial, order: MonomialOrder) -> int | Fraction:
    return p.terms[leading_monomial(p, order)]


def monic(p: Polynomial, order: MonomialOrder) -> Polynomial:
    """p scaled to leading coefficient 1 under `order`; zero stays zero."""
    if p.is_zero:
        return p
    return p.scale(Fraction(1, leading_coefficient(p, order)))


def is_primitive(p: Polynomial) -> bool:
    """True iff p is nonzero with coprime integer coefficients."""
    return all(c.denominator == 1 for c in p.terms.values()) and (
        gcd(*(c.numerator for c in p.terms.values())) == 1
    )


def mono(table: VarTable, exps: dict[int, int]) -> tuple[int, ...]:
    """Exponent tuple over `table` from a sparse {variable: exponent} map."""
    out = [0] * len(table)
    for v, e in exps.items():
        out[v] = e
    return tuple(out)


def poly(table: VarTable, terms) -> Polynomial:
    """Polynomial from (sparse exponent map, coefficient) pairs; the
    coefficients are kept as given, so ints stay ints."""
    return Polynomial(table, {mono(table, m): c for m, c in terms})


def random_polynomial(
    rng: random.Random,
    table: VarTable,
    variables,
    max_degree: int = 3,
    max_terms: int = 4,
) -> Polynomial:
    """A random polynomial with integer coefficients."""
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randint(1, max_terms)):
        exps: dict[int, int] = {}
        for _ in range(rng.randint(0, max_degree)):
            v = rng.choice(variables)
            exps[v] = exps.get(v, 0) + 1
        c = rng.randint(-5, 5)
        if not c:
            continue
        m = mono(table, exps)
        nc = terms.get(m, 0) + c
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
    """Convert a sympy polynomial expression back; inverse of to_sympy.
    Integer coefficients come back as ints, the others as Fractions."""
    import sympy

    index = {s: i for i, s in enumerate(symbols)}
    poly = sympy.Poly(sympy.expand(expr), *symbols)
    terms: dict[tuple[int, ...], int | Fraction] = {}
    for monom, coeff in poly.terms():
        c = sympy.Rational(coeff)
        q = int(c.q)
        terms[mono(table, {index[s]: e for s, e in zip(symbols, monom)})] = (
            int(c.p) if q == 1 else Fraction(int(c.p), q)
        )
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
        lm = leading_monomial(g, order)
        reducers.append((lm, g.terms[lm], g))
    work = dict(f.terms)
    rem: dict[tuple[int, ...], int | Fraction] = {}
    while work:
        m = max(work, key=lambda t: order_key(order, t))
        c = work.pop(m)
        hit = None
        for lm, lc, g in reducers:
            q = mono_div(m, lm)
            if q is not None:
                hit = (q, Fraction(c, lc), g)
                break
        if hit is None:
            rem[m] = c
            continue
        q, scale, g = hit
        for mg, cg in g.terms.items():
            mm = mono_mul(q, mg)
            if mm == m:
                continue  # the head term cancels exactly
            nc = work.get(mm, 0) - scale * cg
            if nc:
                work[mm] = nc
            else:
                work.pop(mm, None)
    return Polynomial(f.table, rem)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """S(f, g) = (lcm/lt(f)) * f - (lcm/lt(g)) * g; the leading terms cancel."""
    if f.is_zero or g.is_zero:
        raise AlgebraError("S-polynomial of a zero polynomial")
    lmf = leading_monomial(f, order)
    lmg = leading_monomial(g, order)
    l = mono_lcm(lmf, lmg)
    tf = Polynomial(f.table, {mono_div(l, lmf): Fraction(1, f.terms[lmf])})
    tg = Polynomial(g.table, {mono_div(l, lmg): Fraction(1, g.terms[lmg])})
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


# ---------------------------------------------------------------------------
# Reference clearing of denominators, on Polynomial arithmetic at every node,
# dividing through Fraction.


def print_order(table: VarTable) -> GrevLex:
    """The print order as a monomial order: grevlex over the table's
    variables in table order. algebra_core sorts and sign-normalizes under
    it through a cheaper key of its own."""
    return GrevLex(tuple(range(len(table))))


def reference_primitive(p: Polynomial) -> tuple[Fraction, Polynomial]:
    """(content, primitive) with p = content * primitive, the primitive part
    having coprime integer coefficients and a positive leading coefficient
    under print_order. p must be nonzero."""
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    g = 0
    for c in p.terms.values():
        g = gcd(g, c.numerator * (den // c.denominator))
    if leading_coefficient(p, print_order(p.table)) < 0:
        g = -g
    content = Fraction(g, den)
    return content, p.scale(Fraction(1) / content)


def reference_normalize(e: Expr, table: VarTable):
    """(num, den, factors) with e = num/den, computed by recursion on
    Polynomials; clear_relations gives the same num and factors for [e].
    Each Add, Sub, Mul and Pow combines the children's num/den pairs as
    fractions do; a Div folds a constant divisor into the coefficients and
    otherwise lists the divisor's primitive part as a factor, first-seen
    order, and multiplies it into den. A divisor whose numerator is zero
    raises ZeroDenominatorError."""
    one = Polynomial.constant(table, 1)
    factors: dict[Polynomial, None] = {}

    def walk(node):
        if isinstance(node, Const):
            return Polynomial.constant(table, node.value), one
        if isinstance(node, PointRef):
            return Polynomial.variable(table, node.index), one
        if isinstance(node, Pow):
            nb, db = walk(node.base)
            return nb ** node.exponent, db ** node.exponent
        nl, dl = walk(node.left)
        nr, dr = walk(node.right)
        if isinstance(node, Add):
            return nl * dr + nr * dl, dl * dr
        if isinstance(node, Sub):
            return nl * dr - nr * dl, dl * dr
        if isinstance(node, Mul):
            return nl * nr, dl * dr
        if isinstance(node, Div):
            if nr.is_zero:
                raise ZeroDenominatorError("denominator normalizes to the zero polynomial")
            num = nl * dr
            if nr.is_constant:
                return num.scale(Fraction(1, nr.constant_value())), dl
            content, prim = reference_primitive(nr)
            factors[prim] = None
            return num.scale(Fraction(1) / content), dl * prim
        raise AlgebraError(f"unknown expression node {node!r}")

    num, den = walk(e)
    return num, den, list(factors)


def pinned_clearing(sys, c, mode: str):
    """(polynomials, variables to eliminate, denominator factors) of c's
    system with its first two free points replaced by their values, 0 and
    1 or -1 and 1, in the relations of c, cleared again as build_system
    clears them, and left out of the variables to eliminate. `sys` is
    build_system(c). A divisor in the pinned points alone turns into a
    nonzero constant and is not listed. This is how coordinates were pinned
    before fix_coordinates left the normalization to the elimination, and
    what that elimination must agree with."""
    values = (0, 1) if mode == "zero_one" else (-1, 1)
    pins = {p: Const(Fraction(v)) for p, v in zip(c.free_points[:2], values)}
    n = len(c.table)
    relations = [
        Sub(expr_substitute(step.expr, pins), PointRef(n + k))
        for k, step in enumerate(c.steps + (c.thesis,))
    ]
    polys, factors = clear_relations(relations, sys.table)
    return tuple(polys), tuple(v for v in sys.eliminate_vars if v not in pins), tuple(factors)
