"""Monomials, orders, polynomial arithmetic, and expression clearing."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cni_prover.algebra_core import (
    Add,
    AlgebraError,
    Block,
    Const,
    Div,
    GrevLex,
    Mul,
    PointRef,
    Polynomial,
    Pow,
    Sub,
    VarTable,
    ZeroDenominatorError,
    content_and_primitive,
    expr_normalize,
    expr_substitute,
)

from support import (
    Qi,
    I,
    evaluate,
    expr_evaluate,
    make_table,
    monic,
    mono_div,
    mono_lcm,
    mono_mul,
    normal_form,
    random_polynomial,
    s_polynomial,
)


@pytest.fixture
def xyz():
    table = make_table("x", "y", "z")
    return table, Polynomial.variable(table, 0), Polynomial.variable(table, 1), Polynomial.variable(table, 2)


# ---------------------------------------------------------------------------
# Variable tables.


def test_table_registration_and_lookup():
    t = VarTable()
    x = t.add("x")
    r = t.add("r")
    assert t.index("x") == x and t.name(r) == "r"
    assert t.names() == ("x", "r")
    assert "x" in t and "q" not in t
    assert len(t) == 2


def test_table_rejects_duplicate_names():
    t = VarTable()
    t.add("x")
    with pytest.raises(AlgebraError):
        t.add("x")
    t.add("u1")
    with pytest.raises(AlgebraError):
        t.add("u1")


def test_table_is_sealed_once_a_polynomial_is_built():
    # monomials carry one exponent per variable, so the table cannot grow
    t = VarTable()
    t.add("x")
    Polynomial.variable(t, 0)
    with pytest.raises(AlgebraError, match="already built"):
        t.add("y")
    assert len(t) == 1


# ---------------------------------------------------------------------------
# Monomials and orders.


def test_monomial_product_divide_lcm():
    a = (2, 1, 0)
    b = (0, 1, 3)
    assert mono_mul(a, b) == (2, 2, 3)
    assert mono_div(mono_mul(a, b), b) == a
    assert mono_div(a, b) is None
    assert mono_lcm(a, b) == (2, 1, 3)
    assert mono_div(a, (0, 0, 0)) == a


def test_lex_and_grevlex_classic_comparisons():
    # lex is the block order with one variable per block
    lex = Block(GrevLex((0,)), Block(GrevLex((1,)), GrevLex((2,))))
    grv = GrevLex((0, 1, 2))
    x2 = (2, 0, 0)
    xy = (1, 1, 0)
    yz2 = (0, 1, 2)
    # lex: x^2 > y*z^2 regardless of degree
    assert lex.key(x2) > lex.key(yz2)
    assert lex.key(x2) > lex.key(xy)
    # grevlex: degree first, then the smaller trailing exponent wins
    assert grv.key(yz2) > grv.key(x2)
    x2y = (2, 1, 0)
    xz2 = (1, 0, 2)
    assert grv.key(x2y) > grv.key(xz2)
    assert not grv.key(xy) > grv.key(xy)


def test_block_order_separates_eliminated_variables():
    order = Block(GrevLex((0,)), GrevLex((1, 2)))
    assert isinstance(order, Block)
    # anything containing the eliminated variable beats anything without it
    assert order.key((1, 0, 0)) > order.key((0, 5, 5))
    assert order.key((1, 1, 0)) > order.key((0, 0, 9))
    assert not order.key((0, 1, 0)) > order.key((1, 0, 0))


# ---------------------------------------------------------------------------
# Polynomial arithmetic.


def test_polynomial_square_expands(xyz):
    table, x, y, _ = xyz
    p = (x + y) ** 2
    assert p == x * x + x * y.scale(2) + y * y
    assert p.total_degree == 2
    assert p.degree_in(0) == 2


def test_subtraction_cancels_to_zero(xyz):
    table, x, y, _ = xyz
    p = x * y + y.scale(3)
    assert (p - p).is_zero
    assert Polynomial.zero(table).is_zero


def test_zero_coefficients_never_stored(xyz):
    table, x, y, _ = xyz
    p = x + y - x
    assert set(p.terms) == {(0, 1, 0)}


def test_constant_helpers(xyz):
    table, x, _, _ = xyz
    c = Polynomial.constant(table, Fraction(5, 3))
    assert c.is_constant and c.constant_value() == Fraction(5, 3)
    with pytest.raises(AlgebraError):
        x.constant_value()


def test_substitute_partial_and_full(xyz):
    table, x, y, z = xyz
    p = x * y + z
    q = p.substitute({0: Fraction(2)})
    assert q == y.scale(2) + z
    assert p.substitute({0: 1, 1: 1, 2: 0}).constant_value() == 1


def test_evaluate_matches_substitute(xyz):
    table, x, y, z = xyz
    p = x * y * y - z.scale(7) + Polynomial.constant(table, 3)
    val = evaluate(p, {0: Fraction(2), 1: Fraction(-1), 2: Fraction(1, 7)})
    assert val == 2 * 1 - 1 + 3


def test_evaluate_supports_gaussian_rationals(xyz):
    table, x, y, _ = xyz
    p = x * x + y
    assert evaluate(p, {0: I, 1: Qi(1), 2: Qi(0)}) == Qi(0)


def test_leading_data_and_monic(xyz):
    table, x, y, _ = xyz
    order = GrevLex((0, 1, 2))
    p = y * y + x.scale(2)
    assert p.leading_monomial(order) == (0, 2, 0)
    assert monic(p, order).leading_coefficient(order) == 1


def test_content_and_primitive(xyz):
    table, x, y, _ = xyz
    p = x.scale(Fraction(4, 3)) + y.scale(Fraction(2, 3))
    content, prim = content_and_primitive(p)
    assert content * prim.terms[(1, 0, 0)] == Fraction(4, 3)
    coeffs = sorted(prim.terms.values())
    assert coeffs == [1, 2]
    # negative leading coefficient flips the content sign
    content2, prim2 = content_and_primitive(-p)
    assert prim2 == prim and content2 == -content


_small = st.integers(min_value=-4, max_value=4)
_rational = st.builds(Fraction, _small, st.integers(min_value=1, max_value=6))


@st.composite
def polys(draw, table):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(3))
        c = draw(_rational)
        if c:
            terms[exps] = c
    return Polynomial(table, terms)


def _clean(p: Polynomial) -> Polynomial:
    """p, after checking that every stored coefficient is a nonzero
    Fraction, not an int."""
    for c in p.terms.values():
        assert type(c) is Fraction and c != 0
    return p


_TBL = make_table("x", "y", "z")


@given(polys(_TBL), polys(_TBL), polys(_TBL))
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


@given(polys(_TBL), polys(_TBL), st.lists(_small, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_evaluation_is_a_homomorphism(p, q, vals):
    a = {i: Fraction(v) for i, v in enumerate(vals)}
    assert evaluate(p + q, a) == evaluate(p, a) + evaluate(q, a)
    assert evaluate(p * q, a) == evaluate(p, a) * evaluate(q, a)


# pinned coordinates are 0, 1 and -1; the substitution shortcuts them
_value = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]), _rational)


@given(
    polys(_TBL),
    polys(_TBL),
    st.lists(_value, min_size=3, max_size=3),
    st.integers(0, 3),
    _rational,
)
@settings(max_examples=100, deadline=None)
def test_kernels_agree_with_evaluation(p, q, vals, k, c):
    a = dict(enumerate(vals))
    P, Q = evaluate(p, a), evaluate(q, a)
    assert evaluate(_clean(p + q), a) == P + Q
    assert evaluate(_clean(p - q), a) == P - Q
    assert evaluate(_clean(-p), a) == -P
    assert evaluate(_clean(p * q), a) == P * Q
    assert evaluate(_clean(p ** k), a) == P ** k
    assert evaluate(_clean(p.scale(c)), a) == P * c
    assert _clean(p.scale(1)) == p


@given(polys(_TBL), st.lists(_value, min_size=3, max_size=3), st.sets(st.integers(0, 2)))
@settings(max_examples=100, deadline=None)
def test_substitute_agrees_with_evaluation(p, vals, pinned):
    a = dict(enumerate(vals))
    q = _clean(p.substitute({v: a[v] for v in pinned}))
    assert not any(q.contains_var(v) for v in pinned)
    assert evaluate(q, a) == evaluate(p, a)


@given(polys(_TBL))
@settings(max_examples=60, deadline=None)
def test_content_and_primitive_property(p):
    content, prim = content_and_primitive(p)
    _clean(prim)
    assert prim.scale(content) == p
    if not p.is_zero:
        assert all(c.denominator == 1 for c in prim.terms.values())
        assert gcd(*(c.numerator for c in prim.terms.values())) == 1


# ---------------------------------------------------------------------------
# Division and S-polynomials.


def test_normal_form_divides_out_leading_terms(xyz):
    table, x, y, _ = xyz
    order = GrevLex((0, 1, 2))
    f = x * x * y + x * y * y + y * y
    g1 = x * y - Polynomial.constant(table, 1)
    g2 = y * y - Polynomial.constant(table, 1)
    r = normal_form(f, [g1, g2], order)
    # the classic textbook (lex) division result; grevlex agrees here
    assert r == x + y + Polynomial.constant(table, 1)


def test_normal_form_zero_divisor_rejected(xyz):
    table, x, _, _ = xyz
    with pytest.raises(AlgebraError):
        normal_form(x, [Polynomial.zero(table)], GrevLex((0, 1, 2)))


def test_s_polynomial_cancels_leading_terms(xyz):
    table, x, y, _ = xyz
    order = GrevLex((0, 1, 2))
    f = x * x + y
    g = x * y + x
    s = s_polynomial(f, g, order)
    lm = mono_lcm(f.leading_monomial(order), g.leading_monomial(order))
    assert all(m != lm for m in s.terms)


# ---------------------------------------------------------------------------
# Expression trees and clearing.


def test_div_by_zero_constant_rejected():
    with pytest.raises(ZeroDenominatorError):
        Div(PointRef(0), Const(Fraction(0)))


def test_pow_negative_exponent_rejected():
    with pytest.raises(AlgebraError):
        Pow(PointRef(0), -1)


def test_expr_evaluate_over_gaussian_rationals():
    # (A - B) / (A - C) at A=0, B=i, C=1 equals -i/(-1) = i
    e = Div(Sub(PointRef(0), PointRef(1)), Sub(PointRef(0), PointRef(2)))
    v = expr_evaluate(e, {0: Qi(0), 1: I, 2: Qi(1)})
    assert v == I
    assert not v.is_real


def test_expr_substitute_replaces_points():
    e = Sub(PointRef(0), PointRef(1))
    out = expr_substitute(e, {1: Add(PointRef(2), Const(Fraction(1)))})
    assert out == Sub(PointRef(0), Add(PointRef(2), Const(Fraction(1))))


def test_expr_normalize_clears_nested_quotients():
    table = make_table("A", "B", "C")
    A, B, C = PointRef(0), PointRef(1), PointRef(2)
    e = Div(Sub(A, B), Sub(B, C))
    num, den, factors = expr_normalize(e, table)
    a = Polynomial.variable(table, 0)
    b = Polynomial.variable(table, 1)
    c = Polynomial.variable(table, 2)
    assert num == a - b
    assert den == b - c
    assert factors == [b - c]


def test_expr_normalize_registers_each_factor_once():
    table = make_table("A", "B", "C")
    A, B, C = PointRef(0), PointRef(1), PointRef(2)
    inner = Div(Sub(A, B), Sub(B, C))
    e = Div(inner, Div(Sub(B, C), Sub(A, C)))
    num, den, factors = expr_normalize(e, table)
    keys = {frozenset(f.terms.items()) for f in factors}
    assert len(keys) == len(factors)
    b_minus_c = Polynomial.variable(table, 1) - Polynomial.variable(table, 2)
    assert any(f == b_minus_c for f in factors)


def test_expr_normalize_folds_constant_denominators():
    table = make_table("A", "B")
    e = Div(Add(PointRef(0), PointRef(1)), Const(Fraction(2)))
    num, den, factors = expr_normalize(e, table)
    assert factors == []
    assert den == Polynomial.constant(table, 1)
    assert num == (Polynomial.variable(table, 0) + Polynomial.variable(table, 1)).scale(Fraction(1, 2))


_leaf = st.one_of(st.builds(PointRef, st.integers(0, 1)), st.builds(Const, _rational))


def _nonzero_const(e) -> bool:
    return not (isinstance(e, Const) and e.value == 0)


exprs = st.recursive(
    _leaf,
    lambda sub: st.one_of(
        st.builds(Add, sub, sub),
        st.builds(Sub, sub, sub),
        st.builds(Mul, sub, sub),
        st.builds(Div, sub, sub.filter(_nonzero_const)),
        st.builds(Pow, sub, st.integers(0, 3)),
    ),
    max_leaves=8,
)
_gaussian = st.builds(Qi, _rational, _rational)


@given(exprs, _gaussian, _gaussian)
@settings(max_examples=150, deadline=None)
def test_normalize_agrees_with_direct_evaluation(e, a, b):
    # num/den must equal the expression wherever no denominator factor
    # vanishes; a divisor that clears to zero divides by zero everywhere
    table = make_table("A", "B")
    assign = {0: a, 1: b}
    try:
        num, den, factors = expr_normalize(e, table)
    except ZeroDenominatorError:
        with pytest.raises(ZeroDivisionError):
            expr_evaluate(e, assign)
        return
    for p in (num, den, *factors):
        _clean(p)
    if any(evaluate(f, assign) == 0 for f in factors):
        return
    assert evaluate(num, assign) / evaluate(den, assign) == expr_evaluate(e, assign)


def test_random_polynomial_helper_stays_in_bounds():
    rng = random.Random(7)
    table = make_table("x", "y")
    for _ in range(50):
        p = random_polynomial(rng, table, [0, 1], max_degree=3, max_terms=4)
        assert p.total_degree <= 3
        assert len(p.terms) <= 4
