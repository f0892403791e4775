"""Monomials, orders, polynomial arithmetic, and expression clearing."""

import random
from fractions import Fraction

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
    _print_rank,
    clear_relations,
    expr_substitute,
)

from support import (
    Qi,
    I,
    evaluate,
    expr_evaluate,
    leading_coefficient,
    leading_monomial,
    make_table,
    monic,
    mono_div,
    mono_lcm,
    mono_mul,
    normal_form,
    order_key,
    print_order,
    random_polynomial,
    reference_normalize,
    reference_primitive,
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
    assert order_key(lex, x2) > order_key(lex, yz2)
    assert order_key(lex, x2) > order_key(lex, xy)
    # grevlex: degree first, then the smaller trailing exponent wins
    assert order_key(grv, yz2) > order_key(grv, x2)
    x2y = (2, 1, 0)
    xz2 = (1, 0, 2)
    assert order_key(grv, x2y) > order_key(grv, xz2)
    assert not order_key(grv, xy) > order_key(grv, xy)


_monomials = st.tuples(*(st.integers(0, 3) for _ in range(4)))


@given(st.lists(_monomials, min_size=1, max_size=8, unique=True))
@settings(max_examples=200, deadline=None)
def test_print_rank_sorts_descending_under_the_print_order(monos):
    order = print_order(make_table("A", "B", "C", "r"))
    by_key = sorted(monos, key=lambda m: order_key(order, m), reverse=True)
    assert sorted(monos, key=_print_rank) == by_key


def test_block_order_separates_eliminated_variables():
    order = Block(GrevLex((0,)), GrevLex((1, 2)))
    assert isinstance(order, Block)
    # anything containing the eliminated variable beats anything without it
    assert order_key(order, (1, 0, 0)) > order_key(order, (0, 5, 5))
    assert order_key(order, (1, 1, 0)) > order_key(order, (0, 0, 9))
    assert not order_key(order, (0, 1, 0)) > order_key(order, (1, 0, 0))


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
    assert leading_monomial(p, order) == (0, 2, 0)
    assert leading_coefficient(monic(p, order), order) == 1


_small = st.integers(min_value=-4, max_value=4)
_rational = st.builds(Fraction, _small, st.integers(min_value=1, max_value=6))


@st.composite
def polys(draw, table, coefficients=_rational):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(3))
        c = draw(coefficients)
        if c:
            terms[exps] = c
    return Polynomial(table, terms)


def _all_ints(*ps: Polynomial) -> bool:
    return all(type(c) is int for p in ps for c in p.terms.values())


def _clean(p: Polynomial, ints: bool = False) -> Polynomial:
    """p, after checking that every stored coefficient is a nonzero int or
    Fraction, never a float, and an int when `ints` says that every operand
    it came from had int coefficients."""
    for c in p.terms.values():
        assert type(c) in ((int,) if ints else (int, Fraction)) and c != 0
    return p


def _scale_of(num: Polynomial, want: Polynomial) -> Fraction:
    """The s with num == s*want, read off one coefficient; it must be a
    positive integer. Both zero gives 1."""
    if want.is_zero:
        assert num.is_zero
        return Fraction(1)
    m = next(iter(want.terms))
    s = Fraction(num.terms.get(m, 0), want.terms[m])
    assert s > 0 and s.denominator == 1
    return s


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


_either = st.one_of(polys(_TBL, _small), polys(_TBL))


@given(
    _either,
    _either,
    st.lists(_value, min_size=3, max_size=3),
    st.integers(0, 3),
    st.one_of(_small, _rational),
)
@settings(max_examples=100, deadline=None)
def test_kernels_agree_with_evaluation(p, q, vals, k, c):
    # integer operands give integer results: the clearing and the engine
    # never meet a Fraction
    a = dict(enumerate(vals))
    P, Q = evaluate(p, a), evaluate(q, a)
    ints = _all_ints(p, q)
    assert evaluate(_clean(p + q, ints), a) == P + Q
    assert evaluate(_clean(p - q, ints), a) == P - Q
    assert evaluate(_clean(-p, _all_ints(p)), a) == -P
    assert evaluate(_clean(p * q, ints), a) == P * Q
    assert evaluate(_clean(p ** k, _all_ints(p)), a) == P ** k
    assert evaluate(_clean(p.scale(c), _all_ints(p) and type(c) is int), a) == P * c
    assert _clean(p.scale(1), _all_ints(p)) == p


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
    lm = mono_lcm(leading_monomial(f, order), leading_monomial(g, order))
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


def test_clear_relations_clears_nested_quotients():
    table = make_table("A", "B", "C")
    A, B, C = PointRef(0), PointRef(1), PointRef(2)
    e = Div(Sub(A, B), Sub(B, C))
    (num,), factors = clear_relations([e], table)
    a = Polynomial.variable(table, 0)
    b = Polynomial.variable(table, 1)
    c = Polynomial.variable(table, 2)
    assert num == a - b
    assert factors == [b - c]


def test_clear_relations_registers_each_factor_once():
    table = make_table("A", "B", "C")
    A, B, C = PointRef(0), PointRef(1), PointRef(2)
    inner = Div(Sub(A, B), Sub(B, C))
    e = Div(inner, Div(Sub(B, C), Sub(A, C)))
    _, factors = clear_relations([e], table)
    keys = {frozenset(f.terms.items()) for f in factors}
    assert len(keys) == len(factors)
    b_minus_c = Polynomial.variable(table, 1) - Polynomial.variable(table, 2)
    assert any(f == b_minus_c for f in factors)


def test_clear_relations_folds_constant_denominators():
    # (A + B)/2 clears to 2 * (A + B)/2: the constant divisor leaves no
    # factor and no Fraction
    table = make_table("A", "B")
    e = Div(Add(PointRef(0), PointRef(1)), Const(Fraction(2)))
    (num,), factors = clear_relations([e], table)
    assert factors == []
    want = (Polynomial.variable(table, 0) + Polynomial.variable(table, 1)).scale(Fraction(1, 2))
    s = _scale_of(num, want)
    assert s == 2 and num == want.scale(s)
    _clean(num, ints=True)


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
    # num/den must equal s times the expression wherever no denominator
    # factor vanishes, den being the product of factors the reference builds
    # and s the positive integer the clearing leaves; a divisor that clears
    # to zero divides by zero everywhere
    table = make_table("A", "B")
    assign = {0: a, 1: b}
    try:
        (num,), factors = clear_relations([e], table)
    except ZeroDenominatorError:
        with pytest.raises(ZeroDivisionError):
            expr_evaluate(e, assign)
        return
    ref, den, _ = reference_normalize(e, table)
    s = _scale_of(num, ref)
    for p in (num, *factors):
        _clean(p, ints=True)
    _clean(den)
    if any(evaluate(f, assign) == 0 for f in factors):
        return
    assert evaluate(num, assign) / evaluate(den, assign) == expr_evaluate(e, assign) * s


@given(exprs, st.sampled_from([("A", "B"), ("A", "B", "C", "D", "r1", "r")]))
@settings(max_examples=300, deadline=None)
def test_normalize_matches_the_reference(e, names):
    # the integer walk returns what clearing on Polynomials at every node
    # returns, up to a positive integer scale of the numerator, the factors
    # in the same order, and fails on the same input
    table = make_table(*names)
    try:
        num, _, want = reference_normalize(e, table)
    except ZeroDenominatorError:
        with pytest.raises(ZeroDenominatorError):
            clear_relations([e], table)
        return
    nums, factors = clear_relations([e], table)
    s = _scale_of(nums[0], num)
    assert (nums, factors) == ([num.scale(s)], want)
    for f in factors:
        assert f == reference_primitive(f)[1]


@given(st.lists(exprs, min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_clear_relations_matches_the_reference(es):
    # each numerator as the reference gives it, up to a positive integer
    # scale, and the factors of all the expressions once each, in
    # first-seen order
    table = make_table("A", "B", "r")
    try:
        want = [reference_normalize(e, table) for e in es]
    except ZeroDenominatorError:
        with pytest.raises(ZeroDenominatorError):
            clear_relations(es, table)
        return
    nums, factors = clear_relations(es, table)
    assert len(nums) == len(want)
    for got, (num, _, _) in zip(nums, want):
        assert got == num.scale(_scale_of(got, num))
    assert factors == list(dict.fromkeys(f for _, _, fs in want for f in fs))


def test_normalize_refuses_a_degree_beyond_the_packed_field():
    table = make_table("A")
    big = Pow(PointRef(0), 1 << 14)
    (num,), _ = clear_relations([Mul(big, Pow(PointRef(0), (1 << 14) - 1))], table)
    assert num.total_degree == (1 << 15) - 1
    with pytest.raises(AlgebraError, match="total degree 32768"):
        clear_relations([Mul(big, big)], table)


def test_random_polynomial_helper_stays_in_bounds():
    rng = random.Random(7)
    table = make_table("x", "y")
    for _ in range(50):
        p = random_polynomial(rng, table, [0, 1], max_degree=3, max_terms=4)
        assert p.total_degree <= 3
        assert len(p.terms) <= 4
