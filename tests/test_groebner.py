"""Buchberger engine: the packed monomials, the reducer cache, known bases,
determinism, self-consistency on random systems, the sympy and resultant
oracles, and budget behaviour."""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cni_prover.algebra_core import (
    _FIELD,
    _HALF,
    AlgebraError,
    Block,
    GrevLex,
    Polynomial,
    _Packing,
)
from cni_prover import prover
from cni_prover.cli_dsl import SourceProgram, parse
from cni_prover.geometry_model import build_system, fix_coordinates, substitute_declaratives
from cni_prover.prover import prove
from cni_prover.groebner import (
    GroebnerConfig,
    GroebnerTimeout,
    _Budget,
    _enter,
    _reduce,
    eliminate,
    groebner_basis,
    ideal_is_trivial,
)

from support import (
    from_sympy,
    in_ideal,
    is_primitive,
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
    s_polynomial,
    to_sympy,
)


CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


def _vars(table):
    return [Polynomial.variable(table, i) for i in range(len(table))]


@st.composite
def _order_and_monomials(draw):
    """An order over n variables, of one of the three shapes the engine
    packs, and three monomials that are zero outside the order."""
    n = draw(st.integers(1, 5))
    perm = tuple(draw(st.permutations(range(n))))
    shape = draw(st.sampled_from(["grevlex", "partial", "block"]))
    if shape == "grevlex":
        order = GrevLex(perm)
    elif shape == "partial":
        perm = perm[: draw(st.integers(0, n))]
        order = GrevLex(perm)
    else:
        order = Block(GrevLex(perm[:1]), GrevLex(perm[1:]))
    inside = set(perm)
    exps = st.integers(0, 6)
    monos = [
        tuple(draw(exps) if v in inside else 0 for v in range(n)) for _ in range(3)
    ]
    return order, n, monos


@given(_order_and_monomials())
@settings(max_examples=300, deadline=None)
def test_packing_is_the_order_and_the_monoid(case):
    order, n, (a, b, c) = case
    pk = _Packing(order, n)
    pa, pb = pk.pack(a), pk.pack(b)
    assert (pa < pb) == (order_key(order, a) < order_key(order, b))
    assert (pa == pb) == (a == b)
    assert pa + pb == pk.pack(mono_mul(a, b))
    assert pk.reader(n)(pa) == a
    for x, y in ((a, b), (mono_mul(a, c), a), (a, mono_mul(a, c))):
        assert pk.divides(pk.pack(y), pk.pack(x)) == (mono_div(x, y) is not None)


@st.composite
def _order_and_wide_monomials(draw):
    """An order over n variables and two monomials whose exponents are zero,
    the largest a field holds, or anything between."""
    n = draw(st.integers(1, 5))
    perm = tuple(draw(st.permutations(range(n))))
    k = draw(st.integers(0, n))
    order = draw(st.sampled_from(
        [GrevLex(perm), GrevLex(perm[:k]), Block(GrevLex(perm[:k]), GrevLex(perm[k:]))]
    ))
    exps = st.one_of(
        st.just(0), st.just(_HALF - 1), st.integers(0, 3), st.integers(0, _HALF - 1)
    )
    a, b = (tuple(draw(exps) for _ in range(n)) for _ in range(2))
    return order, n, a, b


@given(_order_and_wide_monomials())
@settings(max_examples=500, deadline=None)
def test_lcm_on_exponent_fields_is_the_packed_lcm(case):
    order, n, a, b = case
    pk = _Packing(order, n)

    def fields(m):
        return sum(e << s for e, s in zip(m, pk.shifts))

    lcm = mono_lcm(a, b)
    (got,) = pk.lcms(fields(a), [fields(b)])
    assert got == fields(lcm)
    assert pk.lcms(fields(b), [fields(a), fields(b)]) == [got, fields(b)]
    if sum(lcm) < _HALF:
        assert pk.lift(got) == pk.pack(lcm)
        assert pk.lift(got) & pk.exp == got
    else:
        # the total degree would carry out of its field
        with pytest.raises(AlgebraError):
            pk.lift(got)


def test_degree_beyond_the_packed_field_raises():
    table = make_table("t", "x")
    big = 1 << 15
    # an input monomial that does not fit
    with pytest.raises(AlgebraError, match="total degree 32768"):
        groebner_basis([Polynomial(table, {(0, big): 1, (0, 0): -1})], GrevLex((0, 1)))
    # inputs that fit, whose S-polynomial lcm t^20000*x^20000 does not
    f = Polynomial(table, {(20000, 1): 1, (0, 0): -1})
    g = Polynomial(table, {(1, 20000): 1, (0, 0): -1})
    with pytest.raises(AlgebraError, match="total degree 32768"):
        groebner_basis([f, g], GrevLex((0, 1)))
    # under the block order eliminating t, reducing t^2 + 1 by t - x^20000
    # reaches x^40000
    h = Polynomial(table, {(1, 0): 1, (0, 20000): -1})
    k = Polynomial(table, {(2, 0): 1, (0, 0): 1})
    with pytest.raises(AlgebraError, match="total degree 32768"):
        eliminate([h, k], [0])


@given(st.randoms(use_true_random=False), st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_reducer_cache_survives_appended_reducers(rng, k):
    # reduce f by the first k reducers, append the rest to the same list,
    # then reduce g and f again: a shared cache must give the remainders a
    # fresh one gives, which are the reference normal forms
    table = make_table("x", "y", "z")
    order = GrevLex((0, 1, 2))
    pk = _Packing(order, 3)
    budget = _Budget(GroebnerConfig(timeout=None))

    def rand():
        return random_polynomial(rng, table, [0, 1, 2], max_degree=3, max_terms=4)

    gens = [p for p in (rand() for _ in range(5)) if not p.is_zero]
    f, g = rand(), rand()
    full = _enter(gens, pk)
    reducers = full[:k]
    cache = {}

    def check(h):
        terms = {pk.pack(m): c for m, c in h.terms.items()}
        rem = _reduce(terms, reducers, pk, budget, cache)
        assert rem == _reduce(terms, list(reducers), pk, budget, {})
        got = Polynomial(table, {pk.reader(3)(m): c for m, c in rem.items()})
        want = normal_form(h, gens[: len(reducers)], order)
        assert monic(got, order) == monic(want, order)
        assert not any(pk.divides(r.lm, m) for r in reducers for m in rem)

    check(f)
    reducers.extend(full[k:])
    check(g)
    check(f)


def test_repeated_and_scaled_generators_give_the_same_basis():
    # the minimal basis comes from every element the pair loop kept, so
    # repeats, scalar multiples and shared leading monomials in the input
    # must not change the reduced basis
    rng = random.Random(31)
    table = make_table("x", "y", "z")
    order = GrevLex((0, 1, 2))
    syms = sympy.symbols("x y z")
    done = 0
    while done < 20:
        base = [
            random_polynomial(rng, table, [0, 1, 2], max_degree=2, max_terms=3)
            for _ in range(rng.randint(2, 3))
        ]
        base = [p for p in base if not p.is_zero]
        base.sort(key=lambda p: order_key(order, leading_monomial(p, order)))
        lms = [leading_monomial(p, order) for p in base]
        if len(base) < 2 or lms[0] == lms[-1]:
            continue
        # in the ideal, with the leading monomial of base[-1]
        dedup = base + [base[-1] + base[0]]
        expected = groebner_basis(dedup, order)
        if ideal_is_trivial(expected):
            continue
        noisy = dedup + [base[0], base[-1].scale(-3), dedup[-1].scale(7)]
        rng.shuffle(noisy)
        mine = groebner_basis(noisy, order).generators
        assert mine == expected.generators
        ref = sympy.groebner([to_sympy(p, syms) for p in dedup], *syms, order="grevlex")
        assert {monic(g, order) for g in mine} == {
            monic(from_sympy(e, table, syms), order) for e in ref.exprs
        }
        done += 1


def test_a_fraction_coefficient_is_rejected_at_the_entry():
    # the engine is fraction-free, so a Fraction coefficient is an error,
    # in an input and in a factor to saturate by alike
    table = make_table("x", "y", "z")
    x, y, z = (Polynomial.variable(table, v) for v in range(3))
    half_y = x + Polynomial.constant(table, Fraction(1, 2)) * y
    calls = [
        lambda: groebner_basis([half_y], GrevLex((0, 1, 2))),
        lambda: eliminate([half_y, y - z], [1]),
        lambda: eliminate([y - z], [1], saturate=[half_y]),
    ]
    for call in calls:
        with pytest.raises(AlgebraError, match=r"coefficient Fraction\(1, 2\) is not an integer"):
            call()


@pytest.mark.parametrize("timeout", [0, -1.0, float("nan")])
def test_a_budget_that_is_not_positive_is_rejected(timeout):
    # a NaN deadline would never fire: monotonic() > nan is always False
    with pytest.raises(ValueError, match="timeout must be positive"):
        GroebnerConfig(timeout=timeout)


def test_no_budget_is_no_limit():
    assert _Budget(GroebnerConfig(timeout=None)).deadline is None
    assert _Budget(GroebnerConfig(timeout=1.0)).deadline is not None


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_generators_leave_integer_primitive(rng):
    # every generator leaves the engine with coprime integer coefficients
    # and a positive leading coefficient under the run's order; for an
    # elimination that order is the print order on the kept variables, so
    # documents print the generators as they are
    table = make_table("x", "y", "z", "w")
    polys = [
        random_polynomial(rng, table, range(4), max_degree=2, max_terms=3).scale(
            rng.randint(1, 6)
        )
        for _ in range(rng.randint(1, 3))
    ]
    factors = [
        random_polynomial(rng, table, range(4), max_degree=1, max_terms=2).scale(
            rng.randint(-6, 6) or 1
        )
        for _ in range(rng.randint(0, 2))
    ]
    elim = tuple(sorted(rng.sample(range(4), rng.randint(1, 2))))
    kept = GrevLex(tuple(v for v in range(4) if v not in elim))
    order = rng.choice([Block(GrevLex(elim), kept), GrevLex((3, 1, 0, 2))])
    config = GroebnerConfig(timeout=None)
    runs = [
        (eliminate(polys, elim, config, saturate=factors).generators, [kept, print_order(table)]),
        (groebner_basis(polys, order, config).generators, [order]),
    ]
    for gens, orders in runs:
        for g in gens:
            assert is_primitive(g)
            for order in orders:
                assert leading_coefficient(g, order) > 0


def test_single_generator_is_its_own_basis():
    table = make_table("x", "y")
    x, y = _vars(table)
    order = GrevLex((0, 1))
    gb = groebner_basis([x], order)
    assert gb.generators == (x,)


def test_shifted_generator():
    table = make_table("x")
    (x,) = _vars(table)
    one = Polynomial.constant(table, 1)
    gb = groebner_basis([x - one], GrevLex((0,)))
    assert gb.generators == (x - one,)


def test_two_univariate_generators_reduce_to_gcd():
    table = make_table("x")
    (x,) = _vars(table)
    one = Polynomial.constant(table, 1)
    # gcd(x^2 - 1, x - 1) = x - 1
    gb = groebner_basis([x * x - one, x - one], GrevLex((0,)))
    assert gb.generators == (x - one,)


def test_classic_lex_elimination_shape():
    table = make_table("x", "y")
    x, y = _vars(table)
    one = Polynomial.constant(table, 1)
    gb = groebner_basis([y * y - one, x - y], GrevLex((0, 1)))
    # the textbook lex basis x - y, y^2 - 1 is also the reduced grevlex one
    assert set(gb.generators) == {x - y, y * y - one}
    assert in_ideal(x * x - one, gb)


def test_trivial_ideal_detection():
    table = make_table("x")
    (x,) = _vars(table)
    one = Polynomial.constant(table, 1)
    gb = groebner_basis([x - one, x + one], GrevLex((0,)))
    assert ideal_is_trivial(gb)
    assert gb.generators == (one,)


def test_empty_and_zero_inputs():
    table = make_table("x")
    gb = groebner_basis([Polynomial.zero(table)], GrevLex((0,)))
    assert gb.generators == ()
    assert not ideal_is_trivial(gb)
    assert in_ideal(Polynomial.zero(table), gb)
    assert not in_ideal(Polynomial.variable(table, 0), gb)


def test_determinism_and_input_order_independence():
    rng = random.Random(11)
    table = make_table("x", "y", "z")
    order = GrevLex((0, 1, 2))
    for _ in range(20):
        polys = [random_polynomial(rng, table, [0, 1, 2]) for _ in range(3)]
        polys = [p for p in polys if not p.is_zero]
        if not polys:
            continue
        a = groebner_basis(polys, order).generators
        b = groebner_basis(polys, order).generators
        assert a == b
        shuffled = polys[::-1]
        c = groebner_basis(shuffled, order).generators
        assert a == c


def test_basis_is_autoreduced():
    rng = random.Random(5)
    table = make_table("x", "y")
    order = GrevLex((0, 1))
    for _ in range(20):
        polys = [random_polynomial(rng, table, [0, 1]) for _ in range(2)]
        polys = [p for p in polys if not p.is_zero]
        if not polys:
            continue
        gens = groebner_basis(polys, order).generators
        for i, g in enumerate(gens):
            assert is_primitive(g) and leading_coefficient(g, order) > 0
            others = [h for j, h in enumerate(gens) if j != i]
            if not others:
                continue
            lms = [leading_monomial(h, order) for h in others]
            for m in g.terms:
                assert not any(mono_div(m, lm) is not None for lm in lms)


def test_random_systems_reduce_and_spolys_vanish():
    # acceptance criterion: 100 random systems, inputs and S-polynomials
    # all reduce to zero against the computed basis
    rng = random.Random(20240817)
    table = make_table("x", "y", "z")
    order = GrevLex((0, 1, 2))
    checked = 0
    while checked < 100:
        polys = [
            random_polynomial(rng, table, [0, 1, 2], max_degree=3, max_terms=3)
            for _ in range(rng.randint(1, 3))
        ]
        polys = [p for p in polys if not p.is_zero]
        if not polys:
            continue
        gens = groebner_basis(polys, order).generators
        if not gens:
            continue
        for p in polys:
            assert normal_form(p, gens, order).is_zero
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                s = s_polynomial(gens[i], gens[j], order)
                assert normal_form(s, gens, order).is_zero
        checked += 1
    assert checked == 100


def test_reduced_basis_matches_sympy():
    rng = random.Random(99)
    table = make_table("x", "y", "z")
    order = GrevLex((0, 1, 2))
    syms = sympy.symbols("x y z")
    done = 0
    while done < 25:
        polys = [
            random_polynomial(rng, table, [0, 1, 2], max_degree=2, max_terms=3)
            for _ in range(rng.randint(1, 3))
        ]
        polys = [p for p in polys if not p.is_zero]
        if not polys:
            continue
        mine = groebner_basis(polys, order).generators
        ref = sympy.groebner([to_sympy(p, syms) for p in polys], *syms, order="grevlex")
        theirs = tuple(
            monic(from_sympy(g, table, syms), order) for g in ref.exprs
        )
        assert {monic(g, order) for g in mine} == set(theirs), f"disagree on {polys}"
        done += 1
    assert done == 25


def test_elimination_matches_sympy_lex():
    # the elimination ideal is what a lex basis with the eliminated
    # variables first keeps of the kept variables, re-based under grevlex.
    # Most draws add a Rabinowitsch variable u, often with a d*u - 1
    # generator, so that the one block holds u alone, u and others, only
    # others, or u when no generator contains it.
    rng = random.Random(2718)
    paths = set()
    done = 0
    while done < 40:
        table = make_table("x", "y", "z")
        if rng.random() < 0.75:
            table.add("u")
        n = len(table)
        syms = sympy.symbols("x y z u")[:n]
        polys = [
            random_polynomial(rng, table, [0, 1, 2], max_degree=2, max_terms=3)
            for _ in range(rng.randint(1, 3))
        ]
        if n == 4 and rng.random() < 0.6:
            d = random_polynomial(rng, table, [0, 1, 2], max_degree=2, max_terms=3)
            polys.append(d * Polynomial.variable(table, 3) - Polynomial.constant(table, 1))
        polys = [p for p in polys if not p.is_zero]
        if not polys:
            continue
        elim = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        if n == 4 and rng.random() < 0.25:
            elim = [3]
        kept = [v for v in range(n) if v not in elim]
        res = eliminate(polys, elim)
        lex_gens = [syms[v] for v in elim + kept]
        lex = sympy.groebner([to_sympy(p, syms) for p in polys], *lex_gens, order="lex")
        kept_syms = [syms[v] for v in kept]
        free = [g for g in lex.exprs if not g.free_symbols & {syms[v] for v in elim}]
        theirs = set()
        if free:
            ref = sympy.groebner(free, *kept_syms, order="grevlex")
            theirs = {monic(from_sympy(g, table, syms), GrevLex(tuple(kept))) for g in ref.exprs}
        mine = {monic(g, GrevLex(tuple(kept))) for g in res.generators}
        assert mine == theirs, f"disagree on {polys}, eliminating {elim}"
        u_in_input = n == 4 and any(p.contains_var(3) for p in polys)
        paths.add((u_in_input, 3 in elim, elim != [3]))
        done += 1
    assert {
        (True, True, False),  # u alone
        (True, True, True),  # u and others
        (False, True, False),  # u eliminated but absent
        (False, True, True),
        (False, False, True),
    } <= paths, paths


def test_saturation_matches_sympy_lex():
    # saturating by d_1..d_m is eliminating u_1..u_m, one past the table for
    # each factor, from the ideal plus each d_k*u_k - 1: the oracle is the
    # lex basis with the eliminated variables, then the u_k, first. One
    # generator has a factor as a factor, so saturating often removes a
    # component and leaves a proper ideal.
    rng = random.Random(1618)
    table = make_table("x", "y", "z")
    syms = sympy.symbols("x y z u1 u2")
    changed = 0
    done = 0
    while done < 30:
        factors = [
            random_polynomial(rng, table, [0, 1, 2], max_degree=1, max_terms=2)
            for _ in range(rng.randint(1, 2))
        ]
        polys = [
            random_polynomial(rng, table, [0, 1, 2], max_degree=2, max_terms=2)
            for _ in range(rng.randint(1, 2))
        ]
        if any(p.is_zero for p in polys) or any(d.is_constant for d in factors):
            continue
        polys[0] = polys[0] * rng.choice(factors)
        elim = sorted(rng.sample(range(3), rng.randint(1, 2)))
        kept = [v for v in range(3) if v not in elim]
        res = eliminate(polys, elim, saturate=factors)
        us = syms[3:3 + len(factors)]
        gens = [to_sympy(p, syms) for p in polys]
        gens += [to_sympy(d, syms) * u - 1 for d, u in zip(factors, us)]
        lex = sympy.groebner(gens, *[syms[v] for v in elim], *us, *[syms[v] for v in kept], order="lex")
        gone = {syms[v] for v in elim} | set(us)
        free = [g for g in lex.exprs if not g.free_symbols & gone]
        theirs = set()
        if free:
            ref = sympy.groebner(free, *[syms[v] for v in kept], order="grevlex")
            theirs = {monic(from_sympy(g, table, syms[:3]), GrevLex(tuple(kept))) for g in ref.exprs}
        mine = {monic(g, GrevLex(tuple(kept))) for g in res.generators}
        assert mine == theirs, f"disagree on {polys}, saturating by {factors}"
        plain = eliminate(polys, elim).generators
        changed += res.generators != plain and not ideal_is_trivial(res)
        done += 1
    assert changed >= 5


def test_elimination_of_a_parameter():
    # x = t, y = t^2 lies on y = x^2
    table = make_table("t", "x", "y")
    t, x, y = _vars(table)
    res = eliminate([x - t, y - t * t], [0])
    assert res.eliminated == (0,)
    assert in_ideal(y - x * x, res, GrevLex((1, 2)))
    for g in res.generators:
        assert not g.contains_var(0)


def test_block_run_keeps_the_block_free_part_of_the_reduced_basis():
    # the block run interreduces only the elements it keeps; they must be
    # exactly the block-free elements of the whole reduced basis under the
    # same block order, and reduced among themselves. Its minimal basis,
    # kept for a continued run, has the reduced basis' leading monomials.
    # Generators free of the block make a block-free part of several
    # elements likely.
    rng = random.Random(4242)
    for _ in range(200):
        n = rng.randint(3, 4)
        table = make_table(*"wxyz"[:n])
        block = tuple(sorted(rng.sample(range(n), rng.randint(1, 2))))
        rest = tuple(v for v in range(n) if v not in block)
        polys = [
            random_polynomial(rng, table, variables, max_degree=2, max_terms=4)
            for variables in [range(n)] * rng.randint(1, 2) + [rest] * rng.randint(1, 3)
        ]
        polys = [p for p in polys if not p.is_zero]
        if not polys:
            continue
        order = Block(GrevLex(block), GrevLex(rest))
        full = groebner_basis(polys, order).generators
        res = eliminate(polys, block, GroebnerConfig(timeout=None))
        kept = res.generators
        assert kept == tuple(g for g in full if not any(g.contains_var(v) for v in block))
        pk = res.packing
        assert [pk.reader(len(table))(g.lm) for g in res.block_basis] == [
            leading_monomial(g, order) for g in full
        ]
        lms = [leading_monomial(g, order) for g in kept]
        for i, g in enumerate(kept):
            for m in g.terms:
                assert not any(
                    mono_div(m, lm) is not None for j, lm in enumerate(lms) if j != i
                )


def test_elimination_with_rabinowitsch_variable():
    # u*x - 1 forbids x = 0, so x*y in the ideal forces y into the
    # eliminated ideal; saturating by x builds that generator
    table = make_table("x", "y", "u")
    X, Y, U = _vars(table)
    one = Polynomial.constant(table, 1)
    res = eliminate([U * X - one, X * Y], [0, 2])
    assert in_ideal(Y, res, GrevLex((1,)))
    assert eliminate([X * Y], [0, 2], saturate=[X]).generators == res.generators
    # a nonzero constant factor cannot vanish and changes nothing
    plain = eliminate([X * Y, X - Y * Y], [0])
    assert eliminate([X * Y, X - Y * Y], [0], saturate=[one.scale(3)]) == plain
    # a zero factor vanishes everywhere: the ideal is the whole ring, with
    # or without other generators
    for F in ([X * Y], []):
        assert ideal_is_trivial(eliminate(F, [0], saturate=[Polynomial.zero(table)]))
    # saturating nothing but a nonzero factor leaves the zero ideal
    assert eliminate([], [0], saturate=[X - Y]).generators == ()


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_order_inside_the_block_does_not_change_the_elimination(rng):
    # by the elimination theorem any order of the eliminated block gives the
    # same block-free part of the reduced basis: here every permutation of
    # the points and explicit Rabinowitsch variables u_k, one per factor
    # d_k with d_k*u_k - 1 among the generators, must give what eliminate
    # prints
    table = make_table("x", "y", "z", "w")
    factors = [
        random_polynomial(rng, table, range(4), max_degree=1, max_terms=2)
        for _ in range(rng.randint(1, 2))
    ]
    factors = [d for d in factors if not d.is_constant]
    elim = tuple(sorted(rng.sample(range(4), rng.randint(1, 2))))
    kept = tuple(v for v in range(4) if v not in elim)
    # one generator more than eliminated variables, so that the elimination
    # ideal is seldom zero; a nonzero constant would make it trivial
    polys = [
        random_polynomial(rng, table, range(4), max_degree=2, max_terms=3)
        for _ in range(len(elim) + 1)
    ]
    polys = [p for p in polys if not p.is_constant]
    if polys:
        for d in factors:
            polys[0] = polys[0] * d  # each factor's saturation removes a component
    expected = eliminate(polys, elim, GroebnerConfig(timeout=None), saturate=factors)

    ext = make_table("x", "y", "z", "w", *(f"u{k}" for k in range(len(factors))))
    us = tuple(range(4, len(ext)))

    def lift(p):
        return Polynomial(ext, {m + (0,) * len(us): c for m, c in p.terms.items()})

    gens = [lift(p) for p in polys] + [
        lift(d) * Polynomial.variable(ext, u) - Polynomial.constant(ext, 1)
        for d, u in zip(factors, us)
    ]
    perm = tuple(rng.sample(elim + us, len(elim + us)))
    basis = groebner_basis(gens, Block(GrevLex(perm), GrevLex(kept)), GroebnerConfig(timeout=None))
    free = tuple(
        Polynomial(table, {m[:4]: c for m, c in g.terms.items()})
        for g in basis.generators
        if not any(g.contains_var(v) for v in perm)
    )
    assert free == expected.generators


def test_continued_elimination():
    # y*z = 1 and z = 2 leave 2*y = 1
    table = make_table("x", "y", "z")
    x, y, z = _vars(table)
    one = Polynomial.constant(table, 1)
    first = eliminate([x - y, y * z - one], [0])
    second = eliminate([z - one.scale(2)], [0], after=first)
    assert second.generators == eliminate([x - y, y * z - one, z - one.scale(2)], [0]).generators
    assert set(second.generators) == {y.scale(2) - one, z - one.scale(2)}
    with pytest.raises(AlgebraError, match="same variables"):
        eliminate([z - one.scale(2)], [1], after=first)
    # a continued run inherits the saturation of the run it continues
    with pytest.raises(AlgebraError, match="inherits"):
        eliminate([z - one.scale(2)], [0], after=first, saturate=[y])
    saturated = eliminate([x * z - x], [0], saturate=[x])
    assert eliminate([z - y], [0], after=saturated).generators == eliminate(
        [x * z - x, z - y], [0], saturate=[x]
    ).generators


# Translation-invariant systems: three points a, b, c, the eliminated
# block, and two slacks s, t. Every generator and factor built from point
# differences and slacks is invariant under moving all points by the same
# t, so eliminate may set the last point that occurs to 0.

_POINTS = (0, 1, 2)


def _difference(rng, table):
    i, j = rng.sample(_POINTS, 2)
    return Polynomial.variable(table, i) - Polynomial.variable(table, j)


def _invariant_polynomial(rng, table):
    """A sum of up to three terms, each an integer times a product of at
    most two point differences and slacks."""
    out = Polynomial.zero(table)
    for _ in range(rng.randint(1, 3)):
        term = Polynomial.constant(table, rng.choice([-3, -2, -1, 1, 2, 5]))
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.6:
                term = term * _difference(rng, table)
            else:
                term = term * Polynomial.variable(table, rng.choice((3, 4)))
        out = out + term
    return out


def _invariant_system(rng):
    """(table, polys, factors): three invariant generators, so that the
    elimination ideal is seldom zero, and up to two factors, each a point
    difference, possibly plus a slack."""
    table = make_table("a", "b", "c", "s", "t")
    polys = [p for p in (_invariant_polynomial(rng, table) for _ in range(3)) if not p.is_zero]
    factors = []
    for _ in range(rng.randint(0, 2)):
        d = _difference(rng, table)
        if rng.random() < 0.3:
            d = d + Polynomial.variable(table, rng.choice((3, 4)))
        factors.append(d)
    return table, polys, factors


def _explicit_elimination(table, polys, factors, elim):
    """The block-free part of groebner_basis with one explicit generator
    d_k*u_k - 1 per factor, under the order eliminate runs: Block(GrevLex(us
    + elim), GrevLex(kept)). groebner_basis translates nothing."""
    n = len(table)
    ext = make_table(*table.names(), *(f"u{k}" for k in range(len(factors))))
    us = tuple(range(n, len(ext)))
    kept = tuple(v for v in range(n) if v not in elim)

    def lift(p):
        return Polynomial(ext, {m + (0,) * len(us): c for m, c in p.terms.items()})

    gens = [lift(p) for p in polys] + [
        lift(d) * Polynomial.variable(ext, u) - Polynomial.constant(ext, 1)
        for d, u in zip(factors, us)
    ]
    order = Block(GrevLex(us + tuple(elim)), GrevLex(kept))
    basis = groebner_basis(gens, order, GroebnerConfig(timeout=None))
    return ext, gens, order, tuple(
        Polynomial(table, {m[:n]: c for m, c in g.terms.items()})
        for g in basis.generators
        if not any(g.contains_var(v) for v in us + tuple(elim))
    )


def _block_basis(res, ext):
    """The run's minimal block basis as Polynomials over ext, the table
    with the Rabinowitsch variables appended."""
    read = res.packing.reader(len(ext))
    return [Polynomial(ext, {read(m): c for m, c in g.terms.items()}) for g in res.block_basis]


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_a_translation_invariant_elimination_drops_the_last_point(rng):
    # the elimination ideal of an invariant system does not change when the
    # last point that occurs is set to 0: the generators are those of the
    # explicit saturation, which no translation touches
    table, polys, factors = _invariant_system(rng)
    res = eliminate(polys, _POINTS, GroebnerConfig(timeout=None), saturate=factors)
    _, _, _, expected = _explicit_elimination(table, polys, factors, _POINTS)
    assert res.generators == expected
    occurring = [v for v in _POINTS if any(p.contains_var(v) for p in polys + factors)]
    assert res.origin == (occurring[-1] if occurring else None)


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_one_generator_that_is_not_invariant_turns_the_translation_off(rng):
    # one point alone, in a generator or in a factor, breaks the invariance:
    # nothing is dropped, and the block basis is a basis of the ideal as
    # given, so every generator and every d_k*u_k - 1 reduces to zero by it.
    # The system may still be homogeneous in the points; then the block
    # basis is a basis of the system with scale = 1 solved for a point.
    table, polys, factors = _invariant_system(rng)
    odd = Polynomial.variable(table, rng.choice(_POINTS))
    if factors and rng.random() < 0.5:
        factors[-1] = factors[-1] + odd
    else:
        polys.append(_invariant_polynomial(rng, table) + odd)
    res = eliminate(polys, _POINTS, GroebnerConfig(timeout=None), saturate=factors)
    ext, gens, order, expected = _explicit_elimination(table, polys, factors, _POINTS)
    assert res.origin is None
    assert res.generators == expected
    if res.scale is not None:
        ext, gens, order, _ = _explicit_elimination(table, *_solved_system(table, polys, factors, res)[:2], _POINTS)
    basis = _block_basis(res, ext)
    for g in gens:
        assert normal_form(g, basis, order).is_zero


@pytest.mark.parametrize("fix", ["zero_one", "minus_one_one", "off"])
def test_the_corpus_runs_that_are_translated(fix, monkeypatch):
    # pinning leaves the system of point differences as it is, so every
    # run, pinned or not, is translated, to the last point that occurs, and
    # a second elimination keeps the first's origin
    runs = []

    def recording(F, elim, config=None, after=None, saturate=()):
        runs.append((list(F) + list(saturate), elim, after, eliminate(F, elim, config, after, saturate)))
        return runs[-1][-1]

    monkeypatch.setattr(prover, "eliminate", recording)
    translated = set()
    for path in sorted(CORPUS.glob("*.cni")):
        if path.stem.startswith("bad_") or path.stem == "pappus":
            continue
        c = substitute_declaratives(parse(SourceProgram(path.read_text(), path.stem)))
        runs.clear()
        prove(fix_coordinates(build_system(c), c, fix), timeout=60.0)
        (inputs, elim, _, first), *rest = runs
        if first.origin is not None:
            translated.add(path.stem)
            assert first.origin == max(v for v in elim if any(p.contains_var(v) for p in inputs))
        for _, _, after, res in rest:
            assert after is first and res.origin == first.origin
    assert len(translated) == 19


# Scale-invariant systems: the same three points and two slacks. A
# generator or factor whose terms all have one total degree in the points
# is homogeneous in them, and when all are, eliminate may set the first
# factor of degree 1 to 1.


def _point_degrees(p):
    """The total degrees in the points of p's terms."""
    return {sum(m[v] for v in _POINTS) for m in p.terms}


def _is_linear_form(p):
    """Each of p's terms is an integer times one point."""
    return bool(p.terms) and all(sum(m) == 1 and any(m[v] for v in _POINTS) for m in p.terms)


def _solved_system(table, polys, factors, res):
    """(polys, factors, w): the system a scaled run res enters, built here
    over the rationals. Each polynomial loses its terms in res.origin, when
    the run was translated, and then takes x_w = r, with x_w the first
    point of the scale l so translated, c its coefficient and r = (1 - (l -
    c*x_w))/c, times c^k for k its degree in x_w, which leaves integer
    coefficients; the factors that turn into nonzero constants are left
    out, and the others are listed once up to a constant, in their order.
    The constant matters for a factor d, as d*u - 1 fixes u."""
    n = len(table)

    def moved(p):
        if res.origin is None:
            return p
        return Polynomial(table, {m: c for m, c in p.terms.items() if not m[res.origin]})

    line = moved(res.scale)
    w = min(v for v in _POINTS if line.contains_var(v))
    c = line.terms[tuple(int(v == w) for v in range(n))]
    x_w = Polynomial.variable(table, w)
    r = (Polynomial.constant(table, 1) - line + x_w.scale(c)).scale(Fraction(1, c))

    def solved(p):
        p = moved(p)
        out = Polynomial.zero(table)
        for m, a in p.terms.items():
            out = out + Polynomial(table, {m[:w] + (0,) + m[w + 1:]: a}) * r ** m[w]
        out = out.scale(c ** p.degree_in(w))
        assert all(Fraction(a).denominator == 1 for a in out.terms.values())
        return Polynomial(table, {m: int(a) for m, a in out.terms.items()})

    order = print_order(table)
    kept = []
    for d in map(solved, factors):
        if (d.is_zero or not d.is_constant) and all(monic(d, order) != monic(e, order) for e in kept):
            kept.append(d)
    return [solved(p) for p in polys], kept, w


def _form(rng, table, degree, slack=0.4):
    """A sum of up to three terms, each an integer times `degree` points or
    point differences and, with probability `slack`, one slack, and a slack
    when `degree` is 0: homogeneous of that degree in the points, and
    invariant under a translation only by chance."""
    out = Polynomial.zero(table)
    for _ in range(rng.randint(1, 3)):
        term = Polynomial.constant(table, rng.choice([-3, -2, -1, 1, 2, 5]))
        for _ in range(degree):
            if rng.random() < 0.5:
                term = term * _difference(rng, table)
            else:
                term = term * Polynomial.variable(table, rng.choice(_POINTS))
        if not degree or rng.random() < slack:
            term = term * Polynomial.variable(table, rng.choice((3, 4)))
        out = out + term
    return out


def _homogeneous_system(rng, size=3):
    """(table, polys, factors): up to `size` generators of degree 0 to 2 in
    the points, and one nonzero factor of degree 1 among up to `size` - 1
    others of degree 0 to 2. A factor holds a slack only when it is of
    degree 0, as a geometric system's factors hold points only; a factor
    of degree 1 with a slack is never the scale
    (test_a_linear_factor_with_a_slack_is_never_the_scale)."""
    table = make_table("a", "b", "c", "s", "t")
    polys = [_form(rng, table, rng.randint(0, 2)) for _ in range(size)]
    factors = [_form(rng, table, rng.choice((0, 1, 2)), 0) for _ in range(rng.randint(0, size - 1))]
    polys = [p for p in polys if not p.is_zero]
    factors = [d for d in factors if not d.is_zero]
    line = Polynomial.zero(table)
    while line.is_zero:
        line = _form(rng, table, 1, 0)
    factors.insert(rng.randint(0, len(factors)), line)
    return table, polys, factors


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_a_homogeneous_elimination_sets_the_first_linear_factor_to_1(rng):
    # the elimination ideal of a system homogeneous in the points does not
    # change when the first factor of degree 1 is set to 1: the generators
    # are those of the explicit saturation by every factor
    table, polys, factors = _homogeneous_system(rng)
    res = eliminate(polys, _POINTS, GroebnerConfig(timeout=None), saturate=factors)
    _, _, _, expected = _explicit_elimination(table, polys, factors, _POINTS)
    assert res.generators == expected
    assert res.scale == next(d for d in factors if _point_degrees(d) == {1})


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_a_scaled_elimination_solves_the_linear_factor_for_its_first_point(rng):
    # the scale is a linear form whose first point may have a coefficient
    # other than +-1, after a factor of degree 1 with a slack, which is
    # never the scale; a multiple of it turns constant, and a factor times
    # it turns equal to that factor up to a constant. The generators are
    # those of the explicit saturation by every factor, no element of the
    # block basis holds the solved point, and the block basis generates
    # the solved system under the run's block order.
    table, polys, factors = _homogeneous_system(rng, 2)
    x = _vars(table)
    first = rng.choice((0, 1))
    line = x[first].scale(rng.choice((2, -2, 3, -3)))
    for v in _POINTS[first + 1:]:
        line = line + x[v].scale(rng.choice((-2, -1, 0, 1, 2)))
    factors = [line if _point_degrees(d) == {1} else d for d in factors]
    if rng.random() < 0.5:
        factors.insert(rng.randint(0, factors.index(line)), x[rng.choice(_POINTS)] * x[3] + line)
    if rng.random() < 0.5:
        factors.append(line.scale(rng.choice((-1, 3))))
    if rng.random() < 0.5:
        factors.append(rng.choice(factors) * line)
    res = eliminate(polys, _POINTS, GroebnerConfig(timeout=None), saturate=factors)
    ext, _, order, expected = _explicit_elimination(table, polys, factors, _POINTS)
    assert res.generators == expected
    assert res.scale == line == next(d for d in factors if _is_linear_form(d))
    solved_polys, solved_factors, w = _solved_system(table, polys, factors, res)
    assert w == first
    assert not any(m & (_FIELD << res.packing.shifts[w]) for g in res.block_basis for m in g.terms)
    ext, gens, order, _ = _explicit_elimination(table, solved_polys, solved_factors, _POINTS)
    assert groebner_basis(_block_basis(res, ext), order) == groebner_basis(gens, order)


def test_a_linear_factor_with_a_slack_is_never_the_scale():
    # solving it for a point would divide by a polynomial in the slacks. Set
    # to 1 as a whole, the second factor made this run take seconds, with
    # coefficients of thousands of bits; unscaled it takes a tenth of that.
    table = make_table("a", "b", "c", "s", "t")
    a, b, c, s, t = _vars(table)
    k = lambda n: Polynomial.constant(table, n)  # noqa: E731
    polys = [
        k(5) * b * c - k(5) * a * c - k(5) * a * b + k(5) * a * a,
        k(2) * (b * c * t + a * c * t - c * c * t - a * b - a * b * t - a * a * s),
        k(8) * b * c - k(3) * c * c - k(5) * a * c + a * c * s - k(5) * a * b + k(5) * a * a,
    ]
    factors = [
        b * c * t - k(3) * a * c - a * c * t + k(3) * a * b - k(3) * a * a,
        k(2) * c * s - k(3) * b - k(3) * b * t - k(2) * a * s,
        k(5) * b - k(2) * b * s + k(2) * a * s,
    ]
    start = time.process_time()
    res = eliminate(polys, _POINTS, GroebnerConfig(timeout=None), saturate=factors)
    elapsed = time.process_time() - start
    assert res.scale is None and res.origin is None
    assert res.generators == _explicit_elimination(table, polys, factors, _POINTS)[3]
    assert elapsed < 1.0


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_one_generator_that_is_not_homogeneous_turns_the_scale_off(rng):
    # one term of another degree in the points, in a generator or in a
    # factor, breaks the homogeneity, and the translation with it: nothing
    # is set to 1, and every generator and every d_k*u_k - 1 reduces to
    # zero by the block basis. An inhomogeneous system runs unscaled, where
    # three generators and three factors can take seconds, so it is smaller.
    table, polys, factors = _homogeneous_system(rng, 2)
    k = rng.randrange(len(polys) + len(factors))
    target = (polys + factors)[k]
    # a point, or two for a target of degree 1
    odd = Polynomial.variable(table, rng.choice(_POINTS))
    if _point_degrees(target) == {1}:
        odd = odd * Polynomial.variable(table, rng.choice(_POINTS))
    if k < len(polys):
        polys[k] = target + odd
    else:
        factors[k - len(polys)] = target + odd
    res = eliminate(polys, _POINTS, GroebnerConfig(timeout=None), saturate=factors)
    ext, gens, order, expected = _explicit_elimination(table, polys, factors, _POINTS)
    assert res.scale is None and res.origin is None
    assert res.generators == expected
    basis = _block_basis(res, ext)
    for g in gens:
        assert normal_form(g, basis, order).is_zero


def test_a_zero_factor_or_one_in_the_kept_variables_is_never_the_scale():
    # nor one with a kept variable in a term, as a*s + b
    table = make_table("a", "b", "c", "s", "t")
    a, b, c, s, t = _vars(table)
    polys = [a * s - b * t, (a - c) * t - b]
    cfg = GroebnerConfig(timeout=None)
    for factors in ([Polynomial.zero(table), s - t, a * s + b, c], [s + t, b * b, c * s - a, a]):
        res = eliminate(polys, _POINTS, cfg, saturate=factors)
        assert res.scale == factors[3]
        assert res.generators == _explicit_elimination(table, polys, factors, _POINTS)[3]
    res = eliminate(polys, _POINTS, cfg, saturate=[s + t, Polynomial.zero(table), a * a - b * c])
    assert res.scale is None
    assert ideal_is_trivial(res)


def test_a_continued_elimination_refuses_a_generator_in_an_eliminated_variable():
    # whether the first run was plain, translated, scaled or both, the
    # prover's divisor holds kept variables only, and nothing else enters
    table = make_table("a", "b", "c", "s", "t")
    a, b, c, s, t = _vars(table)
    one = Polynomial.constant(table, 1)
    invariant = [(a - b) * s - (b - c), (a - c) * t - (b - c)]
    firsts = [
        eliminate([a * s - b - one, b * t - c], _POINTS),
        eliminate(invariant, _POINTS),
        eliminate([a * s - b, b * t - c], _POINTS, saturate=[a - c]),
        eliminate(invariant, _POINTS, saturate=[a - b]),
    ]
    assert [(f.origin, f.scale) for f in firsts] == [
        (None, None), (2, None), (None, a - c), (2, a - b),
    ]
    for first in firsts:
        for x in (a, b, c):
            for extra in (x, x * s - t, (x + c) * t + s, x * x - b * c):
                with pytest.raises(AlgebraError, match="kept-variable"):
                    eliminate([s - t, extra], _POINTS, after=first)


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_a_continued_elimination_in_the_kept_variables_is_the_one_shot_elimination(rng):
    # a generator in the slacks alone, as the prover's divisor, enters a
    # translated or scaled run as given, and the continued result keeps the
    # first run's origin and scale
    draw = _invariant_system if rng.random() < 0.5 else _homogeneous_system
    table, polys, factors = draw(rng)
    cfg = GroebnerConfig(timeout=None)
    first = eliminate(polys, _POINTS, cfg, saturate=factors)
    extra = random_polynomial(rng, table, (3, 4), max_degree=2, max_terms=3)
    second = eliminate([extra], _POINTS, cfg, after=first)
    assert second.origin == first.origin and second.scale is first.scale
    assert second.generators == eliminate(polys + [extra], _POINTS, cfg, saturate=factors).generators


@pytest.mark.parametrize("fix", ["zero_one", "minus_one_one", "off"])
def test_the_corpus_runs_that_are_scaled(fix, monkeypatch):
    # every run, pinned or not, is scaled, by its first factor of degree 1:
    # a pinned system lists A - B among its factors, so it has one; and a
    # second elimination keeps the first's scale
    runs = []

    def recording(F, elim, config=None, after=None, saturate=()):
        runs.append((tuple(saturate), after, eliminate(F, elim, config, after, saturate)))
        return runs[-1][-1]

    monkeypatch.setattr(prover, "eliminate", recording)
    scaled = set()
    for path in sorted(CORPUS.glob("*.cni")):
        if path.stem.startswith("bad_") or path.stem == "pappus":
            continue
        c = substitute_declaratives(parse(SourceProgram(path.read_text(), path.stem)))
        sys = fix_coordinates(build_system(c), c, fix)
        runs.clear()
        prove(sys, timeout=60.0)
        (factors, _, first), *rest = runs
        if first.scale is not None:
            scaled.add(path.stem)
            degrees = [{sum(m[v] for v in sys.eliminate_vars) for m in d.terms} for d in factors]
            assert first.scale == factors[degrees.index({1})]
        for _, after, res in rest:
            assert after is first and res.scale is first.scale
    assert len(scaled) == 19


def test_eliminate_everything_is_rejected():
    table = make_table("x")
    with pytest.raises(Exception):
        eliminate([Polynomial.variable(table, 0)], [0])


def test_sylvester_resultant_in_elimination_ideal():
    # acceptance criterion: 50 random bivariate pairs, the resultant
    # eliminating x lands in the elimination ideal
    rng = random.Random(424242)
    table = make_table("x", "y")
    syms = sympy.symbols("x y")
    done = 0
    while done < 50:
        f = random_polynomial(rng, table, [0, 1], max_degree=3, max_terms=3)
        g = random_polynomial(rng, table, [0, 1], max_degree=3, max_terms=3)
        if f.is_zero or g.is_zero:
            continue
        if not (f.contains_var(0) or g.contains_var(0)):
            continue
        sf, sg = to_sympy(f, syms), to_sympy(g, syms)
        res_xy = sympy.resultant(sf, sg, syms[0])
        if res_xy == 0:
            continue  # common factor; membership would be vacuous
        resultant = from_sympy(res_xy, table, syms)
        ideal = eliminate([f, g], [0])
        assert in_ideal(resultant, ideal, GrevLex((1,))), f"failed for {f} and {g}"
        done += 1
    assert done == 50


def _katsura(n):
    """The Katsura-n system in u_0..u_n, with u_-i = u_i and u_i = 0 for
    i > n."""
    table = make_table(*(f"u{i}" for i in range(n + 1)))
    u = _vars(table)
    zero = Polynomial.zero(table)
    one = Polynomial.constant(table, 1)

    def U(i):
        return u[abs(i)] if abs(i) <= n else zero

    polys = [sum((U(i) for i in range(-n, n + 1)), zero) - one]
    for m in range(n):
        polys.append(sum((U(i) * U(m - i) for i in range(-n, n + 1)), zero) - U(m))
    return polys


def test_timeout_raises_within_budget():
    # the grevlex basis of Katsura-7 takes about 3.5 s untimed (x86_64,
    # CPython 3.11), so a 20 ms deadline must fire, inside reductions too
    polys = _katsura(7)
    cfg = GroebnerConfig(timeout=0.02)
    start = time.monotonic()
    with pytest.raises(GroebnerTimeout):
        groebner_basis(polys, GrevLex(tuple(range(8))), cfg)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
