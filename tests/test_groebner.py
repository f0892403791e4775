"""Buchberger engine: the packed monomials, the reducer cache, known bases,
determinism, self-consistency on random systems, the sympy and resultant
oracles, and budget behaviour."""

import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cni_prover.algebra_core import (
    AlgebraError,
    Block,
    GrevLex,
    Polynomial,
)
from cni_prover.groebner import (
    _HALF,
    GroebnerConfig,
    GroebnerTimeout,
    _Budget,
    _enter,
    _Packing,
    _reduce,
    eliminate,
    groebner_basis,
    ideal_is_trivial,
)

from support import (
    from_sympy,
    in_ideal,
    make_table,
    monic,
    mono_div,
    mono_lcm,
    mono_mul,
    normal_form,
    random_polynomial,
    s_polynomial,
    to_sympy,
)


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
    assert (pa < pb) == (order.key(a) < order.key(b))
    assert (pa == pb) == (a == b)
    assert pa + pb == pk.pack(mono_mul(a, b))
    assert pk.unpack(pa) == a
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
    with pytest.raises(AlgebraError):
        groebner_basis([Polynomial(table, {(0, big): 1, (0, 0): -1})], GrevLex((0, 1)))
    # inputs that fit, whose S-polynomial lcm t^20000*x^20000 does not
    f = Polynomial(table, {(20000, 1): 1, (0, 0): -1})
    g = Polynomial(table, {(1, 20000): 1, (0, 0): -1})
    with pytest.raises(AlgebraError):
        groebner_basis([f, g], GrevLex((0, 1)))
    # under the block order eliminating t, reducing t^2 + 1 by t - x^20000
    # reaches x^40000
    h = Polynomial(table, {(1, 0): 1, (0, 20000): -1})
    k = Polynomial(table, {(2, 0): 1, (0, 0): 1})
    with pytest.raises(AlgebraError):
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
        terms = {pk.pack(m): c.numerator for m, c in h.terms.items()}
        rem = _reduce(terms, reducers, pk, budget, cache)
        assert rem == _reduce(terms, list(reducers), pk, budget, {})
        got = Polynomial(table, {pk.unpack(m): Fraction(c) for m, c in rem.items()})
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
        base.sort(key=lambda p: order.key(p.leading_monomial(order)))
        lms = [p.leading_monomial(order) for p in base]
        if len(base) < 2 or lms[0] == lms[-1]:
            continue
        # in the ideal, with the leading monomial of base[-1]
        dedup = base + [base[-1] + base[0]]
        expected = groebner_basis(dedup, order)
        if ideal_is_trivial(expected):
            continue
        noisy = dedup + [base[0], base[-1].scale(Fraction(-3, 2)), dedup[-1].scale(7)]
        rng.shuffle(noisy)
        mine = groebner_basis(noisy, order).generators
        assert mine == expected.generators
        ref = sympy.groebner([to_sympy(p, syms) for p in dedup], *syms, order="grevlex")
        assert set(mine) == {monic(from_sympy(e, table, syms), order) for e in ref.exprs}
        done += 1


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
            assert g.leading_coefficient(order) == 1
            others = [h for j, h in enumerate(gens) if j != i]
            if not others:
                continue
            lms = [h.leading_monomial(order) for h in others]
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
        assert set(mine) == set(theirs), f"disagree on {polys}"
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
        assert set(res.generators) == theirs, f"disagree on {polys}, eliminating {elim}"
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
        assert set(res.generators) == theirs, f"disagree on {polys}, saturating by {factors}"
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
        assert [pk.unpack(g.lm) for g in res.block_basis] == [
            g.leading_monomial(order) for g in full
        ]
        lms = [g.leading_monomial(order) for g in kept]
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


def test_continued_elimination():
    # y*z = 1 and z = 2 leave y = 1/2
    table = make_table("x", "y", "z")
    x, y, z = _vars(table)
    one = Polynomial.constant(table, 1)
    first = eliminate([x - y, y * z - one], [0])
    second = eliminate([z - one.scale(2)], [0], after=first)
    assert second.generators == eliminate([x - y, y * z - one, z - one.scale(2)], [0]).generators
    assert set(second.generators) == {y - one.scale(Fraction(1, 2)), z - one.scale(2)}
    with pytest.raises(AlgebraError, match="same variables"):
        eliminate([z - one.scale(2)], [1], after=first)
    # a continued run inherits the saturation of the run it continues
    with pytest.raises(AlgebraError, match="inherits"):
        eliminate([z - one.scale(2)], [0], after=first, saturate=[y])
    saturated = eliminate([x * z - x], [0], saturate=[x])
    assert eliminate([z - y], [0], after=saturated).generators == eliminate(
        [x * z - x, z - y], [0], saturate=[x]
    ).generators


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
