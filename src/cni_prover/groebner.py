"""Buchberger engine with Gebauer-Moeller pair pruning, reduced bases,
elimination ideals, and the triviality test.

The engine works on algebra_core's exponent tuples. Inputs are cleared of
denominators into integer-primitive working records (fraction-free), which
keeps the inner reduction loop cheap; results leave as monic Polynomials.
Each call memoises its order keys, since it compares the same monomials
many times.
Elimination runs as a staged sequence of single-variable block eliminations;
by the elimination theorem each stage intersects the ideal with the ring
without that variable, so the composition returns exactly the elimination
ideal that one big block order would. The Rabinowitsch variable goes first:
its generator links every denominator factor, and removing it early keeps
intermediate bases small.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from math import gcd
from typing import Iterable, Union

from .algebra_core import (
    AlgebraError,
    Block,
    GrevLex,
    MonomialOrder,
    Polynomial,
    VarTable,
    content_and_primitive,
    mono_div,
    mono_lcm,
    mono_mul,
)


class GroebnerTimeout(Exception):
    """A basis computation exceeded its wall-clock budget."""


@dataclass(frozen=True)
class GroebnerConfig:
    """timeout: wall-clock seconds for the whole call (stages share it), or
    None for no limit."""

    timeout: float | None = 20.0


DEFAULT_CONFIG = GroebnerConfig()


@dataclass(frozen=True)
class GroebnerBasis:
    """The reduced monic basis under `order`, sorted by leading monomial
    ascending."""

    generators: tuple[Polynomial, ...]
    order: MonomialOrder


@dataclass(frozen=True)
class EliminationResult:
    """Generators of the elimination ideal, free of eliminated variables.

    The generators form the reduced monic basis under `order`, a graded
    reverse lexicographic order on the kept variables.
    """

    generators: tuple[Polynomial, ...]
    eliminated: tuple[int, ...]
    kept: tuple[int, ...]
    order: MonomialOrder


class _Budget:
    __slots__ = ("deadline",)

    def __init__(self, config: GroebnerConfig) -> None:
        self.deadline = (
            None if config.timeout is None else time.monotonic() + config.timeout
        )

    def check(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise GroebnerTimeout("wall-clock budget exhausted")


# ---------------------------------------------------------------------------
# Fraction-free engine on integer-coefficient working records.


def _content_strip(terms):
    g = 0
    for c in terms.values():
        g = gcd(g, c)
        if g == 1:
            return terms
    if g > 1:
        return {m: c // g for m, c in terms.items()}
    return terms


class _IntPoly:
    """Integer-coefficient polynomial with its leading monomial and
    coefficient under the active order key, and its sugar degree."""

    __slots__ = ("terms", "lm", "lc", "sugar")

    def __init__(self, terms, key, sugar=None):
        self.terms = terms
        self.lm = max(terms, key=key)
        self.lc = terms[self.lm]
        self.sugar = sugar if sugar is not None else max(sum(m) for m in terms)


def _normalize(terms, key, sugar=None):
    """Drop zeros, strip integer content, make the leading coefficient
    positive. Returns None for the zero polynomial."""
    terms = {m: c for m, c in terms.items() if c}
    if not terms:
        return None
    terms = _content_strip(terms)
    lm = max(terms, key=key)
    if terms[lm] < 0:
        terms = {m: -c for m, c in terms.items()}
    return _IntPoly(terms, key, sugar)


def _reduce(terms, reducers, key, budget: _Budget, full: bool):
    """Fraction-free reduction by the first reducer whose leading monomial
    divides the current leading monomial. With full=False it stops at the
    first irreducible leading term and returns everything left; with
    full=True it moves that term to the remainder and goes on, so no
    monomial of the result is reducible. Whenever a reducer's leading
    coefficient does not divide the target coefficient, the working
    polynomial and the remainder are both scaled by an integer, or
    relative coefficients drift."""
    rem = {}
    terms = dict(terms)
    ticks = 0
    while terms:
        ticks += 1
        if not ticks % 64:
            budget.check()
        m = max(terms, key=key)
        c = terms[m]
        hit = None
        for g in reducers:
            q = mono_div(m, g.lm)
            if q is not None:
                hit = (g, q)
                break
        if hit is None:
            if not full:
                return terms
            rem[m] = terms.pop(m)
            continue
        g, q = hit
        d = gcd(c, g.lc)
        a = abs(g.lc // d)
        b = c // d * (1 if g.lc > 0 else -1)
        if a != 1:
            for k2 in terms:
                terms[k2] *= a
            for k2 in rem:
                rem[k2] *= a
        for mg, cg in g.terms.items():
            mm = mono_mul(q, mg)
            nv = terms.get(mm, 0) - b * cg
            if nv:
                terms[mm] = nv
            else:
                terms.pop(mm, None)
    return rem


def _spoly_terms(f, g):
    L = mono_lcm(f.lm, g.lm)
    qf = mono_div(L, f.lm)
    qg = mono_div(L, g.lm)
    d = gcd(f.lc, g.lc)
    af = g.lc // d
    ag = f.lc // d
    terms = {}
    for m, c in f.terms.items():
        terms[mono_mul(qf, m)] = af * c
    for m, c in g.terms.items():
        mm = mono_mul(qg, m)
        nv = terms.get(mm, 0) - ag * c
        if nv:
            terms[mm] = nv
        else:
            terms.pop(mm, None)
    sugar = max(f.sugar + sum(qf), g.sugar + sum(qg))
    return terms, sugar


def _update(G, pairs, f, key):
    """Gebauer-Moeller pair list maintenance on appending f to G."""
    lmf = f.lm
    kept = set()
    for (i, j) in pairs:
        Lij = mono_lcm(G[i].lm, G[j].lm)
        if (
            mono_div(Lij, lmf) is None
            or mono_lcm(G[i].lm, lmf) == Lij
            or mono_lcm(G[j].lm, lmf) == Lij
        ):
            kept.add((i, j))
    by_lcm = {}
    for i in range(len(G)):
        by_lcm.setdefault(mono_lcm(G[i].lm, lmf), []).append(i)
    minimal = []
    for L in sorted(by_lcm, key=key):
        if all(mono_div(L, L2) is None for L2 in minimal):
            minimal.append(L)
    for L in minimal:
        # product criterion: coprime leading monomials reduce to zero anyway
        if not any(mono_lcm(G[i].lm, lmf) == mono_mul(G[i].lm, lmf) for i in by_lcm[L]):
            kept.add((min(by_lcm[L]), len(G)))
    G.append(f)
    return G, kept


def _buchberger(F, key, budget: _Budget):
    """Returns the reduced basis as integer-primitive _IntPoly, sorted by
    leading monomial ascending under key. Pairs are taken by lowest sugar
    degree (phantom homogenized degree), then smallest lcm: under
    single-variable block orders, taking the smallest lcm alone stalls on
    the angle-bisector workload while sugar finishes in seconds."""
    G = []
    pairs = set()
    for f in F:
        G, pairs = _update(G, pairs, f, key)
    redundant = set()

    while pairs:
        budget.check()

        def skey(p):
            i, j = p
            L = mono_lcm(G[i].lm, G[j].lm)
            s = max(
                G[i].sugar + sum(mono_div(L, G[i].lm)),
                G[j].sugar + sum(mono_div(L, G[j].lm)),
            )
            return (s, key(L), p)

        sel = min(pairs, key=skey)
        i, j = sel
        pairs.discard(sel)
        s, sug = _spoly_terms(G[i], G[j])
        reducers = [g for idx, g in enumerate(G) if idx not in redundant]
        red = _reduce(s, reducers, key, budget, full=False)
        p = _normalize(red, key, sug)
        if p is not None:
            for idx, g in enumerate(G):
                if idx not in redundant and mono_div(g.lm, p.lm) is not None:
                    redundant.add(idx)
            G, pairs = _update(G, pairs, p, key)

    # minimal basis, then interreduce for the unique reduced form
    Gmin = []
    for f in sorted(
        (g for idx, g in enumerate(G) if idx not in redundant),
        key=lambda h: key(h.lm),
    ):
        if all(mono_div(f.lm, g.lm) is None for g in Gmin):
            Gmin.append(f)
    out = []
    for i, g in enumerate(Gmin):
        others = Gmin[:i] + Gmin[i + 1:]
        r = _normalize(_reduce(g.terms, others, key, budget, full=True), key)
        if r is not None:
            out.append(r)
    return out


def _enter(polys: list[Polynomial], order: MonomialOrder, key) -> list[_IntPoly]:
    """Clear denominators: each nonzero input as its integer-primitive form
    with positive leading coefficient."""
    out = []
    for p in polys:
        _, prim = content_and_primitive(p, order)
        out.append(_IntPoly({m: c.numerator for m, c in prim.terms.items()}, key))
    return out


def _exit(recs, table: VarTable, order: MonomialOrder) -> tuple[Polynomial, ...]:
    gens = [Polynomial(table, d.terms).monic(order) for d in recs]
    gens.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return tuple(gens)


# ---------------------------------------------------------------------------
# Public operations.


def groebner_basis(
    F: Iterable[Polynomial],
    order: MonomialOrder,
    config: GroebnerConfig | None = None,
) -> GroebnerBasis:
    """Reduced monic Groebner basis of the ideal generated by F under
    `order`. Deterministic for a fixed input list."""
    config = config or DEFAULT_CONFIG
    polys = [f for f in F if not f.is_zero]
    if not polys:
        return GroebnerBasis((), order)
    key = cache(order.key)
    out = _buchberger(_enter(polys, order, key), key, _Budget(config))
    return GroebnerBasis(_exit(out, polys[0].table, order), order)


def eliminate(
    F: Iterable[Polynomial],
    elim_vars: Iterable[int],
    config: GroebnerConfig | None = None,
) -> EliminationResult:
    """Generators of ideal(F) intersected with the ring in the kept
    variables.

    Implemented as a full graded warm-up basis followed by one
    single-variable block elimination per eliminated variable (Rabinowitsch
    variable first, then table order). Each stage is a Groebner basis under
    Block(GrevLex([v]), GrevLex(rest)) followed by discarding generators
    containing v, which by the elimination theorem yields the ideal without
    v. A final pass under GrevLex on the kept variables canonicalizes the
    output to the unique reduced monic basis, so staging cannot leak into
    the result.
    """
    config = config or DEFAULT_CONFIG
    polys = [f for f in F if not f.is_zero]
    elim = sorted(set(elim_vars))
    if not polys:
        return EliminationResult((), tuple(elim), (), GrevLex(()))
    table = polys[0].table
    n = len(table)
    for v in elim:
        if not 0 <= v < n:
            raise AlgebraError(f"eliminated variable index {v} out of range")
    kept = tuple(i for i in range(n) if i not in set(elim))
    if not kept:
        raise AlgebraError("elimination must keep at least one variable")
    kept_order = GrevLex(kept)
    budget = _Budget(config)

    stages = []
    rab = table.rabinowitsch
    if rab is not None and rab in elim:
        stages.append(rab)
    stages.extend(v for v in elim if v != rab)

    # Warm-up: regenerate the input from its full graded basis before any
    # block stage. Generating sets with substituted point coordinates are
    # hostile starting points for block orders (the thales workload runs
    # minutes from the raw generators, seconds from the grevlex basis).
    warm_order = GrevLex(tuple(range(n)))
    warm_key = cache(warm_order.key)
    cur = _buchberger(_enter(polys, warm_order, warm_key), warm_key, budget)
    # Invariant after each executed stage: cur is the reduced basis of the
    # current elimination ideal under the stage order restricted to the
    # surviving variables. Once every eliminated variable is gone that
    # restriction coincides with GrevLex(kept), because interleaving zero
    # exponents at fixed positions never changes a grevlex comparison. The
    # final canonicalization pass is therefore only needed when no stage ran.
    canonical = False
    for v in stages:
        if not any(any(m[v] for m in d.terms) for d in cur):
            continue
        rest = tuple(i for i in range(n) if i != v)
        skey = cache(Block(GrevLex((v,)), GrevLex(rest)).key)
        cur = [_IntPoly(d.terms, skey) for d in cur]
        out = _buchberger(cur, skey, budget)
        cur = [d for d in out if all(m[v] == 0 for m in d.terms)]
        canonical = True
        # a leading monomial of 1 means a constant: the ideal is <1>
        if any(not any(d.lm) for d in cur):
            cur = [_IntPoly({(0,) * n: 1}, skey)]
            break
        if not cur:
            break

    if not canonical:
        fkey = cache(kept_order.key)
        cur = [_IntPoly(d.terms, fkey) for d in cur]
        cur = _buchberger(cur, fkey, budget)
    gens = _exit(cur, table, kept_order)
    for g in gens:
        if any(g.contains_var(v) for v in elim):
            raise AlgebraError("internal: eliminated variable survived")
    return EliminationResult(gens, tuple(elim), kept, kept_order)


def ideal_is_trivial(G: Union[GroebnerBasis, EliminationResult]) -> bool:
    """True iff the ideal is the whole ring, i.e. some generator is a
    nonzero constant."""
    return any(g.is_constant and not g.is_zero for g in G.generators)
