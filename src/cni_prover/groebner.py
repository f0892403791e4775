"""Buchberger engine with Gebauer-Moeller pair pruning, reduced bases,
elimination ideals, and the triviality test.

Inputs are cleared of denominators into integer-primitive working records
(fraction-free), whose monomials are packed ints under the active order
(_Packing): multiplying or dividing two monomials is one integer addition
or subtraction, comparing them is one integer comparison, and divisibility
is one guard-bit test. Division takes the leading term from a heap of the
working polynomial's monomials, and the critical pairs wait in a heap keyed
by sugar, then lcm (Monagan and Pearce, CASC 2007; Giovini et al., ISSAC
1991). The Gebauer-Moeller criteria compare lcms on the exponent fields
alone, and only the pairs they keep get a packed lcm. New basis elements
enter fully reduced, tail included; redundant ones stay as reducers until
the minimal basis is taken at the end, so the basis only grows and a cache
can keep each monomial's reducer. Results leave as monic Polynomials on
exponent tuples.
An elimination is one Buchberger run under a block order whose first block
holds every eliminated variable: the given ones, then one Rabinowitsch
variable u_k per factor d_k to saturate by, packed past the table's last
variable and entered as d_k*u_k - 1. By the elimination theorem the
elements free of the block are a basis of the elimination ideal, and the
run interreduces only those. A second elimination of the same ideal with
more generators continues from the first run's minimal basis and packing:
it enters only the pairs with the new generators and their successors.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Iterable, Union

from .algebra_core import (
    AlgebraError,
    Block,
    GrevLex,
    MonomialOrder,
    Polynomial,
    VarTable,
    _integer_form,
)


class GroebnerTimeout(Exception):
    """A basis computation exceeded its wall-clock budget."""


DEFAULT_TIMEOUT = 20.0  # seconds; also the prover's and the command line's


@dataclass(frozen=True)
class GroebnerConfig:
    """timeout: wall-clock seconds for the whole call, or None for no
    limit."""

    timeout: float | None = DEFAULT_TIMEOUT


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

    The generators form the reduced monic basis under a graded reverse
    lexicographic order on the kept variables, the table's variables not in
    `eliminated`. `block_basis` is the run's minimal basis of the whole
    ideal under the block order, as engine records packed by `packing`, the
    Rabinowitsch variables included; eliminate(..., after=this) continues
    from them.
    """

    generators: tuple[Polynomial, ...]
    eliminated: tuple[int, ...]
    block_basis: tuple[_IntPoly, ...] = field(default=(), repr=False, compare=False)
    packing: _Packing | None = field(default=None, repr=False, compare=False)


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
# Packed monomials.

# Bits per field of a packed monomial. The top bit of each field is a guard
# that stays clear, so every field, and the total degree that bounds them
# all, is below _HALF.
_WIDTH = 16
_HALF = 1 << (_WIDTH - 1)
_FIELD = (1 << _WIDTH) - 1


def _too_big() -> AlgebraError:
    return AlgebraError(
        f"a monomial of total degree {_HALF} or more does not fit a packed field"
    )


class _Packing:
    """Exponent tuples over n variables as ints, under one order.

    From the most significant field down: the order's weight rows, then a
    unit row for each variable the order does not cover (so packing is
    injective), then the exponents of variables 0 to n-1, then the total
    degree. Each field is a 0/1 sum of exponents, so it never exceeds the
    total degree, and a product of monomials is the sum of their ints, a
    quotient the difference. The weight rows come first, so comparing ints
    compares monomials under the order."""

    __slots__ = ("units", "shifts", "exp", "guard")

    def __init__(self, order: MonomialOrder, n: int) -> None:
        rows = order.weights(n)
        covered = {v for row in rows for v in range(n) if row[v]}
        rows = rows + [
            tuple(int(i == v) for i in range(n)) for v in range(n) if v not in covered
        ]
        top = n + len(rows)
        self.shifts = tuple(_WIDTH * (n - v) for v in range(n))
        self.units = tuple(
            1
            + (1 << self.shifts[v])
            + sum(row[v] << _WIDTH * (top - r) for r, row in enumerate(rows))
            for v in range(n)
        )
        self.exp = sum((_HALF - 1) << s for s in self.shifts)
        self.guard = sum(_HALF << s for s in self.shifts)

    def pack(self, m: tuple[int, ...]) -> int:
        """A tuple shorter than n leaves the fields past it zero."""
        if sum(m) >= _HALF:
            raise _too_big()
        return sum(e * u for e, u in zip(m, self.units) if e)

    def unpack(self, p: int) -> tuple[int, ...]:
        return tuple(p >> s & _FIELD for s in self.shifts)

    def lift(self, e: int) -> int:
        """The packed monomial whose exponent fields are e."""
        return self.pack(self.unpack(e))

    def lcms(self, a: int, bs) -> list[int]:
        """The exponent fields of lcm(a, b) for each b in bs, all given as
        exponent fields. In each field, a's exponent minus b's, with the
        field's guard bit set, keeps that bit iff a's is at least b's; ge
        holds those bits and sel the value bits of their fields."""
        exp, guard = self.exp, self.guard
        out = []
        for b in bs:
            ge = ((a | guard) - b) & guard
            sel = ge - (ge >> (_WIDTH - 1))
            out.append((a & sel) | (b & (exp ^ sel)))
        return out

    def divides(self, d: int, m: int) -> bool:
        """True iff monomial d divides monomial m: with the guard bits of m's
        exponent fields set, subtracting d's exponents clears none of them."""
        g = self.guard
        return (((m & self.exp) | g) - (d & self.exp)) & g == g


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
    """Integer-coefficient polynomial on packed monomials, with its leading
    monomial (packed, and its exponent fields alone), leading coefficient,
    sugar degree and largest total degree of a term."""

    __slots__ = ("terms", "lm", "lexp", "lc", "sugar", "top")

    def __init__(self, terms, pk: _Packing, sugar=None):
        self.terms = terms
        self.lm = max(terms)
        self.lexp = self.lm & pk.exp
        self.lc = terms[self.lm]
        self.top = max(m & _FIELD for m in terms)
        self.sugar = self.top if sugar is None else sugar


def _normalize(terms, pk: _Packing, sugar=None):
    """Drop zeros, strip integer content, make the leading coefficient
    positive. Returns None for the zero polynomial."""
    terms = {m: c for m, c in terms.items() if c}
    if not terms:
        return None
    p = _IntPoly(_content_strip(terms), pk, sugar)
    if p.lc < 0:
        p.terms = {m: -c for m, c in p.terms.items()}
        p.lc = -p.lc
    return p


def _reduce(terms, reducers, pk: _Packing, budget: _Budget, cache):
    """The full normal form of `terms` by `reducers`, fraction-free: each
    leading monomial, taken off a max-heap of the working polynomial's
    monomials (skipping those since cancelled), is reduced by the first
    reducer whose leading monomial divides it, or else moved to the
    remainder. When a reducer's leading coefficient does not divide the
    target coefficient, the working polynomial and the remainder are both
    scaled by an integer, or relative coefficients drift. `cache` maps
    exponent bits `(m & pk.exp) | pk.guard` to how far the reducer search
    got: the index of the first divisor, or len(reducers) if none divides.
    Calls may share it only while `reducers` is append-only: then a hit
    never goes stale, and a miss rescans only the reducers appended since."""
    rem = {}
    terms = dict(terms)
    heap = [-m for m in terms]
    heapify(heap)
    exp, guard = pk.exp, pk.guard
    ticks = 0
    while heap:
        m = -heappop(heap)
        c = terms.get(m)
        if c is None:
            continue
        ticks += 1
        if not ticks % 64:
            budget.check()
        mg = (m & exp) | guard  # _Packing.divides, inlined
        for i in range(cache.get(mg, 0), len(reducers)):
            if (mg - reducers[i].lexp) & guard == guard:
                break
        else:
            cache[mg] = len(reducers)
            rem[m] = terms.pop(m)
            continue
        cache[mg] = i
        g = reducers[i]
        q = m - g.lm
        if (q & _FIELD) + g.top >= _HALF:
            raise _too_big()
        d = gcd(c, g.lc)
        a = abs(g.lc // d)
        b = c // d * (1 if g.lc > 0 else -1)
        if a != 1:
            for k2 in terms:
                terms[k2] *= a
            for k2 in rem:
                rem[k2] *= a
        for mt, ct in g.terms.items():
            mm = q + mt
            bc = b * ct
            old = terms.get(mm)
            if old is None:
                terms[mm] = -bc
                heappush(heap, -mm)
            elif old != bc:
                terms[mm] = old - bc
            else:
                del terms[mm]
    return rem


def _spoly_terms(f, g, L):
    """The S-polynomial of f and g, whose leading monomials have the packed
    lcm L."""
    qf = L - f.lm
    qg = L - g.lm
    if (qf & _FIELD) + f.top >= _HALF or (qg & _FIELD) + g.top >= _HALF:
        raise _too_big()
    d = gcd(f.lc, g.lc)
    af = g.lc // d
    ag = f.lc // d
    terms = {}
    for m, c in f.terms.items():
        terms[qf + m] = af * c
    for m, c in g.terms.items():
        mm = qg + m
        nv = terms.get(mm, 0) - ag * c
        if nv:
            terms[mm] = nv
        else:
            terms.pop(mm, None)
    return terms


def _update(G, pairs, queue, f, pk: _Packing):
    """Gebauer-Moeller pair maintenance on appending f to G. `pairs` maps
    each live pair (i, j) to the exponent fields of the lcm of its leading
    monomials; the pairs f makes redundant leave it, and each new pair
    enters it and the heap `queue` under the key (sugar, packed lcm, pair).
    The criteria run on exponent fields alone: they are injective, and a
    divisor is never a larger int, so sorting them puts divisors first as
    the order would. Only the surviving lcms are packed."""
    a = f.lexp
    guard = pk.guard
    lcms = pk.lcms(a, [g.lexp for g in G])
    # _Packing.divides, inlined: exponent fields need no mask
    for (i, j), L in list(pairs.items()):
        if ((L | guard) - a) & guard == guard and lcms[i] != L and lcms[j] != L:
            del pairs[(i, j)]
    by_lcm = {}
    for i, L in enumerate(lcms):
        by_lcm.setdefault(L, []).append(i)
    minimal = []
    for L in sorted(by_lcm):
        if not any(((L | guard) - L2) & guard == guard for L2 in minimal):
            minimal.append(L)
    j = len(G)
    for L in minimal:
        idx = by_lcm[L]
        # product criterion: coprime leading monomials reduce to zero anyway
        if any(L == G[i].lexp + a for i in idx):
            continue
        i = idx[0]
        P = pk.lift(L)
        sugar = max(G[i].sugar + ((P - G[i].lm) & _FIELD), f.sugar + ((P - f.lm) & _FIELD))
        pairs[(i, j)] = L
        heappush(queue, (sugar, P, (i, j)))
    G.append(f)


def _buchberger(F, pk: _Packing, budget: _Budget, drop=0, seed=()):
    """Returns the reduced basis as integer-primitive _IntPoly, sorted by
    leading monomial ascending, less the elements whose leading monomial
    shares a field with the exponent-field mask `drop`; and the whole
    minimal basis, sorted the same way. `seed` is a Groebner basis under the
    same packing, such as the minimal basis of an earlier run: its elements
    start G with no pairs among themselves, since those already reduce to
    zero by G, and only the pairs with F's elements and their successors
    are entered. Pairs are taken by lowest sugar degree (phantom
    homogenized degree), then smallest lcm: under single-variable block
    orders, taking the smallest lcm alone stalls on the angle-bisector
    workload while sugar finishes in seconds. The pair heap keeps entries
    of pairs the criteria have since dropped; they are skipped when popped.
    New elements enter fully reduced by G, tail included. G only grows: an
    element whose leading monomial a newer one divides stays as a reducer
    (it is still in the ideal), so one reducer cache serves the pair loop,
    and the minimal basis is taken from all of G at the end. The dropped
    elements leave before the final interreduction: under an order whose
    first rows are the degree in the dropped variables, a leading monomial
    free of them makes the whole polynomial free of them, and no monomial
    with them divides one without, so the kept elements reduce as they
    would by the whole minimal basis."""
    G = list(seed)
    pairs = {}
    queue = []
    for f in F:
        _update(G, pairs, queue, f, pk)
    cache = {}

    while pairs:
        sugar, L, sel = heappop(queue)
        if pairs.pop(sel, None) is None:
            continue
        budget.check()
        i, j = sel
        s = _spoly_terms(G[i], G[j], L)
        p = _normalize(_reduce(s, G, pk, budget, cache), pk, sugar)
        if p is not None:
            _update(G, pairs, queue, p, pk)

    Gmin = []
    for f in sorted(G, key=lambda h: h.lm):
        if not any(pk.divides(g.lm, f.lm) for g in Gmin):
            Gmin.append(f)
    kept = [g for g in Gmin if not g.lexp & drop]
    reduced = [
        _normalize(_reduce(g.terms, kept[:i] + kept[i + 1:], pk, budget, {}), pk)
        for i, g in enumerate(kept)
    ]
    return reduced, Gmin


def _enter(polys: list[Polynomial], pk: _Packing) -> list[_IntPoly]:
    """Clear denominators: each nonzero input as its integer-primitive form
    with positive leading coefficient."""
    out = []
    for p in polys:
        nums, _ = _integer_form(p.terms)
        out.append(_normalize({pk.pack(m): c for m, c in nums.items()}, pk))
    return out


def _saturator(d: Polynomial, u: int, pk: _Packing) -> _IntPoly:
    """d*u - 1 cleared to integers, which saturates the ideal by d; u is a
    packed variable past d's table. A zero d gives the constant -1."""
    nums, den = _integer_form(d.terms)
    terms = {pk.pack(m + (0,) * (u - len(m)) + (1,)): c for m, c in nums.items()}
    terms[0] = -den
    return _normalize(terms, pk)


def _exit(recs, table: VarTable, pk: _Packing) -> tuple[Polynomial, ...]:
    """Monic Polynomials over the table's variables, sorted by leading
    monomial ascending. Fields packed past them must be zero."""
    n = len(table)
    return tuple(
        Polynomial._from_integers(table, {pk.unpack(m)[:n]: c for m, c in d.terms.items()}, d.lc)
        for d in sorted(recs, key=lambda d: d.lm)
    )


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
    pk = _Packing(order, len(polys[0].table))
    out, _ = _buchberger(_enter(polys, pk), pk, _Budget(config))
    return GroebnerBasis(_exit(out, polys[0].table, pk), order)


def eliminate(
    F: Iterable[Polynomial],
    elim_vars: Iterable[int],
    config: GroebnerConfig | None = None,
    after: EliminationResult | None = None,
    saturate: Iterable[Polynomial] = (),
) -> EliminationResult:
    """Generators of the saturation of ideal(F) by each polynomial in
    `saturate`, intersected with the ring in the kept variables. With
    `after`, the result of an elimination of the same variables, the ideal
    is ideal(F) plus the ideal `after` was computed for, whose saturation
    it inherits.

    One Buchberger run under Block(GrevLex(eliminated + us), GrevLex(kept)),
    with one Rabinowitsch variable u_k past the table's last for each
    factor d_k to saturate by and d_k*u_k - 1 among the generators. A
    nonzero constant factor cannot vanish and gets none; a zero factor
    makes the ideal the whole ring. By the elimination theorem the elements
    of the run's basis free of the block are a basis of the elimination
    ideal, and the run reduces only those. With `after`, the run starts from
    after's minimal block basis and its packing, and enters only the pairs
    with F's elements and their successors. The result is the unique
    reduced monic basis under GrevLex on the kept variables.
    """
    config = config or DEFAULT_CONFIG
    polys = [f for f in F if not f.is_zero]
    factors = [d for d in saturate if not d.is_constant or d.is_zero]
    elim = tuple(sorted(set(elim_vars)))
    if after is not None:
        if elim != after.eliminated:
            raise AlgebraError("a continued elimination must eliminate the same variables")
        if factors:
            raise AlgebraError("a continued elimination inherits the saturation it continues")
    if not polys and not factors:
        return after or EliminationResult((), elim)
    table = (polys or factors)[0].table
    n = len(table)
    for v in elim:
        if not 0 <= v < n:
            raise AlgebraError(f"eliminated variable index {v} out of range")
    kept = tuple(i for i in range(n) if i not in set(elim))
    if not kept:
        raise AlgebraError("elimination must keep at least one variable")
    if after is None:
        us = tuple(range(n, n + len(factors)))
        pk, seed = _Packing(Block(GrevLex(elim + us), GrevLex(kept)), n + len(us)), ()
        gens = _enter(polys, pk) + [_saturator(d, u, pk) for d, u in zip(factors, us)]
    else:
        pk, seed = after.packing, after.block_basis
        gens = _enter(polys, pk)
    drop = sum(_FIELD << s for v, s in enumerate(pk.shifts) if v not in kept)
    reduced, basis = _buchberger(gens, pk, _Budget(config), drop, seed)
    if any(m & drop for d in reduced for m in d.terms):
        raise AlgebraError("internal: eliminated variable survived")
    return EliminationResult(_exit(reduced, table, pk), elim, tuple(basis), pk)


def ideal_is_trivial(G: Union[GroebnerBasis, EliminationResult]) -> bool:
    """True iff the ideal is the whole ring, i.e. some generator is a
    nonzero constant."""
    return any(g.is_constant and not g.is_zero for g in G.generators)
