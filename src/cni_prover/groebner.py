"""Buchberger engine with Gebauer-Moeller pair pruning, reduced bases,
elimination ideals, and the triviality test.

Inputs have integer coefficients, as the clearing leaves them (any other
coefficient raises AlgebraError), and enter as integer-primitive working
records (fraction-free, algebra_core._primitive):
scaling a generator by a nonzero constant changes no ideal. Their monomials
are packed ints under the active order in the format that algebra_core
defines and clears expressions on (_Packing): multiplying or dividing two
monomials is one integer addition or subtraction, comparing them is one
integer comparison, and divisibility is one guard-bit test. Each record
keeps its tail, every term but the leading one, as a tuple built once: a
reduction step deletes the cancelled leading term and merges only the
reducer's tail, and an S-polynomial merges two tails. Division takes the
leading term from a heap of the working polynomial's monomials, and the
critical pairs wait in a heap keyed by sugar, then lcm (Monagan and Pearce,
CASC 2007; Giovini et al., ISSAC 1991). The Gebauer-Moeller criteria
compare lcms on the exponent fields alone, and only the pairs they keep get
a packed lcm: the new element's leading monomial times the multiplier,
lifted from its nonzero exponent fields alone. New basis elements enter
fully reduced, tail included; redundant ones stay as reducers until the
minimal basis is taken at the end, so the basis only grows and a cache
keyed by packed monomial can keep each monomial's reducer, and a hit needs
no divisibility test. Results leave as the records read: Polynomials on
exponent tuples with coprime integer coefficients and a positive leading
coefficient under the run's order. For an elimination that order, on the
kept variables, is the print order, so documents print the generators as
they are.
An elimination is one Buchberger run under a block order whose first block
holds every eliminated variable: one Rabinowitsch variable u_k per factor
d_k to saturate by, packed past the table's last variable and entered as
d_k*u_k - 1, then the given ones. By the elimination theorem the elements
free of the block are a basis of the elimination ideal, whatever the order
inside the block, and the run interreduces only those. The u_k come first
because that order reduces less than the points first on the slowest
corpus statements. A system of point differences, as the prover builds
pinned and unpinned alike, is unchanged by every similarity z ->
lambda*z + t of the points, and the run uses both halves. When every
generator and factor is invariant under moving all eliminated variables
by the same t, the run sets the last eliminated variable that occurs to
0 first: x_v -> x_v + x_v0 is an automorphism that
fixes the kept variables and maps each invariant generator to itself with
x_v0 = 0, so the elimination ideal, and its reduced basis, stay the same
with fewer terms. When every generator and factor is homogeneous in the
eliminated variables, the run also sets the first factor l that is a
linear form in them to 1: l is invertible modulo the saturated ideal,
which is homogeneous, so adding l - 1 keeps the elimination ideal, and
solving l = 1 for one eliminated variable x_w and substituting it
everywhere takes x_w, l's Rabinowitsch variable and l out of the run
(dehomogenization, Cox, Little and O'Shea, Ideals, Varieties, and
Algorithms, ch. 8). A second elimination of the same ideal with more
generators, in the kept variables alone, continues from the first run's
minimal basis and packing: it enters only the pairs with the new
generators and their successors.
"""
from __future__ import annotations

import time
from collections.abc import Iterable
from heapq import heapify, heappop, heappush
from math import gcd

from .algebra_core import (
    _FIELD,
    _HALF,
    AlgebraError,
    Block,
    GrevLex,
    MonomialOrder,
    Polynomial,
    Record,
    VarTable,
    _Packing,
    _primitive,
    _too_big,
)


class GroebnerTimeout(Exception):
    """A basis computation exceeded its wall-clock budget."""


DEFAULT_TIMEOUT = 20.0  # seconds; also the prover's and the command line's


def check_timeout(timeout: float) -> None:
    """Reject a budget that is not a positive number of seconds."""
    # also rejects NaN, whose deadline never fires, and None
    if timeout is None or not timeout > 0:
        raise ValueError("timeout must be positive")


class GroebnerConfig(Record):
    """timeout: wall-clock seconds for the whole call, positive."""

    __slots__ = ("timeout",)
    _defaults = dict(timeout=DEFAULT_TIMEOUT)

    def _check(self) -> None:
        check_timeout(self.timeout)


DEFAULT_CONFIG = GroebnerConfig()


class GroebnerBasis(Record):
    """The reduced basis under `order`, sorted by leading monomial
    ascending. Each generator has coprime integer coefficients and a
    positive leading coefficient under `order`."""

    __slots__ = ("generators", "order")


class EliminationResult(Record):
    """Generators of the elimination ideal, free of eliminated variables.

    The generators form the reduced basis under a graded reverse
    lexicographic order on the kept variables, the table's variables not in
    `eliminated`, which is the print order on them. Each has coprime
    integer coefficients and a positive leading coefficient under it.
    `origin` is the eliminated variable that the run translated to 0, or
    None when the run was not translated; `scale` is the factor, as given,
    that the run set to 1, or None when the run was not scaled (see
    eliminate). `block_basis` is the run's minimal basis under the block
    order of the ideal the run computed, as engine records packed by
    `packing`, the Rabinowitsch variables included; eliminate(...,
    after=this) continues from them. `reductions` counts the
    S-pairs the run reduced, and `zero_reductions` those that reduced to
    zero. Equality and hashing compare the generators and `eliminated`
    alone.
    """

    __slots__ = (
        "generators",
        "eliminated",
        "block_basis",
        "packing",
        "reductions",
        "zero_reductions",
        "origin",
        "scale",
    )
    _hidden = ("block_basis", "packing", "origin", "scale")
    _defaults = dict(
        block_basis=(), packing=None, reductions=0, zero_reductions=0, origin=None, scale=None
    )

    def _key(self) -> tuple:
        return (self.generators, self.eliminated)


class _Budget:
    __slots__ = ("deadline",)

    def __init__(self, config: GroebnerConfig) -> None:
        self.deadline = time.monotonic() + config.timeout

    def check(self) -> None:
        if time.monotonic() > self.deadline:
            raise GroebnerTimeout("wall-clock budget exhausted")


# ---------------------------------------------------------------------------
# Fraction-free engine on integer-coefficient working records.


class _IntPoly:
    """Integer-coefficient polynomial on packed monomials, with its leading
    monomial (packed, and its exponent fields alone), leading coefficient,
    tail (every other term, as (monomial, coefficient) pairs), sugar degree
    and largest total degree of a term."""

    __slots__ = ("terms", "lm", "lexp", "lc", "tail", "sugar", "top")

    def __init__(self, terms, lm, pk: _Packing, sugar=None):
        self.terms = terms
        self.lm = lm
        self.lexp = lm & pk.exp
        self.lc = terms[lm]
        self.tail = tuple((m, c) for m, c in terms.items() if m != lm)
        self.top = max(m & _FIELD for m in terms)
        self.sugar = self.top if sugar is None else sugar


def _normalize(terms, pk: _Packing, sugar=None):
    """Strip the integer content of nonzero terms and make the leading
    coefficient positive. Returns None for the zero polynomial."""
    if not terms:
        return None
    terms = _primitive(terms)[1]
    return _IntPoly(terms, max(terms), pk, sugar)


def _reduce(terms, reducers, pk: _Packing, budget: _Budget, cache):
    """The full normal form of `terms` by `reducers`, fraction-free: each
    leading monomial, taken off a max-heap of the working polynomial's
    monomials (skipping those since cancelled), is reduced by the first
    reducer whose leading monomial divides it, or else moved to the
    remainder. The reduction cancels the leading term and merges the
    reducer's tail. When a reducer's leading coefficient (positive, as
    _normalize leaves it) does not divide the target coefficient, the
    working polynomial and the remainder are both scaled by an integer, or
    relative coefficients drift. `cache` maps a packed monomial to how far
    the reducer search got: the index of the first divisor, or ~k when none
    of the first k reducers divides it. Calls may share it only while
    `reducers` is append-only: then a hit never goes stale, and a miss
    rescans only the reducers appended since."""
    rem = {}
    terms = dict(terms)
    get = terms.get
    cget = cache.get
    pop, push = heappop, heappush
    heap = [-m for m in terms]
    heapify(heap)
    exp, guard = pk.exp, pk.guard
    nred = len(reducers)
    ticks = 0
    while heap:
        m = -pop(heap)
        c = get(m)
        if c is None:
            continue
        ticks += 1
        if not ticks & 63:
            budget.check()
        i = cget(m)
        if i is None or i < 0:
            mg = (m & exp) | guard  # _Packing.divides, inlined
            for i in range(0 if i is None else ~i, nred):
                if (mg - reducers[i].lexp) & guard == guard:
                    cache[m] = i
                    break
            else:
                cache[m] = ~nred
                rem[m] = c
                del terms[m]
                continue
        g = reducers[i]
        q = m - g.lm
        if (q & _FIELD) + g.top >= _HALF:
            raise _too_big()
        del terms[m]
        d = gcd(c, g.lc)
        a = g.lc // d
        b = c // d
        if a != 1:
            for k2 in terms:
                terms[k2] *= a
            for k2 in rem:
                rem[k2] *= a
        for mt, ct in g.tail:
            mm = q + mt
            old = get(mm)
            if old is None:
                terms[mm] = -b * ct
                push(heap, -mm)
            else:
                old -= b * ct
                if old:
                    terms[mm] = old
                else:
                    del terms[mm]
    return rem


def _spoly_terms(f, g, L):
    """The S-polynomial of f and g, whose leading monomials have the packed
    lcm L: the scaled tails, merged, as the leading terms cancel."""
    qf = L - f.lm
    qg = L - g.lm
    if (qf & _FIELD) + f.top >= _HALF or (qg & _FIELD) + g.top >= _HALF:
        raise _too_big()
    d = gcd(f.lc, g.lc)
    af = g.lc // d
    ag = f.lc // d
    terms = {qf + m: af * c for m, c in f.tail}
    get = terms.get
    for m, c in g.tail:
        mm = qg + m
        old = get(mm)
        if old is None:
            terms[mm] = -ag * c
        else:
            old -= ag * c
            if old:
                terms[mm] = old
            else:
                del terms[mm]
    return terms


def _update(G, pairs, queue, f, pk: _Packing):
    """Gebauer-Moeller pair maintenance on appending f to G. `pairs` maps
    each live pair (i, j) to the exponent fields of the lcm of its leading
    monomials; the pairs f makes redundant leave it, and each new pair
    enters it and the heap `queue` under the key (sugar, packed lcm, pair).
    The criteria run on exponent fields alone: they are injective, and a
    divisor is never a larger int, so sorting them puts divisors first as
    the order would. Only the surviving lcms are packed, as f's leading
    monomial times the lift of the multiplier's exponent fields."""
    a = f.lexp
    guard = pk.guard
    lexps = [g.lexp for g in G]
    lcms = pk.lcms(a, lexps)
    # _Packing.divides, inlined: exponent fields need no mask
    for key, L in list(pairs.items()):
        if ((L | guard) - a) & guard == guard:
            i, j = key
            if lcms[i] != L and lcms[j] != L:
                del pairs[key]
    by_lcm = {}
    for i, L in enumerate(lcms):
        if L in by_lcm:
            by_lcm[L].append(i)
        else:
            by_lcm[L] = [i]
    lift = pk.lift
    lm = f.lm
    fs = f.sugar - (lm & _FIELD)
    j = len(G)
    minimal = []
    for L in sorted(by_lcm):
        Lg = L | guard
        for L2 in minimal:
            if (Lg - L2) & guard == guard:
                break
        else:
            minimal.append(L)
            idx = by_lcm[L]
            # product criterion: coprime leading monomials reduce to zero anyway
            for i in idx:
                if L == lexps[i] + a:
                    break
            else:
                i = idx[0]
                P = lm + lift(L - a)
                deg = P & _FIELD
                if deg >= _HALF:
                    raise _too_big()
                g = G[i]
                pairs[(i, j)] = L
                heappush(queue, (deg + max(g.sugar - (g.lm & _FIELD), fs), P, (i, j)))
    G.append(f)


def _buchberger(F, pk: _Packing, budget: _Budget, drop=0, seed=()):
    """Returns the reduced basis as integer-primitive _IntPoly, sorted by
    leading monomial ascending, less the elements whose leading monomial
    shares a field with the exponent-field mask `drop`; the whole minimal
    basis, sorted the same way; and the number of S-pairs reduced, with how
    many of them reduced to zero. `seed` is a Groebner basis under the
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
    reductions = zeros = 0

    while pairs:
        sugar, L, sel = heappop(queue)
        if pairs.pop(sel, None) is None:
            continue
        budget.check()
        i, j = sel
        s = _spoly_terms(G[i], G[j], L)
        p = _normalize(_reduce(s, G, pk, budget, cache), pk, sugar)
        reductions += 1
        if p is None:
            zeros += 1
        else:
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
    return reduced, Gmin, (reductions, zeros)


def _integer_terms(p: Polynomial) -> dict:
    """p's terms, once each coefficient is checked to be an int: the engine
    is fraction-free."""
    for c in p.terms.values():
        if not isinstance(c, int):
            raise AlgebraError(f"coefficient {c!r} is not an integer; clear denominators first")
    return p.terms


def _enter(polys: list[Polynomial], pk: _Packing) -> list[_IntPoly]:
    """Each nonzero integer-coefficient input as its primitive form with a
    positive leading coefficient."""
    pack = pk.pack
    return [_normalize({pack(m): c for m, c in _integer_terms(p).items()}, pk) for p in polys]


def _saturator(d: Polynomial, u: int, pk: _Packing) -> _IntPoly:
    """d*u - 1, which saturates the ideal by d; u is a packed variable past
    d's table. A zero d gives the constant -1."""
    times_u = (0,) * (u - len(d.table)) + (1,)
    terms = {pk.pack(m + times_u): c for m, c in _integer_terms(d).items()}
    terms[0] = -1
    return _normalize(terms, pk)


def _invariance(
    factors: list[Polynomial], polys: list[Polynomial], elim: tuple[int, ...]
) -> tuple[bool, bool, int | None]:
    """(shift, homogeneous, line) for the factors and polys together, in
    one pass over their exponent tuples. shift: D p = 0 for every p, D the
    sum of the partial derivatives by the variables of elim, so each p is
    invariant under the translations x_v -> x_v + t of all v in elim
    together. homogeneous: each p has all its terms of one total degree in
    elim. line: when homogeneous, the index of the first factor that is a
    linear form in elim, each term an integer times one of its variables,
    else None; a zero factor has no terms and no degree. The pass visits
    the factors first, which are short and fail both tests at once when
    a constant stands for a point, and stops once both tests have
    failed."""
    shift = homogeneous = True
    line = None
    nf = len(factors)
    for i, p in enumerate(factors + polys):
        dp: dict[tuple[int, ...], int] = {}
        deg = None
        for m, c in p.terms.items():
            d = 0
            for v in elim:
                k = m[v]
                if k:
                    d += k
                    if shift:
                        q = m[:v] + (k - 1,) + m[v + 1:]
                        dp[q] = dp.get(q, 0) + k * c
            if deg is None:
                deg = d
            elif d != deg and homogeneous:
                homogeneous = False
                if not shift:
                    break
        if shift and any(dp.values()):
            shift = False
        if not (shift or homogeneous):
            return False, False, None
        if deg == 1 and line is None and i < nf and all(sum(m) == 1 for m in p.terms):
            line = i
    return shift, homogeneous, line if homogeneous else None


def _origin(polys: list[Polynomial], elim: tuple[int, ...]) -> int | None:
    """The last variable of elim that occurs in polys, or None."""
    for v in reversed(elim):
        if any(p.contains_var(v) for p in polys):
            return v
    return None


def _solution(l: Polynomial) -> tuple[int, int, Polynomial]:
    """(w, c, r) for a nonzero linear form l with integer coefficients: x_w
    is the first variable of l in table order, c its coefficient, and r =
    1 - (l - c*x_w), so that l = 1 is x_w = r/c."""
    w, m = min((m.index(1), m) for m in l.terms)
    rest = Polynomial._trusted(l.table, {k: -a for k, a in l.terms.items() if k != m})
    return w, l.terms[m], rest + Polynomial.constant(l.table, 1)


def _set_to_1(p: Polynomial, w: int, c: int, r: Polynomial) -> Polynomial:
    """c^k times p with x_w = r/c, for k p's degree in x_w: by Horner's
    rule on p's coefficients p_j in x_w, the sum of c^(k - j) p_j r^j, which
    has integer coefficients."""
    k = p.degree_in(w)
    if not k:
        return p
    parts = [{} for _ in range(k + 1)]
    for m, a in p.terms.items():
        j = m[w]
        parts[j][m[:w] + (0,) + m[w + 1:]] = a * c ** (k - j)
    out = Polynomial._trusted(p.table, parts[k])
    for j in range(k - 1, -1, -1):
        out = (out * r)._plus(parts[j].items())
    return out


def _at_origin(p: Polynomial, v0: int) -> Polynomial:
    """p with x_v0 = 0: its terms free of x_v0."""
    return Polynomial._trusted(p.table, {m: c for m, c in p.terms.items() if not m[v0]})


def _exit(recs, table: VarTable, pk: _Packing) -> tuple[Polynomial, ...]:
    """The records as Polynomials over the table's variables, coefficients
    unchanged, sorted by leading monomial ascending. Fields packed past
    them must be zero."""
    read = pk.reader(len(table))
    return tuple(
        Polynomial._trusted(table, {read(m): c for m, c in d.terms.items()})
        for d in sorted(recs, key=lambda d: d.lm)
    )


# ---------------------------------------------------------------------------
# Public operations.


def groebner_basis(
    F: Iterable[Polynomial],
    order: MonomialOrder,
    config: GroebnerConfig | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by F, polynomials with
    integer coefficients, under `order`, each generator integer-primitive
    with a positive leading coefficient under `order`. Deterministic for a
    fixed input list. A coefficient that is not an int raises
    AlgebraError."""
    config = config or DEFAULT_CONFIG
    polys = [f for f in F if not f.is_zero]
    if not polys:
        return GroebnerBasis((), order)
    pk = _Packing(order, len(polys[0].table))
    out, _, _ = _buchberger(_enter(polys, pk), pk, _Budget(config))
    return GroebnerBasis(_exit(out, polys[0].table, pk), order)


def eliminate(
    F: Iterable[Polynomial],
    elim_vars: Iterable[int],
    config: GroebnerConfig | None = None,
    after: EliminationResult | None = None,
    saturate: Iterable[Polynomial] = (),
) -> EliminationResult:
    """Generators of the saturation of ideal(F) by each polynomial in
    `saturate`, intersected with the ring in the kept variables. F and
    `saturate` hold polynomials with integer coefficients; any other
    coefficient raises AlgebraError. With
    `after`, the result of an elimination of the same variables, the ideal
    is ideal(F) plus the ideal `after` was computed for, whose saturation
    it inherits.

    One Buchberger run under Block(GrevLex(us + eliminated), GrevLex(kept)),
    with one Rabinowitsch variable u_k past the table's last for each
    factor d_k to saturate by and d_k*u_k - 1 among the generators. A
    nonzero constant factor cannot vanish and gets none; a zero factor
    makes the ideal the whole ring. By the elimination theorem the elements
    of the run's basis free of the block are a basis of the elimination
    ideal, and the run reduces only those. The order inside the block
    does not change them, only the work it takes.

    A first run makes two exact tests on the exponent tuples of each
    factor and each polynomial of F, in one pass, factors first, that
    stops once both have failed.

    Translation: D p = 0, for D the sum of the partial derivatives by the
    eliminated variables. When D kills all of them, they are invariant
    under moving every eliminated variable by the same t, and the run
    drops each term that holds v0, the last eliminated variable that
    occurs in them (the smallest of the block under its grevlex order).
    That sets x_v0 = 0, which is what the automorphism x_v -> x_v + x_v0
    (v eliminated, v != v0) does to an invariant polynomial; it fixes the
    kept and the Rabinowitsch variables, so the elimination ideal does not
    change. The result records v0 as `origin`, and its block basis is a
    basis of the translated ideal.

    Scale: every term of p has one total degree in the eliminated
    variables. When that holds for all of them, the run takes l, the
    first factor that is a linear form in the eliminated variables, each
    term an integer times one of them (a zero factor has no degree, and
    solving a factor with a kept variable in a term would divide by a
    polynomial). After the translation, x_w is l's first variable in table
    order and c its coefficient; the run substitutes x_w = (1 - (l -
    c*x_w))/c into every generator and every factor, times c^k for k its
    degree in x_w, so that the coefficients stay integers. It drops each
    factor that turns into a nonzero constant, l among them, and enters a
    factor equal to an earlier one up to a constant once, so x_w occurs in
    no generator and l has no Rabinowitsch variable. This is sound. Give
    each eliminated variable weight 1, each u_k weight -deg d_k and each
    kept variable weight 0. Then every generator of the saturated ideal J
    is weighted-homogeneous, and so is J. Let p in the kept variables lie
    in J + <l - 1>, p = j + (l - 1)h, and let h have no component of
    weight above N - 1. Summing l^(N - w) times the weight-w component of
    p - j = (l - 1)h over w telescopes to 0, so l^N p is a sum of
    multiples of the components of j, each in J. Since l*u - 1 is in J, l
    is invertible modulo J, and p is in J: J and J + <l - 1> have the same
    kept elements. The translation maps J + <l - 1> to an ideal with the
    same kept elements that holds l' - 1, l' the translated l, and the
    substitution is the isomorphism k[X, K, U]/<l' - 1> -> k[X minus x_w,
    K, U] that fixes the kept variables K and every u_k. So the kept
    elements are those of the ideal the substituted generators generate.
    There l*u - 1 is u - 1, a factor that turns into the constant a gives
    a*u_k - 1, and a factor equal to an earlier one's times a gives u_j -
    a*u_k, each of which only fixes a u_k that occurs nowhere else, so
    leaving them out changes no kept element.
    The result records l, as given, as `scale`.

    With `after`, F must lie in the kept variables, as the prover's
    divisor does; a polynomial that holds an eliminated variable raises
    AlgebraError. The translation and the substitution fix the kept
    variables, so F enters as given: the run starts from after's minimal
    block basis and its packing and enters only the pairs with F's
    elements and their successors.

    The result is the unique reduced basis under GrevLex on the kept
    variables, the print order on them, each generator scaled to coprime
    integer coefficients and a positive leading coefficient.
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
        if any(p.contains_var(v) for p in polys for v in elim):
            raise AlgebraError("a continued elimination takes only kept-variable generators")
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
        shift, _, line = _invariance(factors, polys, elim)
        origin = _origin(polys + factors, elim) if shift else None
        scale = None if line is None else factors[line]
        if origin is not None:
            polys = [_at_origin(p, origin) for p in polys]
            factors = [_at_origin(d, origin) for d in factors]
        if scale is not None:
            sub = _solution(factors[line])
            polys = [_set_to_1(p, *sub) for p in polys]
            # l, and each factor that turns constant with it, can no longer
            # vanish, and a factor equal to another up to a constant
            # saturates by the same
            distinct = {}
            for d in factors:
                d = _set_to_1(d, *sub)
                if d.is_zero:
                    distinct.setdefault(frozenset(), d)
                elif not d.is_constant:
                    distinct.setdefault(frozenset(_primitive(d.terms)[1].items()), d)
            factors = list(distinct.values())
        us = tuple(range(n, n + len(factors)))
        pk, seed = _Packing(Block(GrevLex(us + elim), GrevLex(kept)), n + len(us)), ()
        gens = _enter(polys, pk) + [_saturator(d, u, pk) for d, u in zip(factors, us)]
    else:
        origin, scale = after.origin, after.scale
        pk, seed = after.packing, after.block_basis
        gens = _enter(polys, pk)
    drop = sum(_FIELD << s for v, s in enumerate(pk.shifts) if v not in kept)
    reduced, basis, (reductions, zeros) = _buchberger(gens, pk, _Budget(config), drop, seed)
    if any(m & drop for d in reduced for m in d.terms):
        raise AlgebraError("internal: eliminated variable survived")
    return EliminationResult(
        _exit(reduced, table, pk), elim, tuple(basis), pk, reductions, zeros, origin, scale
    )


def ideal_is_trivial(G: GroebnerBasis | EliminationResult) -> bool:
    """True iff the ideal is the whole ring, i.e. some generator is a
    nonzero constant."""
    return any(g.is_constant and not g.is_zero for g in G.generators)
