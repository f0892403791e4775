"""Exact rational arithmetic: multivariate polynomials over Q on exponent
tuples, monomial orderings, and the normalization of complex point
expressions into cleared fractions.

Everything here is exact. No floating point is used anywhere in the
proving path, since ideal membership decisions must be error-free.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add
from typing import Mapping

Rational = Fraction


class AlgebraError(ValueError):
    """Raised on structurally invalid algebraic input."""


class ZeroDenominatorError(AlgebraError):
    """A division node whose denominator normalizes to the zero polynomial."""


class VarKind(enum.Enum):
    POINT = "point"
    SLACK = "slack"
    RABINOWITSCH = "rabinowitsch"


class VarTable:
    """Ordered registry of variables: complex point variables, real slack
    variables, and Rabinowitsch variables. The table must be complete
    before the first polynomial is built over it, because every monomial
    has one exponent per variable."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._kinds: list[VarKind] = []
        self._index: dict[str, int] = {}
        self._sealed = False

    def add(self, name: str, kind: VarKind) -> int:
        if self._sealed:
            raise AlgebraError(
                f"cannot add {name!r}: polynomials are already built over this table"
            )
        if name in self._index:
            raise AlgebraError(f"duplicate variable name {name!r}")
        idx = len(self._names)
        self._names.append(name)
        self._kinds.append(kind)
        self._index[name] = idx
        return idx

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise AlgebraError(f"unknown variable {name!r}") from None

    def name(self, idx: int) -> str:
        return self._names[idx]

    def kind(self, idx: int) -> VarKind:
        return self._kinds[idx]

    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __repr__(self) -> str:
        return f"VarTable({', '.join(self._names)})"


# ---------------------------------------------------------------------------
# Monomials are exponent tuples with one entry per variable of the table.


class MonomialOrder:
    """Base for monomial orders. Orders compare exponent tuples through sort
    keys; larger key means larger monomial.

    `weights(n)` gives the same order as rows of 0/1 weights over n
    variables, most significant first: comparing the row sums of two
    monomials lexicographically agrees with comparing their keys, for
    monomials that are zero outside the order's variables."""

    def key(self, m: tuple[int, ...]):
        raise NotImplementedError

    def weights(self, n: int) -> list[tuple[int, ...]]:
        raise NotImplementedError


@dataclass(frozen=True)
class GrevLex(MonomialOrder):
    perm: tuple[int, ...]

    def key(self, m: tuple[int, ...]):
        exps = [m[i] for i in self.perm]
        return (sum(exps), tuple(-e for e in reversed(exps)))

    def weights(self, n: int) -> list[tuple[int, ...]]:
        """[deg, S_{k-2}, ..., S_0], where S_j sums the exponents of
        perm[:j+1]: after the degree, a smaller exponent in a later variable
        makes the monomial larger."""
        rows = []
        row = [0] * n
        for v in self.perm:
            row[v] = 1
            rows.append(tuple(row))
        return rows[::-1]


@dataclass(frozen=True)
class Block(MonomialOrder):
    """Block order: compare by `first` (the eliminated block), break ties by
    `second`. Any monomial touching a first-block variable exceeds every
    monomial free of them, which is what elimination needs."""

    first: MonomialOrder
    second: MonomialOrder

    def key(self, m: tuple[int, ...]):
        return (self.first.key(m), self.second.key(m))

    def weights(self, n: int) -> list[tuple[int, ...]]:
        return self.first.weights(n) + self.second.weights(n)


def print_order(table: VarTable) -> GrevLex:
    """The one order outside the engine: grevlex over the table's variables
    in table order. Polynomials are printed and sign-normalized under it."""
    return GrevLex(tuple(range(len(table))))


def _integer_form(
    terms: Mapping[tuple[int, ...], Fraction]
) -> tuple[dict[tuple[int, ...], int], int]:
    """(nums, den) with terms[m] == nums[m] / den: the coefficients as
    integer numerators over one common denominator, the lcm of theirs."""
    den = 1
    for c in terms.values():
        d = c.denominator
        if den % d:
            den = den // gcd(den, d) * d
    if den == 1:
        return {m: c.numerator for m, c in terms.items()}, 1
    return {m: c.numerator * (den // c.denominator) for m, c in terms.items()}, den


class Polynomial:
    """Polynomial over Q attached to a variable table. Terms map exponent
    tuples of length len(table) to Fraction coefficients; the zero
    polynomial is the empty map and no zero coefficient is ever stored.
    Building a polynomial seals its table against new variables.

    Arithmetic runs on integer numerators over one common denominator
    (`_integer_form`) and makes one Fraction per result term."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[tuple[int, ...], Rational]) -> None:
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for m, c in terms.items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                cleaned[m] = c
        table._sealed = True
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def _trusted(cls, table: VarTable, terms: dict[tuple[int, ...], Fraction]) -> "Polynomial":
        """Wrap terms that are already nonzero Fractions, without copying."""
        p = object.__new__(cls)
        table._sealed = True
        object.__setattr__(p, "table", table)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def _from_integers(
        cls, table: VarTable, nums: Mapping[tuple[int, ...], int], den: int = 1
    ) -> "Polynomial":
        """The polynomial with coefficients nums[m] / den; zeros are dropped."""
        if den == 1:
            return cls._trusted(table, {m: Fraction(c) for m, c in nums.items() if c})
        return cls._trusted(table, {m: Fraction(c, den) for m, c in nums.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, table: VarTable) -> "Polynomial":
        return cls(table, {})

    @classmethod
    def constant(cls, table: VarTable, c) -> "Polynomial":
        if type(c) is not Fraction:
            c = Fraction(c)
        return cls._trusted(table, {(0,) * len(table): c} if c else {})

    @classmethod
    def variable(cls, table: VarTable, v: int) -> "Polynomial":
        n = len(table)
        if not 0 <= v < n:
            raise AlgebraError(f"variable index {v} out of range")
        return cls._trusted(table, {(0,) * v + (1,) + (0,) * (n - v - 1): Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not any(any(m) for m in self.terms)

    def _is_one(self) -> bool:
        if len(self.terms) != 1:
            return False
        ((m, c),) = self.terms.items()
        return c == 1 and not any(m)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise AlgebraError("polynomial is not constant")
        return self.terms.get((0,) * len(self.table), Fraction(0))

    @property
    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def degree_in(self, v: int) -> int:
        return max((m[v] for m in self.terms), default=0)

    def contains_var(self, v: int) -> bool:
        return any(m[v] for m in self.terms)

    def _same_table(self, other: "Polynomial") -> None:
        if self.table is not other.table:
            raise AlgebraError("polynomials belong to different variable tables")

    def _plus(self, terms) -> "Polynomial":
        """self plus the (monomial, coefficient) pairs of terms."""
        out = dict(self.terms)
        for m, c in terms:
            old = out.get(m)
            if old is not None:
                c += old
                if not c:
                    del out[m]
                    continue
            out[m] = c
        return Polynomial._trusted(self.table, out)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._same_table(other)
        return self._plus(other.terms.items())

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._same_table(other)
        return self._plus((m, -c) for m, c in other.terms.items())

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._same_table(other)
        if other._is_one():
            return self
        if self._is_one():
            return other
        na, da = _integer_form(self.terms)
        nb, db = _integer_form(other.terms)
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for ma, ca in na.items():
            for mb, cb in nb.items():
                m = tuple(map(add, ma, mb))
                out[m] = get(m, 0) + ca * cb
        return Polynomial._from_integers(self.table, out, da * db)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise AlgebraError("negative polynomial power")
        acc = Polynomial.constant(self.table, 1)
        for _ in range(k):
            acc = acc * self
        return acc

    def scale(self, c) -> "Polynomial":
        if type(c) is not Fraction:
            c = Fraction(c)
        if c == 1:
            return self
        nums, den = _integer_form(self.terms)
        p = c.numerator
        return Polynomial._from_integers(
            self.table, {m: n * p for m, n in nums.items()}, den * c.denominator
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.table is other.table
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.table), frozenset(self.terms.items())))

    def leading_monomial(self, order: MonomialOrder) -> tuple[int, ...]:
        if self.is_zero:
            raise AlgebraError("the zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def leading_coefficient(self, order: MonomialOrder) -> Fraction:
        return self.terms[self.leading_monomial(order)]

    def monic(self, order: MonomialOrder) -> "Polynomial":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading_coefficient(order))

    def substitute(self, assignment: Mapping[int, Rational]) -> "Polynomial":
        """Replace the given variables by rational constants. A value p/q
        for a variable of degree k multiplies the common denominator by
        q^k once; each term gets p^e q^(k-e) for its exponent e."""
        nums, den = _integer_form(self.terms)
        pins = []
        for v, value in assignment.items():
            k = self.degree_in(v)
            if k:
                value = Fraction(value)
                pins.append((v, value.numerator, value.denominator, k))
                den *= value.denominator ** k
        out: dict[tuple[int, ...], int] = {}
        for m, c in nums.items():
            for v, p, q, k in pins:
                e = m[v]
                if q != 1:
                    c *= q ** (k - e)
                if e:
                    if p == 0:
                        break
                    if p != 1:
                        c *= p ** e
                    m = m[:v] + (0,) + m[v + 1:]
            else:
                out[m] = out.get(m, 0) + c
        return Polynomial._from_integers(self.table, out, den)

    def evaluate(self, assignment: Mapping[int, object]):
        """Evaluate at a full assignment. Values only need ring operations,
        so exact complex rationals from the test suite work as well."""
        total = None
        for m, c in self.terms.items():
            term = None
            for v, e in enumerate(m):
                if not e:
                    continue
                f = assignment[v]
                p = f
                for _ in range(e - 1):
                    p = p * f
                term = p if term is None else term * p
            val = c if term is None else term * c
            total = val if total is None else total + val
        return Fraction(0) if total is None else total

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms descending under the print order."""
        order = print_order(self.table)
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Polynomial(0)"
        names = self.table.names()
        bits = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(
                names[v] if e == 1 else f"{names[v]}^{e}" for v, e in enumerate(m) if e
            )
            bits.append(f"{c}" if not mono else f"{c}*{mono}")
        return "Polynomial(" + " + ".join(bits) + ")"


def content_and_primitive(p: Polynomial) -> tuple[Fraction, Polynomial]:
    """Write p = content * primitive with primitive having coprime integer
    coefficients and a positive leading coefficient under the print order."""
    if p.is_zero:
        return Fraction(0), p
    nums, den = _integer_form(p.terms)
    g = gcd(*nums.values())
    if p.leading_coefficient(print_order(p.table)) < 0:
        g = -g
    prim = Polynomial._from_integers(p.table, {m: n // g for m, n in nums.items()})
    return Fraction(g, den), prim


# ---------------------------------------------------------------------------
# Rational point expressions


class Expr:
    """Expression tree over complex point symbols and rational constants."""

    __slots__ = ()

    def __add__(self, other):
        return Add(self, as_expr(other))

    def __radd__(self, other):
        return Add(as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, as_expr(other))

    def __rsub__(self, other):
        return Sub(as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, as_expr(other))

    def __rmul__(self, other):
        return Mul(as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div(as_expr(other), self)

    def __pow__(self, k: int):
        return Pow(self, k)

    def __neg__(self):
        return Sub(Const(Fraction(0)), self)


RationalExpr = Expr


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class PointRef(Expr):
    index: int


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr

    def __post_init__(self):
        if isinstance(self.right, Const) and self.right.value == 0:
            raise ZeroDenominatorError("division by the constant zero")


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        if self.exponent < 0:
            raise AlgebraError("Pow exponent must be nonnegative")


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(Fraction(x))
    raise AlgebraError(f"cannot treat {x!r} as an expression")


def expr_evaluate(e: Expr, assignment: Mapping[int, object]):
    """Evaluate an expression at concrete values. Works for any value type
    with field operations (Fraction, or the exact complex rationals used in
    tests)."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, PointRef):
        return assignment[e.index]
    if isinstance(e, Add):
        return expr_evaluate(e.left, assignment) + expr_evaluate(e.right, assignment)
    if isinstance(e, Sub):
        return expr_evaluate(e.left, assignment) - expr_evaluate(e.right, assignment)
    if isinstance(e, Mul):
        return expr_evaluate(e.left, assignment) * expr_evaluate(e.right, assignment)
    if isinstance(e, Div):
        return expr_evaluate(e.left, assignment) / expr_evaluate(e.right, assignment)
    if isinstance(e, Pow):
        base = expr_evaluate(e.base, assignment)
        out = base ** 0 if hasattr(base, "__pow__") else 1
        try:
            return base ** e.exponent
        except TypeError:
            for _ in range(e.exponent):
                out = out * base
            return out
    raise AlgebraError(f"unknown expression node {e!r}")


def expr_substitute(e: Expr, mapping: Mapping[int, Expr]) -> Expr:
    """Replace point references by expressions. References absent from the
    mapping stay as they are."""
    if isinstance(e, PointRef):
        return mapping.get(e.index, e)
    if isinstance(e, Const):
        return e
    if isinstance(e, Add):
        return Add(expr_substitute(e.left, mapping), expr_substitute(e.right, mapping))
    if isinstance(e, Sub):
        return Sub(expr_substitute(e.left, mapping), expr_substitute(e.right, mapping))
    if isinstance(e, Mul):
        return Mul(expr_substitute(e.left, mapping), expr_substitute(e.right, mapping))
    if isinstance(e, Div):
        return Div(expr_substitute(e.left, mapping), expr_substitute(e.right, mapping))
    if isinstance(e, Pow):
        return Pow(expr_substitute(e.base, mapping), e.exponent)
    raise AlgebraError(f"unknown expression node {e!r}")


def expr_points(e: Expr) -> set[int]:
    if isinstance(e, PointRef):
        return {e.index}
    if isinstance(e, (Add, Sub, Mul, Div)):
        return expr_points(e.left) | expr_points(e.right)
    if isinstance(e, Pow):
        return expr_points(e.base)
    return set()


def expr_normalize(e: Expr, table: VarTable) -> tuple[Polynomial, Polynomial, list[Polynomial]]:
    """Clear denominators: e = num/den as formal rational functions.

    Every Div node contributes its (normalized) denominator polynomial to
    the factor list exactly once, to the first power. Constant denominators
    are folded into the numerator coefficients, so `den` is literally a
    product of powers of the listed factors. The factors are primitive with
    positive leading coefficient under the print order, so equal factors
    of different relations are found equal downstream.
    """
    one = Polynomial.constant(table, 1)
    factors: dict[Polynomial, None] = {}  # first-seen order

    def walk(node: Expr) -> tuple[Polynomial, Polynomial]:
        if isinstance(node, Const):
            return Polynomial.constant(table, node.value), one
        if isinstance(node, PointRef):
            return Polynomial.variable(table, node.index), one
        if isinstance(node, Add):
            nl, dl = walk(node.left)
            nr, dr = walk(node.right)
            return nl * dr + nr * dl, dl * dr
        if isinstance(node, Sub):
            nl, dl = walk(node.left)
            nr, dr = walk(node.right)
            return nl * dr - nr * dl, dl * dr
        if isinstance(node, Mul):
            nl, dl = walk(node.left)
            nr, dr = walk(node.right)
            return nl * nr, dl * dr
        if isinstance(node, Pow):
            nb, db = walk(node.base)
            return nb ** node.exponent, db ** node.exponent
        if isinstance(node, Div):
            nl, dl = walk(node.left)
            nr, dr = walk(node.right)
            if nr.is_zero:
                raise ZeroDenominatorError("denominator normalizes to the zero polynomial")
            num = nl * dr
            if nr.is_constant:
                # purely numeric denominator: fold into coefficients
                return num.scale(1 / nr.constant_value()), dl
            content, prim = content_and_primitive(nr)
            factors[prim] = None
            return num.scale(1 / content), dl * prim
        raise AlgebraError(f"unknown expression node {node!r}")

    num, den = walk(e)
    return num, den, list(factors)
