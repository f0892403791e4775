"""Exact rational arithmetic: multivariate polynomials over Q on exponent
tuples, monomial orders, the packed monomials (_Packing) that the clearing
and the Groebner engine both work on, and the clearing of complex point
expressions into polynomials.

Everything here is exact. No floating point is used anywhere in the
proving path, since ideal membership decisions must be error-free.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, itemgetter, mul
from struct import Struct
from typing import Mapping


class AlgebraError(ValueError):
    """Raised on structurally invalid algebraic input."""


class ZeroDenominatorError(AlgebraError):
    """A division node whose denominator normalizes to the zero polynomial."""


class VarTable:
    """Ordered registry of variables: complex point variables, then real
    slack variables. The table must be complete before the first polynomial
    is built over it, because every monomial has one exponent per
    variable."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        self._sealed = False

    def add(self, name: str) -> int:
        if self._sealed:
            raise AlgebraError(
                f"cannot add {name!r}: polynomials are already built over this table"
            )
        if name in self._index:
            raise AlgebraError(f"duplicate variable name {name!r}")
        idx = len(self._names)
        self._names.append(name)
        self._index[name] = idx
        return idx

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise AlgebraError(f"unknown variable {name!r}") from None

    def name(self, idx: int) -> str:
        return self._names[idx]

    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __repr__(self) -> str:
        return f"VarTable({', '.join(self._names)})"


# ---------------------------------------------------------------------------
# Immutable records.

_set = object.__setattr__


class Record:
    """Base of the package's immutable value records. A concrete subclass
    lists its fields in its own `__slots__`, and its `__init__` sets them
    through object.__setattr__, after any checks. Records of the same
    class are equal, and hash alike, when their fields are; a record of
    another class compares as NotImplemented. The repr is
    Name(field=value, ...). Fields cannot be assigned or deleted."""

    __slots__ = ()

    # fields left out of the repr
    _hidden: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        """The values that equality and hashing compare: every field."""
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        shown = (f"{f}={getattr(self, f)!r}" for f in self.__slots__ if f not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def _replace(self, **changes):
        """A copy with the named fields changed. The class's __init__ must
        take each field by its name; it checks the new values."""
        return type(self)(**{f: getattr(self, f) for f in self.__slots__} | changes)


# ---------------------------------------------------------------------------
# Monomials are exponent tuples with one entry per variable of the table.


class MonomialOrder(Record):
    """Base for monomial orders on exponent tuples. `blocks()` gives the
    order as grevlex blocks, most significant first: monomials compare
    under the first block's GrevLex, ties go to the next block, and so on.
    _Packing turns that into integers that compare as the monomials do."""

    __slots__ = ()

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        raise NotImplementedError


class GrevLex(MonomialOrder):
    """Graded reverse lexicographic order on the variables in `perm`: the
    larger total degree in them wins; at equal degree, the smaller exponent
    in the last of them where two monomials differ. It ignores the other
    variables."""

    __slots__ = ("perm",)

    def __init__(self, perm: tuple[int, ...]) -> None:
        _set(self, "perm", perm)

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return (self.perm,)


class Block(MonomialOrder):
    """Block order: compare by `first` (the eliminated block), break ties by
    `second`. Any monomial touching a first-block variable exceeds every
    monomial free of them, which is what elimination needs."""

    __slots__ = ("first", "second")

    def __init__(self, first: MonomialOrder, second: MonomialOrder) -> None:
        _set(self, "first", first)
        _set(self, "second", second)

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return self.first.blocks() + self.second.blocks()


# ---------------------------------------------------------------------------
# Packed monomials (Monagan and Pearce, CASC 2007).

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
    degree. A grevlex block over perm contributes len(perm) rows, the
    exponent sums of perm, perm[:-1], ..., perm[:1] in that order. Each
    field is a 0/1 sum of exponents, so it never exceeds the total degree,
    and a product of monomials is the sum of their ints, a quotient the
    difference. The weight rows come first, so comparing ints compares
    monomials under the order."""

    __slots__ = ("units", "shifts", "exp", "guard", "by_field")

    def __init__(self, order: MonomialOrder, n: int) -> None:
        blocks = order.blocks()
        covered = {v for perm in blocks for v in perm}
        blocks += tuple((v,) for v in range(n) if v not in covered)
        self.shifts = tuple(_WIDTH * (n - v) for v in range(n))
        units = [1 + (1 << s) for s in self.shifts]
        # the row fields, from the top one down to the one above variable 0
        row = n + sum(map(len, blocks))
        for perm in blocks:
            # perm[j] sits in the block's top len(perm) - j rows
            acc = 0
            for v in reversed(perm):
                acc += 1 << _WIDTH * row
                row -= 1
                units[v] += acc
        self.units = tuple(units)
        self.exp = sum((_HALF - 1) << s for s in self.shifts)
        self.guard = sum(_HALF << s for s in self.shifts)
        # the unit of the variable whose exponent sits in field k, counted
        # from the degree field (k = 0) up
        self.by_field = (0,) + self.units[::-1]

    def pack(self, m: tuple[int, ...]) -> int:
        """A tuple shorter than n leaves the fields past it zero."""
        if sum(m) >= _HALF:
            raise _too_big()
        return sum(map(mul, m, self.units))

    def reader(self, n: int):
        """The function from a packed monomial to the exponents of variables
        0 to n-1: their fields are adjacent, variable 0's on top, and below
        the guard bit each fits 16 bits unsigned."""
        shift = _WIDTH * (len(self.shifts) - n + 1)
        mask = (1 << _WIDTH * n) - 1
        size = 2 * n
        unpack = Struct(f">{n}H").unpack
        return lambda p: unpack((p >> shift & mask).to_bytes(size, "big"))

    def lift(self, e: int) -> int:
        """The packed monomial whose exponent fields are e. It visits only
        the nonzero fields, from the top one down."""
        p = deg = 0
        by_field = self.by_field
        while e:
            k = (e.bit_length() - 1) // _WIDTH
            x = e >> _WIDTH * k
            e -= x << _WIDTH * k
            p += x * by_field[k]
            deg += x
        if deg >= _HALF:
            raise _too_big()
        return p

    def lcms(self, a: int, bs) -> list[int]:
        """The exponent fields of lcm(a, b) for each b in bs, all given as
        exponent fields. In each field, a's exponent minus b's, with the
        field's guard bit set, keeps that bit iff a's is at least b's; ge
        holds those bits and sel the value bits of their fields."""
        exp, guard = self.exp, self.guard
        ag = a | guard
        out = []
        for b in bs:
            ge = (ag - b) & guard
            sel = ge - (ge >> (_WIDTH - 1))
            out.append((a & sel) | (b & (exp ^ sel)))
        return out

    def divides(self, d: int, m: int) -> bool:
        """True iff monomial d divides monomial m: with the guard bits of m's
        exponent fields set, subtracting d's exponents clears none of them."""
        g = self.guard
        return (((m & self.exp) | g) - (d & self.exp)) & g == g


def _primitive(terms: dict[int, int]) -> tuple[int, dict[int, int]]:
    """(g, terms / g) for nonzero integer terms on packed monomials: g is
    their content, signed so that the quotient's coefficient at the largest
    monomial, the leading one under the packing's order, is positive."""
    g = 0
    for c in terms.values():
        g = gcd(g, c)
        if g == 1:
            break
    if terms[max(terms)] < 0:
        g = -g
    elif g == 1:
        return 1, terms
    return g, {m: c // g for m, c in terms.items()}


def _print_rank(m: tuple[int, ...]) -> tuple:
    """The sort key of the print order, the one order outside the engine:
    grevlex over the table's variables in table order, GrevLex(range(n)).
    Polynomials are printed and sign-normalized under it. Ascending keys
    list monomials in descending order: a higher degree first, then, at
    equal degree, the smaller exponent in the last variable where they
    differ."""
    return (-sum(m), m[::-1])


class Polynomial:
    """Polynomial over Q attached to a variable table. Terms map exponent
    tuples of length len(table) to rational coefficients; the zero
    polynomial is the empty map and no zero coefficient is ever stored.
    Building a polynomial seals its table against new variables.

    Arithmetic is plain arithmetic on the coefficients as they are: the
    clearing and the engine build integer coefficients only, and sums and
    products of ints stay ints. A Fraction coefficient, from a test or a
    display scaling, stays a Fraction."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[tuple[int, ...], int | Fraction]) -> None:
        table._sealed = True
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "terms", {m: c for m, c in terms.items() if c})

    @classmethod
    def _trusted(
        cls, table: VarTable, terms: dict[tuple[int, ...], int | Fraction]
    ) -> "Polynomial":
        """Wrap terms whose coefficients are already nonzero, without
        copying."""
        p = object.__new__(cls)
        table._sealed = True
        object.__setattr__(p, "table", table)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, table: VarTable) -> "Polynomial":
        return cls(table, {})

    @classmethod
    def constant(cls, table: VarTable, c) -> "Polynomial":
        return cls._trusted(table, {(0,) * len(table): c} if c else {})

    @classmethod
    def variable(cls, table: VarTable, v: int) -> "Polynomial":
        n = len(table)
        if not 0 <= v < n:
            raise AlgebraError(f"variable index {v} out of range")
        return cls._trusted(table, {(0,) * v + (1,) + (0,) * (n - v - 1): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not any(any(m) for m in self.terms)

    def constant_value(self) -> int | Fraction:
        if not self.is_constant:
            raise AlgebraError("polynomial is not constant")
        return self.terms.get((0,) * len(self.table), 0)

    @property
    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def degree_in(self, v: int) -> int:
        return max(map(itemgetter(v), self.terms), default=0)

    def contains_var(self, v: int) -> bool:
        return any(map(itemgetter(v), self.terms))

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
        out = {}
        get = out.get
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = tuple(map(add, ma, mb))
                out[m] = get(m, 0) + ca * cb
        return Polynomial(self.table, out)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise AlgebraError("negative polynomial power")
        acc = Polynomial.constant(self.table, 1)
        for _ in range(k):
            acc = acc * self
        return acc

    def scale(self, c) -> "Polynomial":
        if c == 1:
            return self
        return Polynomial(self.table, {m: a * c for m, a in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.table is other.table
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.table), frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int | Fraction]]:
        """Terms descending under the print order."""
        return sorted(self.terms.items(), key=lambda t: _print_rank(t[0]))

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


# ---------------------------------------------------------------------------
# Rational point expressions


class Expr(Record):
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


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Fraction) -> None:
        _set(self, "value", Fraction(value))


class PointRef(Expr):
    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        _set(self, "index", index)


class _Binary(Expr):
    """A node with the fields left and right, each listed by the subclass."""

    __slots__ = ()

    def __init__(self, left: Expr, right: Expr) -> None:
        _set(self, "left", left)
        _set(self, "right", right)


class Add(_Binary):
    __slots__ = ("left", "right")


class Sub(_Binary):
    __slots__ = ("left", "right")


class Mul(_Binary):
    __slots__ = ("left", "right")


class Div(_Binary):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr) -> None:
        if isinstance(right, Const) and right.value == 0:
            raise ZeroDenominatorError("division by the constant zero")
        _set(self, "left", left)
        _set(self, "right", right)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int) -> None:
        if exponent < 0:
            raise AlgebraError("Pow exponent must be nonnegative")
        _set(self, "base", base)
        _set(self, "exponent", exponent)


_BINARY = frozenset((Add, Sub, Mul, Div))


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(Fraction(x))
    raise AlgebraError(f"cannot treat {x!r} as an expression")


def expr_postorder(e: Expr) -> list[Expr]:
    """The nodes of e, each after its children and a left subtree before the
    right one: the order in which a recursive walk finishes them. It is
    found without recursion, so that a long sum or product needs no
    interpreter frames: listed root first, right subtree before left, the
    nodes come out in exactly the reverse order."""
    order = []
    todo = []
    x = e
    while True:
        order.append(x)
        t = type(x)
        if t in _BINARY:
            todo.append(x.left)
            x = x.right
        elif t is Pow:
            x = x.base
        elif t is Const or t is PointRef:
            if not todo:
                break
            x = todo.pop()
        else:
            raise AlgebraError(f"unknown expression node {x!r}")
    order.reverse()
    return order


def expr_substitute(e: Expr, mapping: Mapping[int, Expr]) -> Expr:
    """Replace point references by expressions. References absent from the
    mapping stay as they are, and so does every subtree without one."""
    vals = []
    for x in expr_postorder(e):
        t = type(x)
        if t in _BINARY:
            right = vals.pop()
            left = vals[-1]
            if left is not x.left or right is not x.right:
                vals[-1] = t(left, right)
            else:
                vals[-1] = x
        elif t is Pow:
            if vals[-1] is not x.base:
                vals[-1] = Pow(vals[-1], x.exponent)
            else:
                vals[-1] = x
        elif t is PointRef:
            vals.append(mapping.get(x.index, x))
        else:
            vals.append(x)
    return vals[0]


def expr_points(e: Expr) -> set[int]:
    """The indices of the points e references."""
    return {x.index for x in expr_postorder(e) if type(x) is PointRef}


# ---------------------------------------------------------------------------
# Clearing denominators on the print order's packed monomials.

_ONE = {0: 1}  # the constant 1; shared, so never mutated


@lru_cache(maxsize=None)
def _print_packing(n: int) -> _Packing:
    """The packing under which expressions over n variables are cleared,
    that of the print order: the largest int is the leading monomial."""
    return _Packing(GrevLex(tuple(range(n))), n)


def _packed_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of two polynomials on packed monomials. _ONE is the
    identity and is returned as is."""
    if a is _ONE:
        return b
    if b is _ONE:
        return a
    if not a or not b:
        return {}
    # the largest monomial has the largest total degree, the lowest field
    if (max(a) & _FIELD) + (max(b) & _FIELD) >= _HALF:
        raise _too_big()
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        ((mb, cb),) = b.items()
        return {m + mb: c * cb for m, c in a.items()}
    out = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            out[m] = get(m, 0) + ca * cb
    if 0 in out.values():
        out = {m: c for m, c in out.items() if c}
    return out


def _packed_combine(a: dict[int, int], ka: int, b: dict[int, int], kb: int) -> dict[int, int]:
    """ka*a + kb*b for nonzero integers ka and kb."""
    out = dict(a) if ka == 1 else {m: c * ka for m, c in a.items()}
    get = out.get
    for m, c in b.items():
        c *= kb
        old = get(m)
        if old is not None:
            c += old
            if not c:
                del out[m]
                continue
        out[m] = c
    return out


def _clear(e: Expr, n: int, factors: dict) -> dict[int, int]:
    """The numerator num of e cleared over n variables, with integer
    coefficients on the print order's packed monomials: num = s*den*e for
    a positive integer s and den the product of the factors met. Each
    intermediate is kept as num/(s*den) with its own s and den; a Div whose
    divisor is not constant enters the divisor's primitive part, with a
    positive leading coefficient, into `factors` under its terms if no
    equal factor is there, and multiplies it into den. The final s is
    dropped: a nonzero constant factor changes no ideal."""
    units = _print_packing(n).units
    vals = []  # (numerator terms, its positive denominator, denominator terms)
    for x in expr_postorder(e):
        t = type(x)
        if t is Const:
            v = x.value
            vals.append((({0: v.numerator} if v else {}), v.denominator, _ONE))
            continue
        if t is PointRef:
            if not 0 <= x.index < n:
                raise AlgebraError(f"variable index {x.index} out of range")
            vals.append(({units[x.index]: 1}, 1, _ONE))
            continue
        if t is Pow:
            nb, sb, db = vals[-1]
            num = den = _ONE
            for _ in range(x.exponent):
                num, den = _packed_mul(num, nb), _packed_mul(den, db)
            vals[-1] = (num, sb**x.exponent, den)
            continue
        nr, sr, dr = vals.pop()
        nl, sl, dl = vals[-1]
        if t is Mul:
            vals[-1] = (_packed_mul(nl, nr), sl * sr, _packed_mul(dl, dr))
        elif t is not Div:
            s = sl if sl == sr else sl // gcd(sl, sr) * sr
            kr = s // sr if t is Add else -(s // sr)
            num = _packed_combine(_packed_mul(nl, dr), s // sl, _packed_mul(nr, dl), kr)
            vals[-1] = (num, s, _packed_mul(dl, dr))
        else:
            # (nl/sl)/dl over (nr/sr)/dr is nl*dr*sr / (sl*nr*dl), and nr is
            # g times a primitive factor with a positive leading coefficient;
            # a constant nr folds into the coefficients.
            if not nr:
                raise ZeroDenominatorError("denominator normalizes to the zero polynomial")
            g, prim = _primitive(nr)
            num = _packed_mul(nl, dr)
            k = sr if g > 0 else -sr
            if k != 1:
                num = {m: c * k for m, c in num.items()}
            if prim != _ONE:
                dl = _packed_mul(dl, factors.setdefault(frozenset(prim.items()), prim))
            vals[-1] = (num, sl * abs(g), dl)

    return vals[0][0]


def clear_relations(
    exprs: list[Expr], table: VarTable
) -> tuple[list[Polynomial], list[Polynomial]]:
    """Clear the denominators of each expression e: its numerator num, with
    integer coefficients and num = s*den*e for a positive integer s and den
    a product of the listed factors, and the distinct denominator factors
    of all of them, in first-seen order. Each Div node whose divisor is not
    constant contributes the divisor's primitive part, with a positive
    leading coefficient under the print order, so equal factors of
    different expressions are listed once; a constant divisor folds into
    the numerator's coefficients. No denominator is built.

    The walk keeps each intermediate numerator as integer coefficients on
    packed monomials over one positive integer denominator, and each
    intermediate denominator, a product of factors, as integer coefficients
    alone; Polynomials are built only for the results."""
    n = len(table)
    read = _print_packing(n).reader(n)

    def polynomial(terms: dict[int, int]) -> Polynomial:
        return Polynomial._trusted(table, {read(m): c for m, c in terms.items()})

    factors: dict[frozenset, dict[int, int]] = {}  # first-seen order
    nums = [polynomial(_clear(e, n, factors)) for e in exprs]
    return nums, [polynomial(f) for f in factors.values()]
