"""The extended value lattice [0, top] with an extra bottom element.

Elements are bottom, an exact nonnegative rational, or top, totally
ordered as bottom < 0 <= q < top.  All arithmetic is exact, in ints and
``Ratio``s: Fractions whose arithmetic skips ``numbers``' ABC checks.
"""

from __future__ import annotations

import operator
import re
import weakref
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Union

from .errors import ParseError

# An exact rational: an int when integral, else a Fraction with denominator > 1,
# a Ratio in energy-function fields.  Divide with ``div``: int / int is a float.
Rational = Union[int, Fraction]
RationalLike = Union[int, str, Fraction]

# Fraction("1e999999999") would build a billion-digit integer.
MAX_LITERAL_CHARS = 256
MAX_LITERAL_EXPONENT = 256
_EXPONENT = r"[eE]([-+]?\d+(?:_\d+)*)"  # re compiles and caches it on first search

_BOT_RANK = 0
_FIN_RANK = 1
_TOP_RANK = 2


def _method(name: str, combine, compare: bool = False):
    """Fraction's ``name`` on a Ratio a = n1/d1 and b = n2/d2: ``combine(n1,
    d1, n2, d2)``, or ``combine(n1 d2, n2 d1)`` to ``compare``.  An int or a
    Ratio b skips the ``numbers`` checks; None (an unset boundary) is no
    number, and any other b that is no Fraction goes to Fraction."""
    fallback = getattr(Fraction, name)

    def method(a, b):
        t = type(b)
        if t is int:
            n, d = b, 1
        elif t is Ratio:
            n, d = b._numerator, b._denominator
        elif b is not None and isinstance(b, Fraction):
            n, d = b.numerator, b.denominator
        else:
            return NotImplemented if b is None else fallback(a, b)
        if compare:
            return combine(a._numerator * d, n * a._denominator)
        return combine(a._numerator, a._denominator, n, d)

    return method


class Ratio(Fraction):
    """A non-integral Fraction, built by ``ratio`` or ``exact``, whose
    arithmetic and comparisons give an int when integral and skip the
    ``numbers`` checks; its str, repr, hash and == are Fraction's."""

    __slots__ = ()
    __add__ = __radd__ = _method("__add__", lambda n1, d1, n2, d2: ratio(n1 * d2 + n2 * d1, d1 * d2))
    __sub__ = _method("__sub__", lambda n1, d1, n2, d2: ratio(n1 * d2 - n2 * d1, d1 * d2))
    __rsub__ = _method("__rsub__", lambda n1, d1, n2, d2: ratio(n2 * d1 - n1 * d2, d1 * d2))
    __mul__ = __rmul__ = _method("__mul__", lambda n1, d1, n2, d2: ratio(n1 * n2, d1 * d2))
    __truediv__ = _method("__truediv__", lambda n1, d1, n2, d2: ratio(n1 * d2, d1 * n2))
    __rtruediv__ = _method("__rtruediv__", lambda n1, d1, n2, d2: ratio(n2 * d1, d2 * n1))
    __eq__, __lt__, __le__, __gt__, __ge__ = (
        _method(f"__{op}__", getattr(operator, op), True) for op in ("eq", "lt", "le", "gt", "ge"))
    __hash__ = Fraction.__hash__  # a class that defines __eq__ inherits no hash

    def __neg__(self) -> Rational:
        return ratio(-self._numerator, self._denominator)

    def __repr__(self) -> str:
        return f"Fraction({self._numerator}, {self._denominator})"


def ratio(n: int, d: int) -> Rational:
    """n / d in lowest terms: an int when integral, else a Ratio."""
    if not d:
        raise ZeroDivisionError(f"{n}/0")
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    if g == d:
        return n // d
    q = object.__new__(Ratio)  # Fraction.__new__ would check the types again
    q._numerator, q._denominator = n // g, d // g
    return q


class ExtValue(NamedTuple):
    """Immutable element of the lattice [0, top] with bottom adjoined.

    The pair (rank, finite value), with rank 0 for bottom, 1 for a finite
    value and 2 for top, and no finite value on bottom and top: tuple
    order, equality and hash are the lattice's.
    """

    rank: int
    finite_value: Rational | None

    @property
    def is_bottom(self) -> bool:
        return self.rank == _BOT_RANK

    @property
    def is_top(self) -> bool:
        return self.rank == _TOP_RANK

    @property
    def is_finite(self) -> bool:
        return self.rank == _FIN_RANK

    @property
    def value(self) -> Rational:
        if self.finite_value is None:
            raise ValueError("no finite value on bottom/top")
        return self.finite_value

    def __repr__(self) -> str:
        return f"ExtValue({format_ext(self)!r})"


BOTTOM = ExtValue(_BOT_RANK, None)
TOP = ExtValue(_TOP_RANK, None)
_INTERNED = weakref.WeakValueDictionary()  # every live Frozen value, by (class, *fields)


class Frozen:
    """Immutable interned value: a subclass names its two or more fields in
    ``__slots__`` and passes them to ``Frozen.__new__`` in that order.  Equal
    fields give one object, so == and hash are identity's, and a weak table
    holds the values.  Build one through its constructor, in one thread at a
    time.  Unlike a frozen dataclass, it keeps ``dataclasses`` out of start-up."""

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls) -> None:
        cls._fields = operator.attrgetter(*cls.__slots__)

    def __new__(cls, *fields):
        key = (cls, *fields)
        self = _INTERNED.get(key)
        if self is None:
            self = _INTERNED[key] = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields(self)


def as_fraction(q: RationalLike) -> Rational:
    """Coerce ints, Fractions and "p/q" strings to an exact rational: an
    int when integral, else a Fraction, a ``Ratio`` from a plain "p/q".

    A bool is an int to Python but a JSON ``true``/``false`` here, so it
    is rejected.
    """
    if isinstance(q, int) and not isinstance(q, bool):
        return int(q)
    if isinstance(q, str):
        if len(q) <= MAX_LITERAL_CHARS:
            # the common ASCII "p/q" without Fraction's regular expression,
            # then the integers, which int parses in C; any other text, a
            # zero denominator too, takes the checks below
            num, slash, den = q.partition("/")
            if slash and q.isascii() and num.isdigit() and den.strip("0").isdigit():
                return ratio(int(num), int(den))
            try:
                return int(q)
            except ValueError:
                pass
        # int takes no exponent, so only the literals that get here are searched for one
        if len(q) > MAX_LITERAL_CHARS or (
                (exp := re.search(_EXPONENT, q)) and abs(int(exp[1])) > MAX_LITERAL_EXPONENT):
            raise ParseError(
                f"rational literal {q[:32]!r} is over {MAX_LITERAL_CHARS} characters "
                f"or its exponent over {MAX_LITERAL_EXPONENT}"
            )
        try:
            q = Fraction(q)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {q!r}") from exc
    elif not isinstance(q, Fraction):
        raise ParseError(f"cannot interpret {q!r} as a rational")
    return q.numerator if q.denominator == 1 else q


def div(a: Rational, b: Rational) -> Rational:
    """The exact quotient a / b: an int when integral, else a Ratio."""
    return ratio(a, b) if type(a) is int is type(b) else exact(a / b)


def exact(q: Rational) -> Rational:
    """q as an int when integral, else a Ratio: Fraction arithmetic can give Fraction(k, 1)."""
    return q if type(q) is int or type(q) is Ratio else ratio(q.numerator, q.denominator)


def json_flag(obj: dict, key: str, default: bool) -> bool:
    """Read an optional boolean field of a JSON object; anything else is a ParseError."""
    flag = obj.get(key, default)
    if not isinstance(flag, bool):
        raise ParseError(f"{key!r} must be true or false, got {flag!r}")
    return flag


def finite(q: RationalLike) -> ExtValue:
    frac = exact(as_fraction(q))
    if frac < 0:
        raise ValueError(f"finite lattice values must be >= 0, got {frac}")
    return ExtValue(_FIN_RANK, frac)


def format_ext(x: ExtValue) -> str:
    if x.is_bottom:
        return "bot"
    if x.is_top:
        return "top"
    return str(x.value)


def parse_ext(text: str) -> ExtValue:
    text = text.strip()
    if text == "bot":
        return BOTTOM
    if text == "top":
        return TOP
    return finite(text)
