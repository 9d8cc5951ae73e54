"""The extended value lattice [0, top] with an extra bottom element.

Elements are bottom, an exact nonnegative rational, or top, totally
ordered as bottom < 0 <= q < top.  All arithmetic is exact.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple, Union

from .errors import ParseError

# An exact rational: an int when integral, else a Fraction with denominator > 1.
# Divide two of them with ``div``, or ``Fraction(a, b)``: int / int is a float.
Rational = Union[int, Fraction]
RationalLike = Union[int, str, Fraction]

# Fraction("1e999999999") would build a billion-digit integer.
MAX_LITERAL_CHARS = 256
MAX_LITERAL_EXPONENT = 256
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")

_BOT_RANK = 0
_FIN_RANK = 1
_TOP_RANK = 2


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


class Frozen:
    """Immutable value: a subclass names its two or more fields in
    ``__slots__`` and passes them to ``Frozen.__init__`` in that order.
    Equal only within its class; the hash is computed once, as the solve's
    memo hashes its operands on every request.  Unlike a frozen dataclass,
    it keeps ``dataclasses`` out of the CLI's start-up."""

    __slots__ = ("_hash",)

    def __init_subclass__(cls) -> None:
        cls._fields = attrgetter(*cls.__slots__)

    def __init__(self, *fields) -> None:
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._fields(self))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields(self)


def as_fraction(q: RationalLike) -> Rational:
    """Coerce ints, Fractions and "p/q" strings to an exact rational: an
    int when integral, else a Fraction.

    A bool is an int to Python but a JSON ``true``/``false`` here, so it
    is rejected.
    """
    if isinstance(q, int) and not isinstance(q, bool):
        return int(q)
    if isinstance(q, str):
        exp = _EXPONENT.search(q)
        if len(q) > MAX_LITERAL_CHARS or exp and abs(int(exp[1])) > MAX_LITERAL_EXPONENT:
            raise ParseError(
                f"rational literal {q[:32]!r} is over {MAX_LITERAL_CHARS} characters "
                f"or its exponent over {MAX_LITERAL_EXPONENT}"
            )
        try:
            return int(q)  # most literals are integers, and int parses them in C
        except ValueError:
            pass
        try:
            q = Fraction(q)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {q!r}") from exc
    elif not isinstance(q, Fraction):
        raise ParseError(f"cannot interpret {q!r} as a rational")
    return exact(q)


def div(a: Rational, b: Rational) -> Rational:
    """The exact quotient a / b: an int when integral, else a Fraction."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return exact(a / b)  # a Fraction on either side keeps it exact


def exact(q: Rational) -> Rational:
    """q as an int when integral: Fraction arithmetic can give Fraction(k, 1)."""
    return q.numerator if q.denominator == 1 else q


def json_flag(obj: dict, key: str, default: bool) -> bool:
    """Read an optional boolean field of a JSON object; anything else is a ParseError."""
    flag = obj.get(key, default)
    if not isinstance(flag, bool):
        raise ParseError(f"{key!r} must be true or false, got {flag!r}")
    return flag


def finite(q: RationalLike) -> ExtValue:
    frac = as_fraction(q)
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
