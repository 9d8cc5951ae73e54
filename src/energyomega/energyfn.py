"""Piecewise-affine energy functions on the extended lattice.

An energy function maps [0, top] with bottom adjoined to itself,
satisfies f(y) >= f(x) + y - x on alive finite points, and is closed
under pointwise supremum, composition and star.  The canonical
representation is a run of left-closed affine segments with slope >= 1,
bracketed by a bottom region below and an optional top region above,
with explicit inclusivity flags at both boundaries.

Functions are right-continuous at interior breakpoints: the value at a
breakpoint always belongs to the segment starting there.  This class is
closed under all operations implemented here.

``compose`` and ``join`` read two laws (bottom, top, or a value with a
slope) at each abscissa where their result can change: the law at it,
and the law just above it, which holds up to the next such point.  Both
come from one lookup, ``EnergyFunction.laws_at``: by right-continuity
they share the value f(lo) and differ only at the bottom and top
boundaries.  Both operations find their points by one forward walk over
the sorted pieces, linear in the piece count: as f rises it passes g's
levels in order, and two merged lists of structure points leave gaps in
which two lines cross at most once.  ``_sweep`` builds a function from
their readings.  ``threshold`` (the action, star and omega) meets one
line, y = t or y = x, by one forward walk over f's pieces that stops at
the first piece reaching it.  The ``EnergyFunction`` constructor
gives every function its normal form.  Just above a point lo, a law
(v, s) takes the values v + s*e for small e > 0, so:

- a compose reads g just above f(lo), since f has slope >= 1, so one
  lookup of g at f(lo) serves both readings;
- in a join, of two equal values the one with the larger slope wins.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import (
    MalformedPieces,
    NegativeValue,
    NonMonotone,
    ParseError,
    SlopeTooSmall,
)
from .extlat import (
    _FIN_RANK, BOTTOM, TOP, ExtValue, Frozen, Ratio, Rational, RationalLike, as_fraction, div,
    exact, json_flag,
)

_ZERO = 0
_ONE = 1
_EXACT = (int, Ratio)  # exact() leaves these as they are

# Law of a function at a finite point x: None for bottom, "top" for top,
# or (v, s) meaning value v at x, and v + s*(y - x) just above x.
_TOP_LAW = "top"
Law = Union[None, str, tuple]


class Piece(NamedTuple):
    """An affine segment; each field an exact rational (``extlat.Rational``)."""

    start: Rational
    intercept: Rational
    slope: Rational

    def value_at(self, x: Rational) -> Rational:
        return self.intercept + self.slope * (x - self.start)


_start = attrgetter("start")


class EnergyFunction(Frozen):
    """Canonical energy function.

    ``bottom is None`` encodes the constant-bottom function.  Otherwise
    f(x) = bottom below ``bottom`` (and at it iff ``bottom_at_boundary``),
    follows ``pieces`` on the finite region, and is top above ``top``
    (and at it iff ``top_at_boundary``).  ``validate`` checks the
    invariants of a raw description; the constructor assumes them and
    gives the normal form: a one-point last segment (start == top) folds
    into its predecessor when that reaches the same value at top, else
    takes slope 1; pieces that continue one another merge; and every
    boundary and piece field becomes exact, an int when integral, else
    an ``extlat.Ratio``, whose arithmetic keeps it so.
    """

    __slots__ = ("bottom", "bottom_at_boundary", "pieces", "top", "top_at_boundary")

    def __new__(cls, bottom: Optional[Rational], bottom_at_boundary: bool, pieces: Sequence[Piece],
                top: Optional[Rational], top_at_boundary: bool) -> EnergyFunction:
        if pieces and top is not None and pieces[-1].start == top:
            *pieces, last = pieces
            if not pieces or pieces[-1].value_at(top) != last.intercept:
                pieces.append(Piece(top, last.intercept, _ONE))
        merged: list = []
        for p in pieces:
            q = merged[-1] if merged else None
            if q is None or p.slope != q.slope or q.value_at(p.start) != p.intercept:
                exact_already = type(p.start) in _EXACT and type(p.intercept) in _EXACT
                merged.append(p if exact_already and type(p.slope) in _EXACT else Piece(*map(exact, p)))
        return super().__new__(cls, bottom if bottom is None else exact(bottom), bottom_at_boundary,
                               tuple(merged), top if top is None else exact(top), top_at_boundary)

    @property
    def is_const_bottom(self) -> bool:
        return self.bottom is None

    def laws_at(self, q: Rational, i: Optional[int] = None) -> tuple:
        """The laws at a finite abscissa and just above it, from one lookup:
        each None (bottom), "top", or (f(q), slope), f(q) being the right
        limit.  Where the two agree they are the same object.  A walk that
        knows the index ``i`` of the piece holding q passes it."""
        b, t = self.bottom, self.top
        if b is None or q < b:
            return None, None
        at_top = t is not None and q >= t
        if at_top and (self.top_at_boundary or q > t):
            return _TOP_LAW, _TOP_LAW
        if self.bottom_at_boundary and q == b:
            # only the bottom-to-top step has an inclusive bottom boundary
            return None, _TOP_LAW
        p = self.pieces[bisect_right(self.pieces, q, key=_start) - 1 if i is None else i]
        # walks read mostly at piece starts, passing the start object itself
        law = p.intercept if q is p.start else p.value_at(q), p.slope
        return law, _TOP_LAW if at_top else law

    def eval(self, x: ExtValue) -> ExtValue:
        if x.is_bottom or self.bottom is None:
            return BOTTOM
        if x.is_top:
            return TOP
        law = self.laws_at(x.value)[0]
        # law[0] is an exact rational >= 0 already, so it needs no parsing
        return BOTTOM if law is None else TOP if law is _TOP_LAW else ExtValue(_FIN_RANK, law[0])

    # -- internal geometry helpers -------------------------------------

    def structure_points(self) -> list:
        """Abscissas where the function's law can change, ascending: the
        piece starts (the first is the bottom boundary), then the top one."""
        if self.bottom is None:
            return []
        pts = [p.start for p in self.pieces] or [self.bottom]
        if self.top is not None and self.top != pts[-1]:
            pts.append(self.top)
        return pts

    def __str__(self) -> str:
        if self.bottom is None:
            return "bot"
        parts = [f"bot<{'=' if self.bottom_at_boundary else ''}{self.bottom}"]
        for p in self.pieces:
            parts.append(f"[{p.start}: {p.intercept}+{p.slope}(x-{p.start})]")
        if self.top is not None:
            parts.append(f"top>{'=' if self.top_at_boundary else ''}{self.top}")
        return " ".join(parts)


CONST_BOTTOM = EnergyFunction(None, True, (), None, False)


def identity() -> EnergyFunction:
    return EnergyFunction(_ZERO, False, (Piece(_ZERO, _ZERO, _ONE),), None, False)


def shift(d: RationalLike) -> EnergyFunction:
    """f(x) = x + d, with bottom below -d when d < 0."""
    d = as_fraction(d)
    if d >= 0:
        return EnergyFunction(_ZERO, False, (Piece(_ZERO, d, _ONE),), None, False)
    b = -d
    return EnergyFunction(b, False, (Piece(b, _ZERO, _ONE),), None, False)


def top_from(t: RationalLike, inclusive: bool) -> EnergyFunction:
    """Identity below t, top above (and at t iff inclusive)."""
    t = as_fraction(t)
    if t == 0 and inclusive:
        return EnergyFunction(_ZERO, False, (), _ZERO, True)
    return EnergyFunction(
        _ZERO, False, (Piece(_ZERO, _ZERO, _ONE),), t, inclusive
    )


# ----------------------------------------------------------------------
# Validation of raw piece descriptions


def validate(
    bottom_boundary: RationalLike,
    bottom_at_boundary: bool,
    pieces: Iterable[Sequence[RationalLike]],
    top_boundary: Optional[RationalLike] = None,
    top_at_boundary: bool = False,
) -> EnergyFunction:
    """Check all invariants on a raw description and canonicalize."""
    b = as_fraction(bottom_boundary)
    if b < 0:
        raise MalformedPieces(f"bottom boundary {b} < 0")
    ps = [Piece(as_fraction(s), as_fraction(c), as_fraction(m)) for s, c, m in pieces]
    t = None if top_boundary is None else as_fraction(top_boundary)

    if not ps:
        if t is None or t != b or top_at_boundary == bottom_at_boundary:
            raise MalformedPieces(
                "empty piece list requires top == bottom with complementary flags"
            )
        return EnergyFunction(b, bottom_at_boundary, (), t, top_at_boundary)

    if bottom_at_boundary:
        # an inclusive bottom boundary next to finite values would make
        # joins non-right-continuous at an interior point, leaving the
        # representable class; only the pure bottom/top step supports it
        raise MalformedPieces(
            "bottom boundary can be inclusive only for the step function"
        )
    if ps[0].start != b:
        raise MalformedPieces("first piece must start at the bottom boundary")
    for i in range(1, len(ps)):
        if ps[i].start <= ps[i - 1].start:
            raise MalformedPieces("piece starts must be strictly increasing")
    for p in ps:
        if p.slope < 1:
            raise SlopeTooSmall(f"slope {p.slope} < 1")
        if p.intercept < 0:
            raise NegativeValue(f"piece at {p.start} starts below 0")
    for i in range(1, len(ps)):
        limit = ps[i - 1].value_at(ps[i].start)
        if limit > ps[i].intercept:
            raise NonMonotone(f"downward jump at {ps[i].start}")
    if t is None and top_at_boundary:
        raise MalformedPieces("an inclusive top flag needs a top boundary")
    if t is not None:
        if t < ps[-1].start:
            raise MalformedPieces("top boundary inside the piece run")
        if t == ps[-1].start and top_at_boundary:
            raise MalformedPieces("last piece has an empty segment")
    return EnergyFunction(b, bottom_at_boundary, ps, t, top_at_boundary)


# ----------------------------------------------------------------------
# The builder: a canonical function from its readings


def _sweep(readings: Iterable[tuple]) -> EnergyFunction:
    """The canonical function read from ``(lo, here, up)`` readings, lo
    ascending: the law ``here`` at each point lo where the law may change,
    and the law ``up`` just above lo, which holds up to the next point.
    Some reading is live: ``join``'s operands live at their bottom
    boundaries, and ``compose``'s unbounded f reaches g's bottom boundary
    at a point or just above.
    """
    b = t = None
    b_flag = t_flag = False
    pieces: list = []
    for lo, here, up in readings:
        if up is None:
            assert b is None, "non-monotone segment structure"
            continue
        if b is None:
            b, b_flag = lo, here is None
        if up is _TOP_LAW:
            if t is None:
                t, t_flag = lo, here is _TOP_LAW
                if type(here) is tuple:  # a one-point last segment
                    pieces.append(Piece(lo, *here))
            continue
        assert t is None and here == up, "non-monotone or not right-continuous"
        pieces.append(Piece(lo, *up))
    return EnergyFunction(b, b_flag, pieces, t, t_flag)


# ----------------------------------------------------------------------
# Semiring operations


def compose(f: EnergyFunction, g: EnergyFunction) -> EnergyFunction:
    """Diagrammatic composition: first f, then g.

    One walk up f's structure points.  f increases, so it passes g's
    levels (g's structure points) in order: ``j`` counts those at or below
    f's value, and a piece (lo, c, s) of f passes the next one, y, at
    lo + (y - c)/s unless the piece ends first.  g's laws at f's value
    come from g's piece ``min(j, m) - 1``; f has slope >= 1, so g's law
    just above f's value holds just above the point.
    """
    if f.is_const_bottom or g.is_const_bottom:
        return CONST_BOTTOM
    if not f.pieces:  # a step: bottom, then top, which a live g keeps
        return f
    pts, n = f.structure_points(), len(f.pieces)
    levels, m = g.structure_points(), len(g.pieces)
    j, out = 0, []
    for i, lo in enumerate(pts):
        lf, lf_up = f.laws_at(lo, min(i, n - 1))
        if lf is None or lf is _TOP_LAW:  # then lf_up is bottom or top too
            out.append((lo, lf, lf_up))
            continue
        x, (c, s), end = lo, lf, pts[i + 1] if i + 1 < len(pts) else None
        while j < len(levels) and levels[j] <= c:
            j += 1
        while True:
            lg, lg_up = g.laws_at(lf[0], min(j, m) - 1)
            here = (lg[0], s * lg[1]) if type(lg) is tuple else lg
            # just above x, f's and g's laws differ from those at x only by being top
            out.append((x, here, here if lf_up is lf and lg_up is lg else _TOP_LAW))
            if lf_up is not lf or j == len(levels):  # f is top above x, or no level is left
                break
            y = levels[j]
            x = lo + div(y - c, s)
            if end is not None and x >= end:
                break
            j += 1
            lf = lf_up = y, s
    return _sweep(out)


def _higher(lf: Law, lg: Law) -> Law:
    """The larger of two laws: of equal values, the one with the larger slope."""
    if lf is _TOP_LAW or lg is _TOP_LAW:
        return _TOP_LAW
    if lf is None or lg is None:
        return lg if lf is None else lf
    return lf if lf >= lg else lg


def join(f: EnergyFunction, g: EnergyFunction) -> EnergyFunction:
    """Pointwise supremum.

    One walk up the merged structure points of f and g: ``i`` and ``j``
    count those of f and of g at or below the point q.  Up to the next
    point both are affine, so if the lower law just above q is the
    steeper, it overtakes the higher once, and the walk reads there too.
    """
    if f.is_const_bottom:
        return g
    if g.is_const_bottom:
        return f
    pf, nf, pg, ng = f.structure_points(), len(f.pieces), g.structure_points(), len(g.pieces)
    i = j = 0
    out: list = []
    nxt = min(pf[0], pg[0])
    while nxt is not None:
        q = nxt
        i += i < len(pf) and pf[i] == q  # step past q in the lists that hold it
        j += j < len(pg) and pg[j] == q
        a, b = pf[i] if i < len(pf) else None, pg[j] if j < len(pg) else None
        nxt = a if b is None else b if a is None or b < a else a
        (lf, lf_up), (lg, lg_up) = f.laws_at(q, min(i, nf) - 1), g.laws_at(q, min(j, ng) - 1)
        up = _higher(lf_up, lg_up)
        out.append((q, up if lf is lf_up and lg is lg_up else _higher(lf, lg), up))
        low = lg_up if up is lf_up else lf_up
        if type(low) is tuple and type(up) is tuple and low[1] > up[1]:
            x = q + div(up[0] - low[0], low[1] - up[1])
            if nxt is None or x < nxt:
                law = up[0] + up[1] * (x - q), low[1]
                out.append((x, law, law))
    return _sweep(out)


# ----------------------------------------------------------------------
# Thresholds shared by star, omega and the semimodule action


def threshold(
    f: EnergyFunction, slope: Rational, target: Rational, strict: bool
) -> Optional[tuple]:
    """Boundary (x, inclusive) of {finite x : f(x) >= slope*x + target}, or
    > when strict; None when the set is empty.

    For slope <= 1, f minus the line is nondecreasing, as f has slopes
    >= 1 and jumps only upwards, so the set is upward closed.  One walk
    up f's pieces stops at the first that reaches the line: at its start,
    or where its larger slope s carries it across, at start + gap/(s -
    slope).  Past the pieces lies the top region, or nothing.
    """
    pieces, top, n = f.pieces, f.top, len(f.pieces)
    for i, (a, c, s) in enumerate(pieces):
        gap = slope * a + target - c
        if gap < 0 or gap == 0 and not strict:
            return a, True
        if s > slope:
            x = a + div(gap, s - slope)
            end = pieces[i + 1].start if i + 1 < n else top
            # a non-inclusive top boundary still belongs to the last piece
            if end is None or x < end or x == end and i + 1 == n and not f.top_at_boundary:
                return x, not strict
    return None if top is None else (top, f.top_at_boundary)


def star(f: EnergyFunction) -> EnergyFunction:
    """x f* = x where f(x) <= x, top where f(x) > x."""
    hit = threshold(f, _ONE, _ZERO, strict=True)
    if hit is None:
        return identity()
    t, inclusive = hit
    return top_from(t, inclusive)


# ----------------------------------------------------------------------
# JSON encoding


def to_json(f: EnergyFunction) -> dict:
    if f.is_const_bottom:
        return {"bottom": {"boundary": "inf"}}
    return {
        "bottom": {
            "boundary": str(f.bottom),
            "bottom_at_boundary": f.bottom_at_boundary,
        },
        "pieces": [
            {
                "start": str(p.start),
                "intercept": str(p.intercept),
                "slope": str(p.slope),
            }
            for p in f.pieces
        ],
        "top": None
        if f.top is None
        else {"boundary": str(f.top), "top_at_boundary": f.top_at_boundary},
    }


def from_json(obj: dict) -> EnergyFunction:
    if not isinstance(obj, dict) or "bottom" not in obj:
        raise ParseError("energy function JSON must carry a 'bottom' object")
    bot = obj["bottom"]
    if not isinstance(bot, dict) or "boundary" not in bot:
        raise ParseError("'bottom' must be an object with a 'boundary'")
    if bot["boundary"] == "inf":
        if obj.get("pieces") or obj.get("top") is not None:
            raise ParseError("constant-bottom encoding admits no pieces or top")
        return CONST_BOTTOM
    pieces_json = obj.get("pieces", [])
    if not isinstance(pieces_json, list):
        raise ParseError("'pieces' must be a list")
    try:
        pieces = [(p["start"], p["intercept"], p["slope"]) for p in pieces_json]
    except (TypeError, KeyError) as exc:
        raise ParseError("each piece needs start, intercept and slope") from exc
    top_json = obj.get("top")
    if top_json is None:
        top_b, top_flag = None, False
    else:
        if not isinstance(top_json, dict) or top_json.get("boundary") is None:
            raise ParseError("'top' must be null or an object with a non-null 'boundary'")
        top_b = top_json["boundary"]
        top_flag = json_flag(top_json, "top_at_boundary", False)
    return validate(
        bot["boundary"],
        json_flag(bot, "bottom_at_boundary", False),
        pieces,
        top_b,
        top_flag,
    )
