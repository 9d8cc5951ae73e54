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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import (
    BudgetExceeded,
    MalformedPieces,
    NegativeValue,
    NonMonotone,
    ParseError,
    SlopeTooSmall,
)
from .extlat import BOTTOM, TOP, ExtValue, RationalLike, as_fraction, ext_join, finite

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Law of a function on an open interval: None for bottom, "top" for top,
# or (c, s) meaning value c + s*(x - lo) where lo is the interval start.
_TOP_LAW = "top"
Law = Union[None, str, tuple]


class Piece(NamedTuple):
    start: Fraction
    intercept: Fraction
    slope: Fraction

    def value_at(self, x: Fraction) -> Fraction:
        return self.intercept + self.slope * (x - self.start)


@dataclass(frozen=True)
class EnergyFunction:
    """Canonical energy function.

    ``bottom is None`` encodes the constant-bottom function.  Otherwise
    f(x) = bottom below ``bottom`` (and at it iff ``bottom_at_boundary``),
    follows ``pieces`` on the finite region, and is top above ``top``
    (and at it iff ``top_at_boundary``).  Instances are built by the
    module-level constructors and operations; invariants are assumed.
    """

    bottom: Optional[Fraction]
    bottom_at_boundary: bool
    pieces: tuple
    top: Optional[Fraction]
    top_at_boundary: bool

    @property
    def is_const_bottom(self) -> bool:
        return self.bottom is None

    def eval(self, x: ExtValue) -> ExtValue:
        if x.is_bottom or self.bottom is None:
            return BOTTOM
        if x.is_top:
            return TOP
        q = x.value
        if q < self.bottom or (q == self.bottom and self.bottom_at_boundary):
            return BOTTOM
        if self.top is not None and (
            q > self.top or (q == self.top and self.top_at_boundary)
        ):
            return TOP
        starts = [p.start for p in self.pieces]
        i = bisect_right(starts, q) - 1
        return finite(self.pieces[i].value_at(q))

    # -- internal geometry helpers -------------------------------------

    def structure_points(self) -> list:
        """Abscissas where the function's law can change."""
        if self.bottom is None:
            return []
        pts = {self.bottom}
        pts.update(p.start for p in self.pieces)
        if self.top is not None:
            pts.add(self.top)
        return sorted(pts)

    def piece_intervals(self) -> list:
        """Each piece with the (exclusive) end of its segment, None for unbounded."""
        out = []
        for i, p in enumerate(self.pieces):
            if i + 1 < len(self.pieces):
                end: Optional[Fraction] = self.pieces[i + 1].start
            else:
                end = self.top
            out.append((p, end))
        return out

    def law_at(self, q: Fraction) -> Union[None, str, Piece]:
        """Classify a finite abscissa: None (bottom), "top", or the piece."""
        if self.bottom is None:
            return None
        if q < self.bottom or (q == self.bottom and self.bottom_at_boundary):
            return None
        if self.top is not None and (
            q > self.top or (q == self.top and self.top_at_boundary)
        ):
            return _TOP_LAW
        starts = [p.start for p in self.pieces]
        i = bisect_right(starts, q) - 1
        return self.pieces[i]

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
    if t is not None:
        last = ps[-1]
        if t < last.start:
            raise MalformedPieces("top boundary inside the piece run")
        if t == last.start:
            if top_at_boundary:
                raise MalformedPieces("last piece has an empty segment")
            # single-point segment; the slope is immaterial there
            ps[-1] = Piece(last.start, last.intercept, _ONE)
    merged = [ps[0]]
    for p in ps[1:]:
        q = merged[-1]
        if p.slope == q.slope and q.value_at(p.start) == p.intercept:
            continue
        merged.append(p)
    return EnergyFunction(b, bottom_at_boundary, tuple(merged), t, top_at_boundary)


# ----------------------------------------------------------------------
# Segment sweep assembly


def _assemble(xs: list, point_vals: list, laws: list) -> EnergyFunction:
    """Build a canonical function from breakpoint values and interval laws.

    ``xs`` is a sorted list of abscissas starting at 0; ``laws[i]`` holds
    on the open interval (xs[i], xs[i+1]) (unbounded for the last).
    """
    n = len(xs)
    segs = []  # ("pt", i) or ("iv", i), alternating
    for i in range(n):
        segs.append(("pt", i))
        segs.append(("iv", i))

    def seg_class(seg) -> str:
        kind, i = seg
        if kind == "pt":
            v = point_vals[i]
            return "bot" if v.is_bottom else "top" if v.is_top else "fin"
        law = laws[i]
        if law is None:
            return "bot"
        if law == _TOP_LAW:
            return "top"
        return "fin"

    classes = [seg_class(s) for s in segs]

    fi = 0
    while fi < len(segs) and classes[fi] == "bot":
        fi += 1
    if fi == len(segs):
        return CONST_BOTTOM

    ti = len(segs)
    while ti > fi and classes[ti - 1] == "top":
        ti -= 1

    def boundary(seg, at_interval_flag: bool):
        kind, i = seg
        return xs[i], (kind == "iv") == at_interval_flag

    if fi >= ti:
        # no finite middle: a pure bottom-to-top step
        kind, i = segs[fi]
        if kind == "pt":
            return EnergyFunction(xs[i], False, (), xs[i], True)
        return EnergyFunction(xs[i], True, (), xs[i], False)

    kind, i = segs[fi]
    b, b_flag = xs[i], kind == "iv"
    if ti == len(segs):
        t, t_flag = None, False
    else:
        kind, i = segs[ti]
        t, t_flag = xs[i], kind == "pt"

    pieces = []
    k = fi
    while k < ti:
        assert classes[k] == "fin", "non-monotone segment structure"
        kind, i = segs[k]
        if kind == "iv":
            c, s = laws[i]
            pieces.append(Piece(xs[i], c, s))
            k += 1
            continue
        v = point_vals[i].value
        if k + 1 < ti:
            c, s = laws[i]
            assert v == c, "right-continuity violated during assembly"
            pieces.append(Piece(xs[i], c, s))
            k += 2
        else:
            prev = pieces[-1] if pieces else None
            if prev is None or prev.value_at(xs[i]) != v:
                pieces.append(Piece(xs[i], v, _ONE))
            k += 1

    merged = [pieces[0]]
    for p in pieces[1:]:
        q = merged[-1]
        if p.slope == q.slope and q.value_at(p.start) == p.intercept:
            continue
        merged.append(p)
    return EnergyFunction(b, b_flag, tuple(merged), t, t_flag)


def _sweep_points(cands: Iterable[Fraction]) -> list:
    pts = {q for q in cands if q >= 0}
    pts.add(_ZERO)
    return sorted(pts)


def _midpoint(lo: Fraction, hi: Optional[Fraction]) -> Fraction:
    return lo + 1 if hi is None else (lo + hi) / 2


def _anchored(piece: Piece, lo: Fraction) -> tuple:
    return (piece.value_at(lo), piece.slope)


# ----------------------------------------------------------------------
# Semiring operations


def compose(f: EnergyFunction, g: EnergyFunction) -> EnergyFunction:
    """Diagrammatic composition: first f, then g."""
    if f.is_const_bottom or g.is_const_bottom:
        return CONST_BOTTOM

    cands = list(f.structure_points())
    g_pts = g.structure_points()
    for piece, end in f.piece_intervals():
        for y in g_pts:
            x = piece.start + (y - piece.intercept) / piece.slope
            if x >= piece.start and (end is None or x <= end):
                cands.append(x)
    xs = _sweep_points(cands)

    point_vals = [g.eval(f.eval(finite(p))) for p in xs]
    laws: list = []
    for i, lo in enumerate(xs):
        hi = xs[i + 1] if i + 1 < len(xs) else None
        m = _midpoint(lo, hi)
        lf = f.law_at(m)
        if lf is None:
            laws.append(None)
            continue
        if lf == _TOP_LAW:
            laws.append(_TOP_LAW)
            continue
        y_m = lf.value_at(m)
        lg = g.law_at(y_m)
        if lg is None:
            laws.append(None)
        elif lg == _TOP_LAW:
            laws.append(_TOP_LAW)
        else:
            y_lo = lf.value_at(lo)
            laws.append((lg.value_at(y_lo), lf.slope * lg.slope))
    return _assemble(xs, point_vals, laws)


def join(f: EnergyFunction, g: EnergyFunction) -> EnergyFunction:
    """Pointwise supremum."""
    if f.is_const_bottom:
        return g
    if g.is_const_bottom:
        return f

    cands = f.structure_points() + g.structure_points()
    for p1, e1 in f.piece_intervals():
        for p2, e2 in g.piece_intervals():
            lo = max(p1.start, p2.start)
            if e1 is not None and e2 is not None:
                hi: Optional[Fraction] = min(e1, e2)
            else:
                hi = e1 if e2 is None else e2
            if hi is not None and lo > hi:
                continue
            if p1.slope == p2.slope:
                continue
            x = (
                p2.intercept - p2.slope * p2.start
                - p1.intercept + p1.slope * p1.start
            ) / (p1.slope - p2.slope)
            if x >= lo and (hi is None or x <= hi):
                cands.append(x)
    xs = _sweep_points(cands)

    point_vals = [ext_join(f.eval(finite(p)), g.eval(finite(p))) for p in xs]
    laws: list = []
    for i, lo in enumerate(xs):
        hi = xs[i + 1] if i + 1 < len(xs) else None
        m = _midpoint(lo, hi)
        lf = f.law_at(m)
        lg = g.law_at(m)
        if lf == _TOP_LAW or lg == _TOP_LAW:
            laws.append(_TOP_LAW)
            continue
        if lf is None and lg is None:
            laws.append(None)
            continue
        if lf is None:
            laws.append(_anchored(lg, lo))
            continue
        if lg is None:
            laws.append(_anchored(lf, lo))
            continue
        vf = lf.value_at(m)
        vg = lg.value_at(m)
        if vf > vg:
            laws.append(_anchored(lf, lo))
        elif vg > vf:
            laws.append(_anchored(lg, lo))
        else:
            assert lf.slope == lg.slope, "undetected crossing in join sweep"
            laws.append(_anchored(lf, lo))
    return _assemble(xs, point_vals, laws)


# ----------------------------------------------------------------------
# Threshold sweeps shared by star, omega and the semimodule action


def _first_x_satisfying(f: EnergyFunction, cmp_point, crossing_targets) -> Optional[tuple]:
    """Least finite x >= 0 with cmp_point(x) true, as (threshold, inclusive).

    The satisfied set must be upward closed within finite abscissas,
    which holds for comparisons against constants or the identity.
    ``crossing_targets(piece)`` yields abscissas where the comparison can
    flip inside the piece.
    """
    if f.is_const_bottom:
        return None
    cands = list(f.structure_points())
    for piece, end in f.piece_intervals():
        for x in crossing_targets(piece):
            if x >= piece.start and (end is None or x <= end):
                cands.append(x)
    xs = _sweep_points(cands)
    for i, lo in enumerate(xs):
        if cmp_point(lo):
            return lo, True
        hi = xs[i + 1] if i + 1 < len(xs) else None
        if cmp_point(_midpoint(lo, hi)):
            return lo, False
    return None


def threshold_value_reaches(
    f: EnergyFunction, target: Fraction, strict: bool
) -> Optional[tuple]:
    """Boundary of {finite x : f(x) >= target} (or > when strict)."""
    tv = finite(target)

    def cmp_point(q: Fraction) -> bool:
        v = f.eval(finite(q))
        return v > tv if strict else v >= tv

    def crossings(piece: Piece):
        yield piece.start + (target - piece.intercept) / piece.slope

    return _first_x_satisfying(f, cmp_point, crossings)


def threshold_gain_nonneg(f: EnergyFunction, strict: bool) -> Optional[tuple]:
    """Boundary of {finite x : f(x) >= x} (or > when strict)."""

    def cmp_point(q: Fraction) -> bool:
        v = f.eval(finite(q))
        if v.is_bottom:
            return False
        if v.is_top:
            return True
        return v.value > q if strict else v.value >= q

    def crossings(piece: Piece):
        if piece.slope != 1:
            yield (piece.slope * piece.start - piece.intercept) / (piece.slope - 1)

    return _first_x_satisfying(f, cmp_point, crossings)


def star(f: EnergyFunction) -> EnergyFunction:
    """x f* = x where f(x) <= x, top where f(x) > x."""
    hit = threshold_gain_nonneg(f, strict=True)
    if hit is None:
        return identity()
    t, inclusive = hit
    return top_from(t, inclusive)


# ----------------------------------------------------------------------
# Local finiteness witness


@dataclass(frozen=True)
class WitnessReport:
    kind: str  # "stabilized" or "diverges"
    steps: int
    value: Optional[ExtValue]  # stabilized partial supremum, None on divergence


def local_finiteness_witness(
    f: EnergyFunction, x: ExtValue, max_n: int = 64
) -> WitnessReport:
    """Iterate partial suprema x v xf v ... until a certificate appears.

    Stabilization is certified when f(y) <= y for the current iterate y
    (all later iterates are then dominated); divergence when a live
    finite point with f(y) > y is reached, or the iterate hits top.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    y = x
    sup = x
    for n in range(max_n + 1):
        fy = f.eval(y)
        if fy <= y:
            return WitnessReport("stabilized", n, sup)
        if y.is_top or y.is_finite:
            return WitnessReport("diverges", n, None)
        y = fy
        sup = ext_join(sup, y)
    raise BudgetExceeded(f"no certificate within {max_n} iterations")


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
        if not isinstance(top_json, dict) or "boundary" not in top_json:
            raise ParseError("'top' must be null or an object with a 'boundary'")
        top_b = top_json["boundary"]
        top_flag = bool(top_json.get("top_at_boundary", False))
    return validate(
        bot["boundary"],
        bool(bot.get("bottom_at_boundary", False)),
        pieces,
        top_b,
        top_flag,
    )
