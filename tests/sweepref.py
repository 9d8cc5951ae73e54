"""The midpoint sweep: the test reference for ``energyfn``'s operations.

This sweep reads each function's law at every candidate abscissa and at
the midpoint of every gap between two (one past the last), and shifts
the midpoint reading back to the gap's left end.  Its candidates include
every point where two lines meet, found by ``_meets`` by pairing all
``lines``.  ``energyfn`` reads the law just above each candidate instead,
and walks pieces without pairing lines, so the two share no reading rule
and no code beyond the function type; the differential tests check that
every operation gives the same canonical function or threshold.
"""

from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from energyomega.energyfn import (
    _TOP_LAW,
    _ZERO,
    CONST_BOTTOM,
    EnergyFunction,
    Law,
    Piece,
    identity,
    top_from,
)
from energyomega.extlat import div
from energyomega.omegaval import NEVER, ThresholdPredicate


def lines(f: EnergyFunction) -> list:
    """Each piece as the line (slope, value at 0, start, end) over its
    segment, with end None when unbounded."""
    ends = [p.start for p in f.pieces[1:]] + [f.top]
    return [(p.slope, p.intercept - p.slope * p.start, p.start, e)
            for p, e in zip(f.pieces, ends)]


def _meets(lines: Sequence[tuple], others: Sequence[tuple]) -> list:
    """Abscissas where a line of ``lines`` meets one of ``others`` on their
    common segment; lines are (slope, value at 0, start, end or None)."""
    out = []
    for s1, k1, a1, e1 in lines:
        for s2, k2, a2, e2 in others:
            lo = a1 if a1 > a2 else a2
            hi = e1 if e2 is None else e2 if e1 is None else min(e1, e2)
            if s1 == s2 or hi is not None and lo > hi:
                continue
            x = div(k2 - k1, s1 - s2)
            if x >= lo and (hi is None or x <= hi):
                out.append(x)
    return out


def _cells(cands: Iterable[Fraction], at) -> Iterator[tuple]:
    """Walk the grid of candidate abscissas (those >= 0, plus 0) upwards.

    For each grid point lo yield ``(lo, None, at(lo))``, then for the gap
    after it ``(lo, m, at(m))``, where m is the gap's midpoint (lo + 1
    past the last point).  Lazy, so a search stops at its first hit.
    """
    xs = sorted({q for q in cands if q >= 0} | {_ZERO})
    for lo, hi in zip(xs, xs[1:] + [None]):
        yield lo, None, at(lo)
        m = lo + 1 if hi is None else Fraction(lo + hi, 2)
        yield lo, m, at(m)


def _sweep(cands: Iterable[Fraction], at) -> EnergyFunction:
    """The canonical function whose law at each finite q is ``at(q)``.

    The law may change only at a candidate, so reading it at every grid
    point and once inside every gap determines the function.
    """
    b = t = None
    b_flag = t_flag = False
    pieces: list = []
    for lo, m, law in _cells(cands, at):
        if law is None:
            assert b is None, "non-monotone segment structure"
            continue
        if b is None:
            b, b_flag = lo, m is not None
        if law is _TOP_LAW:
            if t is None:
                t, t_flag = lo, m is None
            continue
        assert t is None, "non-monotone segment structure"
        c, slope = law
        if m is not None:
            c -= slope * (m - lo)
            if pieces and pieces[-1].start == lo:
                # the gap after a finite point: the point's value must start it
                assert pieces.pop().intercept == c, "right-continuity violated at a point"
        pieces.append(Piece(lo, c, slope))
    if b is None:
        return CONST_BOTTOM
    return EnergyFunction(b, b_flag, pieces, t, t_flag)


def _first(cands: Iterable[Fraction], hit) -> Optional[tuple]:
    """Least (x, inclusive) with ``hit`` true at x (inclusive) or just above it;
    ``hit`` must hold on an upward-closed set that changes only at candidates."""
    for lo, m, ok in _cells(cands, hit):
        if ok:
            return lo, m is None
    return None


def compose(f: EnergyFunction, g: EnergyFunction) -> EnergyFunction:
    """Diagrammatic composition: first f, then g."""
    if f.is_const_bottom or g.is_const_bottom:
        return CONST_BOTTOM

    def at(q: Fraction) -> Law:
        lf = f.laws_at(q)[0]
        if lf is None or lf is _TOP_LAW:
            return lf
        lg = g.laws_at(lf[0])[0]
        if lg is None or lg is _TOP_LAW:
            return lg
        return lg[0], lf[1] * lg[1]

    levels = [(_ZERO, y, _ZERO, None) for y in g.structure_points()]
    return _sweep(f.structure_points() + _meets(lines(f), levels), at)


def join(f: EnergyFunction, g: EnergyFunction) -> EnergyFunction:
    """Pointwise supremum."""
    if f.is_const_bottom:
        return g
    if g.is_const_bottom:
        return f
    cands = f.structure_points() + g.structure_points() + _meets(lines(f), lines(g))

    def at(q: Fraction) -> Law:
        lf, lg = f.laws_at(q)[0], g.laws_at(q)[0]
        if lf is _TOP_LAW or lg is _TOP_LAW:
            return _TOP_LAW
        if lf is None or lg is None:
            return lg if lf is None else lf
        if lf[0] == lg[0]:
            # unequal slopes mark a crossing, which must be on the grid
            assert lf[1] == lg[1] or q in cands, "undetected crossing in join"
            return lf
        return lf if lf[0] > lg[0] else lg

    return _sweep(cands, at)


def threshold(
    f: EnergyFunction, slope: Fraction, target: Fraction, strict: bool
) -> Optional[tuple]:
    """Boundary of {finite x : f(x) >= slope*x + target} (or > when strict)."""

    def hit(q: Fraction) -> bool:
        law = f.laws_at(q)[0]
        if law is None or law is _TOP_LAW:
            return law is _TOP_LAW
        y = slope * q + target
        return law[0] > y if strict else law[0] >= y

    line = [(slope, target, _ZERO, None)]
    return _first(f.structure_points() + _meets(lines(f), line), hit)


def star(f: EnergyFunction) -> EnergyFunction:
    """x f* = x where f(x) <= x, top where f(x) > x."""
    hit = threshold(f, 1, 0, strict=True)
    if hit is None:
        return identity()
    t, inclusive = hit
    return top_from(t, inclusive)


def act(f: EnergyFunction, v: ThresholdPredicate) -> ThresholdPredicate:
    """Left action by precomposition: (f v)(x) = v(f(x))."""
    if v.is_never or f.is_const_bottom:
        return NEVER
    hit = threshold(f, 0, v.threshold, strict=not v.inclusive)
    assert hit is not None
    t, inclusive = hit
    return ThresholdPredicate(t, inclusive)


def omega(f: EnergyFunction) -> ThresholdPredicate:
    """The infinite product f f f ..., from the least x with f(x) >= x."""
    if f.is_const_bottom:
        return NEVER
    hit = threshold(f, 1, 0, strict=False)
    if hit is None:
        return NEVER
    t, inclusive = hit
    return ThresholdPredicate(t, inclusive)
