"""Differential test of the sweep: ``energyfn`` against the midpoint sweep.

``energyfn`` reads each law just above a candidate; ``sweepref`` reads
it at the midpoint of each gap.  On random canonical functions every
operation built on the sweep must give the same function or threshold.
Breakpoints come at scales 1, 10^3 and 10^6, with top regions, one-point
last pieces, bottom-to-top steps and slopes as close to 1 as 1001/1000.
Compose, join and threshold are also checked on functions of 20-60
pieces; the compose and join readings are counted on functions of up to
1,000, and the pieces threshold reads before its hit on the 20-60.
"""

import random
from bisect import bisect_right
from fractions import Fraction

from hypothesis import given, seed, settings, strategies as st

from energyomega import energyauto, energyfn, energylaws, omegaval
from energyomega.extlat import finite
from energyomega.omegaval import NEVER, ThresholdPredicate

import manypieces
import sweepref

SCALES = (1, 10**3, 10**6)
SLOPES = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(1001, 1000))
OFFSETS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(7, 3))
LINE_SLOPES = (0, 1, Fraction(3, 2), 2)


@st.composite
def functions(draw, scale):
    """A canonical energy function whose breakpoints are near multiples of ``scale``."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return energyfn.CONST_BOTTOM
    bottom = scale * draw(st.integers(0, 3)) + draw(st.sampled_from(OFFSETS))
    if kind == 1:
        # the bottom-to-top step, with the boundary on either side
        at = draw(st.booleans())
        return energyfn.validate(bottom, at, [], bottom, not at)
    pieces = []
    start = bottom
    value = scale * draw(st.integers(0, 3)) + draw(st.sampled_from(OFFSETS))
    for _ in range(draw(st.integers(1, 3))):
        slope = draw(st.sampled_from(SLOPES))
        pieces.append((start, value, slope))
        gap = scale * draw(st.integers(1, 3)) + draw(st.sampled_from(OFFSETS))
        jump = scale * draw(st.integers(0, 1)) + draw(st.sampled_from(OFFSETS))
        start, value = start + gap, value + slope * gap + jump
    top, top_at = None, False
    if draw(st.booleans()):
        last = pieces[-1][0]
        top = last + scale * draw(st.integers(0, 2)) + draw(st.sampled_from(OFFSETS))
        # a top boundary on the last start leaves that piece one point wide
        top_at = top != last and draw(st.booleans())
    return energyfn.validate(bottom, False, pieces, top, top_at)


@st.composite
def cases(draw):
    scale = draw(st.sampled_from(SCALES))
    f, g = draw(functions(scale)), draw(functions(scale))
    if draw(st.integers(0, 5)) == 0:
        v = NEVER
    else:
        t = scale * draw(st.integers(0, 8)) + draw(st.sampled_from(OFFSETS))
        v = ThresholdPredicate(t, draw(st.booleans()))
    return f, g, v


@seed(1501)
@settings(max_examples=500, deadline=None, database=None)
@given(cases())
def test_operations_match_midpoint_sweep(case):
    f, g, v = case
    assert energyfn.compose(f, g) == sweepref.compose(f, g)
    assert energyfn.join(f, g) == sweepref.join(f, g)
    assert energyfn.star(f) == sweepref.star(f)
    assert omegaval.act(f, v) == sweepref.act(f, v)
    assert omegaval.omega(f) == sweepref.omega(f)


def test_right_limit_rules():
    x_then_2x = energyfn.validate(0, False, [(0, 0, 1), (2, 2, 2)])
    doubling = energyfn.validate(2, False, [(2, 2, 2)])  # 2x - 2, fixed at 2
    # equal values at 2: just above it the larger slope wins
    assert energyfn.join(energyfn.identity(), doubling) == x_then_2x
    # f(2) = 2 with slope 2 gains strictly just above 2, and not at 2
    assert energyfn.star(doubling) == energyfn.top_from(2, False)
    assert omegaval.omega(doubling) == ThresholdPredicate(Fraction(2), True)
    # x + 1 meets g's top boundary 3 at 2: g is read just above 3 there
    capped = energyfn.top_from(3, False)
    want = energyfn.validate(0, False, [(0, 1, 1)], 2, False)
    assert energyfn.compose(energyfn.shift(1), capped) == want
    assert omegaval.act(energyfn.shift(1), ThresholdPredicate(Fraction(3), False)) == (
        ThresholdPredicate(Fraction(2), False)
    )


def test_laws_at_boundaries():
    # (law at q, law just above q) at and around each boundary
    dies_below_2 = energyfn.shift(-2)
    x_then_2x = energyfn.validate(0, False, [(0, 0, 1), (2, 2, 2)])
    one_point_last = energyfn.validate(0, False, [(0, 0, 1), (2, 5, 1)], 2, False)
    cases = [
        (dies_below_2, 1, None, None),  # below bottom
        (dies_below_2, 2, (0, 1), (0, 1)),  # exclusive bottom
        (energyfn.validate(1, True, [], 1, False), 1, None, "top"),  # bottom-to-top step
        (energyfn.validate(1, False, [], 1, True), 1, "top", "top"),  # the other flag
        (x_then_2x, 2, (2, 2), (2, 2)),  # a piece start
        (x_then_2x, 3, (4, 2), (4, 2)),  # inside a piece
        (one_point_last, 2, (5, 1), "top"),  # one-point last segment at top
        (energyfn.top_from(3, True), 3, "top", "top"),  # inclusive top
        (energyfn.top_from(3, False), 3, (3, 1), "top"),  # exclusive top
        (energyfn.top_from(3, False), 4, "top", "top"),  # above top
    ]
    for f, q, here, above in cases:
        assert f.laws_at(Fraction(q)) == (here, above)


def _side(f, line, x):
    """The sign of f(x) - line(x), with top above every line and bottom below."""
    slope, at_zero, _start, _end = line
    y = f.eval(finite(x))
    if not y.is_finite:
        return 1 if y.is_top else -1
    d = y.value - (slope * x + at_zero)
    return (d > 0) - (d < 0)


def test_every_crossing_is_a_candidate():
    # the reference takes its candidates from sweepref._meets, so only this
    # test sees a dropped crossing: between two neighbouring candidates f
    # minus the line keeps one sign, read exactly at the two third-points
    rng = random.Random(1501)
    gaps = changes = 0
    for _ in range(1000):
        f, g = energylaws.random_energy_function(rng), energylaws.random_energy_function(rng)
        lines = sweepref.lines(g) + [
            (rng.choice(LINE_SLOPES), Fraction(rng.randint(-8, 16), rng.randint(1, 4)), 0, None)
            for _ in range(3)
        ]
        for line in lines:
            _slope, _at_zero, start, end = line
            cands = {0, start, *f.structure_points(), *sweepref._meets(sweepref.lines(f), [line])}
            if end is not None:
                cands.add(end)
            xs = sorted(x for x in cands if start <= x and (end is None or x <= end))
            ends = xs[1:] + ([] if end is not None else [xs[-1] + 3])
            for lo, hi in zip(xs, ends):
                third = Fraction(hi - lo, 3)
                gaps += 1
                changes += _side(f, line, lo + third) != _side(f, line, lo + 2 * third)
    assert gaps > 10000
    assert changes == 0


def _many_piece_operand(rng):
    roll = rng.random()
    if roll < 0.1:
        return manypieces.step(rng)
    if roll < 0.15:
        return energyfn.identity()
    return manypieces.zigzag(rng, rng.randint(20, 60))


def test_compose_and_join_match_midpoint_sweep_on_many_pieces():
    # 20-60 pieces that cross each other often, with upward jumps, top
    # regions with either flag, steps and Ratio fields: the walks' pointers
    # move across many pieces, which the 1-4 piece draws above never need
    rng = random.Random(3301)
    pieces = 0
    for _ in range(40):
        f, g = _many_piece_operand(rng), _many_piece_operand(rng)
        pieces = max(pieces, len(f.pieces))
        for a, b in ((f, g), (g, f)):
            assert energyfn.compose(a, b) == sweepref.compose(a, b), (a, b)
            assert energyfn.join(a, b) == sweepref.join(a, b), (a, b)
    assert pieces >= 40


def test_compose_and_join_read_each_point_once(monkeypatch):
    # linear work, counted: each walk hands the builder at most one reading
    # per structure point of either operand and per crossing, it pairs no
    # lines and looks no piece up by bisection
    readings = []
    build = energyfn._sweep

    def counting(out):
        readings.append(len(out))
        return build(out)

    def forbidden(*args, **kwargs):
        raise AssertionError("compose and join search nothing")

    monkeypatch.setattr(energyfn, "_sweep", counting)
    monkeypatch.setattr(energyfn, "bisect_right", forbidden)
    for name in ("_meets", "_cells", "lines"):
        assert not hasattr(energyfn, name) and not hasattr(energyfn.EnergyFunction, name), name
    rng = random.Random(33)
    for k in (250, 500, 1000):
        f, g = manypieces.zigzag(rng, k), manypieces.zigzag(rng, k)
        size = len(f.pieces) + len(g.pieces)
        assert size > 1.8 * k
        energyfn.compose(f, g)
        energyfn.join(f, g)
        compose_reads, join_reads = readings[-2:]
        assert compose_reads <= size + 2
        assert join_reads <= 2 * (size + 2)
        # the operands cross, so the join also reads between their points
        assert join_reads > len(set(f.structure_points() + g.structure_points()))


class _Reads(tuple):
    """A function's pieces that record the index of every piece read."""

    def __getitem__(self, i):
        self.read.add(i)
        return tuple.__getitem__(self, i)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _targets(rng, f, slope):
    """Lines below f's first piece, through or between its pieces, and
    above its last piece's start, as y = slope*x + target."""
    gaps = [c - slope * a for a, c, _s in f.pieces] or [f.bottom * (1 - slope)]
    inside = [rng.choice(gaps) + rng.choice((0, 0, manypieces.HALF, -manypieces.HALF)) for _ in range(6)]
    return [min(gaps) - 1, *inside, max(gaps) + rng.choice((1, 7, 100))]


def test_threshold_walk_matches_midpoint_sweep_and_stops_at_its_hit():
    # slopes 0 (the action) and 1 (star, omega), both strict flags, lines
    # below, across and above many-piece functions: the walk returns the
    # reference's boundary, and a hit in piece i reads pieces 0 .. i + 1 only
    rng = random.Random(3401)
    hits = set()
    for _ in range(60):
        f = _many_piece_operand(rng)
        for slope in (0, 1):
            for target in _targets(rng, f, slope):
                for strict in (False, True):
                    want = sweepref.threshold(f, slope, target, strict)
                    # a copy outside the intern table, so f itself stays as it is
                    counted, reads = object.__new__(energyfn.EnergyFunction), _Reads(f.pieces)
                    reads.read = set()
                    for name, value in zip(f.__slots__, f._fields(f)):
                        object.__setattr__(counted, name, reads if name == "pieces" else value)
                    assert energyfn.threshold(counted, slope, target, strict) == want, (f, slope, target)
                    starts = [p.start for p in f.pieces]
                    i = len(starts) - 1 if want is None else bisect_right(starts, want[0]) - 1
                    assert reads.read <= set(range(i + 2))
                    hits.add((want is None, 0 < i < len(starts) - 1))
    assert hits >= {(False, True), (False, False), (True, False)}


def test_many_piece_automaton_answers():
    aut = energyauto.from_json(manypieces.automaton(4000))
    reach = energyauto.reachable(aut, finite(5))
    assert reach.answer and reach.value.is_top
    assert energyauto.buchi(aut, finite(5)).value == ThresholdPredicate(3, False)
    assert not energyauto.buchi(aut, finite(3)).answer
