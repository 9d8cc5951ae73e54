"""Energy functions with many pieces, and a small automaton built from them.

``zigzag`` draws functions whose pieces cross the line y = 3x/2 again and
again, so two of them cross each other often and each passes many levels
of the other: the inputs on which ``compose`` and ``join`` walk far.
``automaton`` is a 3-state automaton with k-piece edges, for the
many-piece runs of ``reach`` and ``buchi``; build one with

    python -c "import json, sys; sys.path.insert(0, 'tests'); import manypieces; \
print(json.dumps(manypieces.automaton(4000)))" > many.json
"""

import random
from fractions import Fraction

from energyomega import energyfn

WIDTHS = (Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(7, 3))
HALF = Fraction(1, 2)


def zigzag(rng: random.Random, k: int) -> energyfn.EnergyFunction:
    """About k pieces that zigzag about y = 3x/2: slopes 1 or 5/4 above the
    line and 2 or 7/4 below it, never the previous slope, with an upward
    jump now and then.  Widths and values are often non-integral, and one
    function in two ends in a top region, inclusive or not."""
    start = rng.choice((0, 0, HALF, 2))
    value = Fraction(3, 2) * start + rng.choice((-HALF, 0, HALF))
    value, pieces, slope = max(value, 0), [], None
    for _ in range(k):
        options = (1, Fraction(5, 4)) if value > Fraction(3, 2) * start else (2, Fraction(7, 4))
        slope = options[options[0] == slope]
        pieces.append((start, value, slope))
        width = rng.choice(WIDTHS)
        start, value = start + width, value + slope * width + (rng.choice(WIDTHS) if rng.random() < 0.15 else 0)
    top, top_at = None, False
    if rng.random() < 0.5:
        last = pieces[-1][0]
        top = last + rng.choice((0, HALF, 1, 2))
        top_at = top != last and rng.random() < 0.5
    return energyfn.validate(pieces[0][0], False, pieces, top, top_at)


def step(rng: random.Random) -> energyfn.EnergyFunction:
    """The bottom-to-top step at a random point, with the boundary on either side."""
    at, inclusive = rng.choice((0, HALF, 3, Fraction(17, 3))), rng.random() < 0.5
    return energyfn.validate(at, inclusive, [], at, not inclusive)


def _alternating(start, value, first_slope, k: int) -> list:
    """k unit pieces from (start, value), slopes alternating first_slope and 3 - first_slope."""
    pieces = []
    for i in range(k):
        slope = first_slope if i % 2 == 0 else 3 - first_slope
        pieces.append((start + i, value, slope))
        value += slope
    return pieces


def automaton(k: int) -> dict:
    """States a (initial), b and c (accepting), with about k pieces on
    each of the four edges.

    a -> b is x up to 3, and b -> b is 3 at 3, loses below 3 and gains
    above it.  So from any energy above 3, b pumps its loop without bound
    and then passes through c as often as it likes: ``reach`` at 5 is top,
    and ``buchi`` holds from > 3.  At 3 itself b -> b only holds 3, and
    b -> c -> b is x - 1 up to 4, so every run from 3 dies.
    """
    into_b = energyfn.validate(0, False, [(0, 0, 1), *_alternating(3, 3, 2, k)])
    loop = energyfn.validate(1, False, [(1, 0, Fraction(3, 2)), *_alternating(3, 3, 2, k)])
    into_c = energyfn.validate(0, False, [(0, 0, 1), *_alternating(4, 4, 2, k)])
    back = energyfn.validate(1, False, [(1, 0, 1), *_alternating(5, 4, 2, k)])
    edges = [("a", "b", into_b), ("b", "b", loop), ("b", "c", into_c), ("c", "b", back)]
    return {
        "states": ["a", "b", "c"],
        "initial": ["a"],
        "accepting": ["c"],
        "edges": [{"from": p, "to": q, "fn": energyfn.to_json(fn)} for p, q, fn in edges],
    }
