"""Seeded input families for the benchmark, written as the JSON the CLI reads.

Nothing here imports the package under test: the inputs, and the
reference answers in ``reference.py``, do not depend on the code being
measured.

Both automaton families share one topology, a circulant ring in which
state i has edges to i+1, i+2 and i-1 (mod n).  The topology is fixed
so that the seed changes edge weights and functions, not the number of
simple cycles: the search oracle enumerates those, so a seeded topology
would make ``ring-verify`` cost swing by an order of magnitude between
seeds and hide any change in the code behind the change in the input.
Every fourth state (3, 7, ...) is accepting; s0 is the only initial
state and is not accepting, so ``reach`` can answer no.
"""

from __future__ import annotations

import random
from fractions import Fraction

OFFSETS = (1, 2, -1)
SLOPES = (Fraction(1), Fraction(3, 2), Fraction(2))


def _fn(bottom, pieces, top=None, top_at_boundary=False):
    return {
        "bottom": {"boundary": str(Fraction(bottom)), "bottom_at_boundary": False},
        "pieces": [
            {"start": str(Fraction(s)), "intercept": str(Fraction(c)), "slope": str(Fraction(m))}
            for s, c, m in pieces
        ],
        "top": None
        if top is None
        else {"boundary": str(Fraction(top)), "top_at_boundary": top_at_boundary},
    }


def shift(d) -> dict:
    """x -> x + d, dead below -d when d < 0 (the package's ``shift``)."""
    d = Fraction(d)
    if d >= 0:
        return _fn(0, [(0, d, 1)])
    return _fn(-d, [(-d, 0, 1)])


def identity() -> dict:
    return shift(0)


def _automaton(n: int, fns: dict) -> dict:
    states = [f"s{i}" for i in range(n)]
    return {
        "states": states,
        "initial": ["s0"],
        "accepting": [s for i, s in enumerate(states) if i % 4 == 3],
        "edges": [
            {"from": states[i], "to": states[j], "fn": fn}
            for (i, j), fn in sorted(fns.items())
        ],
    }


def ring(n: int, rng: random.Random, pump: bool = True) -> dict:
    """Sparse net-negative ring of shift edges, with one pump edge if ``pump``.

    Weights are w(i->j) = p(j) - p(i) - c with potentials p in 0..3 and
    a loss c in {1, 2}, so every cycle that avoids the pump loses
    energy.  The pump edge i->i+1 carries an extra 4n: any closed walk
    through it (at most 2n-1 edges) gains, so once it is reached with
    enough energy every state's supremum is top.
    """
    if n < 4:
        raise ValueError("ring needs n >= 4")
    p = [rng.randint(0, 3) for _ in range(n)]
    pump_at = rng.randrange(n)
    fns = {}
    for i in range(n):
        for off in OFFSETS:
            j = (i + off) % n
            w = p[j] - p[i] - rng.choice((1, 1, 2))
            if pump and off == 1 and i == pump_at:
                w += 4 * n
            fns[(i, j)] = shift(w)
    return _automaton(n, fns)


def mixed_fn(rng: random.Random) -> dict:
    """1-3 pieces with slopes in {1, 3/2, 2}; loses energy near its bottom.

    The function is dead below b >= 1 and starts below b, so it loses
    energy at low levels.  Its last regime gains without bound (slope
    above 1 or a top region), which ``reference.buchi`` relies on.
    """
    b = Fraction(rng.randint(1, 3))
    value = Fraction(rng.randint(0, int(b) - 1))
    start = b
    pieces = []
    for k in range(rng.randint(1, 3)):
        if k:
            prev_s, prev_c, prev_m = pieces[-1]
            start = prev_s + Fraction(rng.randint(1, 6), rng.choice((1, 2)))
            value = prev_c + prev_m * (start - prev_s)
            if rng.random() < 0.3:
                value += Fraction(rng.randint(1, 3), 2)
        pieces.append((start, value, rng.choice(SLOPES)))
    top = None
    if rng.random() < 0.3:
        top = pieces[-1][0] + Fraction(rng.randint(1, 8))
    elif pieces[-1][2] == 1:
        s, c, _ = pieces[-1]
        pieces[-1] = (s, c, rng.choice(SLOPES[1:]))
    return _fn(b, pieces, top, top is not None and rng.random() < 0.5)


def mixed(n: int, rng: random.Random) -> dict:
    """The ring topology with mixed-slope piecewise edge functions."""
    if n < 4:
        raise ValueError("mixed needs n >= 4")
    fns = {(i, (i + off) % n): mixed_fn(rng) for i in range(n) for off in OFFSETS}
    return _automaton(n, fns)


def probe_cap() -> dict:
    """The oracle's top-probe reproduction: the true ``buchi`` answer at 0 is yes.

    s0 pumps itself (shift 1) so s1 is reached with unbounded energy;
    s1's self-loop 2(x - 2500) gains from x = 5000 on, beyond the
    oracle's largest probe of 4096.
    """
    return {
        "states": ["s0", "s1"],
        "initial": ["s0"],
        "accepting": ["s1"],
        "edges": [
            {"from": "s0", "to": "s0", "fn": shift(1)},
            {"from": "s0", "to": "s1", "fn": identity()},
            {"from": "s1", "to": "s1", "fn": _fn(2500, [(2500, 0, 2)])},
        ],
    }
