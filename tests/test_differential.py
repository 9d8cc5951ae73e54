"""Differential property test: the algebraic route against two oracles.

The algebraic route composes edge functions (matrix star and omega),
``energyauto.oracle_reach``/``oracle_buchi`` relax exact energies edge by
edge, and ``perfbench/reference.py`` relaxes energies read straight from
the automaton JSON.  The three share no code.  Structure points reach
3 * 10^6, far above any fixed probe range, and last-piece slopes come as
close to 1 as 1001/1000.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from energyomega import energyauto as ea
from energyomega.extlat import format_ext, parse_ext

from conftest import perfbench

SCALES = (1, 10**3, 10**6)
SLOPES = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(1001, 1000))
ENERGIES = ("0", "7", "1000000", "3000000", "top")

reference = perfbench("reference")


def _fn_json(bottom, bottom_at, pieces, top):
    return {
        "bottom": {"boundary": str(bottom), "bottom_at_boundary": bottom_at},
        "pieces": [
            {"start": str(s), "intercept": str(c), "slope": str(m)} for s, c, m in pieces
        ],
        "top": None if top is None else {"boundary": str(top[0]), "top_at_boundary": top[1]},
    }


@st.composite
def edge_fns(draw, scale):
    """A valid energy function JSON whose breakpoints are multiples of ``scale``."""
    bottom = scale * draw(st.integers(0, 3))
    if draw(st.integers(0, 5)) == 0:
        # the bottom-to-top step, with the boundary on either side
        at = draw(st.booleans())
        return _fn_json(bottom, at, [], (bottom, not at))
    pieces = []
    start, value = bottom, scale * draw(st.integers(0, 3)) + draw(st.integers(0, 2))
    for _ in range(draw(st.integers(1, 3))):
        slope = draw(st.sampled_from(SLOPES))
        pieces.append((start, value, slope))
        gap = scale * draw(st.integers(1, 3))
        start, value = start + gap, value + slope * gap + scale * draw(st.integers(0, 1))
    top = None
    if draw(st.booleans()):
        last = pieces[-1][0]
        t = last + scale * draw(st.integers(0, 2))
        # a top boundary on the last start leaves that piece one point wide
        top = (t, t != last and draw(st.booleans()))
    return _fn_json(bottom, False, pieces, top)


@st.composite
def automata(draw):
    scale = draw(st.sampled_from(SCALES))
    n = draw(st.integers(1, 4))
    states = [f"q{i}" for i in range(n)]
    edges = [
        {"from": src, "to": dst, "fn": draw(edge_fns(scale))}
        for src in states
        for dst in states
        for _ in range(draw(st.integers(0, 2)))
    ]
    initial = ["q0"] + [s for s in states[1:] if draw(st.booleans())]
    accepting = [s for s in states if draw(st.booleans())]
    return {"states": states, "initial": initial, "accepting": accepting, "edges": edges}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(automata(), st.sampled_from(ENERGIES))
def test_algebra_and_oracles_agree(obj, energy):
    aut = ea.from_json(obj)
    x0 = parse_ext(energy)
    value = ea.reachable(aut, x0).value
    assert ea.oracle_reach(aut, x0).value == value
    assert reference.reach(obj, energy) == (not value.is_bottom, format_ext(value))
    assert ea.buchi(aut, x0).answer == ea.oracle_buchi(aut, x0).answer
