"""Exact rationals: an int when integral, else a Fraction, and never a float.

Every rational a result holds (piece fields, boundaries, thresholds,
``ExtValue.value``) must be an ``int`` or a ``Fraction``: a float would
make the arithmetic inexact, and a bool is a JSON literal, not a number.
An integral result is an ``int``, never a ``Fraction(k, 1)``, which
would run the slow ``Fraction`` path through every later operation.
Integral values may arrive as ``int`` or as ``Fraction(k, 1)``; the two
must give equal results with identical text.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from energyomega import energyauto as ea
from energyomega import energyfn, energylaws, omegaval
from energyomega.energyfn import EnergyFunction, Piece, compose, join, shift, star
from energyomega.errors import ParseError
from energyomega.extlat import ExtValue, as_fraction, div, finite, ratio
from energyomega.omegaval import ThresholdPredicate

from conftest import fn_pieces
from test_energyauto import _random_automaton


def _rationals(x):
    """Every rational held by a function, predicate or lattice value."""
    if isinstance(x, EnergyFunction):
        if x.is_const_bottom:
            return []
        out = [x.bottom] + [q for p in x.pieces for q in p]
        return out if x.top is None else out + [x.top]
    if isinstance(x, ThresholdPredicate):
        return [] if x.is_never else [x.threshold]
    assert isinstance(x, ExtValue)
    return [x.value] if x.is_finite else []


def _assert_exact(*results):
    for res in results:
        for q in _rationals(res):
            assert isinstance(q, (int, Fraction)) and not isinstance(q, bool), (res, q)
            assert type(q) is int or q.denominator > 1, (res, q)


def _draw(rng):
    f, g = energylaws.random_energy_function(rng), energylaws.random_energy_function(rng)
    v = energylaws.random_predicate(rng)  # its threshold may be a Fraction(k, 1)
    if not v.is_never:
        v = omegaval.from_threshold(v.threshold, v.inclusive)
    return f, g, v, _random_automaton(rng, rng.randint(1, 4))


@seed(1301)
@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_no_float_enters(draw_seed):
    f, g, v, aut = _draw(random.Random(draw_seed))
    c = compose(f, g)
    _assert_exact(
        energyfn.from_json(energyfn.to_json(f)), c, join(f, g), star(f),
        omegaval.act(f, v), omegaval.omega(f),
        ea.reach_value(aut), ea.buchi_value(aut),
        *(fn for _, _, fn in ea.from_json(ea.to_json(aut)).edges),
    )
    grid = [0] + [q + 1 for q in f.structure_points() + c.structure_points()]
    _assert_exact(*(h.eval(finite(q)) for h in (f, c) for q in grid))


def test_integral_results_of_fraction_arithmetic_are_ints():
    # 3/2 x then 2 x has slope 3, which Fraction arithmetic gives as 3/1
    f = compose(fn_pieces(0, [(0, 0, Fraction(3, 2))]), fn_pieces(0, [(0, 0, 2)]))
    assert f.pieces == (Piece(0, 0, 3),)
    _assert_exact(f)
    # 1 + 3/2 (x - 1/2) reaches 13/4 at x = 1/2 + 3/2: a threshold that
    # Fraction arithmetic gives as 2/1
    g = fn_pieces(Fraction(1, 2), [(Fraction(1, 2), 1, Fraction(3, 2))])
    v = omegaval.act(g, omegaval.from_threshold(Fraction(13, 4)))
    assert v.threshold == 2
    _assert_exact(v, star(g), omegaval.omega(g))


def test_as_fraction_keeps_integers_as_ints():
    for q, want in [(3, 3), ("3", 3), ("6/2", 3), ("1e2", 100), ("-2.0", -2),
                    (Fraction(4, 2), 2), ("3/2", ratio(3, 2)), ("0.25", Fraction(1, 4))]:
        got = as_fraction(q)
        assert got == want and type(got) is type(want), (q, got)
    for bad in (True, 0.5, 1.0, None):
        with pytest.raises(ParseError):
            as_fraction(bad)


def test_div_is_exact():
    assert type(div(6, 3)) is int and div(6, 3) == 2
    assert div(-3, 2) == Fraction(-3, 2) and div(3, -2) == Fraction(-3, 2)
    assert type(div(Fraction(3, 2), Fraction(1, 2))) is int
    assert div(1, Fraction(2, 3)) == Fraction(3, 2)


def test_join_checks_a_crossing_far_from_zero():
    # just above 2^60, 2x - 2^60 overtakes x + 1 at 2^60 + 1, a point no
    # float near 2^60 holds: join's crossing check must divide exactly
    big = 2**60
    g = fn_pieces(0, [(0, 0, 1), (big, big, 2)])
    want = fn_pieces(0, [(0, 1, 1), (big + 1, big + 2, 2)])
    got = join(shift(1), g)
    assert got == want and str(got) == str(want)
    _assert_exact(got)


def test_top_probe_is_exact_for_an_integer_slope():
    # least last-piece slope 2 gives kappa = 2 / (2 - 1); Z = 1 + 3
    doubling = fn_pieces(0, [(0, 0, 1), (3, 3, 2)])
    aut = ea.automaton(["a", "b"], ["a"], ["a"], [("a", "b", doubling), ("b", "a", shift(-1))])
    z = ea._top_probe(aut)
    assert z == 2 * 2 * 4 * 2 and type(z) is int
    # slope 3/2 gives kappa = 3, a Fraction quotient that is integral
    aut = ea.automaton(["a"], ["a"], ["a"], [("a", "a", fn_pieces(0, [(0, 0, Fraction(3, 2))]))])
    z = ea._top_probe(aut)
    assert z == 2 * 1 * 1 * 3 and type(z) is int


# ----------------------------------------------------------------------
# Representation independence


def _as_fractions(x):
    """The same function or predicate with every integral value a Fraction(k, 1)."""
    if isinstance(x, ThresholdPredicate):
        return x if x.is_never else ThresholdPredicate(Fraction(x.threshold), x.inclusive)
    if x.is_const_bottom:
        return x
    return EnergyFunction(
        Fraction(x.bottom), x.bottom_at_boundary,
        tuple(Piece(*map(Fraction, p)) for p in x.pieces),
        None if x.top is None else Fraction(x.top), x.top_at_boundary,
    )


def _same(a, b):
    assert a == b and hash(a) == hash(b) and str(a) == str(b), (str(a), str(b))


@seed(1302)
@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_int_and_fraction_integers_give_the_same_results(draw_seed):
    rng = random.Random(draw_seed)
    f, g, v, aut = _draw(rng)
    fb, gb, vb = _as_fractions(f), _as_fractions(g), _as_fractions(v)
    _same(f, fb)
    for op in (compose, join):
        want = op(f, g)
        for x, y in ((fb, gb), (f, gb), (fb, g)):
            _same(op(x, y), want)
    _same(star(fb), star(f))
    _same(omegaval.omega(fb), omegaval.omega(f))
    _same(omegaval.act(fb, vb), omegaval.act(f, v))
    _same(omegaval.act(f, vb), omegaval.act(f, v))
    _assert_exact(compose(fb, gb), star(fb), omegaval.omega(fb), omegaval.act(fb, vb))
    # every edge as Fractions, and a random half of them
    for pick in (lambda: True, lambda: rng.random() < 0.5):
        edges = [
            (aut.states[i], aut.states[j], _as_fractions(fn) if pick() else fn)
            for i, j, fn in aut.edges
        ]
        other = ea.automaton(aut.states, aut.initial, aut.accepting, edges)
        _same(ea.reach_value(other), ea.reach_value(aut))
        _same(ea.buchi_value(other), ea.buchi_value(aut))
        _assert_exact(ea.reach_value(other), ea.buchi_value(other))
