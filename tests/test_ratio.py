"""``extlat.Ratio`` against ``fractions.Fraction``, and where Ratios flow.

A Ratio must be indistinguishable from the equal Fraction in value, text,
hash and order, while its results are ints when integral and Ratios
otherwise.  The solve must see only ints and Ratios: a base Fraction
would run every later operation through ``numbers``' ABC checks.
"""

import copy
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from energyomega import energyauto as ea, energyfn, energylaws, matrixkleene as mk, omegaval
from energyomega.extlat import Ratio, div, exact, finite, parse_ext, ratio

from conftest import energy_algebra, perfbench
from test_exact import _rationals

_ints = st.integers(-10**6, 10**6) | st.integers(-10**30, 10**30)
_fractions = st.fractions(max_denominator=10**6)
_ratios = _fractions.filter(lambda q: q.denominator > 1).map(exact)
# ints, base Fractions (integral ones included), Fraction(k, 1) and Ratios
_operands = _ints | _fractions | _ints.map(Fraction) | _ratios

ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)
COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)


def _base(q):
    """q as a base Fraction, or as itself if it is an int or a float."""
    return Fraction(q.numerator, q.denominator) if isinstance(q, Fraction) else q


def _same(got, want):
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert str(got) == str(want)
    assert type(got) is (int if want.denominator == 1 else Ratio), (got, want)


@seed(2801)
@settings(max_examples=200, deadline=None, database=None)
@given(_ratios, _operands)
def test_arithmetic_matches_fraction(r, b):
    for x, y in ((r, b), (b, r)):
        for op in ARITHMETIC:
            if op is operator.truediv and y == 0:
                with pytest.raises(ZeroDivisionError):
                    op(x, y)
                continue
            _same(op(x, y), op(_base(x), _base(y)))
    _same(-r, -_base(r))
    assert type(r) is Ratio and r.denominator > 1


@seed(2802)
@settings(max_examples=200, deadline=None, database=None)
@given(_ratios, _operands | st.floats(-1e6, 1e6))
def test_comparisons_match_fraction(r, b):
    for x, y in ((r, b), (b, r)):
        for op in COMPARISONS:
            assert op(x, y) is op(_base(x), _base(y)), (op, x, y)
    assert r == _base(r) and not r != _base(r) and r <= _base(r)


@seed(2803)
@settings(max_examples=100, deadline=None, database=None)
@given(_ratios)
def test_hash_repr_pickle_and_copies_match_fraction(r):
    base = _base(r)
    assert hash(r) == hash(base) and repr(r) == repr(base) and str(r) == str(base)
    assert {r: 1}[base] == 1 and {base: 1}[r] == 1
    for twin in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r), copy.copy(r)):
        assert type(twin) is Ratio and twin == r and str(twin) == str(r)


def test_float_and_none_operands_behave_as_with_fraction():
    r = ratio(3, 2)
    assert r + 0.25 == 1.75 and type(r + 0.25) is float and 0.5 * r == 0.75
    assert r < 1.6 and 1.6 > r and r == 1.5 and r != 1.25
    assert r != None and not r == None  # noqa: E711, an unset boundary
    for op in (operator.lt, operator.add):
        with pytest.raises(TypeError):
            op(r, None)


def test_zero_divisors_raise():
    r = ratio(3, 2)
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            r / zero
        with pytest.raises(ZeroDivisionError):
            div(r, zero)
    for n in (1, 0, -1):
        with pytest.raises(ZeroDivisionError):
            ratio(n, 0)
        with pytest.raises(ZeroDivisionError):
            div(n, 0)


def _recording(seen):
    """``ENERGY_ALGEBRA`` swapped, while the block runs, for a copy that adds
    every operand and result of its operations to ``seen``."""
    alg = mk.ENERGY_ALGEBRA

    def recorder(name):
        def record(*args):
            out = getattr(alg, name)(*args)
            seen.extend((*args, out))
            return out
        return record

    ops = ("mul", "join", "star", "omega", "act", "vjoin")
    return energy_algebra(**{name: recorder(name) for name in ops})


def test_the_solve_sees_only_ints_and_ratios():
    # the seed-5 mixed benchmark family has slopes 3/2, so Fractions reach the parser
    aut = ea.from_json(perfbench("gen").mixed(32, random.Random(5)))
    seen = [fn for _, _, fn in aut.edges]
    with _recording(seen):
        seen += [ea.reach_value(aut), ea.buchi_value(aut)]
    rationals = [q for x in seen for q in _rationals(x)]
    assert any(type(q) is Ratio for q in rationals)
    leaked = {type(q).__name__ for q in rationals} - {"int", "Ratio"}
    assert not leaked, leaked


def test_the_public_constructors_store_ints_and_ratios():
    built = (energyfn.shift("3/2"), energyfn.shift(Fraction(-3, 2)), energyfn.top_from("1/2", True),
             omegaval.from_threshold(Fraction(1, 2)), omegaval.from_threshold(Fraction(4, 2)),
             finite(Fraction(5, 2)), parse_ext("7/2"))
    for value in built:
        assert {type(q) for q in _rationals(value)} <= {int, Ratio}, value


def test_parsed_steps_and_drawn_values_store_ints_and_ratios():
    step = {"bottom": {"boundary": "1/2", "bottom_at_boundary": True},
            "pieces": [], "top": {"boundary": "1/2"}}
    rng = random.Random(3)
    built = [energyfn.from_json(step)]
    built += [energylaws.random_energy_function(rng) for _ in range(3000)]
    built += [energylaws.random_predicate(rng) for _ in range(2000)]
    rationals = [q for value in built for q in _rationals(value)]
    assert any(type(q) is Ratio for q in rationals)
    leaked = [q for q in rationals if not (type(q) is int or type(q) is Ratio)]
    assert not leaked, leaked[:5]
