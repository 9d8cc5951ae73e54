"""Tests for the piecewise-affine energy function semiring."""

import copy
import gc
import pickle
import random
from fractions import Fraction

import pytest

from energyomega import energyfn, energylaws, extlat, omegaval
from energyomega.energyfn import (
    CONST_BOTTOM,
    EnergyFunction,
    Piece,
    compose,
    identity,
    join,
    shift,
    star,
    validate,
)
from energyomega.errors import (
    MalformedPieces,
    NegativeValue,
    NonMonotone,
    ParseError,
    SlopeTooSmall,
)
from energyomega.extlat import BOTTOM, TOP, Ratio, finite
from energyomega.omegaval import ThresholdPredicate

from conftest import F, fn_pieces
from witnessref import local_finiteness_witness


# ----------------------------------------------------------------------
# validate


def test_values_are_immutable_and_equal_only_within_their_class():
    f = EnergyFunction(bottom=0, bottom_at_boundary=False, pieces=(Piece(0, 2, 1),), top=None,
                       top_at_boundary=False)
    assert f == shift(2) and hash(f) == hash(shift(2)) and f != shift(3)
    assert repr(f) == ("EnergyFunction(bottom=0, bottom_at_boundary=False, "
                       "pieces=(Piece(start=0, intercept=2, slope=1),), top=None, top_at_boundary=False)")
    v = ThresholdPredicate(Fraction(1, 2))
    assert v == ThresholdPredicate(threshold=Fraction(1, 2), inclusive=True)
    assert repr(v) == "ThresholdPredicate(threshold=Fraction(1, 2), inclusive=True)"
    assert ThresholdPredicate(Fraction(1, 2)) is v and hash(v) == hash(v)
    for value, field in ((f, "bottom"), (v, "threshold"), (v, "__weakref__")):
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
        with pytest.raises(AttributeError):
            delattr(value, field)
    # a tuple of the same fields is not the value
    assert v.__eq__((Fraction(1, 2), True)) is NotImplemented and v != (Fraction(1, 2), True)
    assert ThresholdPredicate(None) != CONST_BOTTOM
    assert pickle.loads(pickle.dumps(f)) == f and copy.deepcopy(v) == v


def test_hashing_a_function_reads_no_field():
    # the intern table hashes the fields when the function is built; the
    # function's own hash is its identity's
    hashed = []

    class Field(Piece):
        def __hash__(self):
            hashed.append(self)
            return 7

    f = EnergyFunction(0, False, (Field(0, 2, 1),), None, False)
    assert hashed
    hashed.clear()
    assert hash(f) == hash(f) and not hashed


def test_equal_normal_forms_are_one_object_along_every_route():
    f = validate("1/2", False, [("1/2", 0, "3/2"), (2, "9/4", 1)], 5, True)
    routes = (
        EnergyFunction(Fraction(1, 2), False, (Piece(Fraction(1, 2), 0, Fraction(3, 2)),
                                               Piece(2, Fraction(9, 4), 1)), 5, True),
        validate(Fraction(1, 2), False, [(Fraction(1, 2), 0, Fraction(3, 2)), (2, Fraction(9, 4), 1)],
                 5, True),
        energyfn.from_json(energyfn.to_json(f)),
        compose(identity(), f),
        compose(f, identity()),
        pickle.loads(pickle.dumps(f)),
        copy.deepcopy(f),
        copy.copy(f),
    )
    assert all(g is f for g in routes)
    v = ThresholdPredicate(Fraction(9, 4), False)
    assert all(w is v for w in (omegaval.from_threshold("9/4", False), pickle.loads(pickle.dumps(v)),
                                copy.deepcopy(v), ThresholdPredicate(threshold=Fraction(18, 8),
                                                                     inclusive=False)))
    assert ThresholdPredicate(Fraction(9, 4)) is not v


def test_the_intern_table_holds_its_values_weakly():
    gc.collect()
    before = len(extlat._INTERNED)
    fs = [shift(Fraction(k, 10007)) for k in range(1, 1001)]
    assert len(set(map(id, fs))) == 1000 and len(extlat._INTERNED) == before + 1000
    del fs
    gc.collect()
    assert len(extlat._INTERNED) == before


def test_construction_normalises_and_canonicalises():
    # two base-Fraction pieces that continue one another: the identity
    f = EnergyFunction(Fraction(0), False, (Piece(Fraction(0), Fraction(0), Fraction(1)),
                                            Piece(Fraction(2), Fraction(2), Fraction(1))), None, False)
    assert f == identity() and hash(f) == hash(identity())
    # a one-point last segment that its predecessor reaches folds into it
    g = EnergyFunction(Fraction(1, 2), False, (Piece(Fraction(1, 2), 0, Fraction(3, 2)),
                                               Piece(Fraction(5, 2), Fraction(3), 1)),
                       Fraction(5, 2), False)
    assert g == fn_pieces(Fraction(1, 2), [(Fraction(1, 2), 0, Fraction(3, 2))], Fraction(5, 2))
    for h in (f, g):
        fields = [h.bottom, h.top, *(q for p in h.pieces for q in p)]
        assert all(type(q) is int or type(q) is Ratio for q in fields if q is not None), h
    two, half = ThresholdPredicate(Fraction(4, 2)).threshold, ThresholdPredicate(Fraction(1, 2)).threshold
    assert two == 2 and type(two) is int and type(half) is Ratio
    for x in (f, g, ThresholdPredicate(Fraction(1, 2))):
        assert pickle.loads(pickle.dumps(x)) == x and copy.deepcopy(x) == x


def test_validate_identity():
    assert validate(0, False, [(0, 0, 1)]) == identity()


def test_validate_rejects_small_slope():
    with pytest.raises(SlopeTooSmall):
        validate(0, False, [(0, 0, Fraction(1, 2))])


def test_validate_offset_decrement():
    f = validate(1, False, [(1, 0, 1)])
    assert f == shift(-1)


def test_validate_rejects_downward_jump():
    with pytest.raises(NonMonotone):
        validate(0, False, [(0, 5, 1), (2, 3, 1)])


def test_validate_rejects_negative_values():
    with pytest.raises(NegativeValue):
        validate(0, False, [(0, -1, 1)])


def test_validate_rejects_unordered_pieces():
    with pytest.raises(MalformedPieces):
        validate(0, False, [(0, 0, 1), (0, 1, 1)])


def test_validate_rejects_inclusive_bottom_with_pieces():
    # only the bottom/top step admits an inclusive bottom boundary
    with pytest.raises(MalformedPieces):
        validate(1, True, [(1, 6, 2)])
    # nor does an inclusive top flag without a top boundary
    with pytest.raises(MalformedPieces, match="inclusive top flag"):
        validate(0, False, [(0, 0, 1)], None, True)


def test_validate_step_function():
    f = validate(2, True, [], 2, False)
    assert f.eval(F(2)) == BOTTOM
    assert f.eval(F("9/4")) == TOP


def test_validate_folds_one_point_last_piece():
    # the last piece covers only x = 5, where the slope-2 piece already
    # reaches 10: it is redundant, and equality must not depend on it
    f = validate(0, False, [(0, 0, 2), (5, 10, 3)], 5, False)
    assert f == join(f, f) == compose(identity(), f)
    assert f == validate(0, False, [(0, 0, 2)], 5, False)
    assert str(f) == "bot<0 [0: 0+2(x-0)] top>5"


# ----------------------------------------------------------------------
# eval


def test_eval_affine(plus_two):
    assert plus_two.eval(finite(0)) == finite(2)


def test_eval_below_bottom(decrement):
    assert decrement.eval(F("1/2")) == BOTTOM


def test_eval_const_bottom_at_top():
    assert CONST_BOTTOM.eval(TOP) == BOTTOM


def test_eval_top_endpoint(decrement):
    assert decrement.eval(TOP) == TOP
    assert decrement.eval(BOTTOM) == BOTTOM


# ----------------------------------------------------------------------
# compose / join / star / equal


def test_compose_shifts(plus_two, decrement):
    assert compose(plus_two, decrement) == shift(1)


def test_compose_identity_unit():
    g = fn_pieces(1, [(1, 2, 2)])
    assert compose(identity(), g) == g
    assert compose(g, identity()) == g


def test_compose_const_bottom_left(decrement):
    assert compose(CONST_BOTTOM, decrement) == CONST_BOTTOM


def test_join_idempotent(decrement):
    assert join(decrement, decrement) == decrement


def test_join_identity_dominates_decrement(decrement):
    assert join(identity(), decrement) == identity()


def test_join_piecewise_switch():
    g = fn_pieces(2, [(2, 5, 1)])  # bottom below 2, then x + 3
    j = join(shift(1), g)
    assert j == fn_pieces(0, [(0, 1, 1), (2, 5, 1)])


def test_star_decrement_is_identity(decrement):
    assert star(decrement) == identity()


def test_star_pump(plus_two):
    s = star(plus_two)
    assert s.eval(finite(0)) == TOP
    assert s.eval(finite(100)) == TOP
    assert s.eval(BOTTOM) == BOTTOM


def test_star_const_bottom():
    assert star(CONST_BOTTOM) == identity()


def test_star_boundary_point():
    # f(x) = 2x - 2 below-bottom-2: f(2) = 2 so star keeps 2, tops above
    f = fn_pieces(2, [(2, 2, 2)])
    s = star(f)
    assert s.eval(finite(2)) == finite(2)
    assert s.eval(F("9/4")) == TOP


def test_equal_after_merge():
    two_pieces = validate(0, False, [(0, 1, 1), (3, 4, 1)])
    assert two_pieces == shift(1)
    assert shift(1) != shift(2)


# ----------------------------------------------------------------------
# local finiteness witness


def test_witness_stabilizes(decrement):
    rep = local_finiteness_witness(decrement, finite(5), 64)
    assert rep.kind == "stabilized"
    assert rep.value == finite(5)


def test_witness_diverges():
    rep = local_finiteness_witness(shift(1), finite(0), 64)
    assert rep.kind == "diverges"


def test_witness_identity_fixpoint():
    rep = local_finiteness_witness(identity(), finite(3), 64)
    assert rep.kind == "stabilized"
    assert rep.value == finite(3)


def test_witness_rejects_bad_budget():
    with pytest.raises(ValueError):
        local_finiteness_witness(identity(), finite(0), 0)


# ----------------------------------------------------------------------
# randomized properties


def _corpus(seed, k):
    rng = random.Random(seed)
    return [energylaws.random_energy_function(rng) for _ in range(k)], rng


def test_defining_inequality():
    fns, rng = _corpus(10, 150)
    for f in fns:
        for _ in range(10):
            x = Fraction(rng.randint(0, 24), rng.randint(1, 4))
            y = x + Fraction(rng.randint(1, 8), rng.randint(1, 4))
            fx, fy = f.eval(finite(x)), f.eval(finite(y))
            if fx.is_finite and fy.is_finite:
                assert fy.value >= fx.value + (y - x)
            else:
                assert fy >= fx


def test_gain_monotone():
    fns, rng = _corpus(11, 100)
    for f in fns:
        gains = []
        for q in sorted(Fraction(rng.randint(0, 30), 2) for _ in range(6)):
            v = f.eval(finite(q))
            if v.is_finite:
                gains.append(v.value - q)
        assert gains == sorted(gains)


def test_semiring_laws():
    fns, _ = _corpus(12, 30)
    for i in range(0, 27, 3):
        f, g, h = fns[i], fns[i + 1], fns[i + 2]
        assert join(f, g) == join(g, f)
        assert join(join(f, g), h) == join(f, join(g, h))
        assert join(f, f) == f
        assert join(f, CONST_BOTTOM) == f
        assert compose(compose(f, g), h) == compose(f, compose(g, h))
        assert compose(f, identity()) == f
        assert compose(identity(), f) == f
        assert compose(f, CONST_BOTTOM) == CONST_BOTTOM
        assert compose(CONST_BOTTOM, f) == CONST_BOTTOM
        assert compose(join(f, g), h) == join(compose(f, h), compose(g, h))
        assert compose(f, join(g, h)) == join(compose(f, g), compose(f, h))


def test_star_unfolding():
    fns, _ = _corpus(13, 60)
    for f in fns:
        assert star(f) == join(identity(), compose(f, star(f)))


def test_star_matches_witness():
    fns, rng = _corpus(14, 120)
    for f in fns:
        s = star(f)
        for _ in range(6):
            x = finite(Fraction(rng.randint(0, 20), rng.randint(1, 4)))
            rep = local_finiteness_witness(f, x, 64)
            want = TOP if rep.kind == "diverges" else rep.value
            assert s.eval(x) == want


def test_top_continuity():
    fns, rng = _corpus(15, 60)
    for f in fns:
        if f.is_const_bottom:
            continue
        bound = Fraction(rng.randint(1, 50))
        x = Fraction(0)
        for n in range(200):
            if f.eval(finite(x + n)) >= finite(bound):
                break
        else:
            pytest.fail(f"no iterate of {f} above {bound}")


def test_compose_join_pointwise():
    fns, rng = _corpus(16, 80)
    pts = [BOTTOM, TOP] + [
        finite(Fraction(rng.randint(0, 20), rng.randint(1, 4))) for _ in range(8)
    ]
    for i in range(0, len(fns) - 1, 2):
        f, g = fns[i], fns[i + 1]
        c, j = compose(f, g), join(f, g)
        # random points seldom land on a breakpoint: also read every
        # structure point and the middle of every gap between them
        grid = sorted({q for h in (f, g, c, j) for q in h.structure_points()})
        mids = [Fraction(lo + hi, 2) for lo, hi in zip(grid, grid[1:])]
        mids += [q + 1 for q in grid[-1:]]
        for x in pts + [finite(q) for q in grid + mids]:
            assert c.eval(x) == g.eval(f.eval(x))
            assert j.eval(x) == max(f.eval(x), g.eval(x))


# ----------------------------------------------------------------------
# JSON


def test_json_round_trip():
    fns, _ = _corpus(17, 60)
    for f in fns:
        assert energyfn.from_json(energyfn.to_json(f)) == f


def test_json_const_bottom_encoding():
    assert energyfn.to_json(CONST_BOTTOM) == {"bottom": {"boundary": "inf"}}
    assert energyfn.from_json({"bottom": {"boundary": "inf"}}) == CONST_BOTTOM


@pytest.mark.parametrize("flag", ["false", 0, 1, None])
def test_json_rejects_non_boolean_flags(flag):
    step = {"bottom": {"boundary": "2", "bottom_at_boundary": flag},
            "top": {"boundary": "2", "top_at_boundary": True}}
    with pytest.raises(ParseError):
        energyfn.from_json(step)
    capped = {"bottom": {"boundary": "0"},
              "pieces": [{"start": "0", "intercept": "0", "slope": "1"}],
              "top": {"boundary": "2", "top_at_boundary": flag}}
    with pytest.raises(ParseError):
        energyfn.from_json(capped)
    capped["top"]["top_at_boundary"] = False
    assert energyfn.from_json(capped).eval(F(2)) == F(2)


def test_json_rejects_degenerate():
    with pytest.raises(ParseError):
        energyfn.from_json({"bottom": {"boundary": "inf"}, "pieces": [{"start": "0"}]})
    with pytest.raises(ParseError):
        energyfn.from_json({"pieces": []})
    with pytest.raises(MalformedPieces):
        energyfn.from_json(
            {"bottom": {"boundary": "0", "bottom_at_boundary": False}, "pieces": []}
        )
    for flag in (True, False):
        with pytest.raises(ParseError):
            energyfn.from_json({"bottom": {"boundary": "0"},
                                "pieces": [{"start": "0", "intercept": "0", "slope": "1"}],
                                "top": {"boundary": None, "top_at_boundary": flag}})
