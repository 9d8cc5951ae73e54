"""Tests for threshold predicates and infinite products."""

import random
from fractions import Fraction

import pytest

from energyomega import energyfn, energylaws, omegaval
from energyomega.energyfn import CONST_BOTTOM, compose, identity, shift, star
from energyomega.omegaval import (
    NEVER,
    ThresholdPredicate,
    act,
    apply,
    from_threshold,
    infinite_product_lasso,
    omega,
    vjoin,
)
from energyomega.extlat import BOTTOM, TOP, finite

from conftest import F, fn_pieces


def test_apply_never():
    assert apply(NEVER, TOP) is False


def test_apply_boundary():
    assert apply(from_threshold(5), finite(5)) is True
    assert apply(from_threshold(5, inclusive=False), finite(5)) is False
    assert apply(from_threshold(5), BOTTOM) is False
    assert apply(from_threshold(5), TOP) is True


def test_act_shift():
    assert act(shift(2), from_threshold(5)) == from_threshold(3)


def test_act_never_absorbs():
    assert act(shift(7), NEVER) == NEVER


def test_act_const_bottom():
    assert act(CONST_BOTTOM, from_threshold(0)) == NEVER


def test_vjoin_lower_threshold_wins():
    assert vjoin(from_threshold(2), from_threshold(5)) == from_threshold(2)


def test_vjoin_inclusive_wins_at_tie():
    exc = from_threshold(2, inclusive=False)
    inc = from_threshold(2)
    assert vjoin(exc, inc) == inc


def test_vjoin_never_unit():
    v = from_threshold(3, inclusive=False)
    assert vjoin(NEVER, v) == v
    assert vjoin(v, NEVER) == v


def test_omega_identity():
    assert omega(identity()) == from_threshold(0)


def test_omega_decrement(decrement):
    assert omega(decrement) == NEVER


def test_omega_doubling_survivor():
    f = fn_pieces(2, [(2, 2, 2)])  # 2x - 2 with bottom below 2
    assert omega(f) == from_threshold(2)


def test_lasso_dead_cycle(plus_two, decrement):
    assert infinite_product_lasso([plus_two], [decrement]) == NEVER


def test_lasso_identity_cycle():
    assert infinite_product_lasso([], [identity()]) == from_threshold(0)


def test_lasso_bottom_prefix():
    assert infinite_product_lasso([CONST_BOTTOM], [identity()]) == NEVER


def test_lasso_rejects_empty_cycle():
    with pytest.raises(ValueError):
        infinite_product_lasso([identity()], [])


def test_negative_threshold_rejected():
    with pytest.raises(ValueError):
        from_threshold(Fraction(-1, 2))


# ----------------------------------------------------------------------
# randomized properties


def _corpus(seed, k):
    rng = random.Random(seed)
    fns = [energylaws.random_energy_function(rng) for _ in range(k)]
    preds = [energylaws.random_predicate(rng) for _ in range(k)]
    return fns, preds, rng


def _points(rng, k):
    return [BOTTOM, TOP] + [
        finite(Fraction(rng.randint(0, 20), rng.randint(1, 4))) for _ in range(k)
    ]


def test_finite_additivity():
    _, preds, rng = _corpus(21, 40)
    pts = _points(rng, 8)
    for v in preds:
        for x in pts:
            for y in pts:
                assert apply(v, max(x, y)) == (apply(v, x) or apply(v, y))


def test_act_pointwise_and_laws():
    fns, preds, rng = _corpus(22, 60)
    pts = _points(rng, 8)
    for i in range(0, len(fns) - 1, 2):
        f, g = fns[i], fns[i + 1]
        v = preds[i]
        w = act(f, v)
        # random points seldom land on the threshold: read it and just below
        edge = [] if w.is_never else [w.threshold, w.threshold - Fraction(1, 1024)]
        for x in pts + [finite(q) for q in edge if q >= 0]:
            assert apply(w, x) == apply(v, f.eval(x))
        assert act(compose(f, g), v) == act(f, act(g, v))
        assert act(identity(), v) == v
        assert act(f, vjoin(v, preds[i + 1])) == vjoin(act(f, v), act(f, preds[i + 1]))
        assert act(energyfn.join(f, g), v) == vjoin(act(f, v), act(g, v))


def test_omega_fixed_point():
    fns, _, _ = _corpus(23, 60)
    for f in fns:
        assert act(f, omega(f)) == omega(f)


def test_omega_rotation():
    fns, _, _ = _corpus(24, 60)
    for i in range(0, len(fns) - 1, 2):
        f, g = fns[i], fns[i + 1]
        assert omega(compose(f, g)) == act(f, omega(compose(g, f)))


def test_omega_power_collapse():
    fns, _, _ = _corpus(25, 50)
    for f in fns:
        ff = compose(f, f)
        assert omega(f) == omega(ff)
        assert omega(f) == omega(compose(ff, f))


def test_omega_against_orbit_oracle():
    fns, _, rng = _corpus(26, 120)
    for f in fns:
        w = omega(f)
        for _ in range(6):
            x = finite(Fraction(rng.randint(0, 16), rng.randint(1, 4)))
            y = x
            alive = None
            for _ in range(5000):
                if y.is_bottom:
                    alive = False
                    break
                if y.is_top or f.eval(y) >= y:
                    alive = True
                    break
                y = f.eval(y)
            assert alive is not None, f"orbit of {f} from {x} undecided"
            assert apply(w, x) == alive


def test_ax0_for_the_pair():
    fns, preds, rng = _corpus(27, 40)
    pts = _points(rng, 6)
    for i in range(0, len(fns) - 1, 2):
        f, g = fns[i], fns[i + 1]
        v = preds[i]
        lhs = act(f, act(star(g), v))
        terms = []
        power = identity()
        for _ in range(120):
            terms.append(act(f, act(power, v)))
            power = compose(power, g)
        rhs = NEVER
        for t in terms:
            rhs = vjoin(rhs, t)
        # partial joins stay below the closed form ...
        assert vjoin(lhs, rhs) == lhs
        # ... and reach it pointwise at every sampled energy
        for x in pts:
            if x.is_top:
                continue
            if apply(lhs, x):
                assert any(apply(t, x) for t in terms), (f, g, v, x)


def test_to_json():
    assert omegaval.to_json(NEVER) == {"tag": "never"}
    assert omegaval.to_json(from_threshold(3, inclusive=False)) == {
        "tag": "from", "threshold": "3", "inclusive": False,
    }
