"""Tests for generic matrix star/omega over the energy algebra."""

import random
from fractions import Fraction

import pytest

from energyomega import energyauto, energyfn, laws, matrixkleene as mk, omegaval
from energyomega.energyfn import CONST_BOTTOM, identity, shift
from energyomega.errors import BadAcceptingCount, DimensionMismatch
from energyomega.extlat import BOTTOM, TOP, finite
from energyomega.omegaval import NEVER, apply, from_threshold

from blockref import (
    block_omega,
    block_omega_k,
    block_star,
    mat_equal,
    mat_identity,
    mat_join,
    mat_mul,
    mat_vec_act,
    mat_zero,
)
from conftest import F

ALG = mk.ENERGY_ALGEBRA


def _mat(rows):
    return mk.matrix(ALG, rows)


def _cross(f, g):
    """[[bot, f], [g, bot]]"""
    return _mat([[CONST_BOTTOM, f], [g, CONST_BOTTOM]])


def test_mat_mul_identity_unit():
    m = _cross(shift(2), shift(-1))
    eye = mat_identity(ALG, 2)
    assert mat_equal(mat_mul(eye, m), m)
    assert mat_equal(mat_mul(m, eye), m)


def test_mat_mul_zero_annihilates():
    m = _cross(shift(2), shift(-1))
    z = mat_zero(ALG, 2)
    assert mat_equal(mat_mul(z, m), z)
    assert mat_equal(mat_mul(m, z), z)


def test_mat_mul_cross_square():
    f, g = shift(2), shift(-1)
    sq = mat_mul(_cross(f, g), _cross(f, g))
    want = _mat(
        [
            [energyfn.compose(f, g), CONST_BOTTOM],
            [CONST_BOTTOM, energyfn.compose(g, f)],
        ]
    )
    assert mat_equal(sq, want)


def test_mat_star_1x1_pump():
    s = mk.mat_star(_mat([[shift(2)]]))
    assert s.rows[0][0].eval(finite(0)) == TOP
    assert s.rows[0][0].eval(BOTTOM) == BOTTOM


def test_mat_star_2x2_cycle_entry():
    # gf = x + 1 alive on [1, inf); its star is identity below 1, top after
    s = mk.mat_star(_cross(shift(2), shift(-1)))
    entry = s.rows[1][1]
    assert entry.eval(F("1/2")) == F("1/2")
    assert entry.eval(finite(1)) == TOP
    assert entry.eval(finite(7)) == TOP


def test_mat_star_unfolding():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 3)
        m = _mat(
            [[laws.random_energy_function(rng) for _ in range(n)] for _ in range(n)]
        )
        s = mk.mat_star(m)
        unfolded = mat_join(mat_identity(ALG, n), mat_mul(m, s))
        assert mat_equal(s, unfolded)


def test_mat_omega_1x1():
    assert mk.mat_omega(_mat([[identity()]])).entries[0] == from_threshold(0)
    assert mk.mat_omega(_mat([[shift(-1)]])).entries[0] == NEVER


def test_mat_omega_fixed_point():
    rng = random.Random(32)
    for _ in range(25):
        n = rng.randint(1, 3)
        m = _mat(
            [[laws.random_energy_function(rng) for _ in range(n)] for _ in range(n)]
        )
        w = mk.mat_omega(m)
        assert mat_vec_act(m, w).entries == w.entries


def test_mat_omega_k_edges():
    m = _cross(shift(2), shift(-1))
    assert mk.mat_omega_k(m, 0).entries == (NEVER, NEVER)
    assert mk.mat_omega_k(m, 2).entries == mk.mat_omega(m).entries


def test_mat_omega_k_pump_example():
    m = _cross(shift(2), shift(-1))
    v = mk.mat_omega_k(m, 1)
    assert v.entries[0] == from_threshold(0)
    assert v.entries[1] == from_threshold(1)


def test_mat_omega_k_out_of_range():
    m = _cross(shift(2), shift(-1))
    with pytest.raises(BadAcceptingCount):
        mk.mat_omega_k(m, 3)
    with pytest.raises(BadAcceptingCount):
        mk.mat_omega_k(m, -1)


def test_mat_vec_act_examples():
    v = mk.vector(ALG, [from_threshold(5), NEVER])
    eye = mat_identity(ALG, 2)
    assert mat_vec_act(eye, v).entries == v.entries
    z = mat_zero(ALG, 2)
    assert mat_vec_act(z, v).entries == (NEVER, NEVER)
    single = mat_vec_act(_mat([[shift(2)]]), mk.vector(ALG, [from_threshold(5)]))
    assert single.entries == (from_threshold(3),)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mat_mul(mat_identity(ALG, 2), mat_identity(ALG, 3))
    with pytest.raises(DimensionMismatch):
        mat_vec_act(mat_identity(ALG, 2), mk.vector(ALG, [NEVER]))
    with pytest.raises(DimensionMismatch):
        mk.matrix(ALG, [[identity()], [identity()]])


def test_split_independence():
    # the block formulas agree with the elimination solve at every split
    rng = random.Random(33)
    for _ in range(12):
        for n in (3, 4):
            m = _mat(
                [
                    [laws.random_energy_function(rng) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            star, omega = mk.mat_star(m), mk.mat_omega(m)
            for k in range(1, n):
                assert mat_equal(block_star(m, split=k), star)
                assert block_omega(m, split=k).entries == omega.entries
            for k in range(n + 1):
                assert mk.mat_omega_k(m, k).entries == block_omega_k(m, k).entries


def test_mat_star_vec_is_star_times_vector():
    rng = random.Random(36)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = _mat(
            [[laws.random_energy_function(rng) for _ in range(n)] for _ in range(n)]
        )
        c = [laws.random_energy_function(rng) for _ in range(n)]
        star = mk.mat_star(m)
        want = [CONST_BOTTOM] * n
        for i in range(n):
            for j in range(n):
                want[i] = energyfn.join(want[i], energyfn.compose(star.rows[i][j], c[j]))
        assert mk.mat_star_vec(m, mk.vector(ALG, c)).entries == tuple(want)
    with pytest.raises(DimensionMismatch):
        mk.mat_star_vec(mat_identity(ALG, 2), mk.vector(ALG, [identity()]))


# ----------------------------------------------------------------------
# independent oracles


def path_sup(m, i, j, x):
    """Supremum of path evaluations i -> j: the relaxation oracle's best
    energy at q_j from q_i, which only evaluates the entries of m."""
    states = tuple(f"q{k}" for k in range(m.dim))
    aut = energyauto.EnergyAutomaton(
        states, frozenset([states[i]]), frozenset([states[j]]), m
    )
    return energyauto.oracle_reach(aut, x).value


def test_mat_star_against_path_sup():
    rng = random.Random(34)
    for _ in range(30):
        n = rng.randint(1, 3)
        m = _mat(
            [[laws.random_energy_function(rng) for _ in range(n)] for _ in range(n)]
        )
        s = mk.mat_star(m)
        pts = [BOTTOM] + [
            finite(Fraction(rng.randint(0, 12), rng.choice((1, 2)))) for _ in range(4)
        ]
        for i in range(n):
            for j in range(n):
                for x in pts:
                    assert s.rows[i][j].eval(x) == path_sup(m, i, j, x)


def test_mat_omega_against_run_search():
    # an infinite run from i visits some state infinitely often, so the
    # all-states-accepting automaton search is an independent oracle
    rng = random.Random(35)
    for _ in range(25):
        n = rng.randint(1, 3)
        m = _mat(
            [[laws.random_energy_function(rng) for _ in range(n)] for _ in range(n)]
        )
        w = mk.mat_omega(m)
        states = [f"q{k}" for k in range(n)]
        for i in range(n):
            aut = energyauto.EnergyAutomaton(
                tuple(states), frozenset([states[i]]), frozenset(states), m
            )
            for q in (0, 2, 5):
                x = finite(q)
                assert apply(w.entries[i], x) == energyauto.oracle_buchi(aut, x).answer
