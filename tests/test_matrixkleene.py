"""Tests for generic matrix star/omega over the energy algebra."""

import copy
import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from energyomega import energyauto, energyfn, energylaws, laws, matrixkleene as mk, omegaval, wordmodel
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
from conftest import F, energy_algebra, perfbench
from test_boolean_pair import BOOL, omega_flagged, solve_entries

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
            [[energylaws.random_energy_function(rng) for _ in range(n)] for _ in range(n)]
        )
        s = mk.mat_star(m)
        unfolded = mat_join(mat_identity(ALG, n), mat_mul(m, s))
        assert mat_equal(s, unfolded)


def test_mat_omega_1x1():
    assert mk.mat_omega(_mat([[identity()]]))[0] == from_threshold(0)
    assert mk.mat_omega(_mat([[shift(-1)]]))[0] == NEVER


def test_mat_omega_fixed_point():
    rng = random.Random(32)
    for _ in range(25):
        n = rng.randint(1, 3)
        m = _mat(
            [[energylaws.random_energy_function(rng) for _ in range(n)] for _ in range(n)]
        )
        w = mk.mat_omega(m)
        assert mat_vec_act(m, w) == w


def test_mat_omega_k_edges():
    m = _cross(shift(2), shift(-1))
    assert mk.mat_omega_k(m, 0) == (NEVER, NEVER)
    assert mk.mat_omega_k(m, 2) == mk.mat_omega(m)


def test_mat_omega_k_pump_example():
    m = _cross(shift(2), shift(-1))
    v = mk.mat_omega_k(m, 1)
    assert v[0] == from_threshold(0)
    assert v[1] == from_threshold(1)


def test_mat_omega_k_out_of_range():
    m = _cross(shift(2), shift(-1))
    with pytest.raises(BadAcceptingCount):
        mk.mat_omega_k(m, 3)
    with pytest.raises(BadAcceptingCount):
        mk.mat_omega_k(m, -1)


def test_mat_vec_act_examples():
    v = (from_threshold(5), NEVER)
    eye = mat_identity(ALG, 2)
    assert mat_vec_act(eye, v) == v
    z = mat_zero(ALG, 2)
    assert mat_vec_act(z, v) == (NEVER, NEVER)
    single = mat_vec_act(_mat([[shift(2)]]), (from_threshold(5),))
    assert single == (from_threshold(3),)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mat_mul(mat_identity(ALG, 2), mat_identity(ALG, 3))
    with pytest.raises(DimensionMismatch):
        mat_vec_act(mat_identity(ALG, 2), (NEVER,))
    with pytest.raises(DimensionMismatch):
        mk.matrix(ALG, [[identity()], [identity()]])


def test_solve_computes_each_operand_pair_once():
    # a ring i -> i+1, i+2 (x - 1) and i -> i-1 (x + 1/2): eliminating a
    # state multiplies and joins the same few functions over and over
    calls = Counter()
    products = []  # every product's result, in order

    def counted(name, op):
        def run(x, y):
            calls[name, x, y] += 1
            out = op(x, y)
            if name == "mul":
                products.append(out)
            return out

        return run

    alg = dataclasses.replace(
        ALG, mul=counted("mul", energyfn.compose), join=counted("join", energyfn.join)
    )
    n = 12
    edges = {1: shift(-1), 2: shift(-1), n - 1: shift(Fraction(1, 2))}
    rows = [[edges.get((j - i) % n, CONST_BOTTOM) for j in range(n)] for i in range(n)]
    zeta = [identity()] + [CONST_BOTTOM] * (n - 1)
    solves = (
        (lambda A: mk.mat_star_vec(mk.matrix(A, rows), tuple(zeta))),
        (lambda A: mk.mat_omega_k(mk.matrix(A, rows), 3)),
    )
    for solve in solves:
        calls.clear()
        assert solve(alg) == solve(ALG)
        assert calls and max(calls.values()) == 1
    # with one initial state, first, in the middle or last, reach_value
    # reads only v at it, which the last elimination step yields: no
    # back-substitution product follows
    column = mk.mat_star_vec(mk.matrix(ALG, rows), tuple(zeta))
    triples = [(i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row)]
    for initial in (0, n // 2, n - 1):
        aut = energyauto.automaton(range(n), [initial], [0], triples)
        calls.clear()
        products.clear()
        with energy_algebra(mul=alg.mul, join=alg.join):
            value = energyauto.reach_value(aut)
        assert max(calls.values()) == 1 and products[-1] == value
        assert value == column[initial]


def test_energy_algebra_is_built_once_and_read_at_call_time(monkeypatch):
    # the benchmark tracer swaps in a copy with wrapped operations, and
    # the queries read mk.ENERGY_ALGEBRA when they are called, not when
    # the automaton is built
    assert mk.ENERGY_ALGEBRA is mk.ENERGY_ALGEBRA
    assert getattr(mk, "no_such_name", None) is None
    calls = []

    def counting_mul(f, g):
        calls.append((f, g))
        return energyfn.compose(f, g)

    aut = energyauto.automaton(range(2), [0], [1], [(0, 1, shift(2)), (1, 1, shift(-1))])
    want = energyauto.reach_value(aut), energyauto.buchi_value(aut)
    swapped = dataclasses.replace(mk.ENERGY_ALGEBRA, mul=counting_mul)
    monkeypatch.setattr(mk, "ENERGY_ALGEBRA", swapped)
    assert not calls
    assert energyauto.reach_value(aut) == want[0]
    reach_calls = len(calls)
    assert reach_calls
    assert energyauto.buchi_value(aut) == want[1]
    assert len(calls) > reach_calls


class Bit:
    """An interned Boolean whose ``==`` raises: a solve that tells zero
    apart by anything but identity fails on it."""

    __slots__ = ("value",)
    __hash__ = object.__hash__

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        raise AssertionError("an algebra element was compared with ==")


ON, OFF = Bit(True), Bit(False)
BITS = mk.StarAlgebra(
    join=lambda x, y: ON if x.value or y.value else OFF,
    mul=lambda x, y: ON if x.value and y.value else OFF,
    zero=OFF,
    one=ON,
    star=lambda x: ON,
    equal=lambda x, y: x is y,
    act=lambda x, y: ON if x.value and y.value else OFF,
    vjoin=lambda x, y: ON if x.value or y.value else OFF,
    vzero=OFF,
    omega=lambda x: x,
)


def test_the_solve_tells_zero_by_identity_alone():
    # the Boolean pair over elements without ==: every answer as over bools
    cases = (
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], [1, 0, 0]),
        ([[1, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 0]], [0, 0, 0, 1]),
        ([[0, 1, 1, 0, 0], [0, 0, 0, 0, 1], [0, 1, 1, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 1, 0]],
         [0, 1, 0, 0, 0]),
    )
    bit = {True: ON, False: OFF}
    for rows, flags in cases:
        n, bools = len(rows), [[bool(x) for x in row] for row in rows]
        B, M = mk.matrix(BOOL, bools), mk.matrix(BITS, [[bit[x] for x in row] for row in bools])
        c = [bool(f) for f in flags]
        runs = [
            lambda A, c: mk.mat_star_vec(A, c),
            lambda A, c: mk.mat_omega(A),
            lambda A, c, flags=c: omega_flagged(A, flags),
        ]
        for keep in ([n - 1, 0], [1], range(n)):
            for omega in (False, True):
                runs.append(lambda A, c, omega=omega, keep=keep: solve_entries(A, c, omega, keep))
        for run in runs:
            want, got = run(B, c), run(M, [bit[x] for x in c])
            assert [x.value for x in got] == list(want)


def test_an_equal_copy_of_zero_changes_no_answer():
    # equal energy values are one object, so an energy zero has no copy
    assert copy.deepcopy(CONST_BOTTOM) is CONST_BOTTOM and copy.deepcopy(NEVER) is NEVER
    # lang_empty builds equal but distinct zeros: entries and constants
    # that equal the zeros without being them are work, not answers
    alg = wordmodel.word_algebra("ab")
    copied_alg = dataclasses.replace(alg, vzero=wordmodel.LassoLang(()))

    def copies(xs):
        return [wordmodel.lang_empty("ab") if x is alg.zero else x for x in xs]

    rng = random.Random(38)
    for _ in range(12):
        n = rng.randint(1, 3)
        rows = [[alg.zero if rng.random() < 0.5 else laws.random_regex(rng, "ab", True)
                 for _ in range(n)] for _ in range(n)]
        c = [alg.zero if rng.random() < 0.5 else laws.random_regex(rng, "ab") for _ in range(n)]
        copied_rows, copied_c = [copies(row) for row in rows], copies(c)
        entries, copied_entries = (*c, *sum(rows, [])), (*copied_c, *sum(copied_rows, []))
        assert any(x is alg.zero for x in entries) and all(x is not alg.zero for x in copied_entries)
        M, copied = mk.matrix(alg, rows), mk.matrix(alg, copied_rows)
        for want, got in zip(mk.mat_star_vec(M, c), mk.mat_star_vec(copied, copied_c)):
            assert wordmodel.lang_equal(want, got)
        for got_omega in (mk.mat_omega(copied), mk.mat_omega(mk.matrix(copied_alg, copied_rows))):
            for want, got in zip(mk.mat_omega(M), got_omega):
                assert wordmodel.lasso_equal_bounded(want, got, 4).equal


def test_split_independence():
    # the block formulas agree with the elimination solve at every split
    rng = random.Random(33)
    for _ in range(12):
        for n in (3, 4):
            m = _mat(
                [
                    [energylaws.random_energy_function(rng) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            star, omega = mk.mat_star(m), mk.mat_omega(m)
            for k in range(1, n):
                assert mat_equal(block_star(m, split=k), star)
                assert block_omega(m, split=k) == omega
            for k in range(n + 1):
                assert mk.mat_omega_k(m, k) == block_omega_k(m, k)


def test_mat_star_over_word_model():
    # the elimination solve against the block formulas over regular
    # languages, whose equality is language equality (HKC)
    alg = wordmodel.word_algebra("ab")
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(1, 3)
        entries = [
            alg.zero if rng.random() < 0.4 else laws.random_regex(rng, "ab")
            for _ in range(n * n)
        ]
        m = mk.matrix(alg, [entries[i * n : (i + 1) * n] for i in range(n)])
        star = mk.mat_star(m)
        for k in range(1, n) if n > 1 else [None]:
            assert mat_equal(block_star(m, split=k), star)


def test_mat_star_vec_is_star_times_vector():
    rng = random.Random(36)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = _mat(
            [[energylaws.random_energy_function(rng) for _ in range(n)] for _ in range(n)]
        )
        c = [energylaws.random_energy_function(rng) for _ in range(n)]
        star = mk.mat_star(m)
        want = [CONST_BOTTOM] * n
        for i in range(n):
            for j in range(n):
                want[i] = energyfn.join(want[i], energyfn.compose(star.rows[i][j], c[j]))
        assert mk.mat_star_vec(m, tuple(c)) == tuple(want)
    with pytest.raises(DimensionMismatch):
        mk.mat_star_vec(mat_identity(ALG, 2), (identity(),))


# ----------------------------------------------------------------------
# independent oracles


def _automaton(m, initial, accepting):
    """The automaton on states q0 .. q(n-1) whose matrix is m."""
    states = [f"q{k}" for k in range(m.dim)]
    edges = [(states[a], states[b], f) for a, row in enumerate(m.rows) for b, f in enumerate(row)]
    return energyauto.automaton(
        states, [states[k] for k in initial], [states[k] for k in accepting], edges
    )


def path_sup(m, i, j, x):
    """Supremum of path evaluations i -> j: the relaxation oracle's best
    energy at q_j from q_i, which only evaluates the entries of m."""
    return energyauto.oracle_reach(_automaton(m, [i], [j]), x).value


def test_mat_star_against_path_sup():
    rng = random.Random(34)
    for _ in range(30):
        n = rng.randint(1, 3)
        m = _mat(
            [[energylaws.random_energy_function(rng) for _ in range(n)] for _ in range(n)]
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
            [[energylaws.random_energy_function(rng) for _ in range(n)] for _ in range(n)]
        )
        w = mk.mat_omega(m)
        for i in range(n):
            aut = _automaton(m, [i], range(n))
            for q in (0, 2, 5):
                x = finite(q)
                assert apply(w[i], x) == energyauto.oracle_buchi(aut, x).answer
