"""Tests for energy automata and their brute-force oracles."""

import functools
import pathlib
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from energyomega import energyauto as ea
from energyomega import cli, energyfn, energylaws, matrixkleene as mk, omegaval
from energyomega.energyfn import CONST_BOTTOM, identity, shift
from energyomega.errors import ParseError, VerificationFailed
from energyomega.extlat import BOTTOM, TOP, finite
from energyomega.omegaval import NEVER, apply, from_threshold

from blockref import block_omega_k, block_star
from conftest import F, edge_matrix, energy_algebra, fn_pieces, perfbench

PUMP_JSON = str(pathlib.Path(__file__).parent / "golden" / "pump.json")


def pump():
    """The 2-state example: x + 2 forward, x - 1 (bottom below 1) back."""
    return ea.automaton(
        ["s0", "s1"],
        ["s0"],
        ["s1"],
        [("s0", "s1", shift(2)), ("s1", "s0", shift(-1))],
    )


def pump_accept_s0():
    return ea.automaton(
        ["s0", "s1"],
        ["s0"],
        ["s0"],
        [("s0", "s1", shift(2)), ("s1", "s0", shift(-1))],
    )


def single(loop=None, accepting=True):
    edges = [] if loop is None else [("q", "q", loop)]
    return ea.automaton(["q"], ["q"], ["q"] if accepting else [], edges)


def _edge(aut, a, b):
    i, j = aut.states.index(a), aut.states.index(b)
    return next((fn for src, dst, fn in aut.edges if (src, dst) == (i, j)), CONST_BOTTOM)


def _relabeled(aut, perm):
    """``aut`` with its states listed in the order ``perm``."""
    edges = [(aut.states[i], aut.states[j], fn) for i, j, fn in aut.edges]
    return ea.automaton([aut.states[i] for i in perm], aut.initial, aut.accepting, edges)


# ----------------------------------------------------------------------
# builder / parsing


def test_builder_rejects_duplicate_states():
    with pytest.raises(ParseError):
        ea.automaton(["a", "a"], ["a"], [], [])


def test_builder_rejects_unknown_names():
    with pytest.raises(ParseError):
        ea.automaton(["a"], ["b"], [], [])
    with pytest.raises(ParseError):
        ea.automaton(["a"], ["a"], ["c"], [])
    with pytest.raises(ParseError):
        ea.automaton(["a"], ["a"], [], [("a", "z", identity())])


def test_builder_rejects_empty():
    with pytest.raises(ParseError):
        ea.automaton([], [], [], [])


def test_parallel_edges_joined():
    aut = ea.automaton(
        ["a", "b"],
        ["a"],
        ["b"],
        [("a", "b", shift(-1)), ("a", "b", shift(2))],
    )
    assert _edge(aut, "a", "b") == energyfn.join(shift(-1), shift(2))


def test_json_parallel_edges_joined():
    edges = [
        {"from": "a", "to": "b", "fn": energyfn.to_json(fn)} for fn in (shift(-1), shift(2))
    ]
    obj = {"states": ["a", "b"], "initial": ["a"], "accepting": ["b"], "edges": edges}
    assert _edge(ea.from_json(obj), "a", "b") == energyfn.join(shift(-1), shift(2))


# ----------------------------------------------------------------------
# reach_value / reachable


def test_reach_value_no_accepting():
    aut = single(accepting=False)
    assert ea.reach_value(aut) == CONST_BOTTOM


def test_reach_value_trivial_accepting():
    aut = single()
    assert ea.reach_value(aut) == identity()


def test_reach_value_pump_tops():
    v = ea.reach_value(pump())
    assert v.eval(finite(0)) == TOP
    assert v.eval(BOTTOM) == BOTTOM


def test_reachable_empty_path():
    assert ea.reachable(single(), finite(0)).answer is True


def test_reachable_pump():
    assert ea.reachable(pump(), finite(0), verify=True).answer is True


def test_reachable_starved_edge():
    aut = ea.automaton(["a", "b"], ["a"], ["b"], [("a", "b", shift(-1))])
    res = ea.reachable(aut, F("1/2"), verify=True)
    assert res.answer is False
    assert ea.reachable(aut, finite(1), verify=True).answer is True


# ----------------------------------------------------------------------
# buchi_value / buchi


def test_buchi_value_no_accepting():
    assert ea.buchi_value(single(loop=identity(), accepting=False)) == NEVER


def test_buchi_value_identity_loop():
    assert ea.buchi_value(single(loop=identity())) == from_threshold(0)


def test_buchi_value_pump_cycle():
    assert ea.buchi_value(pump_accept_s0()) == from_threshold(0)


def test_buchi_identity_loop_point():
    assert ea.buchi(single(loop=identity()), finite(0), verify=True).answer is True


def test_buchi_decreasing_loop():
    aut = single(loop=shift(-1))
    for x in (finite(0), finite(7), F("13/2")):
        assert ea.buchi(aut, x, verify=True).answer is False


def test_buchi_no_accepting_at_top():
    aut = single(loop=identity(), accepting=False)
    assert ea.buchi(aut, TOP).answer is False


# ----------------------------------------------------------------------
# oracles


def test_oracle_reach_bottom_energy():
    assert ea.oracle_reach(single(), BOTTOM).answer is False


def test_oracle_reach_disconnected():
    aut = ea.automaton(["a", "b"], ["a"], ["b"], [])
    assert ea.oracle_reach(aut, finite(9)).answer is False


def test_oracle_reach_witness_replays():
    res = ea.oracle_reach(pump(), finite(0))
    assert res.answer is True
    assert res.witness is not None
    aut = pump()
    energy = finite(0)
    path = res.witness
    assert path[0] in aut.initial
    for a, b in zip(path, path[1:]):
        energy = _edge(aut, a, b).eval(energy)
        assert not energy.is_bottom
    assert path[-1] in aut.accepting


def _replay(aut, path, x0):
    energy = x0
    for a, b in zip(path, path[1:]):
        energy = _edge(aut, a, b).eval(energy)
    return energy


def _alive(aut, path, x0):
    return all(
        not _replay(aut, path[: k + 1], x0).is_bottom for k in range(len(path))
    )


def test_reach_witness_takes_the_loop():
    # a -> b is bottom at 1, so the witness must pump a -> a first; the
    # value is top, so the walk stops where a was promoted
    aut = ea.automaton(
        ["a", "b"], ["a"], ["b"], [("a", "a", shift(1)), ("a", "b", shift(-2))]
    )
    res = ea.reachable(aut, finite(1), verify=True)
    assert res.value == TOP
    assert res.witness == ("a", "a", "a", "a", "b")
    assert _replay(aut, res.witness, finite(1)) == finite(2)


def test_top_witnesses_start_at_an_initial_state():
    # the gaining cycle c <-> d sits between the initial state i and t
    edges = [
        ("i", "c", identity()),
        ("c", "d", shift(1)),
        ("d", "c", shift(1)),
        ("d", "t", identity()),
    ]
    aut = ea.automaton("icdt", "i", "t", edges)
    res = ea.oracle_reach(aut, finite(0))
    assert res.value == TOP
    assert res.witness[:3] == ("i", "c", "d") and res.witness[-1] == "t"
    assert _alive(aut, res.witness, finite(0))
    aut = ea.automaton("icdt", "i", "t", [*edges, ("t", "t", identity())])
    res = ea.oracle_buchi(aut, finite(0))
    prefix, cycle = res.witness
    assert prefix[0] == "i" and prefix[-1] == "t" and cycle == ("t",)
    assert _alive(aut, prefix, finite(0))


def test_reach_witness_follows_last_improvement():
    # b comes alive from a at 0, then improves to 6 through c
    aut = ea.automaton(
        ["a", "b", "c"],
        ["a"],
        ["b"],
        [("a", "b", shift(-1)), ("a", "c", shift(5)), ("c", "b", identity())],
    )
    res = ea.oracle_reach(aut, finite(1))
    assert res.value == finite(6)
    assert res.witness == ("a", "c", "b")
    assert _replay(aut, res.witness, finite(1)) == res.value


def test_finite_reach_witnesses_replay_on_criterion_4_corpus():
    rng = random.Random(103)
    replayed = 0
    for _ in range(300):
        aut = _random_automaton(rng, rng.randint(1, 4))
        for x in _energies(rng, 10):
            res = ea.oracle_reach(aut, x)
            if not res.value.is_finite:
                continue
            assert res.witness[0] in aut.initial and res.witness[-1] in aut.accepting
            assert _replay(aut, res.witness, x) == res.value, (str(aut), x, res)
            replayed += 1
    assert replayed > 600


def test_all_witnesses_start_at_an_initial_state_on_criterion_4_corpus():
    # a walk through a state promoted to top replays that state's last
    # finite energy, so in general it can die after it (a -> a = x + 1,
    # a -> b = x - 100 at energy 1); none does on this corpus
    rng = random.Random(103)
    walks = 0
    for _ in range(300):
        aut = _random_automaton(rng, rng.randint(1, 4))
        for x in _energies(rng, 10):
            reach, buchi = ea.oracle_reach(aut, x), ea.oracle_buchi(aut, x)
            for path in (reach.witness, buchi.witness and buchi.witness[0]):
                if path:
                    assert path[0] in aut.initial and path[-1] in aut.accepting
                    assert _alive(aut, path, x), (str(aut), x, path)
                    walks += 1
    assert walks > 4000


def test_buchi_witness_cycle_sustains_on_criterion_4_corpus():
    # the cycle is the return walk that sustained the accepting state:
    # it closes at the prefix's end over live edges and, replayed from
    # the reach energy (the top probe for a top one), ends no lower
    rng = random.Random(103)
    yes = 0
    for _ in range(300):
        aut = _random_automaton(rng, rng.randint(1, 4))
        for x in _energies(rng, 10):
            res = ea.oracle_buchi(aut, x)
            if not res.answer:
                continue
            prefix, cycle = res.witness
            loop = cycle + cycle[:1]
            assert cycle[0] == prefix[-1]
            assert all(not _edge(aut, a, b).is_const_bottom for a, b in zip(loop, loop[1:]))
            z = finite(ea._top_probe(aut)) if res.value.is_top else res.value
            assert _replay(aut, loop, z) >= z, (str(aut), x, res.witness)
            yes += 1
    assert yes > 1500


def test_buchi_witness_cycle_without_a_self_loop():
    aut = ea.automaton(
        ["a", "b"], ["a"], ["a"], [("a", "b", identity()), ("b", "a", identity())]
    )
    res = ea.oracle_buchi(aut, finite(0))
    assert res.witness == (("a",), ("a", "b"))


def test_oracle_buchi_no_edges():
    assert ea.oracle_buchi(single(), finite(3)).answer is False


def test_oracle_buchi_self_loop_certificate():
    res = ea.oracle_buchi(single(loop=identity()), finite(2))
    assert res.answer is True
    prefix, cycle = res.witness
    assert cycle == ("q",)


def test_oracle_buchi_nested_pump_regression():
    # the sustaining cycle here is not simple: q1 -> q2 -> (q2 pump) -> q1
    aut = ea.automaton(
        ["q0", "q1", "q2"],
        ["q0"],
        ["q0"],
        [
            ("q0", "q1", identity()),
            ("q1", "q0", shift(-3)),
            ("q1", "q2", shift(-3)),
            ("q2", "q1", shift(Fraction(-1, 2))),
            ("q2", "q2", shift(Fraction(1, 2))),
        ],
    )
    assert ea.buchi(aut, finite(5), verify=True).answer is True
    assert ea.buchi(aut, finite(2), verify=True).answer is False


def test_oracle_buchi_top_reach_gains_only_far_up():
    # s0 pumps itself, so s1 is reached with top; s1's loop 2(x - 2500)
    # gains only from 5000 on, which the oracle must derive from the edges
    aut = ea.automaton(
        ["s0", "s1"],
        ["s0"],
        ["s1"],
        [
            ("s0", "s0", shift(1)),
            ("s0", "s1", identity()),
            ("s1", "s1", fn_pieces(2500, [(2500, 0, 2)])),
        ],
    )
    assert ea.buchi(aut, finite(0), verify=True).answer is True


def test_promotion_waits_for_sweep_n_plus_one():
    # sweeps run over sources in index order, so a chain that descends
    # through the indices advances one edge per sweep and is still
    # improving its last state in sweep n - 1
    n = 6
    states = [f"q{k}" for k in range(n)]
    edges = [(states[k], states[k - 1], shift(-1)) for k in range(1, n)]
    aut = ea.automaton(states, [states[-1]], [states[0]], edges)
    assert ea.oracle_reach(aut, finite(n)).value == finite(1)
    assert ea.reachable(aut, finite(n), verify=True).value == finite(1)
    # f(x) = 2x - 4 gains only above its fixed point 4
    loop = single(loop=fn_pieces(2, [(2, 0, 2)]))
    for x, want in ((finite(3), finite(3)), (finite(4), finite(4)), (F("9/2"), TOP)):
        assert ea.oracle_reach(loop, x).value == want
        assert ea.reachable(loop, x, verify=True).value == want


def test_reachable_verify_compares_values(monkeypatch):
    real = ea.oracle_reach

    def off_by_one(aut, x0):
        res = real(aut, x0)
        return ea.QueryResult(res.answer, finite(res.value.value + 1), res.witness)

    monkeypatch.setattr(ea, "oracle_reach", off_by_one)
    aut = ea.automaton(["a", "b"], ["a"], ["b"], [("a", "b", shift(-1))])
    with pytest.raises(VerificationFailed, match="algebraic value 2 vs oracle value 3"):
        ea.reachable(aut, finite(3), verify=True)


def test_buchi_verify_compares_answers(monkeypatch, capsys):
    real = ea.oracle_buchi

    def flipped(aut, x0):
        res = real(aut, x0)
        return ea.QueryResult(not res.answer, res.value, res.witness)

    monkeypatch.setattr(ea, "oracle_buchi", flipped)
    with pytest.raises(VerificationFailed, match="buchi: algebraic True vs oracle False"):
        ea.buchi(pump(), finite(0), verify=True)
    assert cli.main(["buchi", PUMP_JSON, "--energy", "0", "--verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: buchi: algebraic")


# ----------------------------------------------------------------------
# randomized properties


def _random_automaton(rng, n):
    states = [f"s{i}" for i in range(n)]
    edges = []
    for src in states:
        for dst in states:
            if rng.random() < 0.55:
                edges.append((src, dst, energylaws.random_energy_function(rng)))
    k = rng.randint(1, n)
    initial = rng.sample(states, rng.randint(1, n))
    accepting = rng.sample(states, k) if rng.random() < 0.9 else []
    return ea.automaton(states, initial, accepting, edges)


def _energies(rng, k):
    return [finite(Fraction(rng.randint(0, 12), rng.choice((1, 2)))) for _ in range(k)]


def test_cross_validation_small_corpus():
    rng = random.Random(41)
    for _ in range(60):
        aut = _random_automaton(rng, rng.randint(1, 4))
        for x in _energies(rng, 3):
            ea.reachable(aut, x, verify=True)
            ea.buchi(aut, x, verify=True)


def _sparse_ring(rng, n):
    """A ring i -> i+1 plus a few chords, mostly shifts by p(j) - p(i) - loss.

    With potentials p, a shift-only cycle gains nothing less its losses,
    so the values stay away from the all-top degenerate case.
    """
    states = [f"r{i}" for i in range(n)]
    p = [rng.randint(0, 4) for _ in range(n)]
    edges = []
    for i in range(n):
        targets = {(i + 1) % n}
        targets.update(rng.randrange(n) for _ in range(rng.randint(0, 2)))
        for j in targets:
            if rng.random() < 0.85:
                loss = Fraction(rng.randint(0, 2), rng.choice((1, 2)))
                fn = shift(p[j] - p[i] - loss)
            else:
                fn = energylaws.random_energy_function(rng)
            edges.append((states[i], states[j], fn))
    initial = rng.sample(states, rng.randint(1, 2))
    accepting = rng.sample(states, rng.randint(1, 3))
    return ea.automaton(states, initial, accepting, edges)


def test_queries_match_block_reference_large_n():
    rng = random.Random(45)
    for n in range(6, 13):
        for _ in range(2):
            aut = _sparse_ring(rng, n)
            M = edge_matrix(aut)
            star = block_star(M)
            want = CONST_BOTTOM
            for i, src in enumerate(aut.states):
                for j, dst in enumerate(aut.states):
                    if src in aut.initial and dst in aut.accepting:
                        want = energyfn.join(want, star.rows[i][j])
            assert ea.reach_value(aut) == want

            # block_omega_k reads its first k states as the accepting ones
            order = [i for i, s in enumerate(aut.states) if s in aut.accepting]
            order += [i for i, s in enumerate(aut.states) if s not in aut.accepting]
            rows = [[M.rows[i][j] for j in order] for i in order]
            stacked = block_omega_k(mk.matrix(mk.ENERGY_ALGEBRA, rows), len(aut.accepting))
            want = NEVER
            for entry, i in zip(stacked, order):
                if aut.states[i] in aut.initial:
                    want = omegaval.vjoin(want, entry)
            assert ea.buchi_value(aut) == want


def test_truncated_solve_matches_full_vector():
    # the queries back-substitute only up to the last initial state; the
    # join over the initial entries of the whole vector must agree with
    # no, one or several initial states anywhere, accepting ones included
    rng = random.Random(1201)
    kinds = Counter()
    for _ in range(60):
        n = rng.randint(1, 5)
        aut = _random_automaton(rng, n)
        M = edge_matrix(aut)
        alg, rows = M.algebra, M.rows
        zeta = [alg.one if s in aut.accepting else alg.zero for s in aut.states]
        column = mk.mat_star_vec(M, tuple(zeta))
        # the block reference reads its first k states as the accepting ones
        order = sorted(range(n), key=lambda i: aut.states[i] not in aut.accepting)
        permuted = mk.matrix(alg, [[rows[i][j] for j in order] for i in order])
        stacked = block_omega_k(permuted, len(aut.accepting))
        omega = {i: entry for i, entry in zip(order, stacked)}
        picks = [set(), *({s} for s in aut.states), set(aut.states)]
        picks.append(set(rng.sample(aut.states, rng.randint(1, n))))
        for initial in picks:
            one = aut._replace(initial=frozenset(initial))
            idx = [i for i, s in enumerate(aut.states) if s in initial]
            want_reach = functools.reduce(energyfn.join, [column[i] for i in idx], CONST_BOTTOM)
            want_buchi = functools.reduce(omegaval.vjoin, [omega[i] for i in idx], NEVER)
            assert ea.reach_value(one) == want_reach
            assert ea.buchi_value(one) == want_buchi
            kinds[len(initial) if len(initial) < 2 else "several"] += 1
            kinds["accepting initial"] += bool(initial & aut.accepting)
    assert min(kinds.values()) >= 20


def test_buchi_solve_scales_like_reach():
    # a circulant ring i -> i+1, i+2, i-1 of net-negative shifts with every
    # 4th state accepting: the i -> i+2 edges skip the accepting states, so
    # eliminating the others first would join every pair of accepting ones
    rng = random.Random(7)
    n = 128
    p = [rng.randint(0, 3) for _ in range(n)]
    edges = [
        (i, (i + d) % n, shift(p[(i + d) % n] - p[i] - rng.choice((1, 1, 2))))
        for i in range(n) for d in (1, 2, -1)
    ]
    aut = ea.automaton(range(n), [0], range(0, n, 4), edges)
    composes = Counter()

    def counted(query, value):
        def mul(f, g):
            composes[query] += 1
            return energyfn.compose(f, g)

        with energy_algebra(mul=mul):
            return value(aut)

    assert counted("reach", ea.reach_value) == ea.reach_value(aut)
    assert counted("buchi", ea.buchi_value) == ea.buchi_value(aut)
    assert composes["buchi"] <= 3 * composes["reach"], composes


def test_verify_on_sparse_rings_at_large_n():
    # seed 52 gives reach values bot, 0, 5/2 and top and a Buchi
    # threshold at 5/2 (exclusive) on these energies
    rng = random.Random(52)
    for n in (32, 64):
        aut = _sparse_ring(rng, n)
        for x in (finite(0), F("5/2"), finite(12)):
            ea.reachable(aut, x, verify=True)
            ea.buchi(aut, x, verify=True)


def test_oracle_evaluates_only_live_edges_within_2n_plus_1_sweeps(monkeypatch):
    # a reversed chain: the pump on q(n-1) is promoted in sweep n + 1,
    # then top moves down one state per sweep, as rows run in index order
    n = 20
    states = [f"q{k}" for k in range(n)]
    edges = [(states[k], states[k - 1], shift(-100)) for k in range(1, n)]
    chain = ea.automaton(states, [states[-1]], [states[0]], edges + [(states[-1], states[-1], shift(1))])
    rng = random.Random(43)
    corpus = [(chain, finite(0))] + [
        (_random_automaton(rng, rng.randint(1, 5)), x) for _ in range(40) for x in _energies(rng, 2)
    ]
    calls = []  # per edge evaluation: is the function constant bottom?
    real = energyfn.EnergyFunction.eval

    def counting(self, x):
        calls.append(self.is_const_bottom)
        return real(self, x)

    monkeypatch.setattr(energyfn.EnergyFunction, "eval", counting)
    for aut, x in corpus:
        calls.clear()
        value = ea.oracle_reach(aut, x).value
        assert not any(calls)
        assert len(calls) <= (2 * aut.dim + 1) * len(aut.edges)
        if aut is chain:
            assert value == TOP and len(calls) == (2 * n + 1) * n


def test_verify_on_the_benchmark_ring_at_n_128():
    gen = perfbench("gen")
    aut = ea.from_json(gen.ring(128, random.Random(5)))
    for x, want in ((finite(0), False), (finite(1000), True)):
        assert ea.reachable(aut, x, verify=True).answer is want
        assert ea.buchi(aut, x, verify=True).answer is want
    pairs = [(i, j) for i, j, _ in aut.edges]
    assert pairs == sorted(set(pairs)) and not any(f.is_const_bottom for _, _, f in aut.edges)
    assert len(aut.edges) == 3 * 128
    assert ea.from_json(ea.to_json(aut)) == aut


def test_the_largest_admitted_ring_parses_and_solves_in_little_memory():
    # the automaton holds its 3 n live edges, not an n x n matrix, and the
    # Buchi solve over them fills in little on the ring: a dense matrix of
    # n^2 = 2^20 entries would take 8 MiB for its row pointers alone
    doc = perfbench("gen").ring(ea.MAX_STATES, random.Random(5))
    tracemalloc.start()
    try:
        aut = ea.from_json(doc)
        parse_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        ea.buchi_value(aut)
        buchi_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parse_peak < 4 * 2**20, parse_peak
    assert buchi_peak < 10 * 2**20, buchi_peak


def test_json_edges_are_live_joined_and_in_order():
    # an explicit constant-bottom edge is dropped, parallel edges are
    # joined into one, and the edges come in (i, j) order, not input order
    bottom = {"bottom": {"boundary": "inf"}}
    assert energyfn.from_json(bottom) is CONST_BOTTOM
    named = [("b", "a", shift(1)), ("a", "b", shift(-1)), ("b", "b", shift(-2)), ("a", "b", shift(2))]
    edges = [{"from": a, "to": b, "fn": energyfn.to_json(f)} for a, b, f in named]
    edges.insert(2, {"from": "a", "to": "a", "fn": bottom})
    obj = {"states": ["a", "b"], "initial": ["a"], "accepting": ["b"], "edges": edges}
    aut = ea.from_json(obj)
    assert aut.edges == (
        (0, 1, energyfn.join(shift(-1), shift(2))), (1, 0, shift(1)), (1, 1, shift(-2))
    )
    assert ea.to_json(aut)["edges"] == [
        {"from": "a", "to": "b", "fn": energyfn.to_json(energyfn.join(shift(-1), shift(2)))},
        {"from": "b", "to": "a", "fn": energyfn.to_json(shift(1))},
        {"from": "b", "to": "b", "fn": energyfn.to_json(shift(-2))},
    ]
    assert ea.from_json(ea.to_json(aut)) == aut
    # the same through the builder, and a parallel edge that is all bottom
    both = [("a", "a", CONST_BOTTOM), ("a", "a", CONST_BOTTOM)]
    assert ea.automaton(["a", "b"], ["a"], ["b"], both).edges == ()


def test_metamorphic_relations_on_the_benchmark_families_at_n_64():
    gen = perfbench("gen")
    for family in (gen.ring, gen.mixed):
        aut = ea.from_json(family(64, random.Random(5)))
        reach, buchi = ea.reach_value(aut), ea.buchi_value(aut)
        edges = [(aut.states[i], aut.states[j], fn) for i, j, fn in aut.edges]

        def values(states, initial, edges, accepting=aut.accepting):
            other = ea.automaton(states, initial, accepting, edges)
            return ea.reach_value(other), ea.buchi_value(other)

        # route one edge through a fresh, non-accepting state
        k = len(edges) // 2
        src, dst, fn = edges[k]
        routed = edges[:k] + edges[k + 1:] + [(src, "mid", fn), ("mid", dst, identity())]
        assert values(aut.states + ("mid",), aut.initial, routed) == (reach, buchi)
        # a fresh start state reaches each old initial one through x + 3
        starts = [("start", q, shift(3)) for q in aut.initial]
        assert values(aut.states + ("start",), ["start"], edges + starts) == (
            energyfn.compose(shift(3), reach), omegaval.act(shift(3), buchi))
        # a copy that no initial state reaches, with edges into the original
        copy = {q: ("copy", q) for q in aut.states}
        copies = [(copy[a], copy[b], f) for a, b, f in edges]
        copies += [(copy[q], q, identity()) for q in aut.initial]
        states = aut.states + tuple(copy.values())
        accepting = [*aut.accepting, *(copy[q] for q in aut.accepting)]
        assert values(states, aut.initial, edges + copies, accepting) == (reach, buchi)


def test_permutation_invariance():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(2, 4)
        aut = _random_automaton(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = _relabeled(aut, perm)
        for x in _energies(rng, 3):
            assert ea.reachable(aut, x).answer == ea.reachable(relabeled, x).answer
            assert ea.buchi(aut, x).answer == ea.buchi(relabeled, x).answer


def test_query_values_do_not_depend_on_the_state_order():
    gen = perfbench("gen")
    rng = random.Random(44)
    corpus = [_random_automaton(rng, rng.randint(2, 6)) for _ in range(300)]
    corpus += [ea.from_json(family(16, random.Random(5))) for family in (gen.ring, gen.mixed)]
    for aut in corpus:
        n = aut.dim
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = _relabeled(aut, perm)
        assert ea.reach_value(relabeled) == ea.reach_value(aut)
        assert ea.buchi_value(relabeled) == ea.buchi_value(aut)


def test_monotone_in_initial_energy():
    rng = random.Random(43)
    for _ in range(25):
        aut = _random_automaton(rng, rng.randint(1, 4))
        xs = sorted(_energies(rng, 4))
        reach = [ea.reachable(aut, x).answer for x in xs]
        buch = [ea.buchi(aut, x).answer for x in xs]
        for lo, hi in zip(reach, reach[1:]):
            assert hi >= lo
        for lo, hi in zip(buch, buch[1:]):
            assert hi >= lo


def test_buchi_value_at_top():
    rng = random.Random(44)
    for _ in range(30):
        aut = _random_automaton(rng, rng.randint(1, 4))
        pred = ea.buchi_value(aut)
        assert apply(pred, TOP) == (pred != NEVER)


# ----------------------------------------------------------------------
# JSON


def test_json_round_trip():
    rng = random.Random(45)
    for _ in range(20):
        aut = _random_automaton(rng, rng.randint(1, 4))
        assert ea.from_json(ea.to_json(aut)) == aut


def test_json_round_trip_renames_states():
    aut = ea.automaton(range(2), [0], [1], [(0, 1, shift(-1))])
    renamed = ea.automaton(["0", "1"], ["0"], ["1"], [("0", "1", shift(-1))])
    assert ea.from_json(ea.to_json(aut)) == renamed


def test_json_rejects_malformed():
    with pytest.raises(ParseError):
        ea.from_json([])
    with pytest.raises(ParseError):
        ea.from_json({"states": ["a"], "initial": ["a"], "accepting": []})
    with pytest.raises(ParseError):
        ea.from_json(
            {
                "states": ["a"],
                "initial": ["a"],
                "accepting": [],
                "edges": [{"from": "a"}],
            }
        )
