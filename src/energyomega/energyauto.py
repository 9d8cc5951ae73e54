"""Energy automata: reachability and Buchi acceptance.

The algebraic route answers queries through one elimination solve in
``matrixkleene`` over the live edges of the matrix M, at the initial
states only: alpha . M* . zeta for reachability, and alpha times the omega
vector over M with the accepting columns flagged for Buchi acceptance.
The oracle route never composes functions: it evaluates edges on exact
energies and relaxes the best energy per state over all walks
(Bellman-Ford), which is sound because all edge functions are monotone.
A state that still improves in sweep n + 1 is promoted to top, and the
relaxation ends within 2n + 1 sweeps.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import Dict, Hashable, Iterable, NamedTuple, Optional, Tuple

from . import energyfn, matrixkleene as mk, omegaval
from .energyfn import EnergyFunction
from .errors import ParseError, VerificationFailed
from .extlat import BOTTOM, TOP, ExtValue, Rational, div, finite, format_ext
from .omegaval import ThresholdPredicate

# from_json refuses more states than this: the solve's fill-in can reach n^2 entries
MAX_STATES = 1024


class EnergyAutomaton(NamedTuple):
    states: tuple  # state names, order fixes the indices in edges
    initial: frozenset
    accepting: frozenset
    edges: tuple  # (i, j, fn) in (i, j) order: parallel edges joined, constant bottom dropped

    @property
    def dim(self) -> int:
        return len(self.states)


class QueryResult(NamedTuple):
    answer: bool
    value: object  # reach: ExtValue; buchi: ThresholdPredicate; oracle_buchi: accepting reach energy
    witness: Optional[tuple] = None  # path, or (prefix, cycle) for Buchi


def automaton(
    states: Iterable[Hashable],
    initial: Iterable[Hashable],
    accepting: Iterable[Hashable],
    edges: Iterable[Tuple[Hashable, Hashable, EnergyFunction]],
) -> EnergyAutomaton:
    """The automaton whose edge from i to j joins every (src, dst, fn)
    edge triple from i to j.  State names may be any hashable values."""
    states = tuple(states)
    index = {name: i for i, name in enumerate(states)}
    if not states:
        raise ParseError("automaton needs at least one state")
    if len(index) != len(states):
        raise ParseError("duplicate state names")
    initial, accepting = list(initial), list(accepting)
    for name in initial + accepting:
        if name not in index:
            raise ParseError(f"unknown state name {name!r}")
    joined = {}
    for src, dst, fn in edges:
        if src not in index or dst not in index:
            raise ParseError(f"unknown state in edge {src!r} -> {dst!r}")
        key = index[src], index[dst]
        joined[key] = energyfn.join(joined.get(key, energyfn.CONST_BOTTOM), fn)
    live = tuple((i, j, fn) for (i, j), fn in sorted(joined.items()) if not fn.is_const_bottom)
    return EnergyAutomaton(states, frozenset(initial), frozenset(accepting), live)


def _initial_join(aut: EnergyAutomaton, alg: mk.StarAlgebra, edges: Iterable, c: list, omega: bool):
    """The join over the initial states of ``mk._solve``'s v = M v + c, M given by ``edges``."""
    vjoin, vzero = (alg.vjoin, alg.vzero) if omega else (alg.join, alg.zero)
    initial = [i for i, name in enumerate(aut.states) if name in aut.initial]
    return reduce(vjoin, mk._solve(alg, aut.dim, edges, c, omega, initial)) if initial else vzero


def reach_value(aut: EnergyAutomaton) -> EnergyFunction:
    """The single energy function alpha . M* . zeta."""
    alg = mk.ENERGY_ALGEBRA
    zeta = [alg.one if name in aut.accepting else alg.zero for name in aut.states]
    return _initial_join(aut, alg, aut.edges, zeta, omega=False)


def reachable(aut: EnergyAutomaton, x0: ExtValue, verify: bool = False) -> QueryResult:
    value = reach_value(aut).eval(x0)
    answer = not value.is_bottom
    witness = None
    if verify:
        oracle = oracle_reach(aut, x0)
        if oracle.value != value:
            raise VerificationFailed(
                f"reachable: algebraic value {format_ext(value)} "
                f"vs oracle value {format_ext(oracle.value)}"
            )
        witness = oracle.witness
    return QueryResult(answer, value, witness)


def buchi_value(aut: EnergyAutomaton) -> ThresholdPredicate:
    """The join over initial states of the omega vector over M with the
    accepting columns flagged: the runs through them infinitely often."""
    alg, edges = mk.flagged(mk.ENERGY_ALGEBRA, aut.edges, [s in aut.accepting for s in aut.states])
    return _initial_join(aut, alg, edges, [alg.vzero] * aut.dim, omega=True)


def buchi(aut: EnergyAutomaton, x0: ExtValue, verify: bool = False) -> QueryResult:
    pred = buchi_value(aut)
    answer = omegaval.apply(pred, x0)
    witness = None
    if verify:
        oracle = oracle_buchi(aut, x0)
        if oracle.answer != answer:
            raise VerificationFailed(
                f"buchi: algebraic {answer} vs oracle {oracle.answer}"
            )
        witness = oracle.witness
    return QueryResult(answer, pred, witness)


# ----------------------------------------------------------------------
# Relaxation oracles


def _stabilize(edges: tuple, energy: Dict[int, ExtValue]) -> Tuple[dict, dict]:
    """Best energy per state over all walks from ``energy``, in place.

    Bellman-Ford sweeps over the live ``edges`` (n = ``len(energy)``: all
    states are seeded).  After n - 1 sweeps each state holds at least its
    best energy over simple paths.
    Edge slopes are >= 1, so the gain h(x) - x of a walk is nondecreasing
    in x: a cycle that gains where it is entered can be pumped to top,
    and one that does not can be cut out without lowering the end
    energy.  So a state that still improves in sweep n + 1 has supremum
    top; it is set to top.  Live edges keep top, so within n - 1 more
    sweeps top reaches every state a promoted one reaches.  Nothing else
    changes after sweep n + 1, as no state that reaches it improved in
    that sweep.  So the loop ends within 2n + 1 sweeps, on a sweep that
    changes nothing: a fixed point above the seeds made of walk values
    and justified tops, which is the supremum.  Also returns, per live
    state, the walk of relaxations that last improved it, reversed as a
    linked list (state, rest) to a seed.
    """
    walk = {i: (i, None) for i, e in energy.items() if not e.is_bottom}
    for sweep in itertools.count(1):
        improved = set()
        for src, dst, fn in edges:
            out = fn.eval(energy[src])
            if out > energy[dst]:
                walk[dst] = (dst, walk[src])
                energy[dst] = out
                improved.add(dst)
        if not improved:
            return energy, walk
        if sweep == len(energy) + 1:
            energy.update(dict.fromkeys(improved, TOP))


def _max_energies(aut: EnergyAutomaton, x0: ExtValue) -> Tuple[dict, dict]:
    seeds = {i: x0 if name in aut.initial else BOTTOM for i, name in enumerate(aut.states)}
    return _stabilize(aut.edges, seeds)


def _top_probe(aut: EnergyAutomaton) -> Rational:
    """An energy z* at which every state that sustains at all sustains.

    z* = 2 n Z kappa, where Z is 1 plus the largest structure point of any
    edge, and kappa = m / (m - 1) for the least last-piece slope m > 1 of
    a live edge with no top region (kappa = 1 if there is none).
    Sustained energies are upward closed, so it remains to show that a
    state s that sustains at some z > z* sustains at z*.

    From Z on every live edge is top, or x -> c + m (x - t) with c >= 0,
    m >= 1 and t < Z, so f(x) >= x - Z: a walk of k edges entered at
    x >= k Z is at Z or above before each edge.  Let a return walk W from
    s sustain at z.  Its gain h(x) - x is nondecreasing, so h(x) >= x for
    all x >= z, and for x large W stays at Z or above.  Then W has

    - a top edge u -> v.  The closed walk from s to u along W, over the
      edge, and from v back to s along W has at most 2n - 1 edges.  From
      (2n - 1) Z on it takes the edge at Z or above and gets top, which
      live edges keep.
    - an edge u -> v with last slope m' > 1, so m' / (m' - 1) <= kappa.
      The same short walk, entered at x >= (2n - 1) Z, reaches u at
      y >= x - (n - 1) Z, leaves v at >= m' (y - Z) and ends at
      >= m' (x - n Z) - (n - 1) Z.  That is >= x once
      x >= (m' n + n - 1) Z / (m' - 1), so from (2n - 1) Z kappa on, as
      m' n + n - 1 <= (2n - 1) m' by (n - 1)(m' - 1) >= 0.
    - only slope-1 edges x -> x + d, with sum d >= 0 over W.  W splits
      into simple cycles.  If one has d > 0, go from s to it along W (at
      most n - 1 edges), pump it, and go back (at most n - 1 edges): from
      2n Z on every step starts at Z or above, and enough turns repay
      both paths.  Otherwise every cycle has d = 0, and the one through
      s, of at most n edges, sustains from n Z on.

    Each bound is at most z*.
    """
    live = [f for _, _, f in aut.edges]
    big_z = 1 + max((f.structure_points()[-1] for f in live), default=0)
    m = min(
        (f.pieces[-1].slope for f in live if f.top is None and f.pieces[-1].slope > 1),
        default=None,
    )
    kappa = 1 if m is None else div(m, m - 1)
    return 2 * aut.dim * big_z * kappa


def _witness_path(aut: EnergyAutomaton, walk: Dict[int, tuple], target: int) -> tuple:
    """The states of the walk that last improved ``target``, from a seed.

    Each step is the relaxation that improved its state, taken at the
    energy its source had then, so the walk replays those energies
    exactly up to its first step out of a state promoted to top, which
    replays that state's last finite energy instead.  Edges map top to
    top, so a finite energy's walk never meets a promoted state and
    replays to the energy exactly.
    """
    path = []
    node = walk[target]
    while node is not None:
        state, node = node
        path.append(aut.states[state])
    return tuple(reversed(path))


def oracle_reach(aut: EnergyAutomaton, x0: ExtValue) -> QueryResult:
    energy, walk = _max_energies(aut, x0)
    best, witness = BOTTOM, None
    for i, name in enumerate(aut.states):
        if name in aut.accepting and energy[i] > best:
            best = energy[i]
            witness = _witness_path(aut, walk, i)
    return QueryResult(not best.is_bottom, best, witness)


def oracle_buchi(aut: EnergyAutomaton, x0: ExtValue) -> QueryResult:
    """Search for a reachable accepting state that can sustain returns.

    If the state keeps at least energy z on some return trip then it can
    repeat that trip forever: the sustained set is upward closed, so each
    later visit arrives no poorer.  A top reach energy stands for
    unbounded finite levels; they sustain iff the energy ``_top_probe``
    derives from the edges does.  Each reached accepting state s at live
    energy z takes one re-stabilization, started from one real transition
    out of s so that inner pumping loops anywhere on the return path count.
    The witness is the walk that reached s and, as the cycle, the return
    walk that last improved s in that re-stabilization.
    """
    energy, walk = _max_energies(aut, x0)
    top_probe = finite(_top_probe(aut))
    for i, name in enumerate(aut.states):
        if name not in aut.accepting or energy[i].is_bottom:
            continue
        z = top_probe if energy[i].is_top else energy[i]
        seeds = dict.fromkeys(range(aut.dim), BOTTOM)
        seeds.update((dst, f.eval(z)) for src, dst, f in aut.edges if src == i)
        back, back_walk = _stabilize(aut.edges, seeds)
        if back[i] >= z:
            prefix = _witness_path(aut, walk, i)
            cycle = (aut.states[i],) + _witness_path(aut, back_walk, i)[:-1]
            return QueryResult(True, energy[i], (prefix, cycle))
    return QueryResult(False, BOTTOM, None)


# ----------------------------------------------------------------------
# JSON encoding


def to_json(aut: EnergyAutomaton) -> dict:
    names = [str(name) for name in aut.states]
    return {
        "states": names,
        "initial": [str(name) for name in aut.states if name in aut.initial],
        "accepting": [str(name) for name in aut.states if name in aut.accepting],
        "edges": [
            {"from": names[i], "to": names[j], "fn": energyfn.to_json(fn)} for i, j, fn in aut.edges
        ],
    }


def from_json(obj: dict) -> EnergyAutomaton:
    if not isinstance(obj, dict):
        raise ParseError("automaton JSON must be an object")
    for key in ("states", "initial", "accepting", "edges"):
        if key not in obj:
            raise ParseError(f"automaton JSON missing {key!r}")
    for key in ("states", "initial", "accepting"):
        if not isinstance(obj[key], list) or not all(isinstance(s, str) for s in obj[key]):
            raise ParseError(f"{key!r} must be a list of state names")
    if len(obj["states"]) > MAX_STATES:
        raise ParseError(f"{len(obj['states'])} states exceed the limit of {MAX_STATES}")
    if not isinstance(obj["edges"], list):
        raise ParseError("'edges' must be a list")
    edges = []
    for e in obj["edges"]:
        try:
            src, dst, fn = e["from"], e["to"], energyfn.from_json(e["fn"])
        except (TypeError, KeyError) as exc:
            raise ParseError("each edge needs from, to and fn") from exc
        if not (isinstance(src, str) and isinstance(dst, str)):
            raise ParseError("edge endpoints must be state names")
        edges.append((src, dst, fn))
    return automaton(obj["states"], obj["initial"], obj["accepting"], edges)
