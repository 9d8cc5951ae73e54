"""Energy automata: reachability and Buchi acceptance.

The algebraic route answers queries through one elimination solve in
``matrixkleene``: the column M* zeta for reachability, and the omega
vector restricted to the accepting states for Buchi acceptance.  The
oracle route searches configurations with exact energies and
maximal-energy pruning, which is sound because all edge functions are
monotone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import energyfn, matrixkleene as mk, omegaval
from .energyfn import EnergyFunction
from .errors import BudgetExceeded, ParseError, VerificationFailed
from .extlat import BOTTOM, TOP, ExtValue, ext_join, finite
from .omegaval import NEVER, ThresholdPredicate


@dataclass(frozen=True)
class EnergyAutomaton:
    states: tuple  # state names, order fixes matrix indices
    initial: frozenset
    accepting: frozenset
    matrix: mk.SquareMatrix

    @property
    def dim(self) -> int:
        return len(self.states)

    def index(self, name: str) -> int:
        return self.states.index(name)

    def edge(self, src: str, dst: str) -> EnergyFunction:
        return self.matrix.rows[self.index(src)][self.index(dst)]


@dataclass(frozen=True)
class QueryResult:
    answer: bool
    value: object  # ExtValue or ThresholdPredicate summary
    witness: Optional[tuple] = None  # path, or (prefix, cycle) for Buchi


def automaton(
    states: Sequence[str],
    initial: Sequence[str],
    accepting: Sequence[str],
    edges: Dict[Tuple[str, str], EnergyFunction],
) -> EnergyAutomaton:
    states = tuple(states)
    if len(states) < 1:
        raise ParseError("automaton needs at least one state")
    if len(set(states)) != len(states):
        raise ParseError("duplicate state names")
    for name in list(initial) + list(accepting):
        if name not in states:
            raise ParseError(f"unknown state name {name!r}")
    n = len(states)
    rows = [[energyfn.CONST_BOTTOM] * n for _ in range(n)]
    for (src, dst), fn in edges.items():
        if src not in states or dst not in states:
            raise ParseError(f"unknown state in edge {src!r} -> {dst!r}")
        i, j = states.index(src), states.index(dst)
        rows[i][j] = energyfn.join(rows[i][j], fn)
    return EnergyAutomaton(
        states,
        frozenset(initial),
        frozenset(accepting),
        mk.matrix(mk.ENERGY_ALGEBRA, rows),
    )


def canonical_permute(aut: EnergyAutomaton) -> Tuple[EnergyAutomaton, tuple]:
    """Reorder states so the accepting ones come first.

    Returns the permuted automaton and the permutation as a tuple p with
    p[new_index] = old_index.  The relative order within each group is
    preserved, so an already-sorted automaton maps to itself.
    """
    order = [i for i, s in enumerate(aut.states) if s in aut.accepting]
    order += [i for i, s in enumerate(aut.states) if s not in aut.accepting]
    perm = tuple(order)
    rows = [
        [aut.matrix.rows[perm[i]][perm[j]] for j in range(aut.dim)]
        for i in range(aut.dim)
    ]
    permuted = EnergyAutomaton(
        tuple(aut.states[i] for i in perm),
        aut.initial,
        aut.accepting,
        mk.matrix(mk.ENERGY_ALGEBRA, rows),
    )
    return permuted, perm


def reach_value(aut: EnergyAutomaton) -> EnergyFunction:
    """The single energy function alpha . M* . zeta."""
    alg = aut.matrix.algebra
    zeta = mk.vector(
        alg, [alg.one if name in aut.accepting else alg.zero for name in aut.states]
    )
    column = mk.mat_star_vec(aut.matrix, zeta)
    acc = energyfn.CONST_BOTTOM
    for i, name in enumerate(aut.states):
        if name in aut.initial:
            acc = energyfn.join(acc, column.entries[i])
    return acc


def reachable(aut: EnergyAutomaton, x0: ExtValue, verify: bool = False) -> QueryResult:
    value = reach_value(aut).eval(x0)
    answer = not value.is_bottom
    witness = None
    if verify:
        oracle = oracle_reach(aut, x0)
        if oracle.answer != answer:
            raise VerificationFailed(
                f"reachable: algebraic {answer} vs oracle {oracle.answer}"
            )
        witness = oracle.witness
    return QueryResult(answer, value, witness)


def buchi_value(aut: EnergyAutomaton) -> ThresholdPredicate:
    permuted, _ = canonical_permute(aut)
    k = len(permuted.accepting)
    stacked = mk.mat_omega_k(permuted.matrix, k)
    acc = NEVER
    for i, name in enumerate(permuted.states):
        if name in permuted.initial:
            acc = omegaval.vjoin(acc, stacked.entries[i])
    return acc


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
# Brute-force oracles


def _simple_cycles_at(aut: EnergyAutomaton, base: int) -> List[List[int]]:
    """Cycles base -> base with no repeated intermediate state."""
    n = aut.dim
    rows = aut.matrix.rows
    cycles: List[List[int]] = []

    def extend(path: List[int], seen: set) -> None:
        cur = path[-1]
        for nxt in range(n):
            if rows[cur][nxt].is_const_bottom:
                continue
            if nxt == base:
                cycles.append(path + [base])
            elif nxt not in seen and len(path) < n:
                seen.add(nxt)
                extend(path + [nxt], seen)
                seen.discard(nxt)

    extend([base], {base})
    return cycles


def _cycle_function(aut: EnergyAutomaton, cycle: List[int]) -> EnergyFunction:
    h = energyfn.identity()
    for s, t in zip(cycle, cycle[1:]):
        h = energyfn.compose(h, aut.matrix.rows[s][t])
    return h


def _stabilize(
    aut: EnergyAutomaton, energy: Dict[int, ExtValue], max_rounds: int
) -> Tuple[Dict[int, ExtValue], Dict[int, int]]:
    """Value iteration with maximal-energy pruning and pump promotion.

    Keeps only the best energy per state (sound for monotone edges).  A
    state with a simple cycle that strictly raises its best energy is
    promoted to top; afterwards only simple-path propagation remains, so
    quiescence of a full sweep certifies the fixed point.
    """
    n = aut.dim
    rows = aut.matrix.rows
    pred: Dict[int, int] = {}
    cycles_cache: Dict[int, List[EnergyFunction]] = {}

    for _ in range(max_rounds):
        changed = False
        for src in range(n):
            if energy[src].is_bottom:
                continue
            for dst in range(n):
                out = rows[src][dst].eval(energy[src])
                if out > energy[dst]:
                    if energy[dst].is_bottom and dst not in pred:
                        pred[dst] = src
                    energy[dst] = out
                    changed = True
        for q in range(n):
            if not energy[q].is_finite:
                continue
            if q not in cycles_cache:
                cycles_cache[q] = [
                    _cycle_function(aut, c) for c in _simple_cycles_at(aut, q)
                ]
            for h in cycles_cache[q]:
                v = h.eval(energy[q])
                if v > energy[q]:
                    energy[q] = TOP
                    changed = True
                    break
        if not changed:
            return energy, pred
    raise BudgetExceeded(f"energies did not stabilize within {max_rounds} rounds")


def _max_energies(
    aut: EnergyAutomaton, x0: ExtValue, max_rounds: int
) -> Tuple[Dict[int, ExtValue], Dict[int, int]]:
    energy = {
        i: (x0 if aut.states[i] in aut.initial else BOTTOM) for i in range(aut.dim)
    }
    return _stabilize(aut, energy, max_rounds)


def _sustained(aut: EnergyAutomaton, s: int, z: ExtValue, max_rounds: int) -> bool:
    """Can a run leave state s at energy z and come back no poorer?

    Takes one real transition out of s and re-stabilizes, so inner
    pumping loops anywhere on the return path are accounted for.
    """
    if z.is_bottom:
        return False
    rows = aut.matrix.rows
    energy = {i: BOTTOM for i in range(aut.dim)}
    for dst in range(aut.dim):
        energy[dst] = ext_join(energy[dst], rows[s][dst].eval(z))
    energy, _ = _stabilize(aut, energy, max_rounds)
    return energy[s] >= z


_TOP_PROBES = [Fraction(0)] + [Fraction(2) ** k for k in range(13)]


def _witness_path(aut: EnergyAutomaton, pred: Dict[int, int], target: int) -> tuple:
    path = [target]
    seen = {target}
    while aut.states[path[-1]] not in aut.initial:
        prev = pred.get(path[-1])
        if prev is None or prev in seen:
            break
        path.append(prev)
        seen.add(prev)
    return tuple(aut.states[i] for i in reversed(path))


def oracle_reach(
    aut: EnergyAutomaton, x0: ExtValue, max_rounds: int = 200
) -> QueryResult:
    energy, pred = _max_energies(aut, x0, max_rounds)
    best = BOTTOM
    witness = None
    for i, name in enumerate(aut.states):
        if name in aut.accepting and energy[i] > best:
            best = energy[i]
            witness = _witness_path(aut, pred, i)
    return QueryResult(not best.is_bottom, best, witness)


def oracle_buchi(
    aut: EnergyAutomaton, x0: ExtValue, max_rounds: int = 200
) -> QueryResult:
    """Search for a reachable accepting state that can sustain returns.

    If the state keeps at least energy z on some return trip then it can
    repeat that trip forever: the sustained set is upward closed, so each
    later visit arrives no poorer.  A top reach energy stands for
    unbounded finite levels and is handled by finite probes, which is
    again exact by upward closure.
    """
    energy, pred = _max_energies(aut, x0, max_rounds)
    for i, name in enumerate(aut.states):
        if name not in aut.accepting or energy[i].is_bottom:
            continue
        if energy[i].is_finite:
            probes = [energy[i]]
        else:
            probes = [finite(z) for z in _TOP_PROBES]
        if any(_sustained(aut, i, z, max_rounds) for z in probes):
            prefix = _witness_path(aut, pred, i)
            return QueryResult(True, energy[i], (prefix, (aut.states[i],)))
    return QueryResult(False, BOTTOM, None)


# ----------------------------------------------------------------------
# JSON encoding


def to_json(aut: EnergyAutomaton) -> dict:
    edges = []
    for i, src in enumerate(aut.states):
        for j, dst in enumerate(aut.states):
            fn = aut.matrix.rows[i][j]
            if not fn.is_const_bottom:
                edges.append({"from": src, "to": dst, "fn": energyfn.to_json(fn)})
    return {
        "states": list(aut.states),
        "initial": sorted(aut.initial, key=aut.states.index),
        "accepting": sorted(aut.accepting, key=aut.states.index),
        "edges": edges,
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
    if not isinstance(obj["edges"], list):
        raise ParseError("'edges' must be a list")
    edges: Dict[Tuple[str, str], EnergyFunction] = {}
    for e in obj["edges"]:
        try:
            key = (e["from"], e["to"])
            fn = energyfn.from_json(e["fn"])
        except (TypeError, KeyError) as exc:
            raise ParseError("each edge needs from, to and fn") from exc
        if not all(isinstance(s, str) for s in key):
            raise ParseError("edge endpoints must be state names")
        edges[key] = energyfn.join(edges[key], fn) if key in edges else fn
    return automaton(obj["states"], obj["initial"], obj["accepting"], edges)
