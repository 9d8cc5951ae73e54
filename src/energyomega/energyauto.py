"""Energy automata: reachability and Buchi acceptance.

The algebraic route answers queries through one elimination solve in
``matrixkleene``: the column M* zeta for reachability, and the omega
vector restricted to the accepting states for Buchi acceptance.  The
oracle route never composes functions: it evaluates edges on exact
energies and relaxes the best energy per state over all walks
(Bellman-Ford), which is sound because all edge functions are monotone.
A state that still improves after n sweeps is promoted to top.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from . import energyfn, matrixkleene as mk, omegaval
from .energyfn import EnergyFunction
from .errors import ParseError, VerificationFailed
from .extlat import BOTTOM, TOP, ExtValue, ext_join, finite, format_ext
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
        if oracle.value != value:
            raise VerificationFailed(
                f"reachable: algebraic value {format_ext(value)} "
                f"vs oracle value {format_ext(oracle.value)}"
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
# Relaxation oracles


def _stabilize(
    aut: EnergyAutomaton, energy: Dict[int, ExtValue]
) -> Tuple[Dict[int, ExtValue], Dict[int, int]]:
    """Best energy per state over all walks from ``energy``, in place.

    Bellman-Ford sweeps in phases, seeded by the energies at the start of
    the phase (n = ``aut.dim``).  After n - 1 sweeps each state holds at
    least its best energy over simple paths.  Edge slopes are >= 1, so
    the gain h(x) - x of a walk is nondecreasing in x: a cycle that gains
    where it is entered can be pumped to top, and one that does not can
    be cut out without lowering the end energy.  So a state that still
    improves in sweep n + 1 has supremum top; it is set to top and a new
    phase starts.  With at most n promotions the loop ends within
    (n + 1)^2 sweeps, on a sweep that changes nothing: a fixed point
    above the seeds made of walk values and justified tops, which is the
    supremum.
    """
    n = aut.dim
    rows = aut.matrix.rows
    pred: Dict[int, int] = {}
    while True:
        for _ in range(n + 1):
            improved = set()
            for src in range(n):
                if energy[src].is_bottom:
                    continue
                for dst in range(n):
                    out = rows[src][dst].eval(energy[src])
                    if out > energy[dst]:
                        if energy[dst].is_bottom and dst not in pred:
                            pred[dst] = src
                        energy[dst] = out
                        improved.add(dst)
            if not improved:
                return energy, pred
        for q in improved:
            energy[q] = TOP


def _max_energies(
    aut: EnergyAutomaton, x0: ExtValue
) -> Tuple[Dict[int, ExtValue], Dict[int, int]]:
    energy = {
        i: (x0 if aut.states[i] in aut.initial else BOTTOM) for i in range(aut.dim)
    }
    return _stabilize(aut, energy)


def _sustained(aut: EnergyAutomaton, s: int, z: ExtValue) -> bool:
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
    energy, _ = _stabilize(aut, energy)
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


def oracle_reach(aut: EnergyAutomaton, x0: ExtValue) -> QueryResult:
    energy, pred = _max_energies(aut, x0)
    best = BOTTOM
    witness = None
    for i, name in enumerate(aut.states):
        if name in aut.accepting and energy[i] > best:
            best = energy[i]
            witness = _witness_path(aut, pred, i)
    return QueryResult(not best.is_bottom, best, witness)


def oracle_buchi(aut: EnergyAutomaton, x0: ExtValue) -> QueryResult:
    """Search for a reachable accepting state that can sustain returns.

    If the state keeps at least energy z on some return trip then it can
    repeat that trip forever: the sustained set is upward closed, so each
    later visit arrives no poorer.  A top reach energy stands for
    unbounded finite levels and is handled by finite probes, which is
    again exact by upward closure.
    """
    energy, pred = _max_energies(aut, x0)
    for i, name in enumerate(aut.states):
        if name not in aut.accepting or energy[i].is_bottom:
            continue
        if energy[i].is_finite:
            probes = [energy[i]]
        else:
            probes = [finite(z) for z in _TOP_PROBES]
        if any(_sustained(aut, i, z) for z in probes):
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
