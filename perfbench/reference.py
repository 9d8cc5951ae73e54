"""Reference answers for ``reach`` and ``buchi`` that do not use the package.

Edge functions are evaluated straight from their JSON, and energies are
propagated by Bellman-Ford style relaxation with exact fractions.  This
shares no code with the algebraic route (matrix star/omega over
composed functions) or with the package's cycle-enumerating oracle.

Energies are ``None`` for bottom, ``TOP``, or a ``Fraction``.

Soundness of the top rule: every edge has slope >= 1, so the gain
h(x) - x of any walk is nondecreasing in x.  After n-1 synchronous
rounds each state holds its best energy over walks of at most n-1
edges.  A state that still improves in the next n rounds is reached
through a cycle that gains at its entry energy; that cycle can be
pumped without bound, so the state and everything it reaches take top.
Conversely a gaining cycle improves its entry state within n rounds.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

TOP = "top"


def _le(x, y) -> bool:
    if x is None or y == TOP:
        return True
    if y is None or x == TOP:
        return False
    return x <= y


class Fn:
    """One edge function, read from the automaton JSON."""

    def __init__(self, obj: dict):
        bot = obj["bottom"]
        self.dead = bot["boundary"] == "inf"
        if self.dead:
            return
        self.bottom = Fraction(bot["boundary"])
        self.bottom_at = bool(bot.get("bottom_at_boundary", False))
        self.pieces = [
            (Fraction(p["start"]), Fraction(p["intercept"]), Fraction(p["slope"]))
            for p in obj.get("pieces", [])
        ]
        self.starts = [p[0] for p in self.pieces]
        top = obj.get("top")
        self.top = None if top is None else Fraction(top["boundary"])
        self.top_at = bool(top and top.get("top_at_boundary", False))

    def __call__(self, x):
        if self.dead or x is None:
            return None
        if x == TOP:
            return TOP
        if x < self.bottom or (x == self.bottom and self.bottom_at):
            return None
        if self.top is not None and (x > self.top or (x == self.top and self.top_at)):
            return TOP
        s, c, m = self.pieces[bisect_right(self.starts, x) - 1]
        return c + m * (x - s)


def edges_of(aut: dict) -> tuple:
    """(state names, adjacency list of (dst, Fn)); parallel edges kept apart."""
    names = list(aut["states"])
    index = {s: i for i, s in enumerate(names)}
    adj = [[] for _ in names]
    for e in aut["edges"]:
        fn = Fn(e["fn"])
        if not fn.dead:
            adj[index[e["from"]]].append((index[e["to"]], fn))
    return names, adj


def max_energies(adj: list, start: list) -> list:
    """Supremum of the energy over all walks from the start vector."""
    n = len(adj)
    energy = list(start)

    def relax(cur):
        nxt = list(cur)
        for i, out in enumerate(adj):
            if cur[i] is None:
                continue
            for j, fn in out:
                v = fn(cur[i])
                if not _le(v, nxt[j]):
                    nxt[j] = v
        return nxt

    for _ in range(n - 1):
        energy = relax(energy)
    settled = energy
    for _ in range(n):
        energy = relax(energy)
    stack = [i for i in range(n) if energy[i] != settled[i]]
    for i in stack:
        energy[i] = TOP
    while stack:
        i = stack.pop()
        for j, _fn in adj[i]:
            if energy[j] != TOP:
                energy[j] = TOP
                stack.append(j)
    return energy


def parse_energy(text: str):
    if text == "bot":
        return None
    if text == "top":
        return TOP
    return Fraction(text)


def format_energy(x) -> str:
    if x is None:
        return "bot"
    if x == TOP:
        return TOP
    return str(x)


def reach(aut: dict, energy: str) -> tuple:
    """(answer, value string) as ``energyomega reach --format json`` prints them."""
    names, adj = edges_of(aut)
    x0 = parse_energy(energy)
    initial = set(aut["initial"])
    best = max_energies(adj, [x0 if s in initial else None for s in names])
    value = None
    for i, s in enumerate(names):
        if s in aut["accepting"] and not _le(best[i], value):
            value = best[i]
    return value is not None, format_energy(value)


def buchi(aut: dict, energy: str) -> bool:
    """Is there a run from the initial energy visiting accepting states forever?

    An accepting state q reached with best energy e is repeatable iff some
    walk of at least one edge returns to q with energy >= e; the set of
    such e is upward closed (slopes >= 1), so e = best energy suffices.
    When the best energy is top, the families in ``gen`` guarantee a yes:
    the ring is strongly connected, so q lies on a closed walk that gains
    at large energies (through the pump edge, the only way a ring state
    reaches top, or through the last regime of every mixed-slope
    function, which gains without bound).
    """
    names, adj = edges_of(aut)
    x0 = parse_energy(energy)
    initial = set(aut["initial"])
    best = max_energies(adj, [x0 if s in initial else None for s in names])
    for q, s in enumerate(names):
        if s not in aut["accepting"] or best[q] is None:
            continue
        if best[q] == TOP:
            return True
        first = [None] * len(names)
        for j, fn in adj[q]:
            v = fn(best[q])
            if not _le(v, first[j]):
                first[j] = v
        if _le(best[q], max_energies(adj, first)[q]):
            return True
    return False
