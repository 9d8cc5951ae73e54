"""Lasso membership by one product-graph search per lasso: the test reference.

This is the direct search that ``wordmodel`` replaced with transition
profiles.  Each ultimately periodic word u . v^omega is run against the
component's Buchi automaton, built here with readable tuple states, and
bounded equality enumerates every lasso in the order (|u|, u, |v|, v).
It shares no code with ``wordmodel``'s membership, so the tests compare
the two on verdicts, bounds, first counterexamples and memberships.
"""

from itertools import product
from typing import Dict, Set, Tuple

from energyomega.wordmodel import BoundedVerdict, accepts_epsilon


def buchi_for_pair(u, v):
    """Buchi automaton for U . V^omega as (transitions, initial, accepting).

    States are ('u', q) inside U and ('v', q, flag) inside V, where flag
    marks that the letter just read completed a V-word and restarted.
    Accepting states are exactly the flagged ones: a run is in the
    language iff infinitely many V-words complete.
    """
    trans: Dict[Tuple[object, str], Set[object]] = {}

    def add(src, sym, dst):
        trans.setdefault((src, sym), set()).add(dst)

    for s, sym, t in u.transitions:
        add(("u", s), sym, ("u", t))
        if t in u.final:
            for i in v.initial:
                add(("u", s), sym, ("v", i, 0))
    for s, sym, t in v.transitions:
        for flag in (0, 1):
            add(("v", s, flag), sym, ("v", t, 0))
            if t in v.final:
                for i in v.initial:
                    add(("v", s, flag), sym, ("v", i, 1))
    initial: Set[object] = {("u", q) for q in u.initial}
    if accepts_epsilon(u):
        initial |= {("v", i, 0) for i in v.initial}
    accepting = {("v", q, 1) for q in v.initial}
    return trans, frozenset(initial), frozenset(accepting)


def pair_member(u_word: str, v_word: str, pair) -> bool:
    """Does u_word . v_word^omega belong to U . V^omega?

    Runs the pair's Buchi automaton against the ultimately periodic
    word: product nodes are (position class, state) where position
    classes wrap modulo the period after the prefix, and acceptance is a
    reachable flagged node lying on a cycle.
    """
    trans, initial, accepting = buchi_for_pair(*pair)
    plen, period = len(u_word), len(v_word)

    def letter(cls: int) -> str:
        return u_word[cls] if cls < plen else v_word[cls - plen]

    def successors(node):
        cls, state = node
        nxt_cls = cls + 1
        if nxt_cls >= plen + period:
            nxt_cls = plen
        for dst in trans.get((state, letter(cls)), ()):
            yield (nxt_cls, dst)

    start = {(0, s) for s in initial}
    seen = set(start)
    queue = list(start)
    while queue:
        node = queue.pop()
        for nxt in successors(node):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)

    for node in seen:
        if node[1] not in accepting:
            continue
        # nonempty cycle back to the flagged node
        frontier = set(successors(node))
        visited = set(frontier)
        while frontier:
            cur = frontier.pop()
            if cur == node:
                return True
            for nxt in successors(cur):
                if nxt not in visited:
                    visited.add(nxt)
                    frontier.add(nxt)
    return False


def lasso_member(u_word: str, v_word: str, w) -> bool:
    if not v_word:
        raise ValueError("periodic part must be nonempty")
    return any(pair_member(u_word, v_word, pair) for pair in w.pairs)


def lasso_equal_bounded(w1, w2, bound: int) -> BoundedVerdict:
    """Compare membership on every lasso word with |u| <= B, 1 <= |v| <= B."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    sigma: Set[str] = set()
    for u, v in tuple(w1.pairs) + tuple(w2.pairs):
        sigma |= u.alphabet
    syms = sorted(sigma) or ["a"]
    for ulen in range(bound + 1):
        for utup in product(syms, repeat=ulen):
            u_word = "".join(utup)
            for vlen in range(1, bound + 1):
                for vtup in product(syms, repeat=vlen):
                    v_word = "".join(vtup)
                    if lasso_member(u_word, v_word, w1) != lasso_member(
                        u_word, v_word, w2
                    ):
                        return BoundedVerdict(False, bound, (u_word, v_word))
    return BoundedVerdict(True, bound)
