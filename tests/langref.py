"""Language equality by subset construction and product search: the test reference.

This is the determinizing check that ``wordmodel.lang_equal`` replaced
with Hopcroft-Karp up to congruence.  Each NFA is determinized in full,
up to MAX_DFA_STATES subsets, and the product of the two DFAs is searched
for a pair that one side accepts and the other rejects.  It shares no
code with ``wordmodel``'s equality, so the tests compare the two on
verdicts wherever this one fits its budget.
"""

import functools
from typing import Dict, FrozenSet, Set, Tuple

from energyomega.errors import BudgetExceeded
from energyomega.wordmodel import RegularLang, _check_alphabet

MAX_DFA_STATES = 64


@functools.lru_cache(maxsize=4096)
def _dfa(lang: RegularLang) -> Tuple[tuple, Dict[Tuple[int, str], int], FrozenSet[int]]:
    """Subset construction; state 0 is the initial subset.

    Returns (alphabet order, transition map, accepting DFA states).  The
    construction is complete: the empty subset is an ordinary state.
    """
    syms = tuple(sorted(lang.alphabet))
    by_sym: Dict[Tuple[int, str], Set[int]] = {}
    for s, a, t in lang.transitions:
        by_sym.setdefault((s, a), set()).add(t)
    start = frozenset(lang.initial)
    index = {start: 0}
    queue = [start]
    delta: Dict[Tuple[int, str], int] = {}
    accepting: Set[int] = set()
    while queue:
        subset = queue.pop()
        i = index[subset]
        if subset & lang.final:
            accepting.add(i)
        for a in syms:
            nxt = frozenset().union(*(by_sym.get((q, a), set()) for q in subset))
            if nxt not in index:
                if len(index) >= MAX_DFA_STATES:
                    raise BudgetExceeded(
                        f"determinization exceeds {MAX_DFA_STATES} states"
                    )
                index[nxt] = len(index)
                queue.append(nxt)
            delta[(i, a)] = index[nxt]
    return syms, delta, frozenset(accepting)


def lang_equal(a: RegularLang, b: RegularLang) -> bool:
    """Exact equality via emptiness of the symmetric difference."""
    _check_alphabet(a, b)
    syms_a, delta_a, acc_a = _dfa(a)
    _, delta_b, acc_b = _dfa(b)
    seen = {(0, 0)}
    queue = [(0, 0)]
    while queue:
        i, j = queue.pop()
        if (i in acc_a) != (j in acc_b):
            return False
        for sym in syms_a:
            nxt = (delta_a[(i, sym)], delta_b[(j, sym)])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True
