"""The generic solve over the Boolean pair, against graph search.

The Boolean pair is the smallest *-continuous Kleene omega-algebra:
``or``, ``and``, star = 1 and omega = identity.  Over it each result of
``matrixkleene`` is a graph property of the matrix read as adjacency:

- ``mat_star``: j is reachable from i;
- ``mat_omega``: an infinite walk starts at i;
- ``omega_flagged(M, flags)``, the omega solve over ``flagged``'s pair
  algebra and edges: a walk from i visits a flagged state infinitely
  often;
- ``solve_entries(M, c, omega, keep)``, ``_solve`` over the non-zero
  entries of M: i reaches a state where c holds, or, under omega,
  starts an infinite walk.

Every matrix and flag set with n <= 3 is checked, with the flags also
as c, and ``_solve`` runs with every ``keep`` set.  These instances are
closed under relabelling the states, so they hold every permutation of
each one.  That covers every elimination order too: ``_solve``
eliminates ``keep`` in its given order after the other states by index,
and the relabelling that lists those states first turns any ordered
``keep`` into a sorted one.  Seeded random cases cover n = 4 .. 8, each
with a random ``keep`` order and again under a random relabelling.
"""

import operator
import random
from itertools import product

from energyomega import matrixkleene as mk

BOOL = mk.StarAlgebra(
    join=operator.or_,
    mul=operator.and_,
    zero=False,
    one=True,
    star=lambda x: True,
    equal=operator.eq,
    act=operator.and_,
    vjoin=operator.or_,
    vzero=False,
    omega=lambda x: x,
)


def solve_entries(M, c, omega, keep):
    """``mk._solve`` over the entries of M that are not ``zero`` itself."""
    return mk._solve(M.algebra, M.dim, mk._entries(M), c, omega, keep)


def omega_flagged(M, flags):
    """The omega solve over ``flagged``'s pair algebra and edges."""
    alg, edges = mk.flagged(M.algebra, mk._entries(M), flags)
    return mk._solve(alg, M.dim, edges, [alg.vzero] * M.dim, True, range(M.dim))


def _reach(rows):
    """reach[i]: the states i reaches in zero or more steps, by search."""
    n = len(rows)
    out = []
    for i in range(n):
        seen, todo = {i}, [i]
        while todo:
            j = todo.pop()
            for k in range(n):
                if rows[j][k] and k not in seen:
                    seen.add(k)
                    todo.append(k)
        out.append(seen)
    return out


def _check(rows, flag_sets, keeps):
    """Compare every result on one matrix, under each flag set, with
    graph search."""
    n = len(rows)
    M = mk.matrix(BOOL, rows)
    reach = _reach(rows)
    # j lies on a cycle iff one of its successors reaches it
    cyclic = {j for j in range(n) if any(rows[j][k] and j in reach[k] for k in range(n))}
    infinite = tuple(bool(reach[i] & cyclic) for i in range(n))
    assert mk.mat_omega(M) == infinite, rows
    assert mk.mat_star(M).rows == tuple(
        tuple(j in reach[i] for j in range(n)) for i in range(n)
    ), rows
    for flags in flag_sets:
        marked = {j for j in range(n) if flags[j]}
        assert omega_flagged(M, flags) == tuple(
            bool(reach[i] & cyclic & marked) for i in range(n)
        ), (rows, flags)
        # flags double as the constant vector c
        hits = [bool(reach[i] & marked) for i in range(n)]
        for keep in keeps:
            assert solve_entries(M, flags, False, keep) == tuple(hits[p] for p in keep), (rows, flags, keep)
            assert solve_entries(M, flags, True, keep) == tuple(
                hits[p] or infinite[p] for p in keep
            ), (rows, flags, keep)


def test_every_instance_up_to_three_states():
    bits = (False, True)
    for n in (1, 2, 3):
        keeps = [tuple(j for j in range(n) if mask >> j & 1) for mask in range(1 << n)]
        for cells in product(bits, repeat=n * n):
            rows = tuple(cells[i * n : (i + 1) * n] for i in range(n))
            _check(rows, list(product(bits, repeat=n)), keeps)


def test_random_instances_up_to_eight_states():
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(4, 8)
        density = rng.choice((0.1, 0.2, 0.35))
        rows = [[rng.random() < density for _ in range(n)] for _ in range(n)]
        flags = [rng.random() < 0.3 for _ in range(n)]
        keep = rng.sample(range(n), rng.randint(0, n))
        perm = rng.sample(range(n), n)
        moved = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        for r, f, k in ((rows, flags, keep), (moved, [flags[p] for p in perm], keep)):
            _check(tuple(map(tuple, r)), [tuple(f)], [tuple(k), tuple(range(n))])
