"""Operation counts of the algebraic route, pinned exactly.

``reach_value`` and ``buchi_value`` run over ``ENERGY_ALGEBRA`` with its
``mul``, ``join``, ``star`` and ``omega`` wrapped in counters.  The solve
keeps each product and join by its operands, so the counts are distinct
operations: a change that loses a memo hit, or that makes the solve do
more work, moves them, while host speed cannot.  A change that moves a
count rewrites ``golden/counts.json``, by running this file as a script
with ``src/`` on PYTHONPATH.
"""

import dataclasses
import json
import random
from collections import Counter

from energyomega import energyauto as ea, matrixkleene as mk

from conftest import GOLDEN, perfbench

COUNTS = GOLDEN / "counts.json"
COUNTED = ("mul", "join", "star", "omega")


def random_out_degree_3(n, rng):
    """Three distinct uniform successors per state, with ``perfbench/gen.py``'s
    mixed functions on the edges and its initial and accepting states."""
    gen = perfbench("gen")
    fns = {(i, j): gen.mixed_fn(rng) for i in range(n) for j in sorted(rng.sample(range(n), 3))}
    return gen._automaton(n, fns)


def families():
    """(family, n, automaton JSON), each drawn from a fresh seed-5 generator."""
    gen = perfbench("gen")
    for name, build, sizes in (("ring", gen.ring, (8, 32, 128)), ("mixed", gen.mixed, (8, 32, 128)),
                               ("random", random_out_degree_3, (32,))):
        for n in sizes:
            yield name, n, build(n, random.Random(5))


def counted(aut, counts):
    """``aut`` over a copy of its algebra whose operations count their calls."""
    alg = aut.matrix.algebra

    def counter(op):
        def count(*args):
            counts[op] += 1
            return getattr(alg, op)(*args)
        return count

    wrapped = dataclasses.replace(alg, **{op: counter(op) for op in COUNTED})
    return aut._replace(matrix=mk.matrix(wrapped, aut.matrix.rows))


def measure():
    """{family: {n: {query: {operation: calls}}}} over every family."""
    out = {}
    for name, n, doc in families():
        aut = ea.from_json(doc)
        runs = {}
        for query, value in (("reach", ea.reach_value), ("buchi", ea.buchi_value)):
            counts = Counter()
            assert value(counted(aut, counts)) == value(aut)
            runs[query] = {op: counts[op] for op in COUNTED}
        out.setdefault(name, {})[str(n)] = runs
    return out


def test_operation_counts_match_the_golden_file():
    want = json.loads(COUNTS.read_text())
    got = measure()
    assert got == want
    assert [got["mixed"]["8"][q]["mul"] for q in ("reach", "buchi")] == [90, 106]


if __name__ == "__main__":
    COUNTS.write_text(json.dumps(measure(), indent=1, sort_keys=True) + "\n")
