"""Run the energyomega CLI with spans recorded around each layer's public calls.

    python3 perfbench/traced_cli.py SPANS.json QUERY_ID -- CLI ARGS...

The package is not modified: the functions below are replaced at their
module attributes, which is where callers in other modules look them
up, and ``matrixkleene.ENERGY_ALGEBRA`` is swapped for a copy holding
the wrapped operations, because the record captured the originals at
import time.  Spans stay in memory and are written out when the command
ends: SPANS.json holds the span names and the operand counters that
``run.py`` turns into ratios, and SPANS.json.bin the spans themselves,
as native int64 quadruples (name index, parent span or -1, start ns,
end ns).
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import time
from array import array

from energyomega import cli, energyauto, energyfn, matrixkleene, omegaval, wordmodel
from energyomega.errors import BudgetExceeded, VerificationFailed
from layers import LAYERS


class Tracer:
    def __init__(self):
        self.names: list = []
        self.spans: list = []  # [name index, parent span id, start ns, end ns]
        self.stack = [-1]
        # Operands and results kept by reference, and hashed only after
        # the command ends so that counting lands in no span.
        self.compose_log: list = []  # (f, g, f;g)
        self.join_log: list = []
        self.full_stars: list = []  # M* of mat_star calls from outside matrixkleene
        self.errors = {"VerificationFailed": 0, "BudgetExceeded": 0}

    def count_error(self, exc: Exception) -> None:
        """Count an error once, where it is raised, not at every span it leaves."""
        if not getattr(exc, "_perfbench_counted", False):
            exc._perfbench_counted = True
            key = "VerificationFailed" if isinstance(exc, VerificationFailed) else "BudgetExceeded"
            self.errors[key] += 1

    def wrap(self, name: str, fn, log: list = None):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock, count_error = self.spans, self.stack, time.perf_counter_ns, self.count_error

        def traced(*args, **kwargs):
            span = [idx, stack[-1], 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
                if log is not None:
                    log.append((*args, out))
                return out
            except (VerificationFailed, BudgetExceeded) as exc:
                count_error(exc)
                raise
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def count_errors(self, fn):
        """No span, only the error count: the query entry points raise
        VerificationFailed themselves, and cli.main catches it."""

        def counted(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except (VerificationFailed, BudgetExceeded) as exc:
                self.count_error(exc)
                raise

        return counted

    def install(self) -> None:
        logs = {"energyfn.compose": self.compose_log, "energyfn.join": self.join_log}
        for short, attrs in LAYERS.items():
            module = importlib.import_module(f"energyomega.{short}")
            for attr in attrs:
                name = f"{short}.{attr}"
                setattr(module, attr, self.wrap(name, getattr(module, attr), logs.get(name)))
        energyauto.reachable = self.count_errors(energyauto.reachable)
        energyauto.buchi = self.count_errors(energyauto.buchi)

        mat_star, names, spans, stack = matrixkleene.mat_star, self.names, self.spans, self.stack

        def full_mat_star(M, *args, **kwargs):
            inner = stack[-1] >= 0 and names[spans[stack[-1]][0]].startswith("matrixkleene.")
            out = mat_star(M, *args, **kwargs)
            if not inner:
                self.full_stars.append(out)
            return out

        matrixkleene.mat_star = full_mat_star
        matrixkleene.ENERGY_ALGEBRA = dataclasses.replace(
            matrixkleene.ENERGY_ALGEBRA,
            join=energyfn.join,
            mul=energyfn.compose,
            star=energyfn.star,
            act=omegaval.act,
            omega=omegaval.omega,
            vjoin=omegaval.vjoin,
        )

    @staticmethod
    def distinct(pairs) -> int:
        """Distinct operand pairs by value; each operand object is hashed once."""
        canon: dict = {}
        by_id: dict = {}

        def key(obj):
            k = by_id.get(id(obj))
            if k is None:
                k = by_id[id(obj)] = canon.setdefault(obj, len(canon))
            return k

        return len({(key(f), key(g)) for f, g, _ in pairs})

    def counters(self) -> dict:
        """Operand statistics of this one command (a memo would live this long)."""
        top0 = energyfn.top_from(0, True)
        entries = [
            e for M in self.full_stars for row in M.rows for e in row
            if isinstance(e, energyfn.EnergyFunction)
        ]
        pieces = [len(out.pieces) for _, _, out in self.compose_log]
        dfa, buchi = wordmodel._dfa.cache_info(), wordmodel._buchi_for_pair.cache_info()
        return {
            "compose_calls": len(self.compose_log),
            "compose_distinct": self.distinct(self.compose_log),
            "compose_bottom": sum(f.bottom is None or g.bottom is None
                                  for f, g, _ in self.compose_log),
            "compose_pieces_sum": sum(pieces),
            "compose_pieces_max": max(pieces, default=0),
            "join_calls": len(self.join_log),
            "join_distinct": self.distinct(self.join_log),
            "star_entries": len(entries),
            "star_top0": sum(e == top0 for e in entries),
            "dfa_hits": dfa.hits,
            "dfa_misses": dfa.misses,
            "buchi_pair_hits": buchi.hits,
            "buchi_pair_misses": buchi.misses,
            "errors": dict(self.errors),
        }

    def dump(self, path: str, query: str) -> None:
        with open(path + ".bin", "wb") as fh:
            array("q", [x for span in self.spans for x in span]).tofile(fh)
        with open(path, "w") as fh:
            json.dump({"query": query, "names": self.names, "counters": self.counters()}, fh)


def main(argv: list) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced_cli.py SPANS.json QUERY_ID -- CLI ARGS...", file=sys.stderr)
        return 2
    out_path, query = argv[0], argv[1]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv[3:])
    finally:
        tracer.dump(out_path, query)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
