"""Executable checkers for the algebra laws and named identities.

Each checker compares two sides of a law on concrete inputs and adds
its cases to the LawReport it is given, which names the law and the
instance; ``model`` picks an instance's algebra and operand draw.
``_compare`` compares two algebra values and reports a word-model
failure as L1/L2, or W1/W2 with a lasso counterexample, and a
comparison that raises BudgetExceeded as Unknown.  IDENTITIES is one
table of Conway identities shared by both models and ``wordcheck``;
group identities take a GROUP_TABLES name.  All randomness is seeded,
so every failure is replayable.  The energy-only laws (Ax0-Ax4 and
bi-inductive) and their generators are imported from ``energylaws``;
only the energy instance loads it, and with it the energy layers.
"""

from __future__ import annotations

import random
from functools import reduce
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from . import matrixkleene as mk, wordmodel
from .errors import BudgetExceeded, InvalidGroupTable, UnknownIdentity


class LawCase(NamedTuple):
    inputs: str
    lhs: str
    rhs: str
    sample: Optional[str] = None


class LawReport:
    """One law's cases on one instance: the checkers count each case and
    record each failure and each undecided case as a LawCase."""

    __slots__ = ("law", "instance", "cases", "failures", "unknowns", "seed")

    def __init__(self, law: str, instance: str, seed: Optional[int] = None) -> None:
        self.law, self.instance, self.cases, self.seed = law, instance, 0, seed
        self.failures, self.unknowns = [], []

    @property
    def verdict(self) -> str:
        if self.failures:
            return "Fail"
        if self.unknowns:
            return "Unknown"
        return "Pass"

    def to_json(self) -> dict:
        return {"law": self.law, "instance": self.instance, "cases": self.cases,
                "failures": [case._asdict() for case in self.failures],
                "unknowns": [case._asdict() for case in self.unknowns],
                "seed": self.seed, "verdict": self.verdict}


# ----------------------------------------------------------------------
# Seeded generators


def random_regex(rng: random.Random, alphabet: str, epsilon_free: bool = False):
    """A small random language; optionally guaranteed to reject epsilon."""

    def gen(depth: int, need_word: bool):
        if depth == 0 or rng.random() < 0.35:
            if not need_word and rng.random() < 0.1:
                return wordmodel.lang_epsilon(alphabet)
            return wordmodel.lang_symbol(rng.choice(alphabet), alphabet)
        op = rng.randrange(3)
        if op == 0:
            return wordmodel.lang_union(
                gen(depth - 1, need_word), gen(depth - 1, need_word)
            )
        if op == 1:
            # one nonempty factor keeps the result epsilon-free
            return wordmodel.lang_concat(
                gen(depth - 1, need_word), gen(depth - 1, False)
            )
        if need_word:
            return wordmodel.lang_concat(
                wordmodel.lang_symbol(rng.choice(alphabet), alphabet),
                wordmodel.lang_star(gen(depth - 1, False)),
            )
        return wordmodel.lang_star(gen(depth - 1, False))

    return gen(2, epsilon_free)


def model(instance: str, alphabet: str = "ab") -> Tuple[mk.StarAlgebra, Callable]:
    """The instance's algebra, and a draw of one seeded operand from an rng."""
    if instance == "energy":
        from . import energylaws
        return mk.ENERGY_ALGEBRA, energylaws.random_energy_function
    if instance == "word":
        alg = wordmodel.word_algebra(alphabet)
        return alg, lambda rng: random_regex(rng, alphabet, epsilon_free=True)
    raise UnknownIdentity(f"unknown instance {instance!r}")


def _named(table: dict, name: str):
    """The `table` entry called `name`; UnknownIdentity if there is none."""
    if name not in table:
        raise UnknownIdentity(f"unknown identity {name!r}; choose from {', '.join(table)}")
    return table[name]


# ----------------------------------------------------------------------
# Conway identities, written once over a StarAlgebra


class Identity(NamedTuple):
    law: str
    sides: Callable  # (algebra, x, y) -> (lhs, rhs)
    omega: bool  # both sides are omega values


def _conway_star(A, x, y):
    return A.star(A.join(x, y)), A.mul(A.star(A.mul(A.star(x), y)), A.star(x))


def _product_star(A, x, y):
    return A.star(A.mul(x, y)), A.join(A.one, A.mul(A.mul(x, A.star(A.mul(y, x))), y))


def _omega_sum(A, x, y):
    xsy = A.mul(A.star(x), y)
    return A.omega(A.join(x, y)), A.vjoin(A.act(A.star(xsy), A.omega(x)), A.omega(xsy))


def _omega_product(A, x, y):
    return A.omega(A.mul(x, y)), A.act(x, A.omega(A.mul(y, x)))


IDENTITIES = {
    "conway-star": Identity("(x+y)* = (x*y)*x*", _conway_star, False),
    "product-star": Identity("(xy)* = 1 + x(yx)*y", _product_star, False),
    "omega-sum": Identity("(x+y)^w = (x*y)*x^w + (x*y)^w", _omega_sum, True),
    "omega-product": Identity("(xy)^w = x(yx)^w", _omega_product, True),
}


def _compare(
    report: LawReport, inputs: str, alg, lhs, rhs, omega: bool, bound: Optional[int] = None
) -> bool:
    """Count, decide and record one case comparing two algebra values.

    Semiring values are decided by ``alg.equal``; omega values, without
    `alg`, by ``==`` on energy and on every lasso up to `bound` on words.
    An energy failure records both sides.  A word-model failure records
    L1/L2, or W1/W2 with the lasso counterexample as its sample, because
    a RegularLang has no readable str.  A comparison that raises
    BudgetExceeded is Unknown.  Returns whether the case was decided.
    """
    report.cases += 1
    evidence = None
    try:
        if not omega:
            equal = alg.equal(lhs, rhs)
        elif report.instance == "energy":
            equal = lhs == rhs
        else:
            evidence = wordmodel.lasso_equal_bounded(lhs, rhs, bound)
            equal = evidence.equal
    except BudgetExceeded as exc:
        report.unknowns.append(LawCase(inputs, "undecided", "undecided", sample=str(exc)))
        return False
    if not equal:
        if report.instance == "energy":
            sides = str(lhs), str(rhs)
        else:
            sides = ("W1", "W2") if omega else ("L1", "L2")
        sample = None if evidence is None else str(evidence)
        report.failures.append(LawCase(inputs, *sides, sample=sample))
    return True


def check_identity(report: LawReport, name: str, alg, x, y, bound: int = 5) -> None:
    """Add one case of the IDENTITIES row `name` at (x, y) to the report."""
    law, sides, omega = _named(IDENTITIES, name)
    inputs = f"{law}; x={x}; y={y}" if report.instance == "energy" else law
    _compare(report, inputs, alg, *sides(alg, x, y), omega, bound)


def check_conway(report: LawReport, cases: int = 25, bound: int = 5) -> None:
    """Add every IDENTITIES row at `cases` operand pairs of the report's
    instance, drawn from its seed."""
    alg, draw = model(report.instance)
    rng = random.Random(report.seed)
    for _ in range(cases):
        x, y = draw(rng), draw(rng)
        for name in IDENTITIES:
            check_identity(report, name, alg, x, y, bound)


# ----------------------------------------------------------------------
# Group identities


GROUP_TABLES = {
    "C2": [[0, 1], [1, 0]],
    "C3": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
    "C4": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
    "klein": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
}


def check_group_identity(
    report: LawReport, group: str, alg, elements: Sequence, bound: int = 5
) -> None:
    """Row sums of the group matrix against star/omega of the joined elements.

    `group` names a GROUP_TABLES entry.  The check ends at its first
    Unknown case.
    """
    table = _named(GROUP_TABLES, group)
    n = len(table)
    if len(elements) != n:
        raise InvalidGroupTable(f"need {n} elements, got {len(elements)}")
    inv = [row.index(0) for row in table]
    rows = [[elements[table[inv[i]][j]] for j in range(n)] for i in range(n)]
    M = mk.matrix(alg, rows)
    joined = reduce(alg.join, elements)

    # the row sums of M_G* are the column M_G* 1, with 1 the all-one vector
    row_sums = mk.mat_star_vec(M, [alg.one] * n)
    expected = alg.star(joined)
    for i, row_sum in enumerate(row_sums):
        if not _compare(report, f"row {i} of M_G*", alg, row_sum, expected, False, bound):
            return
    _compare(report, "first entry of M_G^w", alg, mk.mat_omega(M)[0],
             alg.omega(joined), True, bound)


# ----------------------------------------------------------------------
# Seeded suite


def run_suite(instance: str = "energy", seed: int = 0, cases: int = 20) -> List[LawReport]:
    """One report per law.  The Conway identities draw from their own
    Random(seed), every other law from one shared Random(seed)."""
    alg, draw = model(instance)
    energy = instance == "energy"
    rng = random.Random(seed)
    reports: List[LawReport] = []

    def report(law: str) -> LawReport:
        reports.append(LawReport(law, instance, seed=seed))
        return reports[-1]

    if energy:
        from . import energylaws
        energylaws._suite(report, rng, cases)
    check_conway(report("conway"), cases if energy else min(cases, max(1, cases // 4)))
    for name in GROUP_TABLES if energy else ("C2",):
        group = report(f"group-{name}")
        for _ in range(min(cases, max(1, cases // (5 if energy else 10)))):
            check_group_identity(group, name, alg, [draw(rng) for _ in GROUP_TABLES[name]])
    return reports
