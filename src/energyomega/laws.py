"""Executable checkers for the algebra laws and named identities.

Each checker compares two sides of a law on concrete inputs and adds
its cases to the LawReport it is given, which names the law and the
instance; ``model`` picks an instance's algebra and operand draw.  Laws
whose right side is an infinite supremum (Ax0, Ax3, Ax4, bi-inductive)
are compared with ``energyauto``'s relaxation oracles on a small
automaton built from their operands (``_oracle_cases``).
Every other case compares two algebra values in ``_compare``, which
reports a word-model failure as L1/L2, or W1/W2 with a lasso
counterexample, and a comparison that raises BudgetExceeded as Unknown.
IDENTITIES is one table of Conway identities shared by both models and
``wordcheck``; group identities take a GROUP_TABLES name.  All
randomness is seeded, so every failure is replayable.  The energy
instance's layers load on first use, so the word instance runs without them.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from functools import reduce
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import matrixkleene as mk, wordmodel
from .errors import (
    BudgetExceeded, InvalidGroupTable, InvalidRegrouping, UnknownIdentity, ValidationError,
)

if TYPE_CHECKING:
    from fractions import Fraction
    from . import energyauto, energyfn, extlat, omegaval


@dataclass
class LawCase:
    inputs: str
    lhs: str
    rhs: str
    sample: Optional[str] = None


@dataclass
class LawReport:
    law: str
    instance: str
    cases: int = 0
    failures: List[LawCase] = field(default_factory=list)
    unknowns: List[LawCase] = field(default_factory=list)
    seed: Optional[int] = None

    @property
    def verdict(self) -> str:
        if self.failures:
            return "Fail"
        if self.unknowns:
            return "Unknown"
        return "Pass"

    def to_json(self) -> dict:
        return {**asdict(self), "verdict": self.verdict}


# ----------------------------------------------------------------------
# Seeded generators


_SLOPES = ((1, 1), (3, 2), (2, 1))  # the slopes 1, 3/2 and 2 as (numerator, denominator)


def _small_frac(rng: random.Random, lo: int = 0, hi: int = 8) -> Fraction:
    from fractions import Fraction
    return Fraction(rng.randint(lo, hi), rng.choice((1, 2, 4)))


def random_energy_function(rng: random.Random) -> energyfn.EnergyFunction:
    """1-4 affine pieces, slopes in {1, 3/2, 2}, optional bottom/top regions."""
    from fractions import Fraction
    from . import energyfn
    roll = rng.random()
    if roll < 0.05:
        return energyfn.CONST_BOTTOM
    if roll < 0.12:
        # bottom-to-top step
        t = _small_frac(rng, 0, 4)
        incl = rng.random() < 0.5
        return energyfn.validate(t, incl, [], t, not incl)
    for _ in range(50):
        b = _small_frac(rng, 0, 4) if rng.random() < 0.4 else Fraction(0)
        b_incl = False
        npieces = rng.randint(1, 4)
        starts = [b]
        while len(starts) < npieces:
            starts.append(starts[-1] + _small_frac(rng, 1, 6))
        value = _small_frac(rng, 0, 6)
        pieces = []
        for i, s in enumerate(starts):
            if i > 0:
                prev = pieces[-1]
                value = prev[1] + prev[2] * (s - prev[0])
                if rng.random() < 0.4:
                    value += _small_frac(rng, 1, 4)
            pieces.append((s, value, Fraction(*rng.choice(_SLOPES))))
        top = None
        top_incl = False
        if rng.random() < 0.25:
            top = starts[-1] + _small_frac(rng, 0, 4)
            top_incl = rng.random() < 0.5
        try:
            return energyfn.validate(b, b_incl, pieces, top, top_incl)
        except ValidationError:
            continue
    return energyfn.identity()


def random_predicate(rng: random.Random) -> omegaval.ThresholdPredicate:
    from . import omegaval
    if rng.random() < 0.15:
        return omegaval.NEVER
    return omegaval.from_threshold(_small_frac(rng, 0, 8), rng.random() < 0.5)


def random_samples(rng: random.Random, k: int) -> List[extlat.ExtValue]:
    from .extlat import BOTTOM, TOP, finite
    out = [BOTTOM, finite(0), TOP]
    while len(out) < k:
        out.append(finite(_small_frac(rng, 0, 12)))
    return out


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
        return mk.ENERGY_ALGEBRA, random_energy_function
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
# The infinite suprema, decided by the relaxation oracles.  Each law's
# automaton has states 0..n-1 and initial state 0; parallel edges, such
# as Ax3's y and z, are joined by ``energyauto.automaton``.


def _oracle_cases(
    report: LawReport,
    inputs: str,
    lhs: Union[energyfn.EnergyFunction, omegaval.ThresholdPredicate],
    aut: energyauto.EnergyAutomaton,
    samples: Sequence[extlat.ExtValue],
) -> None:
    """One case per sample: an energy function against ``oracle_reach``'s
    value, a threshold predicate against ``oracle_buchi``'s answer."""
    from . import energyauto, energyfn, omegaval
    for x in samples:
        report.cases += 1
        if isinstance(lhs, energyfn.EnergyFunction):
            want, got = lhs.eval(x), energyauto.oracle_reach(aut, x).value
            sides = str(want), str(got)
        else:
            want, got = omegaval.apply(lhs, x), energyauto.oracle_buchi(aut, x).answer
            sides = str(lhs), "accepting run" if got else "no accepting run"
        if want != got:
            report.failures.append(LawCase(inputs, *sides, sample=str(x)))


# ----------------------------------------------------------------------
# Ax0: f g* h as the supremum of f g^n h


def check_ax0(
    report: LawReport,
    f: energyfn.EnergyFunction,
    g: energyfn.EnergyFunction,
    h: energyfn.EnergyFunction,
    samples: Sequence[extlat.ExtValue],
) -> None:
    """Compare f g* h with the best run of 0 -f-> 1 -g-> 1 -h-> 2."""
    from . import energyauto, energyfn
    lhs = energyfn.compose(energyfn.compose(f, energyfn.star(g)), h)
    aut = energyauto.automaton(range(3), [0], [2], [(0, 1, f), (1, 1, g), (1, 2, h)])
    _oracle_cases(report, f"f={f}; g={g}; h={h}", lhs, aut, samples)


# ----------------------------------------------------------------------
# Ax1 head peeling and Ax2 block regrouping


def _regrouped_lasso(
    prefix: Sequence[energyfn.EnergyFunction],
    cycle: Sequence[energyfn.EnergyFunction],
    head: int,
    blocks: Sequence[int],
) -> Tuple[List[energyfn.EnergyFunction], List[energyfn.EnergyFunction]]:
    """Peel `head` elements, then group the tail by the block sizes, in
    whole rounds of the blocks: enough rounds to pass the prefix, then a
    cycle of rounds that returns to the same cycle position."""
    from . import omegaval
    if head < 0:
        raise InvalidRegrouping("head must be nonnegative")
    blocks = list(blocks)
    if not blocks or any(b <= 0 for b in blocks):
        raise InvalidRegrouping("blocks must be positive and nonempty")

    def element(n: int) -> energyfn.EnergyFunction:
        if n < len(prefix):
            return prefix[n]
        return cycle[(n - len(prefix)) % len(cycle)]

    def grouped(start: int, rounds: int) -> List[energyfn.EnergyFunction]:
        ends = list(accumulate(blocks * rounds, initial=start))
        return [omegaval.compose_all([element(n) for n in range(a, b)])
                for a, b in zip(ends, ends[1:])]

    per_round = sum(blocks)
    rounds = -(-max(0, len(prefix) - head) // per_round)
    new_prefix = [element(n) for n in range(head)] + grouped(head, rounds)
    new_cycle = grouped(head + rounds * per_round, len(cycle) // math.gcd(per_round, len(cycle)))
    return new_prefix, new_cycle


def check_ax1_ax2(
    report: LawReport,
    prefix: Sequence[energyfn.EnergyFunction],
    cycle: Sequence[energyfn.EnergyFunction],
    regrouping: Tuple[int, Sequence[int]],
) -> None:
    from . import omegaval
    head, blocks = regrouping
    lhs = omegaval.infinite_product_lasso(prefix, cycle)
    new_prefix, new_cycle = _regrouped_lasso(prefix, cycle, head, blocks)
    rhs = omegaval.infinite_product_lasso(new_prefix, new_cycle)
    inputs = (f"prefix={[str(p) for p in prefix]}; cycle={[str(c) for c in cycle]}; "
              f"head={head}; blocks={list(blocks)}")
    _compare(report, inputs, None, lhs, rhs, omega=True)


# ----------------------------------------------------------------------
# Ax3: distributing a binary join over an infinite product


def check_ax3(
    report: LawReport,
    prefix: Sequence[energyfn.EnergyFunction],
    cycle: Sequence[energyfn.EnergyFunction],
    y: energyfn.EnergyFunction,
    z: energyfn.EnergyFunction,
    samples: Sequence[extlat.ExtValue],
) -> None:
    """Compare prod x_n (y v z) with the join over choice sequences.

    The right side holds where the lasso of positions has an accepting
    run: state 2n steps by x_n to 2n + 1, which steps by y or by z to the
    next position.  The first cycle position is accepting.
    """
    from . import energyauto, energyfn, omegaval
    yz = energyfn.join(y, z)
    lhs = omegaval.infinite_product_lasso(
        [energyfn.compose(p, yz) for p in prefix],
        [energyfn.compose(c, yz) for c in cycle],
    )
    xs = list(prefix) + list(cycle)
    edges = []
    for n, x in enumerate(xs):
        nxt = 2 * (n + 1 if n + 1 < len(xs) else len(prefix))
        edges += [(2 * n, 2 * n + 1, x), (2 * n + 1, nxt, y), (2 * n + 1, nxt, z)]
    aut = energyauto.automaton(range(2 * len(xs)), [0], [2 * len(prefix)], edges)
    inputs = (f"prefix={[str(p) for p in prefix]}; cycle={[str(c) for c in cycle]}; "
              f"y={y}; z={z}")
    _oracle_cases(report, inputs, lhs, aut, samples)


# ----------------------------------------------------------------------
# Ax4: prod f* y_n as the join over exponent sequences


def check_ax4(
    report: LawReport,
    f: energyfn.EnergyFunction,
    cycle: Sequence[energyfn.EnergyFunction],
    samples: Sequence[extlat.ExtValue],
) -> None:
    """Compare prod f* y_n with the join over exponent sequences.

    The right side holds where some accepted run, for each y_n, steps
    from the accepting state 2n by identity to 2n + 1, loops there by f,
    and leaves by y_n.  The f-loop is off the accepting states, so an
    accepted run takes finitely many f steps between y steps.
    """
    from . import energyauto, energyfn, omegaval
    fstar = energyfn.star(f)
    lhs = omegaval.infinite_product_lasso([], [energyfn.compose(fstar, y) for y in cycle])
    edges = []
    for n, y in enumerate(cycle):
        nxt = 2 * ((n + 1) % len(cycle))
        edges += [(2 * n, 2 * n + 1, energyfn.identity()), (2 * n + 1, 2 * n + 1, f),
                  (2 * n + 1, nxt, y)]
    aut = energyauto.automaton(range(2 * len(cycle)), [0], range(0, 2 * len(cycle), 2), edges)
    _oracle_cases(report, f"f={f}; cycle={[str(c) for c in cycle]}", lhs, aut, samples)


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
# The bi-inductive characterization of x^w + x*v


def check_bi_inductive(
    report: LawReport,
    f: energyfn.EnergyFunction,
    v: omegaval.ThresholdPredicate,
    samples: Sequence[extlat.ExtValue],
) -> None:
    """w = f^w + f* v refolds to f w + v, and holds exactly where an
    accepting f-loop with an edge, alive where v holds, into an accepting
    identity loop has an accepting run."""
    from . import energyauto, energyfn, omegaval
    w = omegaval.vjoin(omegaval.omega(f), omegaval.act(energyfn.star(f), v))
    inputs = f"f={f}; v={v}"

    refolded = omegaval.vjoin(omegaval.act(f, w), v)
    _compare(report, inputs, None, w, refolded, omega=True)

    # v as an edge: bottom where v fails, top where it holds
    where_v = (
        energyfn.CONST_BOTTOM
        if v.is_never
        else energyfn.validate(v.threshold, not v.inclusive, [], v.threshold, v.inclusive)
    )
    edges = [(0, 0, f), (0, 1, where_v), (1, 1, energyfn.identity())]
    aut = energyauto.automaton(range(2), [0], [0, 1], edges)
    # The top energy is excluded: predicates identify top with arbitrarily
    # large finite levels, so no predicate is true at top alone.
    _oracle_cases(report, inputs, w, aut, [x for x in samples if not x.is_top])


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
        ax0, ax12, ax3, ax4, bi = map(report, ("ax0", "ax1-ax2", "ax3", "ax4", "bi-inductive"))
        for _ in range(cases):
            f, g, h = (draw(rng) for _ in range(3))
            check_ax0(ax0, f, g, h, random_samples(rng, 6))
            prefix = [draw(rng) for _ in range(rng.randint(0, 2))]
            cycle = [draw(rng) for _ in range(rng.randint(1, 2))]
            head = rng.randint(0, 3)
            blocks = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
            check_ax1_ax2(ax12, prefix, cycle, (head, blocks))
            pts = random_samples(rng, 6)
            check_ax3(ax3, prefix[:1], cycle[:1], f, g, pts)
            check_ax4(ax4, f, cycle[:1], pts)
            check_bi_inductive(bi, f, random_predicate(rng), random_samples(rng, 6))
    check_conway(report("conway"), cases if energy else min(cases, max(1, cases // 4)))
    for name in GROUP_TABLES if energy else ("C2",):
        group = report(f"group-{name}")
        for _ in range(min(cases, max(1, cases // (5 if energy else 10)))):
            check_group_identity(group, name, alg, [draw(rng) for _ in GROUP_TABLES[name]])
    return reports
