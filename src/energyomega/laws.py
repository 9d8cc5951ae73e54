"""Executable checkers for the algebra laws and named identities.

Each checker compares two sides of a law on concrete inputs and returns
a LawReport.  Laws whose right side is an infinite supremum are searched
over ultimately periodic candidates with explicit bounds; those cases
report Unknown rather than guessing, as do comparisons that run out of
budget.  The Conway star and omega identities are one table,
IDENTITIES, written over a StarAlgebra and shared by both models and
the ``wordcheck`` command.  All randomness is seeded, so every failure
is replayable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import product
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from . import energyfn, matrixkleene as mk, omegaval, wordmodel
from .energyfn import EnergyFunction
from .errors import BudgetExceeded, InvalidGroupTable, InvalidRegrouping, UnknownIdentity
from .extlat import BOTTOM, TOP, ExtValue, ext_join, finite
from .omegaval import NEVER, ThresholdPredicate


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
        def dump(cs: List[LawCase]) -> list:
            return [
                {"inputs": c.inputs, "lhs": c.lhs, "rhs": c.rhs, "sample": c.sample}
                for c in cs
            ]

        return {
            "law": self.law,
            "instance": self.instance,
            "cases": self.cases,
            "verdict": self.verdict,
            "failures": dump(self.failures),
            "unknowns": dump(self.unknowns),
            "seed": self.seed,
        }


# ----------------------------------------------------------------------
# Seeded generators


_SLOPES = (Fraction(1), Fraction(3, 2), Fraction(2))


def _small_frac(rng: random.Random, lo: int = 0, hi: int = 8) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 2, 4)))


def random_energy_function(rng: random.Random) -> EnergyFunction:
    """1-4 affine pieces, slopes in {1, 3/2, 2}, optional bottom/top regions."""
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
            pieces.append((s, value, rng.choice(_SLOPES)))
        top = None
        top_incl = False
        if rng.random() < 0.25:
            top = starts[-1] + _small_frac(rng, 0, 4)
            top_incl = rng.random() < 0.5
        try:
            return energyfn.validate(b, b_incl, pieces, top, top_incl)
        except Exception:
            continue
    return energyfn.identity()


def random_predicate(rng: random.Random) -> ThresholdPredicate:
    if rng.random() < 0.15:
        return NEVER
    return ThresholdPredicate(_small_frac(rng, 0, 8), rng.random() < 0.5)


def random_samples(rng: random.Random, k: int) -> List[ExtValue]:
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


# ----------------------------------------------------------------------
# Ax0: f g* h as the supremum of f g^n h


def check_ax0(
    f: EnergyFunction,
    g: EnergyFunction,
    h: EnergyFunction,
    samples: Sequence[ExtValue],
    budget: int = 64,
) -> LawReport:
    report = LawReport("ax0", "energy")
    lhs_fn = energyfn.compose(energyfn.compose(f, energyfn.star(g)), h)
    inputs = f"f={f}; g={g}; h={h}"
    for x in samples:
        report.cases += 1
        lhs = lhs_fn.eval(x)
        rhs = _ax0_rhs(f, g, h, x, budget)
        if rhs is None:
            report.unknowns.append(
                LawCase(inputs, str(lhs), "undecided", sample=str(x))
            )
        elif lhs != rhs:
            report.failures.append(LawCase(inputs, str(lhs), str(rhs), sample=str(x)))
    return report


def _ax0_rhs(f, g, h, x: ExtValue, budget: int) -> Optional[ExtValue]:
    """Partial joins of f g^n h at x until a stabilization certificate."""
    y = f.eval(x)
    acc = BOTTOM
    for _ in range(budget):
        acc = ext_join(acc, h.eval(y))
        if y.is_bottom or y.is_top:
            return acc
        nxt = g.eval(y)
        if nxt <= y:
            # orbit is nonincreasing from here on, so the join is final
            return acc
        # strictly climbing orbit: unbounded, so the supremum tops out
        return acc if h.is_const_bottom else ext_join(acc, TOP)
    return None


# ----------------------------------------------------------------------
# Ax1 head peeling and Ax2 block regrouping


def _regrouped_lasso(
    prefix: Sequence[EnergyFunction],
    cycle: Sequence[EnergyFunction],
    head: int,
    blocks: Sequence[int],
) -> Tuple[List[EnergyFunction], List[EnergyFunction]]:
    """Peel `head` elements, then group the cyclic tail by the block sizes."""
    if head < 0:
        raise InvalidRegrouping("head must be nonnegative")
    blocks = list(blocks)
    if not blocks or any(b <= 0 for b in blocks):
        raise InvalidRegrouping("blocks must be positive and nonempty")
    prefix = list(prefix)
    cycle = list(cycle)

    def element(n: int) -> EnergyFunction:
        if n < len(prefix):
            return prefix[n]
        return cycle[(n - len(prefix)) % len(cycle)]

    new_prefix = [element(n) for n in range(head)]
    pos = head
    while pos < len(prefix):
        # keep peeling whole blocks until the tail is purely cyclic
        new_prefix.append(omegaval.compose_all([element(pos + i) for i in range(blocks[0])]))
        pos += blocks[0]
        blocks = blocks[1:] + blocks[:1]
    # group until the (phase, block index) state recurs; that span is one period
    period = len(cycle)
    start = ((pos - len(prefix)) % period, 0)
    block_idx = 0
    new_cycle = []
    while True:
        b = blocks[block_idx]
        new_cycle.append(omegaval.compose_all([element(pos + i) for i in range(b)]))
        pos += b
        block_idx = (block_idx + 1) % len(blocks)
        if ((pos - len(prefix)) % period, block_idx) == start:
            break
    return new_prefix, new_cycle


def check_ax1_ax2(
    prefix: Sequence[EnergyFunction],
    cycle: Sequence[EnergyFunction],
    regrouping: Tuple[int, Sequence[int]],
) -> LawReport:
    report = LawReport("ax1-ax2", "energy")
    head, blocks = regrouping
    lhs = omegaval.infinite_product_lasso(prefix, cycle)
    new_prefix, new_cycle = _regrouped_lasso(prefix, cycle, head, blocks)
    rhs = omegaval.infinite_product_lasso(new_prefix, new_cycle)
    report.cases += 1
    inputs = (
        f"prefix={[str(p) for p in prefix]}; cycle={[str(c) for c in cycle]}; "
        f"head={head}; blocks={list(blocks)}"
    )
    if lhs != rhs:
        report.failures.append(LawCase(inputs, str(lhs), str(rhs)))
    return report


# ----------------------------------------------------------------------
# Ax3: distributing a binary join over an infinite product


def check_ax3(
    prefix: Sequence[EnergyFunction],
    cycle: Sequence[EnergyFunction],
    y: EnergyFunction,
    z: EnergyFunction,
    samples: Sequence[ExtValue] = (),
    max_reps: int = 3,
) -> LawReport:
    """Compare prod x_n (y v z) with the join over choice sequences.

    The right side joins over all sequences of y/z choices, which can be
    a genuinely infinite supremum; it is certified pointwise at the
    samples by searching ultimately periodic choice patterns with period
    up to max_reps cycle lengths.
    """
    yz = energyfn.join(y, z)
    lhs = omegaval.infinite_product_lasso(
        [energyfn.compose(p, yz) for p in prefix],
        [energyfn.compose(c, yz) for c in cycle],
    )
    plen, clen = len(prefix), len(cycle)
    candidates = []
    for reps in range(1, max_reps + 1):
        for pre_choice in product((y, z), repeat=plen):
            for cyc_choice in product((y, z), repeat=clen * reps):
                cand_prefix = [
                    energyfn.compose(p, c) for p, c in zip(prefix, pre_choice)
                ]
                cand_cycle = [
                    energyfn.compose(cycle[i % clen], c)
                    for i, c in enumerate(cyc_choice)
                ]
                candidates.append(
                    omegaval.infinite_product_lasso(cand_prefix, cand_cycle)
                )
    inputs = (
        f"prefix={[str(p) for p in prefix]}; cycle={[str(c) for c in cycle]}; "
        f"y={y}; z={z}"
    )
    return _pointwise_sup_report("ax3", inputs, lhs, candidates, samples)


def _pointwise_sup_report(
    law: str,
    inputs: str,
    lhs: ThresholdPredicate,
    candidates: Sequence[ThresholdPredicate],
    samples: Sequence[ExtValue],
) -> LawReport:
    """Check lhs = sup(candidates) pointwise at the samples.

    Every candidate must stay below lhs (soundness is exact); where lhs
    is true some candidate must agree, otherwise the search was too
    small and the point is Unknown.
    """
    report = LawReport(law, "energy")
    rhs = NEVER
    for cand in candidates:
        rhs = omegaval.vjoin(rhs, cand)
    if omegaval.vjoin(rhs, lhs) != lhs:
        report.cases += 1
        report.failures.append(LawCase(inputs, str(lhs), str(rhs)))
        return report
    if rhs == lhs:
        report.cases += max(1, len(samples))
        return report
    for x in samples:
        report.cases += 1
        if omegaval.apply(lhs, x) and not omegaval.apply(rhs, x):
            report.unknowns.append(
                LawCase(inputs, str(lhs), str(rhs), sample=str(x))
            )
    if not samples:
        report.cases += 1
        report.unknowns.append(LawCase(inputs, str(lhs), str(rhs)))
    return report


# ----------------------------------------------------------------------
# Ax4: prod f* y_n as the join over exponent patterns


def check_ax4(
    f: EnergyFunction,
    cycle: Sequence[EnergyFunction],
    samples: Sequence[ExtValue] = (),
    max_exp: int = 6,
    max_reps: int = 2,
) -> LawReport:
    """Compare prod f* y_n with the join over exponent patterns.

    As in check_ax3 the right side can be an infinite supremum (constant
    patterns with growing exponents can have thresholds tending to the
    left side's open boundary), so agreement is certified pointwise.
    """
    fstar = energyfn.star(f)
    lhs = omegaval.infinite_product_lasso(
        [], [energyfn.compose(fstar, y) for y in cycle]
    )
    inputs = f"f={f}; cycle={[str(c) for c in cycle]}"
    clen = len(cycle)
    report = None
    for bound in (max_exp, max_exp + 4, max_exp + 8):
        powers = [energyfn.identity()]
        for _ in range(bound):
            powers.append(energyfn.compose(powers[-1], f))
        candidates = []
        for reps in range(1, max_reps + 1):
            for exps in product(range(bound + 1), repeat=clen * reps):
                cand = [
                    energyfn.compose(powers[k], cycle[i % clen])
                    for i, k in enumerate(exps)
                ]
                candidates.append(omegaval.infinite_product_lasso([], cand))
        report = _pointwise_sup_report("ax4", inputs, lhs, candidates, samples)
        if not report.unknowns:
            return report
    return report


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
    # lasso membership tries the right side's components in this order
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


def _omega_equal(instance: str, a, b, bound: int):
    """(equal, evidence): exact on energy, on all lassos up to `bound` on words."""
    if instance == "energy":
        return a == b, None
    verdict = wordmodel.lasso_equal_bounded(a, b, bound)
    return verdict.equal, verdict


def check_identity(report: LawReport, name: str, alg, x, y, bound: int = 5) -> None:
    """Add one case of the IDENTITIES row `name` at (x, y) to the report.

    A check that runs out of budget is Unknown.  Word-model failures
    name only the law, because a RegularLang has no readable str.
    """
    law, sides, omega = IDENTITIES[name]
    inputs = f"{law}; x={x}; y={y}" if report.instance == "energy" else law
    report.cases += 1
    lhs, rhs = sides(alg, x, y)
    try:
        if omega:
            equal, evidence = _omega_equal(report.instance, lhs, rhs, bound)
        else:
            equal, evidence = alg.equal(lhs, rhs), None
    except BudgetExceeded as exc:
        report.unknowns.append(LawCase(inputs, "undecided", "undecided", sample=str(exc)))
        return
    if equal:
        return
    if report.instance == "energy":
        report.failures.append(LawCase(inputs, str(lhs), str(rhs)))
    elif omega:
        report.failures.append(LawCase(inputs, "W1", "W2", sample=str(evidence)))
    else:
        report.failures.append(LawCase(inputs, "L1", "L2"))


def check_conway(
    instance: str = "energy",
    seed: int = 0,
    cases: int = 25,
    bound: int = 5,
) -> LawReport:
    if instance == "energy":
        alg, draw = mk.ENERGY_ALGEBRA, random_energy_function
    elif instance == "word":
        alg = wordmodel.word_algebra("ab")
        draw = lambda rng: random_regex(rng, "ab", epsilon_free=True)
    else:
        raise UnknownIdentity(f"unknown instance {instance!r}")
    report = LawReport("conway", instance, seed=seed)
    rng = random.Random(seed)
    for _ in range(cases):
        x, y = draw(rng), draw(rng)
        for name in IDENTITIES:
            check_identity(report, name, alg, x, y, bound)
    return report


# ----------------------------------------------------------------------
# Group identities


GROUP_TABLES = {
    "C2": [[0, 1], [1, 0]],
    "C3": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
    "C4": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
    "klein": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
}


def _validate_group(table: Sequence[Sequence[int]]) -> List[int]:
    """Check the Cayley table (identity first) and return the inverses."""
    n = len(table)
    idx = range(n)
    if any(len(row) != n for row in table):
        raise InvalidGroupTable("table must be square")
    if any(sorted(row) != list(idx) for row in table) or any(
        sorted(table[i][j] for i in idx) != list(idx) for j in idx
    ):
        raise InvalidGroupTable("rows and columns must be permutations")
    if any(table[0][j] != j or table[j][0] != j for j in idx):
        raise InvalidGroupTable("element 0 must be the identity")
    for i in idx:
        for j in idx:
            for k in idx:
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise InvalidGroupTable("table is not associative")
    inv = [-1] * n
    for i in idx:
        for j in idx:
            if table[i][j] == 0:
                inv[i] = j
    if any(v < 0 for v in inv):
        raise InvalidGroupTable("missing inverses")
    return inv


def check_group_identity(
    group, elements: Sequence, instance: str = "energy", bound: int = 5
) -> LawReport:
    """Row sums of the group matrix against star/omega of the joined elements."""
    table = GROUP_TABLES[group] if isinstance(group, str) else [list(r) for r in group]
    inv = _validate_group(table)
    n = len(table)
    if len(elements) != n:
        raise InvalidGroupTable(f"need {n} elements, got {len(elements)}")
    report = LawReport(f"group-{group}", instance)
    if instance == "energy":
        alg = mk.ENERGY_ALGEBRA
    else:
        alg = wordmodel.word_algebra(elements[0].alphabet)
    rows = [[elements[table[inv[i]][j]] for j in range(n)] for i in range(n)]
    M = mk.matrix(alg, rows)
    joined = reduce(alg.join, elements)

    # the row sums of M_G* are the column M_G* 1, with 1 the all-one vector
    row_sums = mk.mat_star_vec(M, mk.vector(alg, [alg.one] * n)).entries
    expected = alg.star(joined)
    try:
        for i, row_sum in enumerate(row_sums):
            case = f"row {i} of M_G*"
            report.cases += 1
            if not alg.equal(row_sum, expected):
                report.failures.append(LawCase(case, str(row_sum), str(expected)))

        case = "first entry of M_G^w"
        report.cases += 1
        omega_entry = mk.mat_omega(M).entries[0]
        omega_expected = alg.omega(joined)
        if not _omega_equal(instance, omega_entry, omega_expected, bound)[0]:
            report.failures.append(LawCase(case, str(omega_entry), str(omega_expected)))
    except BudgetExceeded as exc:
        report.unknowns.append(LawCase(case, "undecided", "undecided", sample=str(exc)))
    return report


# ----------------------------------------------------------------------
# The bi-inductive characterization of x^w + x*v


def check_bi_inductive(
    f: EnergyFunction,
    v: ThresholdPredicate,
    samples: Sequence[ExtValue],
    budget: int = 256,
) -> LawReport:
    report = LawReport("bi-inductive", "energy")
    w = omegaval.vjoin(omegaval.omega(f), omegaval.act(energyfn.star(f), v))
    inputs = f"f={f}; v={v}"

    report.cases += 1
    refolded = omegaval.vjoin(omegaval.act(f, w), v)
    if refolded != w:
        report.failures.append(LawCase(inputs, str(w), str(refolded)))

    # maximality: wherever w is false the unrolled bound must die.  The
    # top energy is excluded: predicates identify top with arbitrarily
    # large finite levels, so no predicate is true at top alone.
    for x in samples:
        if x.is_top:
            continue
        report.cases += 1
        if omegaval.apply(w, x):
            continue
        y = x
        died = False
        for _ in range(budget):
            if y.is_bottom:
                died = True
                break
            if omegaval.apply(v, y):
                break
            nxt = f.eval(y)
            if nxt >= y:
                break
            y = nxt
        if died:
            continue
        if y.is_bottom or (not omegaval.apply(v, y) and f.eval(y) < y):
            report.unknowns.append(
                LawCase(inputs, "false", "undecided", sample=str(x))
            )
        else:
            report.failures.append(
                LawCase(inputs, "false", "orbit survives", sample=str(x))
            )
    return report


# ----------------------------------------------------------------------
# Seeded suite


def run_suite(instance: str = "energy", seed: int = 0, cases: int = 20) -> List[LawReport]:
    rng = random.Random(seed)
    reports: List[LawReport] = []
    if instance == "energy":
        ax0 = LawReport("ax0", "energy", seed=seed)
        ax12 = LawReport("ax1-ax2", "energy", seed=seed)
        ax3 = LawReport("ax3", "energy", seed=seed)
        ax4 = LawReport("ax4", "energy", seed=seed)
        bi = LawReport("bi-inductive", "energy", seed=seed)
        for _ in range(cases):
            f, g, h = (random_energy_function(rng) for _ in range(3))
            _merge(ax0, check_ax0(f, g, h, random_samples(rng, 6)))
            prefix = [random_energy_function(rng) for _ in range(rng.randint(0, 2))]
            cycle = [random_energy_function(rng) for _ in range(rng.randint(1, 2))]
            head = rng.randint(0, 3)
            blocks = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
            _merge(ax12, check_ax1_ax2(prefix, cycle, (head, blocks)))
            pts = random_samples(rng, 6)
            _merge(ax3, check_ax3(prefix[:1], cycle[:1], f, g, pts))
            _merge(ax4, check_ax4(f, cycle[:1], pts))
            _merge(
                bi,
                check_bi_inductive(
                    f, random_predicate(rng), random_samples(rng, 6)
                ),
            )
        reports += [ax0, ax12, ax3, ax4, bi]
        reports.append(check_conway("energy", seed=seed, cases=cases))
        for name in ("C2", "C3", "C4", "klein"):
            rep = LawReport(f"group-{name}", "energy", seed=seed)
            for _ in range(max(1, cases // 5)):
                elems = [
                    random_energy_function(rng)
                    for _ in range(len(GROUP_TABLES[name]))
                ]
                _merge(rep, check_group_identity(name, elems, "energy"))
            reports.append(rep)
    elif instance == "word":
        reports.append(check_conway("word", seed=seed, cases=max(1, cases // 4)))
        rep = LawReport("group-C2", "word", seed=seed)
        for _ in range(max(1, cases // 10)):
            elems = [random_regex(rng, "ab", epsilon_free=True) for _ in range(2)]
            _merge(rep, check_group_identity("C2", elems, "word"))
        reports.append(rep)
    else:
        raise UnknownIdentity(f"unknown instance {instance!r}")
    return reports


def _merge(into: LawReport, part: LawReport) -> None:
    into.cases += part.cases
    into.failures += part.failures
    into.unknowns += part.unknowns
