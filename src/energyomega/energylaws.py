"""The energy instance's law checkers: Ax0-Ax4 and the bi-inductive law.

Laws whose right side is an infinite supremum (Ax0, Ax3, Ax4,
bi-inductive) are compared with ``energyauto``'s relaxation oracles on a
small automaton built from their operands (``_oracle_cases``); Ax1-Ax2
and the refolded bi-inductive side compare two omega values in
``laws._compare``; seeded generators draw the operands.  Callers import
checkers and generators from here, and ``laws`` only where the energy
instance runs, so the word instance starts without this module.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import accumulate
from typing import Callable, List, Sequence, Tuple, Union

from . import energyauto, energyfn, extlat, omegaval
from .errors import InvalidRegrouping, ValidationError
from .extlat import BOTTOM, TOP, finite
from .laws import LawCase, LawReport, _compare


# ----------------------------------------------------------------------
# Seeded generators


_SLOPES = ((1, 1), (3, 2), (2, 1))  # the slopes 1, 3/2 and 2 as (numerator, denominator)


def _small_frac(rng: random.Random, lo: int = 0, hi: int = 8) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 2, 4)))


def random_energy_function(rng: random.Random) -> energyfn.EnergyFunction:
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
    if rng.random() < 0.15:
        return omegaval.NEVER
    return omegaval.from_threshold(_small_frac(rng, 0, 8), rng.random() < 0.5)


def random_samples(rng: random.Random, k: int) -> List[extlat.ExtValue]:
    out = [BOTTOM, finite(0), TOP]
    while len(out) < k:
        out.append(finite(_small_frac(rng, 0, 12)))
    return out


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
# The energy block of laws.run_suite


def _suite(report: Callable[[str], LawReport], rng: random.Random, cases: int) -> None:
    """`cases` rounds of every law above, drawn from `rng`, each law into
    the report that ``report(law)`` opens."""
    draw = random_energy_function
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
