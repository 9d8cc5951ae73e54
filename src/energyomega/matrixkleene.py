"""Generic square matrices over a star algebra; vectors are plain tuples.

``mat_star_vec``, ``mat_star``, ``mat_omega`` and ``mat_omega_k``
share one elimination solve for the greatest solution of v = M v + c;
``mat_star`` solves it once per column, with a unit vector as c.  The
solve reads M as its edges (i, j, x), the entries that are not zero,
over an abstract operation set, so the energy instance and the
regular-language instance share the same code.  ``ENERGY_ALGEBRA``, the
energy instance, is built on first access, with the energy layers.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .errors import BadAcceptingCount, DimensionMismatch


# The one dataclass that the CLI defines: the benchmark tracer
# (perfbench/traced_cli.py) swaps ENERGY_ALGEBRA for a copy made by
# dataclasses.replace, so the record stays one until the tracer changes.
@dataclass(frozen=True)
class StarAlgebra:
    """Idempotent semiring with star, and its omega semimodule.

    ``mul`` is diagrammatic: mul(a, b) follows a by b.  ``act``,
    ``vjoin``, ``vzero`` and ``omega`` are the semimodule's left action,
    join, zero and the omega power of a semiring element.  Elements must
    be hashable, with equal elements giving equal results: the solve
    keeps each product and join by its operands.  The solve tells ``zero``
    and ``vzero`` by identity alone and skips work on them: zero absorbs
    products and is join's unit, and acting on ``vzero`` gives ``vzero``,
    so an equal copy of either costs work but changes no answer.
    """

    join: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    zero: Any
    one: Any
    star: Callable[[Any], Any]
    equal: Callable[[Any, Any], bool]
    act: Callable[[Any, Any], Any]
    vjoin: Callable[[Any, Any], Any]
    vzero: Any
    omega: Callable[[Any], Any]


def __getattr__(name: str):
    """ENERGY_ALGEBRA, built on first access and then kept as a global."""
    if name != "ENERGY_ALGEBRA":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import energyfn, omegaval

    global ENERGY_ALGEBRA
    ENERGY_ALGEBRA = StarAlgebra(
        join=energyfn.join,
        mul=energyfn.compose,
        zero=energyfn.CONST_BOTTOM,
        one=energyfn.identity(),
        star=energyfn.star,
        equal=operator.eq,
        act=omegaval.act,
        vjoin=omegaval.vjoin,
        vzero=omegaval.NEVER,
        omega=omegaval.omega,
    )
    return ENERGY_ALGEBRA


class SquareMatrix(NamedTuple):
    """Build one with ``matrix``, which checks the shape."""

    algebra: StarAlgebra
    rows: tuple  # tuple of tuples of algebra elements

    @property
    def dim(self) -> int:
        return len(self.rows)


def matrix(algebra: StarAlgebra, rows: Sequence[Sequence[Any]]) -> SquareMatrix:
    rows = tuple(tuple(r) for r in rows)
    if not rows or any(len(r) != len(rows) for r in rows):
        raise DimensionMismatch("matrix must be square and nonempty")
    return SquareMatrix(algebra, rows)


def _entries(M: SquareMatrix) -> list:
    """The entries (i, j, x) of M that are not ``zero`` itself, row by row."""
    zero = M.algebra.zero
    return [(i, j, x) for i, row in enumerate(M.rows) for j, x in enumerate(row) if x is not zero]


def _solve(alg: StarAlgebra, n: int, edges: Iterable[tuple], c: Sequence[Any], omega: bool,
           keep: Sequence[int]) -> tuple:
    """The entries at the states in ``keep``, in that order, of the
    greatest v with v = M v + c, counting the infinite runs iff ``omega``.
    M is n x n, with M_ij = x for each (i, j, x) in ``edges``, which holds
    at most one entry per (i, j) and none that is ``zero`` itself.

    Under ``omega`` c is over the semimodule, with its ``act``, ``vjoin``
    and ``vzero``; otherwise over the semiring, with ``mul``, ``join``
    and ``zero``.  Each state is renamed to its place in the order: the
    ``keep`` states, then the others by index.  The places are eliminated
    from the last to the first: with a_pp summing the cycles at p through
    the places already eliminated, and j over the places below p,

        v_p = a_pp^w + a_pp* (c_p + sum_j a_pj v_j)

    is substituted into the rows of those places.  The a_pp^w term, kept
    under ``omega``, carries the runs whose first infinitely repeated
    state in the order is p.  v_p depends only on the places below it, so
    only the ``keep`` places are back-substituted, in ascending place.

    A row is a dict, keyed by place and read in ascending place, of the
    entries that are not ``zero`` itself; work on ``zero`` or ``vzero``
    itself is skipped, so an equal copy of a zero costs work but changes
    no answer.  ``mul`` and ``join`` keep every result in a dict keyed by
    the operand pair, which lives as long as the solve.
    """
    products, joins, zero = {}, {}, alg.zero

    def memo(done, op, x, y):
        out = done.get((x, y))
        if out is None:
            out = done[x, y] = op(x, y)
        return out

    mul, join = functools.partial(memo, products, alg.mul), functools.partial(memo, joins, alg.join)
    act, vjoin, vzero = (alg.act, alg.vjoin, alg.vzero) if omega else (mul, join, zero)

    def vadd(u, w):
        return w if u is vzero else vjoin(u, w)

    order = [*keep, *sorted(set(range(n)).difference(keep))]
    place = {p: k for k, p in enumerate(order)}
    a = [{} for _ in range(n)]
    for i, j, x in edges:
        a[place[i]][place[j]] = x
    c = [c[p] for p in order]
    solved = [None] * n  # k: (constant part of v_k, [(j, a_kk* a_kj)])
    for k in range(n - 1, -1, -1):
        loop = a[k].pop(k, zero)
        star = None if loop is zero else alg.star(loop)
        row = [(j, y if star is None else mul(star, y)) for j, y in sorted(a[k].items())]
        d = c[k]
        if star is not None:
            d = d if d is vzero else act(star, d)
            d = vadd(alg.omega(loop), d) if omega else d
        for i, x in [(i, a[i].pop(k)) for i in range(k) if k in a[i]]:
            for j, y in row:
                xy, old = mul(x, y), a[i].get(j, zero)
                if xy is not zero:
                    a[i][j] = xy if old is zero else join(old, xy)
            if d is not vzero:
                c[i] = vadd(c[i], act(x, d))
        solved[k] = d, row

    v = []
    for d, row in solved[: len(keep)]:
        for j, y in row:
            if v[j] is not vzero:
                d = vadd(d, act(y, v[j]))
        v.append(d)
    return tuple(v)


def mat_star_vec(M: SquareMatrix, c: Sequence[Any]) -> tuple:
    """The column M* c, without building M*."""
    if M.dim != len(c):
        raise DimensionMismatch(f"matrix {M.dim} vs vector {len(c)}")
    return _solve(M.algebra, M.dim, _entries(M), c, False, range(M.dim))


def mat_star(M: SquareMatrix) -> SquareMatrix:
    """M*, column by column: column j is M* times the j-th unit vector."""
    alg, n = M.algebra, M.dim
    units = [[alg.one if i == j else alg.zero for i in range(n)] for j in range(n)]
    return matrix(alg, list(zip(*(mat_star_vec(M, e) for e in units))))


def mat_omega(M: SquareMatrix) -> tuple:
    """Supremum over all infinite runs from each state."""
    return _solve(M.algebra, M.dim, _entries(M), [M.algebra.vzero] * M.dim, True, range(M.dim))


def mat_omega_k(M: SquareMatrix, k: int) -> tuple:
    """Omega restricted to runs hitting the first k states infinitely often."""
    if not 0 <= k <= M.dim:
        raise BadAcceptingCount(f"k={k} out of range for dimension {M.dim}")
    alg, edges = flagged(M.algebra, _entries(M), [j < k for j in range(M.dim)])
    return _solve(alg, M.dim, edges, [alg.vzero] * M.dim, True, range(M.dim))


def flagged(alg: StarAlgebra, edges: Iterable[tuple], flags: Sequence[bool]) -> tuple:
    """The pair algebra, and ``edges`` (i, j, x) over pairs: x joins the walks,
    y those entering a flagged column, so (x, x) into one, else (x, 0).  Pairs
    multiply as (x1 x2, y1 x2 + x1 y2) and act by x; (x, y)* is (x*, x* y x*)
    and (x, y)^w is (x* y)^w.  So the omega solve over the flagged edges counts
    the runs entering a flagged state infinitely often, in any state order:
    ``wordmodel._extend``'s (reach, flag) profile over any star algebra.
    As y <= x, a product with a factor whose y is its x has y = x."""
    zero, join, star = alg.zero, functools.cache(alg.join), functools.cache(alg.star)
    mul = functools.cache(lambda x, y: zero if x is zero or y is zero else alg.mul(x, y))

    def pair_mul(a, b):
        x = mul(a[0], b[0])
        return x, x if a[1] is a[0] or b[1] is b[0] else join(mul(a[1], b[0]), mul(a[0], b[1]))

    pairs = replace(
        alg,
        join=lambda a, b: (join(a[0], b[0]), join(a[1], b[1])),
        mul=pair_mul,
        zero=(zero, zero),
        one=(alg.one, zero),
        star=lambda a: (star(a[0]), mul(mul(star(a[0]), a[1]), star(a[0]))),
        equal=lambda a, b: alg.equal(a[0], b[0]) and alg.equal(a[1], b[1]),
        act=lambda a, v: alg.act(a[0], v),
        omega=lambda a: alg.omega(mul(star(a[0]), a[1])),
    )
    return pairs, [(i, j, (x, x if flags[j] else zero)) for i, j, x in edges]
