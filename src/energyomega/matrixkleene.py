"""Generic square matrices over a star algebra and vectors over its semimodule.

``mat_star_vec``, ``mat_star``, ``mat_omega`` and ``mat_omega_k``
share one elimination solve for the greatest solution of v = M v + c;
``mat_star`` solves it once, with the rows of the identity as c.  The
solve works over an abstract operation set, so the energy instance and the
regular-language instance share the same code.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from . import energyfn, omegaval
from .errors import BadAcceptingCount, DimensionMismatch


@dataclass(frozen=True)
class StarAlgebra:
    """Idempotent semiring with star, and its omega semimodule.

    ``mul`` is diagrammatic: mul(a, b) follows a by b.  ``act``,
    ``vjoin``, ``vzero`` and ``omega`` are the semimodule's left action,
    join, zero and the omega power of a semiring element.  Elements must
    be hashable, with equal elements giving equal results: the solve
    keeps each product and join by its operands.
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


@dataclass(frozen=True)
class SquareMatrix:
    algebra: StarAlgebra
    rows: tuple  # tuple of tuples of algebra elements

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __post_init__(self):
        n = len(self.rows)
        if n < 1 or any(len(r) != n for r in self.rows):
            raise DimensionMismatch("matrix must be square and nonempty")


@dataclass(frozen=True)
class ColumnVector:
    algebra: StarAlgebra
    entries: tuple

    @property
    def dim(self) -> int:
        return len(self.entries)


def matrix(algebra: StarAlgebra, rows: Sequence[Sequence[Any]]) -> SquareMatrix:
    return SquareMatrix(algebra, tuple(tuple(r) for r in rows))


def vector(algebra: StarAlgebra, entries: Sequence[Any]) -> ColumnVector:
    return ColumnVector(algebra, tuple(entries))


def _solve(M: SquareMatrix, c: Sequence[Any], k: int, act, vjoin, vzero, m: int) -> list:
    """Entries v_0 ... v_{m-1} of the greatest v with v = M v + c,
    counting infinite runs only when they repeat one of the first k states.

    ``act``/``vjoin``/``vzero`` act on the vector entries: the semiring's
    own ``mul``/``join``/``zero`` for M* c, the semimodule's for omega.
    States are eliminated from n-1 down to 0: with a_pp summing the
    cycles at p through higher states only,

        v_p = a_pp^w + a_pp* (c_p + sum_{j<p} a_pj v_j)

    is substituted into the rows above, then back-substituted from 0 up.
    The a_pp^w term, kept only for p < k, carries the runs whose least
    infinitely repeated state is p, so exactly the runs repeating one of
    the first k states count.  Products and joins with a zero are skipped.
    v_p depends only on v_j for j < p, so back-substitution stops after
    v_{m-1}: the automaton queries read only the initial states' entries
    and put those states first (m = n gives the whole vector).

    Operand pairs repeat within a solve, so ``mul`` and ``join``, and
    ``act``/``vjoin`` when they are ``mul``/``join``, keep every result
    in a dict keyed by the operand pair, which lives as long as the solve.
    """
    alg = M.algebra
    mul, join, zero = functools.cache(alg.mul), functools.cache(alg.join), alg.zero
    act = mul if act is alg.mul else act
    vjoin = join if vjoin is alg.join else vjoin

    def is_zero(x) -> bool:
        return x is zero or x == zero

    def is_vzero(x) -> bool:
        return x is vzero or x == vzero

    def vadd(u, w):
        return w if is_vzero(u) else vjoin(u, w)

    a = [list(row) for row in M.rows]
    c = list(c)
    solved = []  # from state n-1 down: (constant part of v_p, [(j, a_pp* a_pj)])
    for p in range(M.dim - 1, -1, -1):
        loop = a[p][p]
        loop_star = None if is_zero(loop) else alg.star(loop)
        row = [
            (j, x if loop_star is None else mul(loop_star, x))
            for j, x in enumerate(a[p][:p])
            if not is_zero(x)
        ]
        d = c[p]
        if loop_star is not None:
            d = d if is_vzero(d) else act(loop_star, d)
            # omega term first: lasso membership tries components in order,
            # and a_pp^w is the one that most often holds
            d = vadd(alg.omega(loop), d) if p < k else d
        for i in range(p):
            x = a[i][p]
            if is_zero(x):
                continue
            for j, y in row:
                xy = mul(x, y)
                a[i][j] = xy if is_zero(a[i][j]) else join(a[i][j], xy)
            if not is_vzero(d):
                c[i] = vadd(c[i], act(x, d))
        solved.append((d, row))

    v: list = []
    for d, row in reversed(solved[M.dim - m:]):
        for j, y in row:
            if not is_vzero(v[j]):
                d = vadd(d, act(y, v[j]))
        v.append(d)
    return v


def mat_star_vec(M: SquareMatrix, c: ColumnVector) -> ColumnVector:
    """The column M* c, without building M*."""
    if M.dim != c.dim:
        raise DimensionMismatch(f"matrix {M.dim} vs vector {c.dim}")
    alg = M.algebra
    return vector(alg, _solve(M, c.entries, 0, alg.mul, alg.join, alg.zero, M.dim))


def mat_star(M: SquareMatrix) -> SquareMatrix:
    """M*, from one solve of v = M v + I whose vector entries are rows.

    An entry acts on a row entrywise and rows join entrywise, so v_p is
    row p of M*.
    """
    alg = M.algebra
    mul, join, zero = alg.mul, alg.join, alg.zero
    n = M.dim

    def act(a, row):
        return tuple(mul(a, x) for x in row)

    def vjoin(r, s):
        return tuple(map(join, r, s))

    unit_rows = [tuple(alg.one if i == j else zero for j in range(n)) for i in range(n)]
    return matrix(alg, _solve(M, unit_rows, 0, act, vjoin, (zero,) * n, n))


def mat_omega(M: SquareMatrix) -> ColumnVector:
    """Supremum over all infinite runs from each state."""
    return mat_omega_k(M, M.dim)


def mat_omega_k(M: SquareMatrix, k: int) -> ColumnVector:
    """Omega restricted to runs hitting the first k states infinitely often."""
    alg = M.algebra
    n = M.dim
    if not 0 <= k <= n:
        raise BadAcceptingCount(f"k={k} out of range for dimension {n}")
    return vector(alg, _solve(M, [alg.vzero] * n, k, alg.act, alg.vjoin, alg.vzero, n))
