"""Generic square matrices over a star algebra and vectors over its semimodule.

``mat_star_vec``, ``mat_omega`` and ``mat_omega_k`` share one
elimination solve for the greatest solution of v = M v + c, and
``mat_star`` is that solve once per column of the identity.  It works
over an abstract operation set, so the energy instance and the
regular-language instance share the same code.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from . import energyfn, omegaval
from .errors import BadAcceptingCount, DimensionMismatch


@dataclass(frozen=True)
class StarAlgebra:
    """Idempotent semiring with star; optionally an omega semimodule.

    ``mul`` is diagrammatic: mul(a, b) follows a by b.  The omega part
    (``act``, ``vjoin``, ``vzero``, ``omega``) may be None for instances
    that only need star.
    """

    name: str
    join: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    zero: Any
    one: Any
    star: Callable[[Any], Any]
    equal: Callable[[Any, Any], bool]
    act: Optional[Callable[[Any, Any], Any]] = None
    vjoin: Optional[Callable[[Any, Any], Any]] = None
    vzero: Any = None
    omega: Optional[Callable[[Any], Any]] = None


ENERGY_ALGEBRA = StarAlgebra(
    name="energy",
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


def _solve(M: SquareMatrix, c: Sequence[Any], k: int, act, vjoin, vzero) -> list:
    """Greatest v with v = M v + c, counting infinite runs only when they
    repeat one of the first k states.

    ``act``/``vjoin``/``vzero`` act on the vector entries: the semiring's
    own ``mul``/``join``/``zero`` for M* c, the semimodule's for omega.
    States are eliminated from n-1 down to 0: with a_pp summing the
    cycles at p through higher states only,

        v_p = a_pp^w + a_pp* (c_p + sum_{j<p} a_pj v_j)

    is substituted into the rows above, then back-substituted from 0 up.
    The a_pp^w term, kept only for p < k, carries the runs whose least
    infinitely repeated state is p, so exactly the runs repeating one of
    the first k states count.  Products and joins with a zero are skipped.
    """
    alg = M.algebra
    mul, join, zero = alg.mul, alg.join, alg.zero

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
    for d, row in reversed(solved):
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
    return vector(alg, _solve(M, c.entries, 0, alg.mul, alg.join, alg.zero))


def mat_star(M: SquareMatrix) -> SquareMatrix:
    """M*, one column solve per column of the identity: column j is M* e_j."""
    alg = M.algebra
    n = M.dim
    columns = []
    for j in range(n):
        e_j = [alg.one if i == j else alg.zero for i in range(n)]
        columns.append(_solve(M, e_j, 0, alg.mul, alg.join, alg.zero))
    return matrix(alg, list(zip(*columns)))


def mat_omega(M: SquareMatrix) -> ColumnVector:
    """Supremum over all infinite runs from each state."""
    return mat_omega_k(M, M.dim)


def mat_omega_k(M: SquareMatrix, k: int) -> ColumnVector:
    """Omega restricted to runs hitting the first k states infinitely often."""
    alg = M.algebra
    n = M.dim
    if not 0 <= k <= n:
        raise BadAcceptingCount(f"k={k} out of range for dimension {n}")
    return vector(alg, _solve(M, [alg.vzero] * n, k, alg.act, alg.vjoin, alg.vzero))
