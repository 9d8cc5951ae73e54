"""Generic square matrices over a star algebra and vectors over its semimodule.

``mat_star`` is the block star formula, split at n // 2.  ``mat_star_vec``,
``mat_omega`` and ``mat_omega_k`` share one elimination solve for the
greatest solution of v = M v + c.  Both work over an abstract operation
set, so the energy instance and the regular-language instance share the
same code.
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


def mat_identity(algebra: StarAlgebra, n: int) -> SquareMatrix:
    return matrix(
        algebra,
        [[algebra.one if i == j else algebra.zero for j in range(n)] for i in range(n)],
    )


def mat_zero(algebra: StarAlgebra, n: int) -> SquareMatrix:
    return matrix(algebra, [[algebra.zero] * n for _ in range(n)])


def mat_join(M: SquareMatrix, N: SquareMatrix) -> SquareMatrix:
    _check_same(M, N)
    alg = M.algebra
    return matrix(
        alg,
        [
            [alg.join(M.rows[i][j], N.rows[i][j]) for j in range(M.dim)]
            for i in range(M.dim)
        ],
    )


def mat_mul(M: SquareMatrix, N: SquareMatrix) -> SquareMatrix:
    _check_same(M, N)
    return matrix(M.algebra, _mul_rect(M.algebra, M.rows, N.rows))


def mat_equal(M: SquareMatrix, N: SquareMatrix) -> bool:
    _check_same(M, N)
    return all(
        M.algebra.equal(M.rows[i][j], N.rows[i][j])
        for i in range(M.dim)
        for j in range(M.dim)
    )


def _check_same(M: SquareMatrix, N: SquareMatrix) -> None:
    if M.dim != N.dim:
        raise DimensionMismatch(f"dimensions {M.dim} and {N.dim} differ")


def _block(M: SquareMatrix, r0: int, r1: int, c0: int, c1: int) -> list:
    return [[M.rows[i][j] for j in range(c0, c1)] for i in range(r0, r1)]


def _stack(alg: StarAlgebra, a, b, c, d) -> SquareMatrix:
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    rows += [list(rc) + list(rd) for rc, rd in zip(c, d)]
    return matrix(alg, rows)


def mat_star(M: SquareMatrix) -> SquareMatrix:
    """Inductive block star, splitting the states at n // 2."""
    alg = M.algebra
    n = M.dim
    if n == 1:
        return matrix(alg, [[alg.star(M.rows[0][0])]])
    k = n // 2
    a = matrix(alg, _block(M, 0, k, 0, k))
    b = _block(M, 0, k, k, n)
    c = _block(M, k, n, 0, k)
    d = matrix(alg, _block(M, k, n, k, n))

    d_star = mat_star(d)
    a_star = mat_star(a)
    bds = _mul_rect(alg, b, d_star.rows)
    cas = _mul_rect(alg, c, a_star.rows)
    f = mat_join(a, matrix(alg, _mul_rect(alg, bds, c)))
    g = mat_join(d, matrix(alg, _mul_rect(alg, cas, b)))
    f_star = mat_star(f)
    g_star = mat_star(g)
    top_right = _mul_rect(alg, f_star.rows, bds)
    bottom_left = _mul_rect(alg, g_star.rows, cas)
    return _stack(alg, f_star.rows, top_right, bottom_left, g_star.rows)


def _mul_rect(alg: StarAlgebra, A: Sequence[Sequence[Any]], B: Sequence[Sequence[Any]]) -> list:
    """Rectangular product with the algebra's join/mul."""
    rows_a = len(A)
    inner = len(B)
    cols_b = len(B[0]) if inner else 0
    out = []
    for i in range(rows_a):
        row = []
        for j in range(cols_b):
            acc = alg.zero
            for k in range(inner):
                acc = alg.join(acc, alg.mul(A[i][k], B[k][j]))
            row.append(acc)
        out.append(row)
    return out


def mat_vec_act(M: SquareMatrix, v: ColumnVector) -> ColumnVector:
    alg = M.algebra
    if M.dim != v.dim:
        raise DimensionMismatch(f"matrix {M.dim} vs vector {v.dim}")
    out = []
    for i in range(M.dim):
        acc = alg.vzero
        for k in range(M.dim):
            acc = alg.vjoin(acc, alg.act(M.rows[i][k], v.entries[k]))
        out.append(acc)
    return vector(alg, out)


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
