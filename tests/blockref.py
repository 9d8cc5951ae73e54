"""Block star/omega formulas with a free split point: the test reference.

These are the inductive block formulas of the matrix star, the matrix
omega and the stacked omega_k.  For any split 0 < k < n the result is
the same, and it must equal what ``matrixkleene`` computes by
elimination.  The plain matrix operations they and the tests use (join,
product, action on a vector, equality, identity and zero) live here too.
"""

from energyomega import matrixkleene as mk
from energyomega.errors import DimensionMismatch


def mat_identity(algebra, n):
    return mk.matrix(
        algebra,
        [[algebra.one if i == j else algebra.zero for j in range(n)] for i in range(n)],
    )


def mat_zero(algebra, n):
    return mk.matrix(algebra, [[algebra.zero] * n for _ in range(n)])


def _check_same(M, N):
    if M.dim != N.dim:
        raise DimensionMismatch(f"dimensions {M.dim} and {N.dim} differ")


def mat_join(M, N):
    _check_same(M, N)
    alg = M.algebra
    return mk.matrix(
        alg,
        [
            [alg.join(M.rows[i][j], N.rows[i][j]) for j in range(M.dim)]
            for i in range(M.dim)
        ],
    )


def mat_mul(M, N):
    _check_same(M, N)
    return mk.matrix(M.algebra, _mul_rect(M.algebra, M.rows, N.rows))


def mat_equal(M, N):
    _check_same(M, N)
    return all(
        M.algebra.equal(M.rows[i][j], N.rows[i][j])
        for i in range(M.dim)
        for j in range(M.dim)
    )


def mat_vec_act(M, v):
    if M.dim != len(v):
        raise DimensionMismatch(f"matrix {M.dim} vs vector {len(v)}")
    return tuple(_act_rect(M.algebra, M.rows, v))


def _block(M, r0, r1, c0, c1):
    return [[M.rows[i][j] for j in range(c0, c1)] for i in range(r0, r1)]


def _mul_rect(alg, A, B):
    cols = len(B[0]) if B else 0
    out = []
    for row in A:
        out_row = []
        for j in range(cols):
            acc = alg.zero
            for x, b_row in zip(row, B):
                acc = alg.join(acc, alg.mul(x, b_row[j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def _act_rect(alg, A, vs):
    out = []
    for row in A:
        acc = alg.vzero
        for s, v in zip(row, vs):
            acc = alg.vjoin(acc, alg.act(s, v))
        out.append(acc)
    return out


def _split(M, split):
    n = M.dim
    k = split if split is not None else n // 2
    if not 0 < k < n:
        raise DimensionMismatch(f"split {k} out of range for dimension {n}")
    alg = M.algebra
    a = mk.matrix(alg, _block(M, 0, k, 0, k))
    b = _block(M, 0, k, k, n)
    c = _block(M, k, n, 0, k)
    d = mk.matrix(alg, _block(M, k, n, k, n))
    bds = _mul_rect(alg, b, block_star(d).rows)
    cas = _mul_rect(alg, c, block_star(a).rows)
    f = mat_join(a, mk.matrix(alg, _mul_rect(alg, bds, c)))
    g = mat_join(d, mk.matrix(alg, _mul_rect(alg, cas, b)))
    return a, b, c, d, bds, cas, f, g


def block_star(M, split=None):
    """[[a, b], [c, d]]* = [[f*, f* b d*], [g* c a*, g*]]."""
    alg = M.algebra
    if M.dim == 1:
        return mk.matrix(alg, [[alg.star(M.rows[0][0])]])
    _, _, _, _, bds, cas, f, g = _split(M, split)
    f_star, g_star = block_star(f).rows, block_star(g).rows
    top = [list(r) + list(s) for r, s in zip(f_star, _mul_rect(alg, f_star, bds))]
    bottom = [list(r) + list(s) for r, s in zip(_mul_rect(alg, g_star, cas), g_star)]
    return mk.matrix(alg, top + bottom)


def block_omega(M, split=None):
    """[[a, b], [c, d]]^w = [f^w + f* b d^w ; g^w + g* c a^w]."""
    alg = M.algebra
    if M.dim == 1:
        return (alg.omega(M.rows[0][0]),)
    a, b, c, d, _, _, f, g = _split(M, split)
    fsb = _mul_rect(alg, block_star(f).rows, b)
    gsc = _mul_rect(alg, block_star(g).rows, c)
    top = map(alg.vjoin, block_omega(f), _act_rect(alg, fsb, block_omega(d)))
    bottom = map(alg.vjoin, block_omega(g), _act_rect(alg, gsc, block_omega(a)))
    return (*top, *bottom)


def block_omega_k(M, k):
    """Omega over runs through the first k states infinitely often:
    [(a + b d* c)^w ; d* c (a + b d* c)^w]."""
    alg = M.algebra
    n = M.dim
    if k == 0:
        return (alg.vzero,) * n
    if k == n:
        return block_omega(M)
    a = mk.matrix(alg, _block(M, 0, k, 0, k))
    b = _block(M, 0, k, k, n)
    c = _block(M, k, n, 0, k)
    d_star = block_star(mk.matrix(alg, _block(M, k, n, k, n))).rows
    f = mat_join(a, mk.matrix(alg, _mul_rect(alg, _mul_rect(alg, b, d_star), c)))
    top = block_omega(f)
    bottom = _act_rect(alg, _mul_rect(alg, d_star, c), top)
    return (*top, *bottom)
