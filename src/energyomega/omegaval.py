"""Threshold predicates: top-continuous finitely additive maps into 2.

Every such map on the energy lattice is either constant bottom or an
upward-closed indicator with a finite threshold; the two inclusivity
variants cover all cases.  The energy semiring acts by precomposition,
and infinite products of lasso-shaped sequences land here.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import energyfn
from .energyfn import EnergyFunction
from .extlat import ExtValue, Frozen, Rational, RationalLike, as_fraction, exact, finite


class ThresholdPredicate(Frozen):
    """Never (constant bottom) or From(threshold, inclusive)."""

    __slots__ = ("threshold", "inclusive")

    def __new__(cls, threshold: Optional[Rational], inclusive: bool = True) -> ThresholdPredicate:
        # a None threshold encodes Never
        return super().__new__(cls, threshold if threshold is None else exact(threshold), inclusive)

    @property
    def is_never(self) -> bool:
        return self.threshold is None

    def __str__(self) -> str:
        if self.is_never:
            return "never"
        op = ">=" if self.inclusive else ">"
        return f"from {op} {self.threshold}"


NEVER = ThresholdPredicate(None, True)


def from_threshold(t: RationalLike, inclusive: bool = True) -> ThresholdPredicate:
    t = as_fraction(t)
    if t < 0:
        raise ValueError("thresholds live in [0, top)")
    return ThresholdPredicate(t, inclusive)


def apply(v: ThresholdPredicate, x: ExtValue) -> bool:
    """Evaluate the predicate; True stands for top in the 2-element lattice."""
    if v.is_never:
        return False
    t = finite(v.threshold)
    return x >= t if v.inclusive else x > t


def vjoin(v: ThresholdPredicate, w: ThresholdPredicate) -> ThresholdPredicate:
    """Pointwise supremum: the weaker threshold wins, inclusive on a tie."""
    # two nevers have equal keys, so their None thresholds are never ordered
    return min(v, w, key=lambda p: (p.is_never, p.threshold, not p.inclusive))


def act(f: EnergyFunction, v: ThresholdPredicate) -> ThresholdPredicate:
    """Left action by precomposition: (f v)(x) = v(f(x))."""
    if v.is_never or f.is_const_bottom:
        return NEVER
    hit = energyfn.threshold(f, 0, v.threshold, strict=not v.inclusive)
    # f is alive somewhere, so its values are unbounded and the target is
    # always reached at some finite input.
    assert hit is not None
    t, inclusive = hit
    return ThresholdPredicate(t, inclusive)


def omega(f: EnergyFunction) -> ThresholdPredicate:
    """The infinite product f f f ...

    A finite energy level survives the orbit iff f(x) >= x: the orbit is
    then nondecreasing and never dies, while f(x) < x forces a strictly
    decreasing orbit whose per-step loss never shrinks, so it reaches
    bottom.  The iteration oracle for this closed form lives in the test
    suite.
    """
    if f.is_const_bottom:
        return NEVER
    hit = energyfn.threshold(f, 1, 0, strict=False)
    if hit is None:
        return NEVER
    t, inclusive = hit
    return ThresholdPredicate(t, inclusive)


def compose_all(fs: Sequence[EnergyFunction]) -> EnergyFunction:
    out = energyfn.identity()
    for f in fs:
        out = energyfn.compose(out, f)
    return out


def infinite_product_lasso(
    prefix: Sequence[EnergyFunction], cycle: Sequence[EnergyFunction]
) -> ThresholdPredicate:
    """Value of the lasso sequence prefix . cycle^omega."""
    if not cycle:
        raise ValueError("lasso cycle must be nonempty")
    return act(compose_all(prefix), omega(compose_all(cycle)))


# ----------------------------------------------------------------------
# JSON encoding


def to_json(v: ThresholdPredicate) -> dict:
    if v.is_never:
        return {"tag": "never"}
    return {"tag": "from", "threshold": str(v.threshold), "inclusive": v.inclusive}
