"""Local finiteness witnesses: the iteration oracle for ``energyfn.star``.

The partial suprema x, x v xf, x v xf v xff, ... are iterated until they
stabilize or a point with f(y) > y certifies divergence, so the tests
compare the closed form of the star with this iteration.
"""

from dataclasses import dataclass
from typing import Optional

from energyomega.energyfn import EnergyFunction
from energyomega.errors import BudgetExceeded
from energyomega.extlat import ExtValue


@dataclass(frozen=True)
class WitnessReport:
    kind: str  # "stabilized" or "diverges"
    steps: int
    value: Optional[ExtValue]  # stabilized partial supremum, None on divergence


def local_finiteness_witness(
    f: EnergyFunction, x: ExtValue, max_n: int = 64
) -> WitnessReport:
    """Iterate partial suprema x v xf v ... until a certificate appears.

    Stabilization is certified when f(y) <= y for the current iterate y
    (all later iterates are then dominated); divergence when a live
    finite point with f(y) > y is reached, or the iterate hits top.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    y = x
    sup = x
    for n in range(max_n + 1):
        fy = f.eval(y)
        if fy <= y:
            return WitnessReport("stabilized", n, sup)
        if y.is_top or y.is_finite:
            return WitnessReport("diverges", n, None)
        y = fy
        sup = max(sup, y)
    raise BudgetExceeded(f"no certificate within {max_n} iterations")
