"""Energy functions, omega values and automata; other names live in their modules."""

from .energyauto import automaton, buchi, reachable
from .energyfn import shift
from .extlat import finite

__all__ = ["energyauto", "energyfn", "extlat", "laws", "matrixkleene", "omegaval", "wordmodel",
           "automaton", "buchi", "finite", "reachable", "shift"]

__version__ = "0.1.0"
