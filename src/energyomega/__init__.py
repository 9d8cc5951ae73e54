"""Energy functions, omega values and automata; other names live in their modules."""

from .energyfn import shift
from .extlat import finite

__all__ = ["energyauto", "energyfn", "extlat", "laws", "matrixkleene", "omegaval", "wordmodel",
           "automaton", "buchi", "finite", "reachable", "shift"]

__version__ = "0.1.0"


def __getattr__(name: str):
    # the automaton layers load on first use, so eval, star and omega start without them
    if name in ("automaton", "buchi", "reachable"):
        from . import energyauto

        return getattr(energyauto, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
