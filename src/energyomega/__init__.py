"""Energy functions, omega values and automata; other names live in their modules."""

import importlib

__all__ = ["energyauto", "energyfn", "extlat", "laws", "matrixkleene", "omegaval", "wordmodel",
           "automaton", "buchi", "finite", "reachable", "shift"]

__version__ = "0.1.0"

# root names whose modules load on first use: wordcheck starts without the energy layers
_LAZY = {"automaton": "energyauto", "buchi": "energyauto", "reachable": "energyauto",
         "finite": "extlat", "shift": "energyfn"}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
