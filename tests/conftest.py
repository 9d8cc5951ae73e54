"""Shared fixtures and small builders for the test suite."""

import contextlib
import dataclasses
import functools
import importlib.util
import os
import pathlib
from fractions import Fraction

import pytest

from energyomega import energyfn, matrixkleene as mk
from energyomega.extlat import finite


def fn_shift(d):
    """x + d, bottom below -d for negative d."""
    return energyfn.shift(Fraction(d))


def fn_pieces(bottom, pieces, top=None, top_incl=False, bottom_incl=False):
    return energyfn.validate(bottom, bottom_incl, pieces, top, top_incl)


@pytest.fixture
def decrement():
    """f(x) = x - 1 with bottom below 1."""
    return fn_shift(-1)


@pytest.fixture
def plus_two():
    return fn_shift(2)


def F(q):
    return finite(Fraction(q))


def edge_matrix(aut):
    """The automaton's matrix over ``ENERGY_ALGEBRA``, built from its live
    edges, for the references that read a ``SquareMatrix``."""
    rows = [[energyfn.CONST_BOTTOM] * aut.dim for _ in range(aut.dim)]
    for i, j, fn in aut.edges:
        rows[i][j] = fn
    return mk.matrix(mk.ENERGY_ALGEBRA, rows)


@contextlib.contextmanager
def energy_algebra(**ops):
    """``matrixkleene.ENERGY_ALGEBRA`` swapped, while the block runs, for a
    copy with ``ops`` replaced, as the benchmark tracer swaps it; the
    queries read it when they are called."""
    saved = mk.ENERGY_ALGEBRA
    mk.ENERGY_ALGEBRA = dataclasses.replace(saved, **ops)
    try:
        yield
    finally:
        mk.ENERGY_ALGEBRA = saved


GOLDEN = pathlib.Path(__file__).parent / "golden"
ROOT = pathlib.Path(__file__).resolve().parent.parent


def subprocess_env():
    """The environment for a child interpreter: this checkout's src/ first
    on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@functools.cache
def perfbench(name):
    """``perfbench/<name>.py``, loaded once by file spec, as ``perfbench/``
    is not a package; the tests only read it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Every file in golden/ that a CLI run prints, with that run's argv (before
# ``--format json``) and exit code; test_cli.py and criterion 8 read this list.
GOLDEN_RUNS = [
    ("reach_pump_0.json", ["reach", str(GOLDEN / "pump.json"), "--energy", "0", "--verify"], 0),
    ("buchi_pump_0.json", ["buchi", str(GOLDEN / "pump.json"), "--energy", "0", "--verify"], 0),
    ("buchi_dec_0.json", ["buchi", str(GOLDEN / "dec.json"), "--energy", "0", "--verify"], 1),
    ("star_plus2.json", ["star", str(GOLDEN / "plus2.json")], 0),
    ("omega_plus2.json", ["omega", str(GOLDEN / "plus2.json")], 0),
    ("star_mixed.json", ["star", str(GOLDEN / "mixed.json")], 0),
    ("omega_mixed.json", ["omega", str(GOLDEN / "mixed.json")], 0),
    ("laws_energy_s0_c8.json", ["laws", "--instance", "energy", "--seed", "0", "--cases", "8"], 0),
    ("laws_word_s0_c4.json", ["laws", "--instance", "word", "--seed", "0", "--cases", "4"], 0),
    ("wordcheck_omega_sum_b5.json",
     ["wordcheck", "--identity", "omega-sum", "--cases", "1", "--bound", "5"], 0),
    ("wordcheck_group_c2.json", ["wordcheck", "--identity", "group-C2", "--cases", "1"], 0),
    # non-integral rationals through the CLI: mixed8.json is gen.mixed(8, random.Random(5))
    ("reach_mixed8_5_2.json", ["reach", str(GOLDEN / "mixed8.json"), "--energy", "5/2", "--verify"], 0),
    ("buchi_mixed8_5_2.json", ["buchi", str(GOLDEN / "mixed8.json"), "--energy", "5/2", "--verify"], 1),
    ("eval_mixed_5_2.json", ["eval", str(GOLDEN / "mixed.json"), "--energy", "5/2"], 0),
]


# Registry used by test_acceptance.py so every criterion gets its own
# pass/fail line in the terminal summary.
CRITERIA = {}


def record_criterion(num, title):
    def decorator(test):
        @functools.wraps(test)
        def wrapper(*args, **kwargs):
            try:
                result = test(*args, **kwargs)
            except BaseException:
                CRITERIA[num] = (title, False)
                raise
            CRITERIA[num] = (title, True)
            return result

        return wrapper

    return decorator


def pytest_terminal_summary(terminalreporter):
    if not CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(CRITERIA):
        title, ok = CRITERIA[num]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {status} - {title}")
