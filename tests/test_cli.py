"""Tests for the command-line interface, including golden outputs."""

import atexit
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time

import pytest

import energyomega
from energyomega import cli, energyauto, energyfn, laws

from conftest import GOLDEN, GOLDEN_RUNS, subprocess_env

PUMP = str(GOLDEN / "pump.json")
DEC = str(GOLDEN / "dec.json")
PLUS2 = str(GOLDEN / "plus2.json")
# bottom below 1, slopes 3/2 then 2, top from 7 inclusive: its star is top
# above 3 (exclusive) and its omega value holds from 3 (inclusive)
MIXED = str(GOLDEN / "mixed.json")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# exit codes and text output


def test_reach_pump_yes(capsys):
    code, out, _ = run(capsys, "reach", PUMP, "--energy", "0")
    assert code == 0
    assert "reachable: yes" in out


def test_reach_no_for_bottom(capsys):
    code, out, _ = run(capsys, "reach", PUMP, "--energy", "bot")
    assert code == 1
    assert "reachable: no" in out


def test_buchi_pump_yes(capsys):
    code, out, _ = run(capsys, "buchi", PUMP, "--energy", "0", "--verify")
    assert code == 0
    assert "buchi: yes" in out


def test_buchi_decreasing_no(capsys):
    code, out, _ = run(capsys, "buchi", DEC, "--energy", "100")
    assert code == 1
    assert "buchi: no" in out


def test_eval_point(capsys):
    code, out, _ = run(capsys, "eval", PLUS2, "--energy", "3/2")
    assert code == 0
    assert "value: 7/2" in out


def test_missing_file_is_error(capsys):
    code, _, err = run(capsys, "reach", str(GOLDEN / "nope.json"), "--energy", "0")
    assert code == 2
    assert "error:" in err


def test_malformed_json_is_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "reach", str(bad), "--energy", "0")
    assert code == 2
    assert "invalid JSON" in err


@pytest.mark.parametrize("command", ["reach", "eval"])
def test_deeply_nested_json_is_error(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 10_000 + "]" * 10_000)
    code, out, err = run(capsys, command, str(deep), "--energy", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "deep.json" in err


def _write_automaton(tmp_path, states, edges=()):
    path = tmp_path / "aut.json"
    path.write_text(json.dumps(
        {"states": states, "initial": states[:1], "accepting": states[1:2], "edges": list(edges)}
    ))
    return str(path)


def test_reach_joins_parallel_edges(tmp_path, capsys):
    # a -> b by x - 1 (bottom below 1) and by x + 2: only the second is alive at 0
    fns = (energyfn.shift(-1), energyfn.shift(2))
    parallel = [{"from": "a", "to": "b", "fn": energyfn.to_json(fn)} for fn in fns]
    code, out, _ = run(capsys, "reach", _write_automaton(tmp_path, ["a", "b"], parallel),
                       "--energy", "0")
    assert code == 0
    assert out == "reachable: yes\nvalue: 2\n"


def test_state_count_limit(tmp_path, capsys):
    names = [f"q{i}" for i in range(energyauto.MAX_STATES + 1)]
    start = time.monotonic()
    code, out, err = run(capsys, "reach", _write_automaton(tmp_path, names), "--energy", "0")
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert out == ""
    assert "1025 states exceed the limit of 1024" in err
    code, out, _ = run(capsys, "reach", _write_automaton(tmp_path, names[:-1]), "--energy", "0")
    assert code == 1
    assert out == "reachable: no\nvalue: bot\n"


def test_bad_energy_is_error(capsys):
    code, _, err = run(capsys, "reach", PUMP, "--energy", "plenty")
    assert code == 2
    assert "error:" in err


def test_oversized_energy_literal_is_error(capsys):
    code, out, err = run(capsys, "eval", PLUS2, "--energy", "1e100000")
    assert code == 2
    assert out == ""
    assert "exponent" in err


def test_laws_suite_passes(capsys):
    code, out, _ = run(capsys, "laws", "--instance", "energy", "--seed", "0",
                       "--cases", "5")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines and all(doc["verdict"] == "Pass" for doc in lines)


def test_wordcheck_identity(capsys):
    code, out, _ = run(
        capsys, "wordcheck", "--identity", "conway-star", "--cases", "5"
    )
    assert code == 0
    assert "Pass" in out


def test_wordcheck_bounded_identity(capsys):
    code, out, _ = run(
        capsys, "wordcheck", "--identity", "omega-product",
        "--cases", "4", "--bound", "4", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Pass"
    assert doc["bound"] == 4


def test_wordcheck_unknown_identity(capsys):
    code, _, err = run(capsys, "wordcheck", "--identity", "nonsense")
    assert code == 2
    assert "unknown identity" in err


def test_wordcheck_empty_alphabet_is_error(capsys):
    code, out, err = run(capsys, "wordcheck", "--identity", "conway-star", "--alphabet", "")
    assert code == 2
    assert out == ""
    assert "alphabet" in err


def test_wordcheck_bound_over_lasso_budget_is_error(capsys):
    start = time.monotonic()
    code, out, err = run(capsys, "wordcheck", "--identity", "omega-sum", "--bound", "40")
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert out == ""
    assert "lassos" in err


@pytest.mark.parametrize("command", ["wordcheck --identity conway-star", "laws"])
def test_negative_cases_is_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main(command.split() + ["--cases", "-3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-negative" in captured.err


@pytest.mark.parametrize("identity", (*laws.IDENTITIES, "group-C2"))
@pytest.mark.parametrize("bound", ["0", "-2"])
def test_wordcheck_non_positive_bound_is_error(capsys, identity, bound):
    with pytest.raises(SystemExit) as exc:
        cli.main(["wordcheck", "--identity", identity, "--cases", "1", "--bound", bound])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least 1" in captured.err


def test_eval_string_flag_is_error(tmp_path, capsys):
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({
        "bottom": {"boundary": "0"},
        "pieces": [{"start": "0", "intercept": "0", "slope": "1"}],
        "top": {"boundary": "2", "top_at_boundary": "false"},
    }))
    code, out, err = run(capsys, "eval", str(path), "--energy", "2")
    assert code == 2
    assert out == ""
    assert "top_at_boundary" in err


def test_eval_boolean_literal_is_error(tmp_path, capsys):
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({
        "bottom": {"boundary": False},
        "pieces": [{"start": False, "intercept": True, "slope": True}],
        "top": None,
    }))
    code, out, err = run(capsys, "eval", str(path), "--energy", "3")
    assert code == 2
    assert out == ""
    assert "error:" in err


_FN = {"bottom": {"boundary": "inf"}}


def _one_edge(fn):
    return {"states": ["a", "b"], "initial": ["a"], "accepting": ["b"],
            "edges": [{"from": "a", "to": "b", "fn": fn}]}


def _piece(start, intercept="0"):
    return {"start": start, "intercept": intercept, "slope": "1"}


MALFORMED_AUTOMATA = {
    "list-edge-endpoint": {"states": ["a", "b"], "initial": ["a"], "accepting": ["b"],
                           "edges": [{"from": ["a"], "to": "b", "fn": _FN}]},
    "list-state-name": {"states": [["a"], "b"], "initial": ["b"], "accepting": ["b"],
                        "edges": []},
    "string-states": {"states": "ab", "initial": ["a"], "accepting": ["b"], "edges": []},
    "string-initial": {"states": ["a", "b"], "initial": "a", "accepting": ["b"], "edges": []},
    "dict-edges": {"states": ["a", "b"], "initial": ["a"], "accepting": ["b"], "edges": {}},
    "fn-string-bottom": _one_edge({"bottom": "0"}),
    "fn-dict-pieces": _one_edge({"bottom": {"boundary": "0"}, "pieces": {}}),
    "fn-piece-without-slope": _one_edge(
        {"bottom": {"boundary": "0"}, "pieces": [{"start": "0", "intercept": "0"}]}),
    "fn-number-top": _one_edge({"bottom": {"boundary": "0"}, "pieces": [_piece("0")], "top": 5}),
    "fn-negative-bottom": _one_edge({"bottom": {"boundary": "-1"}, "pieces": [_piece("-1")]}),
    "fn-first-piece-off-bottom": _one_edge({"bottom": {"boundary": "0"}, "pieces": [_piece("1")]}),
    "fn-top-inside-pieces": _one_edge({"bottom": {"boundary": "0"},
                                       "pieces": [_piece("0"), _piece("2", "2")],
                                       "top": {"boundary": "1"}}),
}


@pytest.mark.parametrize("name", MALFORMED_AUTOMATA)
def test_malformed_automaton_is_error(tmp_path, capsys, name):
    path = tmp_path / "aut.json"
    path.write_text(json.dumps(MALFORMED_AUTOMATA[name]))
    code, out, err = run(capsys, "reach", str(path), "--energy", "0")
    assert code == 2
    assert out == ""
    assert "error:" in err


# ----------------------------------------------------------------------
# golden outputs (bit-stable text and JSON)

TEXT_RUNS = [
    (["reach", PUMP, "--energy", "0", "--verify"], 0, "reachable: yes\nvalue: top\n"),
    (["buchi", PUMP, "--energy", "0", "--verify"], 0, "buchi: yes\nvalue: from >= 0\n"),
    (["buchi", DEC, "--energy", "0"], 1, "buchi: no\nvalue: never\n"),
    (["star", PLUS2], 0,
     'star: bot<0 top>=0\n{"bottom": {"boundary": "0", "bottom_at_boundary": false}, '
     '"pieces": [], "top": {"boundary": "0", "top_at_boundary": true}}\n'),
    (["omega", MIXED], 0,
     'omega: from >= 3\n{"tag": "from", "threshold": "3", "inclusive": true}\n'),
    (["wordcheck", "--identity", "omega-sum", "--cases", "1", "--bound", "5"], 0,
     "omega-sum: Pass up to bound 5 (1 cases)\n"),
]


@pytest.mark.parametrize("argv,code,text", TEXT_RUNS, ids=[
    "reach-pump", "buchi-pump", "buchi-dec", "star-plus2", "omega-mixed", "wordcheck-omega-sum"])
def test_text_output(capsys, argv, code, text):
    assert run(capsys, *argv) == (code, text, "")


@pytest.mark.parametrize("golden,argv,code", GOLDEN_RUNS, ids=[g for g, _, _ in GOLDEN_RUNS])
def test_golden_output(capsys, golden, argv, code):
    assert cli.main(argv + ["--format", "json"]) == code
    out = capsys.readouterr().out
    assert out == (GOLDEN / golden).read_text()


def test_package_root_exports_only_the_documented_names():
    submodules = ["energyauto", "energyfn", "extlat", "laws", "matrixkleene", "omegaval", "wordmodel"]
    names = ["automaton", "buchi", "finite", "reachable", "shift"]
    assert sorted(energyomega.__all__) == sorted(submodules + names)
    namespace = {}
    exec("from energyomega import *", namespace)
    assert all(name in namespace for name in energyomega.__all__)


def test_cli_import_leaves_laws_and_word_model_unloaded():
    """Queries start without the law suite and the word model, and eval,
    star and omega without dataclasses and the automaton layers; importing
    them from the package still works."""
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import energyomega.cli as cli\n"
        "print(sorted(m for m in ('energyomega.laws', 'energyomega.wordmodel') if m in sys.modules))\n"
        f"for argv in (['eval', {PLUS2!r}, '--energy', '3'], ['star', {PLUS2!r}], ['omega', {PLUS2!r}]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0\n"
        "heavy = ('dataclasses', 'energyomega.energyauto', 'energyomega.matrixkleene')\n"
        "print(sorted(set(heavy).intersection(sys.modules).difference(before)))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['reach', {PUMP!r}, '--energy', '0']) == 0\n"
        "print('energyomega.energyauto' in sys.modules)\n"
        "from energyomega import *\n"
        "print(laws is sys.modules['energyomega.laws'], wordmodel.__name__, reachable.__module__)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == ["[]", "[]", "True", "True energyomega.wordmodel energyomega.energyauto"]


def test_word_path_leaves_the_energy_layers_unloaded():
    """wordcheck and the word law suite start without the energy layers and
    fractions; the energy law suite then loads them in the same process."""
    code = (
        "import contextlib, io, sys\n"
        "import energyomega.cli as cli\n"
        "runs = [['wordcheck', '--identity', i, '--cases', '1']\n"
        "        for i in ('omega-sum', 'omega-product', 'conway-star', 'group-C2')]\n"
        "for argv in runs + [['laws', '--instance', 'word', '--cases', '1']]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "energy = ['energyomega.' + m for m in ('energyfn', 'extlat', 'omegaval', 'energyauto',\n"
        "                                      'energylaws')]\n"
        "print(sorted(set(energy + ['fractions']).intersection(sys.modules)))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['laws', '--instance', 'energy', '--cases', '1'])\n"
        "print(code, all(m in sys.modules for m in energy))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == ["[]", "0 True"]


@pytest.mark.parametrize("argv, loads_energylaws", [
    (["reach", PUMP, "--energy", "0", "--verify"], False),
    (["buchi", PUMP, "--energy", "0", "--verify"], False),
    (["wordcheck", "--identity", "group-C2", "--cases", "1"], False),
    (["laws", "--instance", "word", "--cases", "1"], False),
    (["laws", "--instance", "energy", "--cases", "1"], True),
])
def test_commands_define_one_dataclass_and_load_energylaws_only_for_energy_laws(argv, loads_energylaws):
    """StarAlgebra is the one dataclass in any loaded package module, and
    only the energy law suite loads the energy law checkers."""
    code = (
        "import contextlib, dataclasses, io, sys\n"
        "import energyomega.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
        "modules = [m for name, m in list(sys.modules.items()) if name.startswith('energyomega')]\n"
        "records = {c for m in modules for c in vars(m).values()\n"
        "           if isinstance(c, type) and dataclasses.is_dataclass(c)}\n"
        "print(sorted(c.__qualname__ for c in records), 'energyomega.energylaws' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["['StarAlgebra']", str(loads_energylaws)]


@pytest.mark.parametrize("argv", [
    ["reach", PUMP, "--energy", "0"],
    ["wordcheck", "--identity", "omega-sum", "--cases", "1"],
    ["reach", PUMP],
], ids=["reach", "wordcheck", "usage-error"])
def test_main_leaves_the_callers_collector_alone(argv):
    """main changes no process-wide state: an in-process caller keeps a
    collecting, unfrozen heap, and repeated calls add no atexit entry."""
    enabled = gc.isenabled()
    callbacks = atexit._ncallbacks()
    for _ in range(3):
        try:
            cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2
        assert gc.isenabled() == enabled and gc.get_freeze_count() == 0
        assert atexit._ncallbacks() == callbacks


def test_cli_import_registers_one_exit_hook():
    """Importing cli adds one atexit entry, and calls to main add none."""
    code = (
        "import atexit, contextlib, io\n"
        "before = atexit._ncallbacks()\n"
        "import energyomega.cli as cli\n"
        "loaded = atexit._ncallbacks()\n"
        f"for argv in (['reach', {PUMP!r}, '--energy', '0'], ['eval', {PLUS2!r}, '--energy', '3']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0\n"
        "print(loaded - before, atexit._ncallbacks() - loaded)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["1", "0"]


def test_exit_freezes_the_heap_before_the_shutdown_collections():
    """After main returns, the interpreter's first shutdown collection finds
    the heap frozen, so it scans none of the objects the command left."""
    code = (
        "import gc, os, sys\n"
        "import energyomega.cli as cli\n"
        f"code = cli.main(['reach', {PUMP!r}, '--energy', '0'])\n"
        "def report(phase, info, freeze=gc.get_freeze_count, write=os.write, fd=sys.stderr.fileno()):\n"
        "    if phase == 'start':\n"
        "        write(fd, b'frozen %d\\n' % freeze())\n"
        "gc.callbacks.append(report)\n"
        "sys.exit(code)"
    )
    run = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True)
    assert run.returncode == 0 and run.stdout.splitlines() == ["reachable: yes", "value: top"]
    frozen = [int(line.split()[1]) for line in run.stderr.splitlines() if line.startswith("frozen ")]
    assert frozen and frozen[-1] > 0, run.stderr


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    """In-process calls share the parser that the first call builds, and
    help still reads COLUMNS each time it is printed."""
    code = (
        "import argparse, contextlib, io\n"
        "import energyomega.cli as cli\n"
        "built, init = [], argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for _ in range(2):\n"
        f"        assert cli.main(['eval', {PLUS2!r}, '--energy', '3']) == 0\n"
        "print(built.count('energyomega'), len(built))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["1", str(1 + len(cli.COMMANDS))]
    widths = []
    for columns in ("40", "120", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            cli.main(["reach", "--help"])
        widths.append(max(map(len, capsys.readouterr().out.splitlines())))
    assert widths[0] == widths[2] < widths[1]


def test_help_text(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    out = ""
    for command in ("", "reach", "buchi", "star", "omega", "eval", "laws", "wordcheck"):
        with pytest.raises(SystemExit) as exc:
            cli.main(command.split() + ["--help"])
        assert exc.value.code == 0
        out += capsys.readouterr().out
    assert out.encode() == (GOLDEN / "help.txt").read_bytes()


@pytest.mark.parametrize("argv", [["reach", PUMP, "--energy", "0"], ["laws", "--cases", "1"]],
                         ids=["reach", "laws"])
def test_unwritable_stdout_is_error(argv):
    """A closed pipe as stdout: exit 2 with one error line, no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run([sys.executable, "-m", "energyomega.cli", *argv], env=subprocess_env(),
                             stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert run.returncode == 2
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts the entries of /proc/self/fd")
def test_failed_writes_leave_no_descriptor_open():
    """Each in-process call whose output cannot be written points stdout at
    /dev/null and keeps no descriptor of its own open."""
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(20):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as out, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            assert cli.main(["reach", PUMP, "--energy", "0"]) == 2
        assert err.getvalue().startswith("error: cannot write output:")
    assert len(os.listdir("/proc/self/fd")) == before
