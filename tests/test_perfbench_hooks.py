"""The names the benchmark's tracer patches must exist in the package.

``perfbench/traced_cli.py`` replaces every function listed in
``perfbench/layers.LAYERS`` at its module attribute and reads the
``cache_info()`` of two word-model caches.  A rename in ``src/`` would
otherwise only show when ``perfbench/run.py --trace 1`` fails.
"""

import importlib
import json
import subprocess
import sys
from array import array

from conftest import ROOT, perfbench, subprocess_env


def _layers():
    return perfbench("layers").LAYERS


def test_traced_layers_exist():
    for short, attrs in _layers().items():
        module = importlib.import_module(f"energyomega.{short}")
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"{short}.{attr}"


def test_word_caches_report_stats():
    from energyomega import wordmodel

    for fn in (wordmodel._dfa, wordmodel._buchi_for_pair):
        info = fn.cache_info()
        assert info.hits >= 0 and info.misses >= 0


def _traced(tmp_path, *argv):
    """Run one CLI command under ``perfbench/traced_cli.py``, which must
    exit 0; return its stdout and the names of the spans it recorded."""
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(spans), "q", "--", *argv],
        env=subprocess_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    names = json.loads(spans.read_text())["names"]
    quads = array("q", (tmp_path / "spans.json.bin").read_bytes())
    return proc.stdout, {names[i] for i in quads[::4]}


def test_traced_cli_runs_reach(tmp_path):
    """The tracer's ``install()`` and ``counters()`` also reach names that
    ``LAYERS`` does not list; one traced command exercises all of them."""
    golden = ROOT / "tests" / "golden"
    stdout, spans = _traced(tmp_path, "reach", str(golden / "pump.json"), "--energy", "0",
                            "--verify", "--format", "json")
    assert stdout == (golden / "reach_pump_0.json").read_text()
    assert "energyauto.reach_value" in spans


def test_traced_cli_sees_the_group_check(tmp_path):
    """``word-omega``'s ``laws.check_group_identity`` metric counts only the
    calls made through the module attribute that the tracer replaces."""
    golden = ROOT / "tests" / "golden"
    stdout, spans = _traced(tmp_path, "wordcheck", "--identity", "group-C2", "--cases", "1",
                            "--format", "json")
    assert stdout == (golden / "wordcheck_group_c2.json").read_text()
    assert "laws.check_group_identity" in spans
