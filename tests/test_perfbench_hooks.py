"""The names the benchmark's tracer patches must exist in the package.

``perfbench/traced_cli.py`` replaces every function listed in
``perfbench/layers.LAYERS`` at its module attribute and reads the
``cache_info()`` of two word-model caches.  A rename in ``src/`` would
otherwise only show when ``perfbench/run.py --trace 1`` fails.
"""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
LAYERS_PY = ROOT / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


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


def test_traced_cli_runs_reach(tmp_path):
    """The tracer's ``install()`` and ``counters()`` also reach names that
    ``LAYERS`` does not list; one traced command exercises all of them."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    spans = tmp_path / "spans.json"
    golden = ROOT / "tests" / "golden"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(spans), "q", "--",
         "reach", str(golden / "pump.json"), "--energy", "0", "--verify", "--format", "json"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (golden / "reach_pump_0.json").read_text()
    assert "energyauto.reach_value" in json.loads(spans.read_text())["names"]
