"""The names the benchmark's tracer patches must exist in the package.

``perfbench/traced_cli.py`` replaces every function listed in
``perfbench/layers.LAYERS`` at its module attribute and reads the
``cache_info()`` of two word-model caches.  A rename in ``src/`` would
otherwise only show when ``perfbench/run.py --trace 1`` fails.
"""

import importlib
import importlib.util
import pathlib

LAYERS_PY = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


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
