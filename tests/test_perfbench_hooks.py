"""The benchmark's tracer hooks still name attributes of the package.

`perfbench/tracing.py` replaces package functions by module and
attribute name; if one of them disappears, `perfbench/run.py --trace 1`
fails.  This imports the tracer by path, without changing it, and checks
every name it hooks.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_exist(monkeypatch):
    hooks = [(module, attr) for module, attr, _layer in load_tracing(monkeypatch).LAYERS]
    hooks += [("measures", "_d1_objective"), ("measures", "minimize")]
    missing = [f"{module}.{attr}" for module, attr in hooks
               if not hasattr(importlib.import_module(f"discordlab.{module}"), attr)]
    assert not missing
